"""scripts/digests.py: table digests and the compare mode that names the
first entry that differs."""

import importlib.util
import json
from pathlib import Path

from etalab.catalog import load_catalog_group

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "digests.py"


def _script():
    spec = importlib.util.spec_from_file_location("digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_names_the_first_changed_table(tmp_path, capsys):
    digests = _script()
    groups = [(gid, load_catalog_group(gid)) for gid in ("c4", "d8")]
    want = digests.table_digests(groups)
    # each table and each chief-series member, at two primes
    keys = [k for k in want if k.startswith("d8 ")]
    assert len(keys) == 2 * (1 + len(groups[1][1].chief_series()))
    assert digests.table_digests(groups) == want
    changed = dict(want)
    changed[keys[1]] = "0" * 64
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(want))
    b.write_text(json.dumps(changed))
    assert digests.main(["--compare", str(a), str(a)]) == 0
    assert digests.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"differs: {keys[1]}"
    del changed[keys[1]]
    b.write_text(json.dumps(changed))
    assert digests.main(["--compare", str(b), str(a)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"differs: {keys[1]}"
