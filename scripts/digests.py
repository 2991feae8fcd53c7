"""SHA-256 digests of every table and report, to show that a change keeps
them byte for byte.

Run from the repository root:

    python3 scripts/digests.py OUT.json [--scale]
    python3 scripts/digests.py --compare A.json B.json

The first form writes one JSON object, key -> digest, of:
- to_json_dict() of every catalog group's table and of each member of its
  chief series, at prime_offset 0 and 1;
- the same for prop5_witness(5, 1), extraspecial_exp_p(3, 2) and
  wreath_cp(cyclic(9), 3), with their series;
- `etalab verify <check> --json` for every check, with elapsed_ms masked,
  and its exit code;
- with --scale, the cold prop5_witness(3, 2) table (about a minute and
  1 GB).
It digests the package of its own checkout.  The second form names the
first key, in A's order, whose digest differs or that one file lacks, and
exits 1; it exits 0 when the files agree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from etalab.catalog import default_catalog  # noqa: E402
from etalab.cli import VERIFY_CHECKS, run_cli  # noqa: E402
from etalab.constructions import cyclic, extraspecial_exp_p, prop5_witness, wreath_cp  # noqa: E402
from etalab.table import character_table  # noqa: E402


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table_digests(groups, offsets=(0, 1), series=True) -> dict[str, str]:
    """The digest of each (name, group)'s table and, with series, of each
    chief-series member's, at every prime offset given."""
    out = {}
    for name, G in groups:
        members = [(name, G)]
        if series:
            members += [
                (f"{name} series {i} order {N.order}", N) for i, N in enumerate(G.chief_series())
            ]
        for key, N in members:
            for offset in offsets:
                table = character_table(N, prime_offset=offset)
                out[f"{key} offset {offset}"] = _digest(table.to_json_dict())
    return out


def _masked(data):
    if isinstance(data, dict):
        return {k: 0 if k == "elapsed_ms" else _masked(v) for k, v in data.items()}
    if isinstance(data, list):
        return [_masked(v) for v in data]
    return data


def verify_digests() -> dict[str, str]:
    """The digest of each `etalab verify <check> --json` report, elapsed_ms
    masked, with the command's exit code."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for check in sorted(VERIFY_CHECKS):
            path = Path(tmp) / f"{check}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                code = run_cli(["verify", check, "--json", str(path)])
            report = json.loads(path.read_text(encoding="utf-8"))
            out[f"verify {check}"] = _digest({"exit": code, "report": _masked(report)})
    return out


def _timed(name: str, fn, *args):
    """fn(*args), with its wall time on stderr."""
    start = time.monotonic()
    out = fn(*args)
    print(f"{name}: {time.monotonic() - start:.1f} s", file=sys.stderr)
    return out


def all_digests(scale: bool = False) -> dict[str, str]:
    extras = [
        ("prop5_witness(5, 1)", prop5_witness(5, 1).group),
        ("extraspecial_exp_p(3, 2)", extraspecial_exp_p(3, 2)),
        ("wreath_cp(cyclic(9), 3)", wreath_cp(cyclic(9), 3)[0]),
    ]
    out = {}
    for name, G in default_catalog() + extras:
        out.update(_timed(name, table_digests, [(name, G)]))
    out.update(_timed("verify", verify_digests))
    if scale:
        witness = [("prop5_witness(3, 2)", prop5_witness(3, 2).group)]
        out.update(_timed("prop5_witness(3, 2)", table_digests, witness, (0,), False))
    return out


def first_difference(a: dict[str, str], b: dict[str, str]) -> str | None:
    """The first key, in a's order and then b's, whose digests differ or
    that one side lacks; None when the two agree."""
    for key in [*a, *(k for k in b if k not in a)]:
        if a.get(key) != b.get(key):
            return key
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="the JSON file of digests to write")
    parser.add_argument(
        "--scale", action="store_true", help="add the cold prop5_witness(3, 2) table"
    )
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digest files")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        key = first_difference(a, b)
        if key is not None:
            print(f"differs: {key}")
            return 1
        print(f"identical: {len(a)} digests")
        return 0
    if args.out is None:
        parser.error("give OUT, or --compare A B")
    digests = all_digests(args.scale)
    Path(args.out).write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
