"""Verification sweeps and the command line wrapper: report shapes,
determinism, exit codes."""

import json

import pytest

from etalab.catalog import default_catalog, load_catalog_group
from etalab.cli import run_cli
import etalab.cli as cli_mod
import etalab.table as table_mod
import etalab.verify as verify_mod
from etalab.charops import inner_product
from etalab.errors import GroupError, TableError
from etalab.groupfile import format_group, parse_group
from etalab.perm import Permutation, group_from_generators
from etalab.table import character_table
from etalab.verify import (
    VerificationReport,
    verify_corollary_a,
    verify_ledger,
    verify_prop5,
    verify_theorem_a,
    verify_theorem_b,
)


def _small(*ids):
    return [(gid, load_catalog_group(gid)) for gid in ids]


def test_theorem_a_report_shape():
    rep = verify_theorem_a(groups=_small("c2", "d8"))
    blob = rep.to_json_dict()
    assert blob["schema"] == 1
    assert blob["check"] == "theorem-a"
    assert blob["pass"] is True
    assert [r["group"] for r in blob["results"]] == ["c2", "d8"]
    for res in blob["results"]:
        assert set(res) >= {"group", "order", "p", "records", "pass"}
        for rec in res["records"]:
            assert rec["eta"] >= rec["bound"]


def test_theorem_b_records_degree_p_distribution():
    rep = verify_theorem_b(groups=_small("d8", "c4wrc2"))
    by_group = {r["group"]: r for r in rep.results}
    assert by_group["d8"]["eta_values_degree_p"] == [4]
    # the order-32 wreath group has degree-2 characters of both shapes
    assert by_group["c4wrc2"]["eta_values_degree_p"] == [3, 4]


def test_corollary_skips_pairs_without_linear_constituent():
    rep = verify_corollary_a(groups=_small("es27"))
    recs = rep.results[0]["records"]
    skipped = [r for r in recs if not r["qualifies"]]
    assert skipped and all(r["pass"] for r in skipped)
    assert {r["eta"] for r in skipped} == {1}
    qualifying = [r for r in recs if r["qualifies"]]
    assert all(r["eta"] >= r["bound"] for r in qualifying)


def test_ledger_report_fields():
    rep = verify_ledger(groups=_small("d8"))
    rec = next(r for r in rep.results[0]["records"] if r["degree"] == 2)
    assert rec["m"] == [0, 0, 1, 2]
    assert rec["cases"] == ["none", "none", "extension", "induced"]
    assert rec["coverage"] is True
    assert rec["disjoint"] is True


def test_ledger_never_rebases_down(monkeypatch):
    # the sweep pairs restrictions at the parent's conductor
    import sys

    from etalab import cyclotomic

    def refuse(x, e, f):
        raise AssertionError(f"down {e}->{f}")

    kernel = cyclotomic.down
    patched = [
        name
        for name, mod in list(sys.modules.items())
        if name.startswith("etalab") and getattr(mod, "down", None) is kernel
    ]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "down", refuse)
    assert {"etalab.cyclotomic", "etalab.charops"} <= set(patched)
    rep = verify_ledger(groups=_small("d8", "q16", "c4wrc2", "es27", "c3wrc3", "c25"))
    assert rep.passed


def test_ledger_records_an_error_in_the_constituent_bookkeeping(monkeypatch, capsys):
    # a failure in one chi's bookkeeping is that chi's failing record; the
    # sweep goes on to the others
    extras = verify_mod._ledger_record

    def failing_on_degree_two(G, chi, chain, ledger):
        if chi.degree == 2:
            raise TableError("injected bookkeeping failure")
        return extras(G, chi, chain, ledger)

    monkeypatch.setattr(verify_mod, "_ledger_record", failing_on_degree_two)
    rep = verify_ledger(groups=_small("d8"))
    assert not rep.passed
    records = rep.results[0]["records"]
    assert [r["pass"] for r in records] == [True, True, True, True, False]
    assert records[4]["error"] == "injected bookkeeping failure"
    assert records[4]["counterexample"]["chi"] == 4
    assert run_cli(["verify", "ledger", "--max-order", "8"]) == 1
    assert "injected bookkeeping failure" in capsys.readouterr().out


def test_cold_ledger_restricts_no_table_by_pairing(monkeypatch):
    # fresh catalog groups and a fresh memo, so that every branching matrix is built
    import sys

    import etalab.catalog as catalog_mod
    from etalab import charops

    monkeypatch.setattr(catalog_mod, "_GROUP_MEMO", {})
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    pairing_restriction = charops.restriction_multiplicities
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return pairing_restriction(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("etalab") and getattr(mod, "restriction_multiplicities", None) is pairing_restriction:
            monkeypatch.setattr(mod, "restriction_multiplicities", counted)
    assert verify_ledger(max_order=64).passed
    assert calls == []


def test_cold_ledger_finds_the_orbits_of_each_series_link_once(monkeypatch):
    # the seeding of <N, g> and the branching matrix of <N, g> over N read
    # the same orbits of g on N's table: 55 links, each searched once
    import etalab.catalog as catalog_mod

    monkeypatch.setattr(catalog_mod, "_GROUP_MEMO", {})
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    searched = []
    row_images = table_mod.CharTable._row_images

    def counted(self, act):
        searched.append(self)
        return row_images(self, act)

    monkeypatch.setattr(table_mod.CharTable, "_row_images", counted)
    assert verify_ledger().passed
    assert len(searched) == 55


def test_cold_ledger_does_no_permutation_arithmetic(monkeypatch):
    # fresh catalog groups and a fresh memo, so that every chief series,
    # class set and table is built: all of it runs on gathers over the
    # groups' element keys, with no Permutation product, inverse or power,
    # and no chief-series member reads its elements off its keys
    import etalab.catalog as catalog_mod

    monkeypatch.setattr(catalog_mod, "_GROUP_MEMO", {})
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    calls = []
    for name in ("__mul__", "inverse", "__pow__"):
        method = getattr(Permutation, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            calls.append(_name)
            return _method(*args, **kwargs)

        monkeypatch.setattr(Permutation, name, counted)
    assert verify_ledger(max_order=64).passed
    assert calls == []
    groups = [G for G in catalog_mod._GROUP_MEMO.values() if G.order <= 64]
    assert groups
    for G in groups:
        assert all(N._elements is None for N in G.chief_series()), G.order


def test_ledger_pairs_once_per_step_and_character(monkeypatch):
    # one branching matrix per chief-series step, and per character only
    # the decomposition of chi * conj(chi); warm tables make it fewer
    import sys

    from etalab import cyclotomic

    kernel = cyclotomic.pairing
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    patched = [
        name
        for name, mod in list(sys.modules.items())
        if name.startswith("etalab") and getattr(mod, "pairing", None) is kernel
    ]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "pairing", counted)
    assert {"etalab.cyclotomic", "etalab.table", "etalab.charops"} <= set(patched)
    selection = [G for _, G in default_catalog() if G.order <= 64]
    steps = sum(len(G.chief_series()) - 1 for G in selection)
    characters = sum(len(character_table(G)) for G in selection)
    chi = character_table(selection[0])[0]
    inner_product(chi, chi)
    assert len(calls) == 1
    calls.clear()
    assert verify_ledger(max_order=64).passed
    assert len(calls) <= steps + characters


def _patch_everywhere(monkeypatch, name, replacement, original):
    """Rebind name in every etalab module that imported original."""
    import sys

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("etalab") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def test_sweeps_neither_multiply_nor_decompose_characters(monkeypatch):
    # theorems A and B, corollary A and the ledger decompose each table's
    # products in batched pairings that take the factors
    from etalab import charops
    from etalab.chars import Character

    calls = []
    decompose, multiply = charops.decompose, Character.__mul__

    def counted_decompose(*args):
        calls.append("decompose")
        return decompose(*args)

    def counted_multiply(*args):
        calls.append("__mul__")
        return multiply(*args)

    _patch_everywhere(monkeypatch, "decompose", counted_decompose, decompose)
    monkeypatch.setattr(Character, "__mul__", counted_multiply)
    assert verify_theorem_a().passed
    assert verify_theorem_b().passed
    assert verify_corollary_a().passed
    assert verify_ledger(max_order=64).passed
    assert calls == []


def test_sweep_records_on_the_groups_of_order_one_and_two():
    # conductors 1 and 2, where phi = 1 and the evaluation is at one embedding
    from etalab.constructions import cyclic

    groups = [("c1", cyclic(1)), ("c2", cyclic(2))]
    linear = {"degree": 1, "eta": 1}
    a = {**linear, "n": 0, "bound": 1, "pass": True}
    assert [g["records"] for g in verify_theorem_a(groups=groups).results] == [
        [{"chi": 0, **a}],
        [{"chi": 0, **a}, {"chi": 1, **a}],
    ]
    b = {**linear, "case": "linear", "pass": True}
    report = verify_theorem_b(groups=groups)
    assert [g["records"] for g in report.results] == [
        [{"chi": 0, **b}],
        [{"chi": 0, **b}, {"chi": 1, **b}],
    ]
    assert [g["eta_values_degree_p"] for g in report.results] == [[], []]
    pairs = [[(0, 0)], [(0, 0), (0, 1), (1, 0), (1, 1)]]
    assert [g["records"] for g in verify_corollary_a(groups=groups).results] == [
        [{"chi": i, "psi": j, "qualifies": True, "eta": 1, "bound": 1, "pass": True} for i, j in group]
        for group in pairs
    ]
    ledger = [
        {"m": [0] * t, "r": [0] * t, "s": [0] * t, "cases": ["none"] * t,
         "coverage": True, "disjoint": True, "pass": True}
        for t in (1, 2)
    ]
    report = verify_ledger(groups=groups)
    assert [g["records"] for g in report.results] == [
        [{"chi": 0, "degree": 1, **ledger[0]}],
        [{"chi": 0, "degree": 1, **ledger[1]}, {"chi": 1, "degree": 1, **ledger[1]}],
    ]
    assert [(g["order"], g["p"]) for g in report.results] == [(1, 1), (2, 2)]


def test_cold_branching_lookup_computes_no_class_action(monkeypatch):
    # d8 and d16 are the catalog groups whose first generator outside the
    # series member below differs from the element that seeded their table;
    # the lookup must use the seeding element's held class action
    import etalab.catalog as catalog_mod
    from etalab import charops

    monkeypatch.setattr(catalog_mod, "_GROUP_MEMO", {})
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    inside, computed = [], []
    lookup, action = charops.branching_matrix, table_mod._class_action

    def branching(N, M):
        inside.append(N.order)
        try:
            return lookup(N, M)
        finally:
            inside.pop()

    def counted(N, g):
        if inside and g.images not in N._class_actions:
            computed.append(N.order)
        return action(N, g)

    _patch_everywhere(monkeypatch, "branching_matrix", branching, lookup)
    monkeypatch.setattr(table_mod, "_class_action", counted)
    assert verify_ledger(groups=_small("d8", "d16")).passed
    assert computed == []


def test_ledger_seeds_every_chief_series_table(monkeypatch):
    # fresh copies and a fresh memo, so that the sweep computes every table
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    groups = [(gid, parse_group(format_group(G))) for gid, G in _small("d16", "c3wrc3")]
    seeded = []
    seed = table_mod._seed_spaces

    def recorded_seed(G, *args):
        spaces = seed(G, *args)
        seeded.append((G.order, spaces is not None))
        return spaces

    monkeypatch.setattr(table_mod, "_seed_spaces", recorded_seed)
    assert verify_ledger(groups=groups).passed
    # each series table is computed once, bottom-up; all but the trivial
    # group's are seeded from the one below
    assert seeded == [(N.order, N.order > 1) for _, G in groups for N in G.chief_series()]


def test_prop5_report():
    rep = verify_prop5(pairs=((2, 1), (3, 1)))
    etas = [res["records"][0]["eta"] for res in rep.results]
    assert etas == [3, 5]
    assert rep.passed


def test_verify_rejects_non_p_group():
    s3 = group_from_generators(3, [
        Permutation.from_cycles(3, [(0, 1)]),
        Permutation.from_cycles(3, [(0, 1, 2)]),
    ])
    with pytest.raises(GroupError):
        verify_theorem_a(groups=[("s3", s3)])


def test_report_determinism_modulo_elapsed():
    a = verify_theorem_b(groups=_small("d8", "q8", "es27")).to_json_dict()
    b = verify_theorem_b(groups=_small("d8", "q8", "es27")).to_json_dict()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_cli_verify_writes_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "theorem-b", "--max-order", "16", "--json", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["schema"] == 1 and blob["pass"] is True
    assert all(r["order"] <= 16 for r in blob["results"])
    text = capsys.readouterr().out
    assert "overall: PASS" in text


def test_cli_table_eta_chain(tmp_path, capsys):
    grp = tmp_path / "d8.grp"
    assert run_cli(["build", "dihedral", "4", "-o", str(grp)]) == 0
    assert run_cli(["table", str(grp), "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "order 8" in out
    assert run_cli(["eta", str(grp), "--chi", "4"]) == 0
    out = capsys.readouterr().out
    assert "= 4" in out
    assert run_cli(["eta", str(grp), "--chi", "4", "--psi", "0"]) == 0
    assert run_cli(["chain", str(grp), "--chi", "4", "--all-chains"]) == 0
    out = capsys.readouterr().out
    assert "m_t = 2" in out
    assert "all valid chains: 2" in out


def test_cli_build_witness_sidecar(tmp_path):
    out = tmp_path / "w21.grp"
    assert run_cli(["build", "witness", "2", "1", "-o", str(out)]) == 0
    sidecar = json.loads((tmp_path / "w21.grp.json").read_text())
    assert sidecar["schema"] == 1
    assert sidecar["p"] == 2 and sidecar["n"] == 1
    assert sidecar["order"] == 32
    assert run_cli(["eta", str(out), "--chi", str(sidecar["chi_index"])]) == 0


def test_cli_build_to_stdout(capsys):
    assert run_cli(["build", "quaternion"]) == 0
    out = capsys.readouterr().out
    assert "degree" in out and "gen " in out


def test_cli_usage_errors(tmp_path, capsys):
    grp = tmp_path / "es81.grp"
    # order-81 group for the all-chains cap
    from etalab.groupfile import save_group

    save_group(load_catalog_group("c3wrc3"), grp)
    small = tmp_path / "d8.grp"
    assert run_cli(["build", "dihedral", "4", "-o", str(small)]) == 0
    capsys.readouterr()
    assert run_cli(["nosuchcommand"]) == 2
    assert run_cli(["verify", "nosuchcheck"]) == 2
    assert run_cli(["verify", "theorem-a", "--catalog", "other"]) == 2
    assert run_cli(["eta", str(small), "--chi", "99"]) == 2
    assert run_cli(["chain", str(grp), "--chi", "0", "--all-chains"]) == 2
    assert run_cli(["build", "witness", "2", "1"]) == 2
    assert run_cli(["build", "cyclic", "x"]) == 2
    assert run_cli(["build", "nosuchkind"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("cap", ["-5", "0", "1"])
def test_cli_verify_rejects_a_cap_that_selects_no_group(capsys, cap):
    # the smallest catalog group has order 2: an empty sweep would pass vacuously
    assert run_cli(["verify", "theorem-a", "--max-order", cap]) == 2
    captured = capsys.readouterr()
    assert "overall" not in captured.out
    assert f"--max-order {cap} selects no catalog group" in captured.err


def test_cli_prop5_rejects_max_order(capsys):
    # the prop5 witnesses are fixed (one has order 81): a cap cannot apply
    assert run_cli(["verify", "prop5", "--max-order", "8"]) == 2
    captured = capsys.readouterr()
    assert "overall" not in captured.out
    assert "--max-order does not apply to prop5" in captured.err


def test_cli_computation_errors(tmp_path, capsys):
    missing = tmp_path / "missing.grp"
    assert run_cli(["table", str(missing)]) == 3
    bad = tmp_path / "bad.grp"
    bad.write_text("degree 4\ngen (1,2\n")
    assert run_cli(["table", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "error" in err


def test_cli_rejects_non_utf8_group_file(tmp_path, capsys):
    latin1 = tmp_path / "latin1.grp"
    latin1.write_bytes("# caf\xe9\ndegree 4\ngen (1,2)\n".encode("latin-1"))
    assert run_cli(["table", str(latin1)]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_cli_rejects_degree_past_the_order_cap(tmp_path, capsys):
    # refused while parsing, before a permutation of that degree is built
    huge = tmp_path / "huge.grp"
    huge.write_text("degree 99999999999999999999\n")
    assert run_cli(["table", str(huge)]) == 3
    assert "line 1: degree must lie in 1.." in capsys.readouterr().err


def test_cli_violation_exit_code(monkeypatch, capsys):
    # plumbing check: a failing report must surface as exit 1 with its
    # counterexample serialized
    def failing():
        rep = VerificationReport(check="prop5")
        G = load_catalog_group("c2")
        rep.add_group_result(
            "c2", G,
            [{"pass": False, "counterexample": {"group_file": "degree 2", "chi": 0}}],
        )
        return rep

    monkeypatch.setitem(cli_mod.VERIFY_CHECKS, "prop5", failing)
    assert run_cli(["verify", "prop5"]) == 1
    out = capsys.readouterr().out
    assert "counterexamples:" in out
    assert "group_file" in out
