"""Verification sweeps and the command line wrapper: report shapes,
determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import etalab
from etalab.catalog import default_catalog, load_catalog_group
from etalab.cli import run_cli
import etalab.cli as cli_mod
import etalab.table as table_mod
import etalab.verify as verify_mod
from etalab.charops import inner_product
from etalab.constructions import prop5_witness
from etalab.errors import GroupError, TableError
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


def _per_chi_corollary_records(G):
    """Corollary A's records on G from one pairing per chi of chi * psi over
    every psi, as the sweep used to pair them, with each bound from chi(1)."""
    table = character_table(G)
    p = G.p_group_info().p
    linear = np.array(table.degrees) == 1
    records = []
    for i, degree in enumerate(table.degrees):
        n = next(k for k in range(degree.bit_length()) if p**k == degree)
        bound = 2 * n * (p - 1) + 1
        rows = np.arange(len(table))
        mults = table._multiplicity_rows(np.stack([np.full_like(rows, i), rows]))
        for j, row in enumerate(mults):
            eta, qualifies = int(np.count_nonzero(row)), bool(row[linear].any())
            rec = {"chi": i, "psi": j, "qualifies": qualifies, "eta": eta}
            if qualifies:
                rec["bound"] = bound
            rec["pass"] = not qualifies or eta >= bound
            records.append(rec)
    return records


@pytest.fixture(scope="module")
def whole_catalog_corollary():
    return verify_corollary_a(max_order=None)


def test_corollary_records_equal_the_per_chi_pairing(whole_catalog_corollary, monkeypatch):
    catalog = default_catalog()
    assert [entry["group"] for entry in whole_catalog_corollary.results] == [g for g, _ in catalog]
    for (gid, G), entry in zip(catalog, whole_catalog_corollary.results):
        expected = _per_chi_corollary_records(G)
        assert entry["records"] == expected, gid
        # again in chunks of a quarter row of products, at least 3, so that
        # chunks end inside the rows of pairs
        table = character_table(G)
        rows = max(3, len(table) // 4)
        monkeypatch.setattr(verify_mod, "_LIFT_ENTRIES", rows * table.cube[0].size)
        [entry] = verify_corollary_a(groups=[(gid, G)], max_order=None).results
        assert entry["records"] == expected, gid


def test_corollary_pairs_each_unordered_pair_once_in_bounded_chunks(monkeypatch):
    # w22 has r = 119 characters: r (r + 1) / 2 products, none held twice,
    # and no r^2-row block of factors: a chunk's factors, row by row of the
    # cube, hold at most _LIFT_ENTRIES coefficients
    calls = []
    real = table_mod.CharTable._multiplicity_rows

    def spy(table, x):
        assert x.shape[0] == 2
        calls.append(x.shape[1] * table.cube[0].size)
        return real(table, x)

    monkeypatch.setattr(table_mod.CharTable, "_multiplicity_rows", spy)
    assert verify_corollary_a(groups=_small("w22"), max_order=None).passed
    table = character_table(load_catalog_group("w22"))
    assert sum(calls) == 119 * 120 // 2 * table.cube[0].size
    assert max(calls) <= verify_mod._LIFT_ENTRIES
    assert len(calls) < 119


def test_corollary_holds_over_the_whole_catalog(whole_catalog_corollary):
    report = whole_catalog_corollary
    assert report.passed
    assert sum(len(entry["records"]) for entry in report.results) == 16000
    [entry] = [entry for entry in report.results if entry["group"] == "w22"]
    qualifying = [rec for rec in entry["records"] if rec["qualifies"]]
    # p = 2: bound 2n + 1, so n >= 2 is a bound of 5 or more
    assert len(qualifying) == 949
    assert sum(rec["bound"] >= 5 for rec in qualifying) == 517
    assert max(rec["bound"] for rec in qualifying) == 7
    assert min(rec["eta"] - rec["bound"] for rec in qualifying) == 0


def test_cli_corollary_past_order_64_matches_the_sweep(whole_catalog_corollary, tmp_path, capsys):
    out = tmp_path / "corollary.json"
    assert run_cli(["verify", "corollary-a", "--max-order", "2048", "--json", str(out)]) == 0
    blob = json.loads(out.read_text())
    expected = whole_catalog_corollary.to_json_dict()
    blob.pop("elapsed_ms")
    expected.pop("elapsed_ms")
    assert blob == expected
    assert "overall: PASS" in capsys.readouterr().out


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
    # the branching of each chief-series member over the member below reads
    # the orbits of one element outside it on the lower table: the catalog's
    # series have 60 such steps, 55 of them distinct as pairs of element
    # sets (branchings are kept on tables shared by equal-content groups),
    # and each distinct step's orbits are searched once
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


def test_a_capped_sweep_loads_only_the_groups_it_checks(monkeypatch):
    # a fresh catalog memo: a sweep to order 8 parses no larger group
    import etalab.catalog as catalog_mod

    monkeypatch.setattr(catalog_mod, "_GROUP_MEMO", {})
    report = verify_theorem_a(max_order=8)
    assert report.passed
    small = {entry["id"] for entry in catalog_mod.catalog_index() if entry["order"] <= 8}
    assert set(catalog_mod._GROUP_MEMO) == small == {g["group"] for g in report.results}


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


def test_counterexamples_list_the_decomposition_of_their_product(monkeypatch):
    # every record made to fail, so each carries its counterexample
    judged = verify_mod._judged
    monkeypatch.setattr(verify_mod, "_judged", lambda rec, ok, make: judged(rec, False, make))
    from etalab.charops import decompose

    def expected(table, product):
        return [[table.index_of(c), m] for c, m in decompose(product).constituents]

    groups = _small("d8", "es27")
    reports = [verify_theorem_a(groups=groups), verify_theorem_b(groups=groups)]
    for report in reports:
        for (_, G), entry in zip(groups, report.results):
            table = character_table(G)
            for rec in entry["records"]:
                chi = table[rec["counterexample"]["chi"]]
                payload = rec["counterexample"]["decomposition"]
                assert payload == expected(table, chi * chi.conjugate()), rec
    for (_, G), entry in zip(groups, verify_corollary_a(groups=groups).results):
        table = character_table(G)
        for rec in entry["records"]:
            chi, psi = (table[rec["counterexample"][k]] for k in ("chi", "psi"))
            assert rec["counterexample"]["decomposition"] == expected(table, chi * psi), rec
    for entry in verify_prop5(pairs=((2, 1), (3, 1))).results:
        [rec] = entry["records"]
        witness = prop5_witness(entry["p"], rec["n"])
        table = character_table(witness.group)
        product = witness.chi * witness.chi.conjugate()
        assert rec["counterexample"]["decomposition"] == expected(table, product), rec


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
    # each step of d8's and d16's chief series computes the class action
    # of its group's first generator outside the member below on that
    # member at most once
    import etalab.catalog as catalog_mod
    from etalab import charops

    monkeypatch.setattr(catalog_mod, "_GROUP_MEMO", {})
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    inside, computed = [], []
    lookup, action = charops._branching, table_mod._class_action

    def branching(N, M):
        inside.append(N)
        try:
            return lookup(N, M)
        finally:
            inside.pop()

    def counted(M, g):
        if inside and g.images not in M._class_actions:
            computed.append((inside[-1].content_key, M.content_key))
        return action(M, g)

    _patch_everywhere(monkeypatch, "_branching", branching, lookup)
    monkeypatch.setattr(table_mod, "_class_action", counted)
    assert verify_ledger(groups=_small("d8", "d16")).passed
    assert computed and len(set(computed)) == len(computed)


def test_cold_ledger_holds_only_one_step_index_vectors(monkeypatch):
    # each chief-series table keeps the step down to the member below it as
    # (head, first) index vectors, and no dense branching or restriction
    # matrix under any key
    import etalab.catalog as catalog_mod

    monkeypatch.setattr(catalog_mod, "_GROUP_MEMO", {})
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    assert verify_ledger(max_order=64).passed
    groups = [G for G in catalog_mod._GROUP_MEMO.values() if G.order <= 64]
    assert groups
    for G in groups:
        series = G.chief_series()
        for i, N in enumerate(series):
            held = character_table(N)._branching
            below = {series[i - 1].content_key} if i else set()
            assert set(held) <= below, (G.order, N.order)
            for value in held.values():
                assert len(value) == 2
                assert all(isinstance(v, np.ndarray) and v.ndim == 1 for v in value)


@pytest.mark.slow
def test_witness_ledger_passes_every_record():
    # the order-15625 sharpness witness for p = 5: one chain ledger record
    # per irreducible character, 649 of them
    rep = verify_ledger(groups=[("prop5_witness(5, 1)", prop5_witness(5, 1).group)])
    records = rep.results[0]["records"]
    assert len(records) == 649
    assert all(rec["pass"] for rec in records) and rep.passed


def test_prop5_report():
    rep = verify_prop5(pairs=((2, 1), (3, 1)))
    etas = [res["records"][0]["eta"] for res in rep.results]
    assert etas == [3, 5]
    assert rep.passed


@pytest.mark.slow
def test_prop5_report_at_p3_n2():
    # the order-3^13 witness: chi(1) = 9 and eta = 2*2*(3-1)+1; the cold
    # table takes minutes and about a gigabyte
    rep = verify_prop5(pairs=((3, 2),))
    rec = rep.results[0]["records"][0]
    assert (rec["chi_degree"], rec["eta"], rec["expected"]) == (9, 9, 9)
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


def test_cli_table_recomputes_a_cache_entry_nested_past_the_recursion_limit(
    tmp_path, monkeypatch, capsys
):
    # a malformed entry is a cache miss, not a crash: exit 1 is for violations
    from etalab.groupfile import load_group

    grp = tmp_path / "d8.grp"
    assert run_cli(["build", "dihedral", "4", "-o", str(grp)]) == 0
    entry = tmp_path / "cache" / f"{load_group(grp).content_key}.json"
    entry.parent.mkdir()
    entry.write_text("[" * 100_000 + "]" * 100_000)
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    assert run_cli(["table", str(grp), "--cache-dir", str(entry.parent)]) == 0
    assert "order 8" in capsys.readouterr().out
    assert json.loads(entry.read_text())["order"] == 8


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


def test_cli_refuses_a_witness_past_the_order_cap(tmp_path, capsys):
    # refused before the recursion, not by a RecursionError's exit 1
    out = tmp_path / "x.grp"
    assert run_cli(["build", "witness", "2", "5000", "-o", str(out)]) == 3
    assert "etalab: error: group too large" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "args, code", [(["build", "extraspecial", "1000000000000000003"], 3), ([], 2)]
)
def test_both_module_entry_points_give_the_same_exit_code(args, code):
    # python -m etalab.cli runs the command too, not just the import, and
    # importing the package first does not make runpy warn about it
    src = str(Path(etalab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    runs = [
        subprocess.run(
            [sys.executable, "-m", module, *args],
            env=env, capture_output=True, text=True, timeout=60,
        )
        for module in ("etalab", "etalab.cli")
    ]
    assert [run.returncode for run in runs] == [code, code]
    assert all("RuntimeWarning" not in run.stderr for run in runs)


def test_a_cold_sweep_evaluates_each_cube_once_per_prime_and_embedding_set(monkeypatch):
    # theorems A and B, corollary A, prop5 and the orthogonality check pair
    # against the values kept on each table: in a fresh memo, a cube reaches
    # _values at most once per (prime, embedding set)
    import etalab.catalog as catalog_mod
    from etalab import cyclotomic

    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    monkeypatch.setattr(catalog_mod, "_GROUP_MEMO", {})
    evaluated, real = [], cyclotomic._values

    def counted(x, q, vand):
        evaluated.append((x, q, vand.tobytes()))
        return real(x, q, vand)

    monkeypatch.setattr(cyclotomic, "_values", counted)
    for sweep in (verify_theorem_a, verify_theorem_b, verify_corollary_a, verify_prop5):
        assert sweep().passed
    # a plain dict, the memo holds every table the sweeps made, prop5's too
    tables = list(table_mod._TABLE_MEMO.values())
    for table in tables:
        table.verify_orthogonality()
    cubes = [
        (id(x), q, vand) for x, q, vand in evaluated if any(x is table.cube for table in tables)
    ]
    assert len(cubes) >= len(tables) >= len(default_catalog())
    assert len(set(cubes)) == len(cubes)
