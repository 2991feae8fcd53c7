"""Descent chains: conjugation action, stabilizers, Clifford
correspondents, ledger classification."""

import random

import numpy as np
import pytest

import etalab.table as table_mod
from etalab.catalog import default_catalog, load_catalog_group
from etalab.chars import Character
from etalab.charops import (
    _restrictions_along,
    branching_matrix,
    inner_product,
    induce,
    irr_mod,
    restrict,
    restriction_multiplicities,
)
from etalab.clifford import (
    CharacterChain,
    all_chains,
    build_chain,
    classify_chain,
    clifford_correspondent,
    conjugate_action,
    stabilizer,
)
from etalab.constructions import cyclic, dihedral, extraspecial_exp_p, wreath_cp
from etalab.errors import ChainError, CharacterError, EtalabError, GroupError, TableError
from etalab.groupfile import format_group, parse_group
from etalab.perm import Permutation, chief_series
from etalab.table import CharTable, character_table
from etalab.verify import verify_ledger

from oracles import (
    build_chain_per_character,
    class_action_orbit_sizes,
    classify_chain_per_character,
    elementwise_inner,
    ledger_records_per_character,
    restrictions_along_dense,
    stabilizer_elements,
)

# catalog groups small enough for the element-level stabilizer oracle
ORACLE_GROUPS = [gid for gid, G in default_catalog() if G.order <= 32 or gid == "es27"]
CATALOG_IDS = [gid for gid, _ in default_catalog()]


def test_conjugation_action_axiom():
    rng = random.Random(3)
    for gid in ("d8", "es27"):
        G = load_catalog_group(gid)
        N = chief_series(G)[-2]
        n_table = character_table(N)
        els = list(G.elements)
        for nu in list(n_table)[:3]:
            for _ in range(10):
                g = rng.choice(els)
                h = rng.choice(els)
                lhs = conjugate_action(nu, g * h, G)
                rhs = conjugate_action(conjugate_action(nu, g, G), h, G)
                assert lhs == rhs


def test_conjugation_by_subgroup_element_fixes_characters():
    G = load_catalog_group("es27")
    N = chief_series(G)[-2]
    n_table = character_table(N)
    for nu in n_table:
        for g in N.generators:
            assert conjugate_action(nu, g, G) == nu


def test_conjugation_preserves_degree_and_irreducibility():
    G = load_catalog_group("d8")
    N = chief_series(G)[-2]
    n_table = character_table(N)
    for nu in n_table:
        for g in G.generators:
            moved = conjugate_action(nu, g, G)
            assert moved.degree == nu.degree
            assert inner_product(moved, moved) == 1


def test_stabilizer_contains_subgroup_and_orbit_counts():
    for gid in ("d8", "es27", "m16"):
        G = load_catalog_group(gid)
        N = chief_series(G)[-2]
        n_table = character_table(N)
        for nu in n_table:
            stab = stabilizer(G, N, nu)
            assert N.is_subgroup_of(stab)
            assert G.order % stab.order == 0
            orbit_keys = {
                conjugate_action(nu, g, G).value_key() for g in G.elements
            }
            assert len(orbit_keys) * stab.order == G.order


@pytest.mark.parametrize("gid", ORACLE_GROUPS)
def test_stabilizer_matches_elementwise_oracle(gid):
    G = load_catalog_group(gid)
    for N in chief_series(G):
        for nu in character_table(N):
            expected = G.subgroup_from_elements(stabilizer_elements(G, N, nu))
            assert stabilizer(G, N, nu).same_elements(expected), gid


def test_stabilizer_does_no_permutation_arithmetic(monkeypatch):
    # transversals and Schreier generators are gathers over image rows;
    # Permutation objects are made only for the generators handed on
    G = load_catalog_group("w22")
    N = chief_series(G)[3]
    nus = list(character_table(N))
    calls = []
    for name in ("__mul__", "inverse", "__pow__"):
        method = getattr(Permutation, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            calls.append(_name)
            return _method(*args, **kwargs)

        monkeypatch.setattr(Permutation, name, counted)
    stabilizers = [stabilizer(G, N, nu) for nu in nus]
    assert calls == []
    monkeypatch.undo()
    assert any(stab.order < G.order for stab in stabilizers)
    for nu, stab in zip(nus, stabilizers):
        assert stab.same_elements(G.subgroup_from_elements(stabilizer_elements(G, N, nu)))
        assert list(stab.generators) == sorted(stab.generators)


@pytest.mark.parametrize("gid", ORACLE_GROUPS)
def test_ledger_stabilizer_orders_match_oracle(gid):
    G = load_catalog_group(gid)
    for chi in character_table(G):
        chain = build_chain(G, chi)
        ledger = classify_chain(chain)
        expected = [
            len(stabilizer_elements(G, N, nu)) for N, nu in zip(chain.series, chain.nus)
        ]
        assert list(ledger.stabilizer_orders) == expected, gid


@pytest.mark.parametrize("gid", CATALOG_IDS)
def test_ledger_stabilizer_orders_match_class_action_orbits(gid):
    # the ledger reads orbit lengths off restriction rows; the oracle
    # searches the orbits of G's generators on each member's table
    G = load_catalog_group(gid)
    series = chief_series(G)
    tables = [character_table(N) for N in series]
    sizes = [class_action_orbit_sizes(G, N, table) for N, table in zip(series, tables)]
    for chi in tables[-1]:
        chain = build_chain(G, chi)
        expected = [
            G.order // sizes[i][table.index_of(nu)]
            for i, (table, nu) in enumerate(zip(tables, chain.nus))
        ]
        assert list(classify_chain(chain).stabilizer_orders) == expected, gid


def test_classify_chain_rejects_broken_chain(d8, d8_table):
    chain = build_chain(d8, d8_table[4])
    nus = list(chain.nus)
    nus[1] = Character.principal(chain.series[1])
    broken = CharacterChain(group=d8, chi=chain.chi, series=chain.series, nus=tuple(nus))
    with pytest.raises(ChainError, match=r"\(group order 8, chain index [1-3]\)$"):
        classify_chain(broken)


def test_stabilizer_requires_normal_subgroup():
    G = load_catalog_group("d8")
    refl = next(
        g for g in G.elements
        if g.order() == 2 and not all((g * h) == (h * g) for h in G.generators)
    )
    H = G.subgroup([refl])
    nu = character_table(H)[0]
    with pytest.raises(GroupError):
        stabilizer(G, H, nu)


def test_stabilizer_rejects_a_character_of_another_group(d8, d8_table):
    # nu must be a character of N itself: a row of G's table, or of a smaller
    # member of the chief series, is not one
    _, two, four, _ = d8.chief_series()
    for nu in (d8_table[4], character_table(two)[1]):
        with pytest.raises(CharacterError, match="^characters on different groups$"):
            stabilizer(d8, four, nu)


def test_d8_chain_ledger_frozen(d8, d8_table):
    chi = d8_table[4]
    chain = build_chain(d8, chi)
    ledger = classify_chain(chain)
    assert [N.order for N in chain.series] == [1, 2, 4, 8]
    assert list(ledger.stable) == [True, True, False, False]
    assert list(ledger.case) == ["none", "none", "extension", "induced"]
    assert list(ledger.m) == [0, 0, 1, 2]
    assert list(ledger.r) == [0, 0, 1, 0]
    assert list(ledger.s) == [0, 0, 0, 1]
    assert list(ledger.stabilizer_orders) == [8, 8, 4, 8]
    assert list(ledger.unstable_indices) == [2, 3]


def test_chain_descent_consistency():
    for gid in ("q8", "es27", "c4wrc2"):
        G = load_catalog_group(gid)
        table = character_table(G)
        for chi in table:
            chain = build_chain(G, chi)
            assert chain.nus[-1] == chi
            assert chain.nus[0].degree == 1
            for i in range(1, len(chain.series)):
                down = restrict(chain.nus[i], chain.series[i - 1])
                assert inner_product(down, chain.nus[i - 1]) > 0
                # the first constituent in canonical table order
                first = next(
                    nu for nu in character_table(chain.series[i - 1])
                    if inner_product(down, nu) > 0
                )
                assert chain.nus[i - 1] == first


def test_chain_is_deterministic(es27, es27_table):
    chi = es27_table[9]
    a = build_chain(es27, chi)
    b = build_chain(es27, chi)
    assert all(x == y for x, y in zip(a.nus, b.nus))


def test_ledger_identity_across_catalog_small():
    for gid in ("c8", "d8", "q8", "m16", "d16", "q16", "es27", "c3xc3"):
        G = load_catalog_group(gid)
        p = G.p_group_info().p
        table = character_table(G)
        for chi in table:
            ledger = classify_chain(build_chain(G, chi))
            prev = 0
            for i in range(len(ledger.m)):
                assert ledger.m[i] == 2 * ledger.s[i] + ledger.r[i]
                if ledger.stable[i]:
                    assert ledger.case[i] == "none"
                    assert ledger.m[i] == prev
                else:
                    assert ledger.case[i] in ("extension", "induced")
                    assert ledger.m[i] == prev + 1
                prev = ledger.m[i]
            # chi itself is G-invariant, so the last row closes at m_t = 2n
            n = 0
            d = chi.degree
            while d > 1:
                d //= p
                n += 1
            assert ledger.m[-1] == len(ledger.unstable_indices)
            assert ledger.r[-1] == 0
            assert ledger.s[-1] == n
            assert ledger.m[-1] == 2 * n
            # linear characters never take an induced step
            if chi.degree == 1:
                assert all(c != "induced" for c in ledger.case)


def test_extension_and_induced_step_shapes(d8, d8_table):
    chain = build_chain(d8, d8_table[4])
    ledger = classify_chain(chain)
    # extension step keeps the degree, induced step multiplies it by p
    for i in ledger.unstable_indices:
        lower = chain.nus[i - 1].degree
        here = chain.nus[i].degree
        if ledger.case[i] == "extension":
            assert here == lower
        else:
            assert here == 2 * lower


def test_clifford_correspondent_round_trip(d8, d8_table):
    chi = d8_table[4]
    chain = build_chain(d8, chi)
    N = chain.series[2]
    nu = chain.nus[2]
    stab = stabilizer(d8, N, nu)
    corr = clifford_correspondent(chi, N, nu)
    assert corr.group.same_elements(stab)
    assert induce(corr, d8) == chi
    assert inner_product(restrict(corr, N), nu) > 0


def test_clifford_correspondent_rejects_non_constituent(d8, d8_table):
    chi = d8_table[4]
    N = chief_series(d8)[1]
    # the center acts by -1 on chi, so the principal character of the
    # center is not under chi
    principal = character_table(N)[0]
    with pytest.raises(CharacterError):
        clifford_correspondent(chi, N, principal)


REDUCIBLE = [
    "d8-nu-psi0-plus-psi1",
    "d8-nu-twice-psi1",
    "es27-nu-psi1-plus-psi2",
    "d8-chi-chi4-plus-chi0",
    "d8-chi-twice-chi4",
]


def _reducible_cases(d8, d8_table, es27, es27_table):
    """{label: (chi, N, nu)}, with chi or nu a sum of irreducibles."""
    N = d8.chief_series()[-2]
    psi = character_table(N)
    M = es27.chief_series()[1]
    xi = character_table(M)
    chi = d8_table[4]
    cases = [
        (chi, N, psi[0] + psi[1]),
        (chi, N, 2 * psi[1]),
        (es27_table[-1], M, xi[1] + xi[2]),
        (chi + d8_table[0], N, psi[1]),
        (2 * chi, N, psi[1]),
    ]
    return dict(zip(REDUCIBLE, cases))


@pytest.mark.parametrize("label", REDUCIBLE)
def test_clifford_correspondent_rejects_a_reducible_chi_or_nu(
    label, d8, d8_table, es27, es27_table
):
    chi, N, nu = _reducible_cases(d8, d8_table, es27, es27_table)[label]
    with pytest.raises(CharacterError, match="^not irreducible$"):
        clifford_correspondent(chi, N, nu)


def test_clifford_correspondent_rejects_a_nu_of_another_group(d8, d8_table, es27_table):
    N = d8.chief_series()[-2]
    with pytest.raises(CharacterError, match="^characters on different groups$"):
        clifford_correspondent(d8_table[4], N, es27_table[0])
    # a reducible nu of another group is still one of another group
    with pytest.raises(CharacterError, match="^characters on different groups$"):
        clifford_correspondent(d8_table[4], N, es27_table[0] + es27_table[1])


def test_build_chain_rejects_reducible():
    G = load_catalog_group("d8")
    table = character_table(G)
    with pytest.raises(CharacterError):
        build_chain(G, table[0] + table[1])


def test_all_chains_d8(d8, d8_table):
    chains = all_chains(d8, d8_table[4])
    assert len(chains) == 2
    for chain in chains:
        ledger = classify_chain(chain)
        assert list(ledger.m) == [0, 0, 1, 2]
    # principal character has exactly one chain
    assert len(all_chains(d8, d8_table[0])) == 1


def test_all_chains_verifies_every_branch_ledger():
    G = load_catalog_group("es27")
    table = character_table(G)
    chi = table[9]
    chains = all_chains(G, chi)
    assert len(chains) >= 1
    for chain in chains:
        ledger = classify_chain(chain)
        for i in range(len(ledger.m)):
            assert ledger.m[i] == 2 * ledger.s[i] + ledger.r[i]


def test_all_chains_order_cap():
    G = load_catalog_group("c3wrc3")
    chi = character_table(G)[0]
    with pytest.raises(ChainError):
        all_chains(G, chi)


@pytest.mark.parametrize("gid", [gid for gid, G in default_catalog() if G.order <= 32])
def test_branching_matrices_match_elementwise_oracle(gid):
    series = chief_series(load_catalog_group(gid))
    for N, M in zip(series[1:], series):
        m_table = character_table(M)
        expected = [
            [elementwise_inner(m_table, restrict(psi, M), nu) for nu in m_table]
            for psi in character_table(N)
        ]
        assert branching_matrix(N, M).tolist() == expected, gid


@pytest.mark.parametrize("p, n", [(5, 1), (7, 1), (3, 2)])
def test_branching_by_lookup_beyond_the_catalog(p, n):
    # g-orbits of length 5 and 7 occur in no catalog group; the pairing is the oracle
    G = extraspecial_exp_p(p, n)
    series = chief_series(G)
    for N, M in zip(series[1:], series):
        expected = restriction_multiplicities(list(character_table(N)), M)
        assert branching_matrix(N, M).tolist() == expected, (p, n, N.order)
    assert verify_ledger(groups=[(f"es{p}-{n}", G)]).passed


def test_branching_matrix_before_and_after_the_chief_series(monkeypatch):
    # a fresh memo, so that every matrix is built; a fresh D8 has no chief
    # series until one is computed, and it holds one of D8's three index-2
    # subgroups only
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    G = dihedral(4)
    r, s = G.generators
    halves = [G.subgroup([r]), G.subgroup([r * r, s]), G.subgroup([r * r, r * s])]
    assert G._series is None
    for computed_series in (False, True):
        if computed_series:
            assert sum(chief_series(G)[-2].same_elements(M) for M in halves) == 1
            for M in halves:
                character_table(G)._branching.pop(M.content_key)
        for M in halves:
            expected = restriction_multiplicities(list(character_table(G)), M)
            assert branching_matrix(G, M).tolist() == expected


def test_branching_lookup_rejects_a_corrupted_subgroup_table(d8, monkeypatch):
    # fresh copies and a fresh memo, so that no branching matrix is held yet
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    G = parse_group(format_group(d8))
    M = chief_series(G)[-2]
    good = character_table(M)
    character_table(G)
    cube = good.cube.copy()
    cube[0] *= -1
    M._char_table = CharTable(group=M, classes=good.classes, cube=cube, e=good.e, q=good.q)
    with pytest.raises(TableError, match=r"^internal branching failure: .*\(group order 8, index 2\)$"):
        branching_matrix(G, M)


def test_a_branching_failure_is_every_characters_ledger_record(d8, monkeypatch):
    # the same corrupted subgroup table: the group's ledger cannot be built,
    # and each chi's record carries the error, as the per-character code gave it
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    G = parse_group(format_group(d8))
    M = chief_series(G)[-2]
    good = character_table(M)
    character_table(G)
    cube = good.cube.copy()
    cube[0] *= -1
    M._char_table = CharTable(group=M, classes=good.classes, cube=cube, e=good.e, q=good.q)
    records = verify_ledger(groups=[("d8", G)]).results[0]["records"]
    error = "internal branching failure: a restriction is no orbit sum (group order 8, index 2)"
    assert len(records) == 5
    for rec in records:
        assert rec.pop("counterexample")["chi"] == rec["chi"]
        assert rec["error"] == error
    assert records == ledger_records_per_character(G)


def test_branching_matrix_needs_a_normal_subgroup_of_prime_index(d8):
    series = chief_series(d8)
    assert d8.order // series[1].order == 4
    with pytest.raises(GroupError, match="not a normal subgroup of prime index"):
        branching_matrix(d8, series[1])


@pytest.mark.parametrize("gid", CATALOG_IDS)
def test_branching_columns_read_induction_and_one_step_characters(gid):
    series = chief_series(load_catalog_group(gid))
    for N, M in zip(series[1:], series):
        table = character_table(N)
        branching = branching_matrix(N, M)
        for below, nu in enumerate(character_table(M)):
            ind = induce(nu, N)
            column = branching[:, below].tolist()
            # Frobenius reciprocity: the column holds Ind nu's multiplicities
            assert column == table.multiplicities(ind), gid
            # entries are non-negative: a unit vector sums to 1
            unit = sum(column) == 1
            for here, psi in enumerate(table):
                assert (unit and column[here] == 1) == (ind == psi), gid
        principal = character_table(M).principal_index
        one_step = [psi for psi, row in zip(table, branching) if row[principal] == psi.degree]
        assert one_step == irr_mod(N, M), gid


# g-orbits of length 5 and 7 occur in no catalog group
BEYOND_THE_CATALOG = {"es5-1": (5, 1), "es7-1": (7, 1), "es3-2": (3, 2)}


@pytest.mark.parametrize("gid", CATALOG_IDS + list(BEYOND_THE_CATALOG))
def test_chain_restrictions_are_products_of_branching_matrices(gid):
    if gid in BEYOND_THE_CATALOG:
        G = extraspecial_exp_p(*BEYOND_THE_CATALOG[gid])
    else:
        G = load_catalog_group(gid)
    series = chief_series(G)
    irr = list(character_table(G))
    rows = _restrictions_along(series, np.arange(len(irr)))
    for N, product, dense in zip(series, rows, restrictions_along_dense(series)):
        assert product.dtype == np.int64
        assert product.tolist() == restriction_multiplicities(irr, N), gid
        assert (product == dense).all(), gid


def test_classify_chain_rejects_character_outside_table(d8, d8_table):
    chain = build_chain(d8, d8_table[4])
    nus = list(chain.nus)
    nus[1] = 2 * Character.principal(chain.series[1])
    broken = CharacterChain(group=d8, chi=chain.chi, series=chain.series, nus=tuple(nus))
    with pytest.raises(TableError, match="character not in table"):
        classify_chain(broken)


def test_all_chains_rejects_what_build_chain_rejects(d8, d8_table, q8):
    cases = (
        (d8_table[4] + d8_table[4], "not irreducible"),
        # [chi, chi] = 1, but -chi is no character
        (-1 * d8_table[4], "not irreducible"),
        (character_table(q8)[4], "characters on different groups"),
    )
    for chi, message in cases:
        for enumerate_chains in (build_chain, all_chains):
            with pytest.raises(CharacterError, match=message):
                enumerate_chains(d8, chi)


ES_GROUPS = {"es7-1": (7, 1), "es3-2": (3, 2)}


def _assert_ledger_matches_the_per_character_oracle(G, label):
    # every record of the per-table ledger, and every canonical chain and
    # its ledger, as the per-character code found them
    records = verify_ledger(groups=[(label, G)]).results[0]["records"]
    for rec in records:
        rec.pop("counterexample", None)
    assert records == ledger_records_per_character(G), label
    for chi in character_table(G):
        chain = build_chain(G, chi)
        expected = build_chain_per_character(G, chi)
        assert chain.series == expected.series, label
        assert all(a == b for a, b in zip(chain.nus, expected.nus)), label
        assert classify_chain(chain) == classify_chain_per_character(expected), label


@pytest.mark.parametrize("gid", CATALOG_IDS + list(ES_GROUPS))
def test_ledger_matches_the_per_character_oracle(gid):
    G = extraspecial_exp_p(*ES_GROUPS[gid]) if gid in ES_GROUPS else load_catalog_group(gid)
    _assert_ledger_matches_the_per_character_oracle(G, gid)


@pytest.mark.slow
def test_ledger_matches_the_per_character_oracle_at_order_2187():
    _assert_ledger_matches_the_per_character_oracle(wreath_cp(cyclic(9), 3)[0], "c9wrc3")


def _outcome(classify, chain):
    try:
        return classify(chain)
    except EtalabError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("gid", ["d8", "q16", "c4wrc2", "es27", "c3wrc3"])
def test_classify_chain_matches_the_oracle_on_altered_chains(gid):
    # every chain with one member swapped for another character of its
    # subgroup, and every branch of all_chains: the same ledger, or the
    # same first failing check with the same message
    G = load_catalog_group(gid)
    failures = 0
    for chi in character_table(G):
        canonical = build_chain(G, chi)
        chains = all_chains(G, chi) if G.order <= 64 else [canonical]
        for i in range(len(canonical.series) - 1):
            for nu in character_table(canonical.series[i]):
                nus = list(canonical.nus)
                nus[i] = nu
                altered = CharacterChain(group=G, chi=chi, series=canonical.series, nus=tuple(nus))
                chains.append(altered)
        for chain in chains:
            got = _outcome(classify_chain, chain)
            assert got == _outcome(classify_chain_per_character, chain), gid
            failures += isinstance(got, tuple)
    assert failures
