"""Descent chains: conjugation action, stabilizers, Clifford
correspondents, ledger classification."""

import random

import pytest

from etalab.catalog import default_catalog, load_catalog_group
from etalab.chars import Character
from etalab.charops import inner_product, induce, restrict
from etalab.clifford import (
    CharacterChain,
    all_chains,
    build_chain,
    classify_chain,
    clifford_correspondent,
    conjugate_action,
    stabilizer,
)
from etalab.errors import ChainError, CharacterError, GroupError
from etalab.perm import chief_series
from etalab.table import character_table

from oracles import stabilizer_elements

# catalog groups small enough for the element-level stabilizer oracle
ORACLE_GROUPS = [gid for gid, G in default_catalog() if G.order <= 32 or gid == "es27"]


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


def test_classify_chain_rejects_broken_chain(d8, d8_table):
    chain = build_chain(d8, d8_table[4])
    nus = list(chain.nus)
    nus[1] = Character.principal(chain.series[1])
    broken = CharacterChain(group=d8, chi=chain.chi, series=chain.series, nus=tuple(nus))
    with pytest.raises(ChainError):
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
