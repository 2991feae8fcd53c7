"""Character operations: products, inner products, induction and
restriction, constituent decompositions, frozen eta values."""

import random

import pytest

from etalab.catalog import load_catalog_group
from etalab.chars import Character
from etalab.charops import (
    center_of_character,
    decompose,
    eta_count,
    induce,
    inner_product,
    irr_mod,
    kernel,
    lin,
    restrict,
    restriction_multiplicities,
)
from etalab.catalog import catalog_ids
from etalab.constructions import cyclic, dihedral, prop5_witness
from etalab.errors import CharacterError, GroupError
from etalab.perm import chief_series
from etalab.table import character_table

from oracles import (
    commutator_subgroup_elements,
    elementwise_inner,
    eta_elementwise,
    induced_values_elementwise,
)


def test_irreducibles_are_orthonormal(d8_table):
    for i, a in enumerate(d8_table):
        for j, b in enumerate(d8_table):
            assert inner_product(a, b) == (1 if i == j else 0)


def test_inner_product_matches_elementwise_oracle(es27_table):
    rng = random.Random(7)
    chars = list(es27_table)
    for _ in range(12):
        a = rng.choice(chars)
        b = rng.choice(chars)
        assert inner_product(a, b) == elementwise_inner(es27_table, a, b)


def test_inner_product_rejects_cross_group(d8_table, es27_table):
    with pytest.raises(CharacterError):
        inner_product(d8_table[0], es27_table[0])


def test_eta_frozen_values():
    cases = [
        ("d8", 4, 4),
        ("q8", 4, 4),
        ("es27", 9, 9),
        ("es27", 10, 9),
    ]
    for gid, idx, want in cases:
        table = character_table(load_catalog_group(gid))
        assert eta_count(table[idx]) == want, (gid, idx)


def test_es27_same_factor_product_has_single_constituent(es27_table):
    # the degree-3 character paired with itself, not its conjugate
    chi = es27_table[9]
    assert chi.degree == 3
    assert not chi == chi.conjugate()
    dec = decompose(chi * chi)
    assert dec.eta == 1
    only, mult = dec.constituents[0]
    assert only.degree == 3 and mult == 3


def test_witness_eta_values():
    for (p, n), want in {(2, 1): 3, (3, 1): 5, (2, 2): 5}.items():
        w = prop5_witness(p, n)
        assert eta_count(w.chi) == want, (p, n)


def test_decompose_invariants():
    rng = random.Random(23)
    for gid in ("d8", "m16", "es27", "c3wrc3"):
        table = character_table(load_catalog_group(gid))
        chars = list(table)
        for _ in range(8):
            a = rng.choice(chars)
            b = rng.choice(chars)
            dec = decompose(a * b)
            assert all(m > 0 for _, m in dec.constituents)
            total = sum(c.degree * m for c, m in dec.constituents)
            assert total == a.degree * b.degree
            idxs = [table.index_of(c) for c, _ in dec.constituents]
            assert idxs == sorted(idxs)
            assert dec.eta == len(dec.constituents)


def test_eta_default_partner_is_conjugate(es27_table):
    chi = es27_table[9]
    assert eta_count(chi) == eta_count(chi, chi.conjugate())
    assert eta_count(chi, chi) == 1


def test_product_degree_and_linear_twist(d8_table):
    lam = d8_table[1]
    chi = d8_table[4]
    assert lam.degree == 1
    twisted = lam * chi
    assert twisted.degree == chi.degree
    assert eta_count(chi, lam) == 1


def test_bracket_shuffle_identity():
    # [theta, chi*psi] = [theta * conj(psi), chi]
    rng = random.Random(41)
    for gid in ("d8", "q8", "m16"):
        table = character_table(load_catalog_group(gid))
        chars = list(table)
        for _ in range(10):
            theta = rng.choice(chars)
            chi = rng.choice(chars)
            psi = rng.choice(chars)
            lhs = inner_product(theta, chi * psi)
            rhs = inner_product(theta * psi.conjugate(), chi)
            assert lhs == rhs


def test_restrict_to_whole_group_is_identity(d8, d8_table):
    chi = d8_table[4]
    back = restrict(chi, d8)
    assert chi == back


def test_restrict_rejects_non_subgroup(d8_table, es27):
    with pytest.raises(GroupError):
        restrict(d8_table[0], es27)


def test_frobenius_reciprocity():
    for gid in ("d8", "es27"):
        G = load_catalog_group(gid)
        table = character_table(G)
        series = chief_series(G)
        N = series[-2]
        n_table = character_table(N)
        rows = restriction_multiplicities(table, N)
        for j, nu in enumerate(n_table):
            ind = induce(nu, G)
            for chi, row in zip(table, rows):
                assert inner_product(ind, chi) == inner_product(
                    restrict(chi, N), nu
                ) == row[j]


def _proper_subgroups(G):
    """Every proper subgroup generated by at most two elements."""
    seen, out = set(), []
    for a in G.elements:
        for b in G.elements:
            H = G.subgroup([a, b])
            if H.order < G.order and H.element_set not in seen:
                seen.add(H.element_set)
                out.append(H)
    return out


def _restriction_cases():
    for gid in catalog_ids():
        G = load_catalog_group(gid)
        if G.order <= 32:
            for N in chief_series(G):
                yield G, N
    for G in (cyclic(6), cyclic(12), dihedral(6)):
        for N in _proper_subgroups(G):
            yield G, N


def test_restriction_multiplicities_match_elementwise_oracle():
    # includes conductor pairs 12 -> 4, 12 -> 3 and 6 -> 3, not only p-powers
    for G, N in _restriction_cases():
        table = character_table(G)
        n_table = character_table(N)
        rows = restriction_multiplicities(table, N)
        for chi, row in zip(table, rows):
            res = restrict(chi, N)
            assert row == [elementwise_inner(n_table, res, psi) for psi in n_table]


def test_induction_matches_elementwise_oracle():
    for gid in ("d8", "es27"):
        G = load_catalog_group(gid)
        table = character_table(G)
        N = chief_series(G)[-2]
        n_table = character_table(N)
        for nu in list(n_table)[:4]:
            ind = induce(nu, G)
            oracle = induced_values_elementwise(table, nu, N, G)
            assert all(
                a.rebase(table.e) == b for a, b in zip(ind.values, oracle)
            )


def test_eta_matches_elementwise_oracle_small():
    for gid in ("d8", "q8", "es27"):
        table = character_table(load_catalog_group(gid))
        for chi in table:
            assert eta_count(chi) == eta_elementwise(table, chi, chi.conjugate())


def test_kernel_and_center_of_character(d8, d8_table):
    assert kernel(d8_table[0]).order == d8.order
    sign = d8_table[1]
    assert kernel(sign).order == 4
    chi = d8_table[4]
    assert kernel(chi).order == 1
    assert center_of_character(chi).same_elements(d8.center())
    assert center_of_character(d8_table[0]).order == d8.order


def test_lin_counts_commutator_index():
    for gid in ("d8", "q8", "m16", "es27"):
        G = load_catalog_group(gid)
        linear = lin(G)
        derived = commutator_subgroup_elements(G)
        assert len(linear) == G.order // len(derived), gid
        assert all(c.is_linear for c in linear)


def test_irr_mod_of_derived_subgroup_is_lin(d8):
    derived = d8.subgroup_from_elements(commutator_subgroup_elements(d8))
    mod = irr_mod(d8, derived)
    linear = lin(d8)
    keys = {c.value_key() for c in mod}
    assert keys == {c.value_key() for c in linear}


def test_irr_mod_chief_step_has_p_members(es27):
    series = chief_series(es27)
    for i in range(1, len(series)):
        mod = irr_mod(series[i], series[i - 1])
        assert len(mod) == 3
        assert all(c.is_linear for c in mod)


def test_irr_mod_rejects_non_normal():
    G = load_catalog_group("d8")
    # a non-normal order-2 subgroup generated by a reflection
    refl = next(
        g for g in G.elements
        if g.order() == 2 and not all((g * h) == (h * g) for h in G.generators)
    )
    H = G.subgroup([refl])
    with pytest.raises(GroupError):
        irr_mod(G, H)
