"""Group builders: orders, structure, witness properties."""

import pytest

import etalab.constructions as constructions
import etalab.perm as perm
from etalab.charops import eta_count, restrict
from etalab.clifford import stabilizer
from etalab.constructions import (
    cyclic,
    dihedral,
    direct_product,
    extraspecial_exp_p,
    metacyclic,
    prop5_witness,
    quaternion,
    wreath_cp,
)
from etalab.errors import ConstructionError, GroupError
from etalab.perm import DEFAULT_ORDER_CAP, group_from_generators
from etalab.table import character_table


def test_cyclic_orders():
    for m in (1, 2, 3, 8, 12):
        G = cyclic(m)
        assert G.order == m
        assert G.exponent() == m


def test_dihedral_orders():
    for m in (2, 3, 4, 8):
        G = dihedral(m)
        assert G.order == 2 * m
    # the order-4 case is the Klein group and stays faithful
    K = dihedral(2)
    assert K.order == 4
    assert K.exponent() == 2


def test_quaternion_structure():
    Q = quaternion()
    assert Q.order == 8
    assert Q.exponent() == 4
    assert Q.center().order == 2
    # exactly one involution
    assert sum(1 for g in Q.elements if g.order() == 2) == 1


def test_metacyclic_presentation_checks():
    M = metacyclic(8, 5, 0)
    assert M.order == 16
    assert M.exponent() == 8
    Q16 = metacyclic(8, -1, 4)
    assert Q16.order == 16
    assert sum(1 for g in Q16.elements if g.order() == 2) == 1
    with pytest.raises(ConstructionError):
        metacyclic(8, 2, 0)  # twist not an automorphism of order dividing 2


def test_direct_product():
    G = direct_product(cyclic(2), cyclic(4))
    assert G.order == 8
    assert G.exponent() == 4
    H = direct_product(dihedral(4), cyclic(2))
    assert H.order == 16


def test_extraspecial_structure():
    for p in (3, 5):
        G = extraspecial_exp_p(p)
        assert G.order == p ** 3
        assert G.exponent() == p
        assert G.center().order == p
    with pytest.raises(ConstructionError):
        extraspecial_exp_p(2)
    with pytest.raises(ConstructionError):
        extraspecial_exp_p(9)


def test_wreath_product_shape(monkeypatch):
    A = cyclic(4)
    G, H = wreath_cp(A, 2)
    assert G.order == 4 ** 2 * 2
    assert H.order == 4 ** 2
    assert H.is_normal_in(G)
    assert G.order // H.order == 2
    G3, H3 = wreath_cp(cyclic(3), 3)
    assert G3.order == 27 * 3
    assert H3.is_normal_in(G3)
    # the base is cut from G as the kernel of the block action: it equals
    # the closure of its generators, for bases that are not transitive
    # (C2 x C2, dihedral(2)) and of degree 1 (the trivial group)
    bases = [
        (cyclic(4), 2),
        (direct_product(cyclic(2), cyclic(2)), 2),
        (dihedral(2), 3),
        (cyclic(1), 3),
        (prop5_witness(2, 1).group, 2),
        (extraspecial_exp_p(3), 3),
        (cyclic(3), 5),
    ]
    closures = []
    close = perm._close_generators
    monkeypatch.setattr(perm, "_close_generators", lambda *a: closures.append(a) or close(*a))
    for A, p in bases:
        closures.clear()
        G, H = wreath_cp(A, p)
        assert len(closures) == 1  # G's; the base is not closed again
        assert H.order == A.order ** p
        assert H.same_elements(group_from_generators(G.degree, H.generators))


def test_witness_restricts_to_p_distinct_base_constituents():
    # chi is induced from a base character with trivial inertia above the
    # base, so its restriction is a sum of p distinct conjugates
    from etalab.charops import inner_product

    for p, n in ((2, 1), (3, 1)):
        base = cyclic(4) if p == 2 else cyclic(p)
        G, H = wreath_cp(base, p)
        w = prop5_witness(p, n)
        assert w.group.same_elements(G)
        res = restrict(w.chi, H)
        assert inner_product(res, res) == p


def test_witness_properties():
    for p, n in ((2, 0), (2, 1), (3, 0), (3, 1)):
        w = prop5_witness(p, n)
        assert w.p == p and w.n == n
        assert w.chi.degree == p ** n
        assert not w.chi == w.chi.conjugate()
        assert eta_count(w.chi) == 2 * n * (p - 1) + 1


def test_witness_group_orders():
    assert prop5_witness(2, 0).group.order == 4
    assert prop5_witness(2, 1).group.order == 32
    assert prop5_witness(3, 0).group.order == 3
    assert prop5_witness(3, 1).group.order == 81


def test_witness_character_is_irreducible():
    from etalab.charops import inner_product

    for p, n in ((2, 1), (3, 1)):
        w = prop5_witness(p, n)
        assert inner_product(w.chi, w.chi) == 1


def test_metacyclic_degenerate_and_inconsistent_cases():
    # y^2 = x with trivial twist is just a cyclic group of order 2n
    C8 = metacyclic(4, 1, 1)
    assert C8.order == 8 and C8.exponent() == 8
    # twist 3 with y^2 = x needs 1*(3-1) = 0 mod 8, which fails
    with pytest.raises(ConstructionError):
        metacyclic(8, 3, 1)


HUGE_PRIME = 10**18 + 3

# each build gets the groups C1 and C2, made before the builders are stubbed
OVERSIZED_BUILDS = {
    "cyclic": lambda c1, c2: cyclic(DEFAULT_ORDER_CAP + 1),
    "dihedral": lambda c1, c2: dihedral(DEFAULT_ORDER_CAP // 2 + 1),
    "extraspecial-p": lambda c1, c2: extraspecial_exp_p(HUGE_PRIME),
    "extraspecial-n": lambda c1, c2: extraspecial_exp_p(3, 10**18),
    "wreath": lambda c1, c2: wreath_cp(c2, HUGE_PRIME),
    "wreath-of-trivial": lambda c1, c2: wreath_cp(c1, HUGE_PRIME),
    "witness-deep": lambda c1, c2: prop5_witness(2, 5000),
    "witness-base": lambda c1, c2: prop5_witness(HUGE_PRIME, 0),
    "witness-wide": lambda c1, c2: prop5_witness(HUGE_PRIME, 1),
}


@pytest.mark.parametrize("build", OVERSIZED_BUILDS.values(), ids=OVERSIZED_BUILDS.keys())
def test_builders_refuse_oversized_input_before_any_work(monkeypatch, build):
    # primality by trial division past 10^16 takes seconds, and a permutation
    # of the group's order would exhaust memory: neither may come first
    def refused(*args, **kwargs):
        raise AssertionError("a builder did work before its order check")

    c1, c2 = cyclic(1), cyclic(2)
    for name in ("_is_prime", "Permutation", "group_from_generators"):
        monkeypatch.setattr(constructions, name, refused)
    with pytest.raises(GroupError, match="^group too large$"):
        build(c1, c2)
