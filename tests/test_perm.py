"""Permutation groups: closure, classes, centers, chief series."""

import random

import pytest

from etalab import perm
from etalab.catalog import catalog_ids, default_catalog, load_catalog_group
from etalab.constructions import (
    cyclic,
    dihedral,
    direct_product,
    extraspecial_exp_p,
    prop5_witness,
    quaternion,
    wreath_cp,
)
from etalab.errors import GroupError, PermutationError
from etalab.perm import (
    Permutation,
    chief_series,
    group_from_generators,
)

from oracles import (
    brute_center,
    chief_series_elementwise,
    closure_elementwise,
    conjugacy_partition,
    content_key_elementwise,
    exponent_elementwise,
)


def test_composition_applies_left_factor_first():
    a = Permutation.from_cycles(3, [(0, 1)])
    b = Permutation.from_cycles(3, [(1, 2)])
    # point 0 goes to 1 under a, then 1 goes to 2 under b
    assert (a * b).images[0] == 2
    assert (b * a).images[0] == 1


def test_permutation_algebra():
    rng = random.Random(11)
    for _ in range(60):
        deg = rng.randrange(1, 9)
        imgs = list(range(deg))
        rng.shuffle(imgs)
        g = Permutation(tuple(imgs))
        assert g * g.inverse() == Permutation.identity(deg)
        assert g ** g.order() == Permutation.identity(deg)
        assert (g ** -1) == g.inverse()


def test_products_match_validated_permutations():
    rng = random.Random(17)
    for _ in range(60):
        deg = rng.randrange(1, 9)
        g, h = (Permutation(tuple(rng.sample(range(deg), deg))) for _ in range(2))
        n = rng.randrange(-5, 6)
        for x in (g * h, g.inverse(), g ** n):
            assert isinstance(x.images, tuple)
            y = Permutation(x.images)
            assert x == y and hash(x) == hash(y)
            assert sorted([x, h]) == sorted([y, h])
    with pytest.raises(PermutationError):
        Permutation.identity(3) * Permutation.identity(4)


def test_invalid_images_rejected():
    with pytest.raises(PermutationError):
        Permutation((0, 0, 1))


def test_conjugation_convention():
    rng = random.Random(5)
    for _ in range(40):
        deg = 6
        xs = []
        for _ in range(2):
            imgs = list(range(deg))
            rng.shuffle(imgs)
            xs.append(Permutation(tuple(imgs)))
        x, g = xs
        assert x.conjugated_by(g) == g.inverse() * x * g


def test_closure_of_s3():
    G = group_from_generators(3, [
        Permutation.from_cycles(3, [(0, 1)]),
        Permutation.from_cycles(3, [(0, 1, 2)]),
    ])
    assert G.order == 6
    assert not G.p_group_info().is_p_group


BEYOND_THE_CATALOG = {
    "c9wrc3": lambda: wreath_cp(cyclic(9), 3)[0],
    "es7-1": lambda: extraspecial_exp_p(7, 1),
    "es5-1": lambda: extraspecial_exp_p(5, 1),
}


@pytest.mark.parametrize("gid", catalog_ids() + list(BEYOND_THE_CATALOG))
def test_array_closure_exponent_and_content_key_match_elementwise_oracles(gid):
    # a group stores only its sorted element keys, whether enumerated from
    # generators or, like the chief series members, cut from a larger group
    in_catalog = gid not in BEYOND_THE_CATALOG
    G = load_catalog_group(gid) if in_catalog else BEYOND_THE_CATALOG[gid]()
    fresh = group_from_generators(G.degree, G.generators)
    assert fresh.elements == tuple(sorted(closure_elementwise(G.degree, G.generators, G.order)))
    assert fresh.element_set == frozenset(fresh.elements)
    for N in [fresh] + (G.chief_series() if in_catalog else []):
        assert N.exponent() == exponent_elementwise(N), (gid, N.order)
        assert N.content_key == content_key_elementwise(N), (gid, N.order)


@pytest.mark.parametrize("gid", ["d8", "es27", "c3wrc3", "w22"])
def test_order_cap_is_the_largest_order_allowed(gid):
    G = load_catalog_group(gid)
    with pytest.raises(GroupError, match="^group too large$"):
        group_from_generators(G.degree, G.generators, order_cap=G.order - 1)
    with pytest.raises(GroupError, match="^group too large$"):
        closure_elementwise(G.degree, G.generators, G.order - 1)
    assert group_from_generators(G.degree, G.generators, order_cap=G.order).order == G.order


def test_identity_is_first_element():
    for G in (cyclic(6), dihedral(4), quaternion()):
        assert G.elements[0] == Permutation.identity(G.degree)


def test_class_partition_matches_brute_force():
    groups = [dihedral(4), quaternion(), cyclic(8), extraspecial_exp_p(3)]
    groups += [N for _, G in default_catalog() for N in G.chief_series() if N.order <= 256]
    for G in groups:
        classes = G.conjugacy_classes()
        brute = {frozenset(p) for p in conjugacy_partition(G)}
        mine = {frozenset(members) for members in classes.members}
        assert mine == brute
        assert sum(classes.sizes) == G.order
        assert classes.sizes[0] == 1
        assert classes.representatives[0] == Permutation.identity(G.degree)
        # canonical order: sizes ascending, ties by the smallest member, which
        # is the representative
        assert list(classes.sizes) == [len(members) for members in classes.members]
        assert list(classes.representatives) == [min(members) for members in classes.members]
        keys = [(len(members), min(members)) for members in classes.members]
        assert keys == sorted(keys)
        # the class of each sorted element
        owner = [classes.class_of(x) for x in G.elements]
        assert classes.element_class.tolist() == owner


def test_class_sizes_divide_group_order():
    for G in (dihedral(8), extraspecial_exp_p(3), direct_product(cyclic(2), cyclic(4))):
        classes = G.conjugacy_classes()
        assert all(G.order % s == 0 for s in classes.sizes)
        # canonical order: sizes ascending
        assert list(classes.sizes) == sorted(classes.sizes)


def test_centralizer_order_identity():
    G = dihedral(4)
    classes = G.conjugacy_classes()
    for k, rep in enumerate(classes.representatives):
        assert classes.centralizer_order(k) * classes.sizes[k] == G.order
        assert G.centralizer(rep).order == classes.centralizer_order(k)


def test_center_matches_brute_force():
    for G in (dihedral(4), quaternion(), extraspecial_exp_p(3), cyclic(9)):
        assert G.center().element_set == brute_center(G)


def test_center_of_extraspecial_27_has_order_3():
    G = extraspecial_exp_p(3)
    assert G.order == 27
    assert G.center().order == 3
    assert G.exponent() == 3


def test_chief_series_structure():
    for G in (dihedral(4), quaternion(), extraspecial_exp_p(3), cyclic(16)):
        p = G.p_group_info().p
        series = chief_series(G)
        assert series[0].order == 1
        assert series[-1].order == G.order
        for i in range(1, len(series)):
            assert series[i].order == p * series[i - 1].order
            assert series[i - 1].is_subgroup_of(series[i])
            assert series[i].is_normal_in(G)


@pytest.mark.parametrize("gid", catalog_ids() + list(BEYOND_THE_CATALOG))
def test_chief_series_matches_elementwise_oracle(gid):
    # two fresh copies, so that neither series is one a group already holds
    G = load_catalog_group(gid) if gid not in BEYOND_THE_CATALOG else BEYOND_THE_CATALOG[gid]()
    mine = group_from_generators(G.degree, G.generators).chief_series()
    oracle = chief_series_elementwise(group_from_generators(G.degree, G.generators))
    assert len(mine) == len(oracle), gid
    for i, (N, M) in enumerate(zip(mine, oracle)):
        assert N.element_keys()[1].tobytes() == M.element_keys()[1].tobytes(), (gid, i)
        assert N.generators == M.generators, (gid, i)


def test_exponent_and_chief_series_gather_only_class_representatives(monkeypatch):
    # both are class functions: orders, and whether g^p and [g, x] lie in a
    # normal member, are read at one representative per class
    w22 = load_catalog_group("w22")
    G = group_from_generators(w22.degree, w22.generators)
    classes = G.conjugacy_classes()
    gathered = []
    take_along_axis = perm.np.take_along_axis

    def spy(arr, *args, **kwargs):
        gathered.append(len(arr))
        return take_along_axis(arr, *args, **kwargs)

    monkeypatch.setattr(perm.np, "take_along_axis", spy)
    G.exponent()
    G.chief_series()
    assert gathered and max(gathered) <= len(classes) < G.order


@pytest.mark.slow
def test_exponent_and_chief_series_at_order_3_to_the_13():
    G = wreath_cp(prop5_witness(3, 1).group, 3)[0]
    assert G.order == 3**13
    assert G.exponent() == 27
    series = G.chief_series()
    assert [N.order for N in series] == [3**i for i in range(14)]
    assert all(N.is_subgroup_of(M) for N, M in zip(series, series[1:]))
    assert all(N.is_normal_in(G) for N in series)


def test_chief_series_is_deterministic():
    a = [N.elements for N in chief_series(dihedral(4))]
    b = [N.elements for N in chief_series(dihedral(4))]
    assert a == b


def test_p_group_info():
    assert cyclic(1).p_group_info().is_trivial
    info = quaternion().p_group_info()
    assert info.is_p_group and info.p == 2 and info.exponent == 4
    info27 = extraspecial_exp_p(3).p_group_info()
    assert info27.p == 3 and info27.exponent == 3


def test_subgroup_membership_errors():
    G = dihedral(4)
    H = cyclic(3)
    with pytest.raises(GroupError):
        G.conjugacy_classes().class_of(Permutation.from_cycles(4, [(0, 1, 2)]))
    assert not H.is_subgroup_of(G)
    # a permutation of another degree is in no group of this one
    other = Permutation.from_cycles(3, [(0, 1, 2)])
    assert other not in G
    with pytest.raises(GroupError, match="^element not in group$"):
        G.conjugacy_classes().class_of(other)
    with pytest.raises(GroupError, match="^element not in group$"):
        G.centralizer(other)


def test_subgroup_refuses_a_non_member():
    G = dihedral(4)
    x = Permutation.from_cycles(4, [(0, 1)])
    assert x not in G
    with pytest.raises(GroupError, match="^not a subgroup$"):
        G.subgroup([x])
    with pytest.raises(GroupError, match="^not a subgroup$"):
        G.subgroup_from_elements([G.identity, x])
    # members are cut and recorded as lying in G
    H = G.subgroup([G.generators[1]])
    assert H.order == 2 and H.is_subgroup_of(G)
    assert G.subgroup_from_elements(H.elements).same_elements(H)


def test_exponent_values():
    assert cyclic(12).exponent() == 12
    assert dihedral(4).exponent() == 4
    # S3: largest order 3, exponent 6
    assert dihedral(3).exponent() == 6
    assert quaternion().exponent() == 4
    assert direct_product(cyclic(2), cyclic(4)).exponent() == 4
