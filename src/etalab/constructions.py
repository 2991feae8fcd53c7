"""Builders for the example families: cyclic, dihedral, quaternion and
metacyclic 2-groups, extraspecial exponent-p groups, wreath products by C_p,
and the recursive witness pairs whose top character meets the tensor-product
constituent bound with equality.

Abstract presentations are realized through their right regular action,
then re-enumerated as ordinary permutation groups; block constructions
(direct products, wreath products) act on disjoint point ranges directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from .chars import Character
from .charops import induce, inner_product
from .cyclotomic import _is_prime
from .errors import ConstructionError, GroupError
from .perm import DEFAULT_ORDER_CAP, PermGroup, Permutation, _classes_of_rows, _rows_of
from .perm import group_from_generators
from .table import character_table

__all__ = [
    "WitnessPair",
    "cyclic",
    "dihedral",
    "direct_product",
    "extraspecial_exp_p",
    "metacyclic",
    "prop5_witness",
    "quaternion",
    "wreath_cp",
]


def _exceeds_cap(base: int, exponent: int, factor: int = 1) -> bool:
    """Whether base ** exponent * factor, base and factor positive, exceeds
    the order cap, found without forming a power past it: from base 2 up,
    the bit length of the cap is an exponent too many."""
    if base > 1 and exponent >= DEFAULT_ORDER_CAP.bit_length():
        return True
    return base**exponent * factor > DEFAULT_ORDER_CAP


def _regular_group(
    elements: Sequence[Hashable], mul: Callable, gens: Sequence[Hashable]
) -> PermGroup:
    """Right regular permutation action of a finite multiplication table."""
    index = {x: i for i, x in enumerate(elements)}
    perms = []
    for g in gens:
        perms.append(Permutation(tuple(index[mul(x, g)] for x in elements)))
    group = group_from_generators(len(elements), perms)
    if group.order != len(elements):
        raise ConstructionError("regular action does not reach every element")
    return group


def cyclic(m: int) -> PermGroup:
    """Cyclic group of order m on m points."""
    if m < 1:
        raise ConstructionError(f"order must be positive, got {m}")
    if m > DEFAULT_ORDER_CAP:
        raise GroupError("group too large")
    if m == 1:
        return group_from_generators(1, [])
    rot = Permutation(tuple((i + 1) % m for i in range(m)))
    return group_from_generators(m, [rot])


def dihedral(m: int) -> PermGroup:
    """Dihedral group of order 2m.  Natural m-point action for m >= 3; the
    order-4 case m = 2 needs 4 points to stay faithful."""
    if m < 2:
        raise ConstructionError(f"dihedral parameter must be at least 2, got {m}")
    if 2 * m > DEFAULT_ORDER_CAP:
        raise GroupError("group too large")
    if m == 2:
        a = Permutation.from_cycles(4, [(0, 1)])
        b = Permutation.from_cycles(4, [(2, 3)])
        return group_from_generators(4, [a, b])
    rot = Permutation(tuple((i + 1) % m for i in range(m)))
    refl = Permutation(tuple((m - i) % m for i in range(m)))
    return group_from_generators(m, [rot, refl])


def metacyclic(n: int, twist: int, y_square_power: int) -> PermGroup:
    """The group <x, y | x^n = 1, y^2 = x^k, y^-1 x y = x^t> by its regular
    action, for presentations where y^2 is central (t^2 = 1 mod n)."""
    if n < 2:
        raise ConstructionError(f"cycle length must be at least 2, got {n}")
    t = twist % n
    k = y_square_power % n
    if (t * t) % n != 1 or (k * (t - 1)) % n != 0:
        raise ConstructionError("inconsistent metacyclic presentation")
    elements = [(a, b) for b in (0, 1) for a in range(n)]

    def mul(u, v):
        a, b = u
        c, d = v
        a2 = (a + (c if b == 0 else (t * c) % n)) % n
        b2 = b + d
        if b2 == 2:
            return ((a2 + k) % n, 0)
        return (a2, b2)

    return _regular_group(elements, mul, [(1, 0), (0, 1)])


def quaternion() -> PermGroup:
    """The quaternion group of order 8, on 8 points."""
    return metacyclic(4, -1, 2)


def direct_product(A: PermGroup, B: PermGroup) -> PermGroup:
    """A x B acting on the disjoint union of the two point sets."""
    da, db = A.degree, B.degree
    gens = []
    for g in A.generators:
        gens.append(Permutation(tuple(g.images) + tuple(range(da, da + db))))
    for g in B.generators:
        gens.append(Permutation(tuple(range(da)) + tuple(x + da for x in g.images)))
    out = group_from_generators(da + db, gens)
    if out.order != A.order * B.order:
        raise ConstructionError("direct product order mismatch")
    return out


def extraspecial_exp_p(p: int, n: int = 1) -> PermGroup:
    """Extraspecial group of order p^(2n+1) and exponent p (p odd), via the
    regular action of the Heisenberg-style presentation."""
    if p == 2:
        raise ConstructionError("exponent-p extraspecial requires odd p")
    if n < 1:
        raise ConstructionError(f"half-rank must be positive, got {n}")
    if p > 2 and _exceeds_cap(p, 2 * n + 1):
        raise GroupError("group too large")
    if not _is_prime(p):
        raise ConstructionError(f"p must be an odd prime, got {p}")
    span = range(p)
    vectors = [tuple(v) for v in _tuples(span, n)]
    elements = [(x, y, z) for x in vectors for y in vectors for z in span]

    def mul(u, v):
        x1, y1, z1 = u
        x2, y2, z2 = v
        x = tuple((a + b) % p for a, b in zip(x1, x2))
        y = tuple((a + b) % p for a, b in zip(y1, y2))
        z = (z1 + z2 + sum(a * b for a, b in zip(x1, y2))) % p
        return (x, y, z)

    zero = tuple(0 for _ in range(n))
    gens = []
    for i in range(n):
        e_i = tuple(1 if j == i else 0 for j in range(n))
        gens.append((e_i, zero, 0))
        gens.append((zero, e_i, 0))
    return _regular_group(elements, mul, gens)


def _tuples(span, n):
    if n == 0:
        yield ()
        return
    for head in span:
        for tail in _tuples(span, n - 1):
            yield (head,) + tail


def wreath_cp(A: PermGroup, p: int) -> tuple[PermGroup, PermGroup]:
    """A wr C_p on deg(A)*p points: p blocks carrying copies of A plus the
    block-cycling generator.  Returns (wreath group, base subgroup A^p)."""
    if p > 1 and _exceeds_cap(A.order, p, p):
        raise GroupError("group too large")
    if not _is_prime(p):
        raise ConstructionError(f"p must be prime, got {p}")
    d = A.degree
    degree = d * p

    def embed(g: Permutation, block: int) -> Permutation:
        images = list(range(degree))
        off = block * d
        for i, x in enumerate(g.images):
            images[off + i] = off + x
        return Permutation(tuple(images))

    sigma = Permutation(tuple(((i // d + 1) % p) * d + (i % d) for i in range(degree)))
    gens = [embed(g, 0) for g in A.generators] + [sigma]
    G = group_from_generators(degree, gens)
    if G.order != A.order ** p * p:
        raise ConstructionError("wreath product order mismatch")
    base_gens = [embed(g, b) for b in range(p) for g in A.generators]
    H = PermGroup(degree, base_gens, parent=G)
    if H.order != A.order ** p:
        raise ConstructionError("wreath product base order mismatch")
    return G, H


@dataclass(frozen=True, eq=False)
class WitnessPair:
    """A group with a distinguished irreducible chi of degree p^n satisfying
    chi != conj(chi) and meeting the constituent-count bound with equality."""

    group: PermGroup
    chi: Character
    p: int
    n: int


def prop5_witness(p: int, n: int) -> WitnessPair:
    """Recursive witness build: a cyclic base with a non-real linear
    character, then n rounds of wreathing by C_p, inducing the previous
    character from the first block of the base subgroup each time."""
    if n < 0:
        raise ConstructionError(f"witness depth must be non-negative, got {n}")
    # each level wreathes the last by C_p, of order order^p * p: walked here
    # before any recursion, it passes the cap within a few levels from p = 2 on
    # (p < 2 is refused as no prime below)
    order = p if p % 2 else 4
    for _ in range(n if p > 1 else 0):
        if _exceeds_cap(order, p, p):
            raise GroupError("group too large")
        order = order**p * p
    if order > DEFAULT_ORDER_CAP:
        raise GroupError("group too large")
    if not _is_prime(p):
        raise ConstructionError(f"p must be prime, got {p}")
    if n == 0:
        # a 2-group needs a value of order 4 to separate chi from its
        # conjugate, so p = 2 starts at C4 instead of C2
        A = cyclic(p) if p % 2 else cyclic(4)
        table = character_table(A)
        alpha = None
        for chi in table:
            if not (chi == chi.conjugate()):
                alpha = chi
                break
        if alpha is None:
            raise ConstructionError("witness construction failure")
        return WitnessPair(group=A, chi=alpha, p=p, n=0)
    prev = prop5_witness(p, n - 1)
    A, alpha = prev.group, prev.chi
    G, H = wreath_cp(A, p)
    # theta0 is alpha on the first block, read at each class representative's
    # first d images; H = A^p has A's exponent
    reps = _rows_of(H.conjugacy_classes().representatives, H.degree)
    block0 = _classes_of_rows(A.conjugacy_classes(), reps[:, : A.degree])
    theta0 = Character._of(H, alpha.coeffs[block0])
    chi = induce(theta0, G)
    if (
        inner_product(chi, chi) != 1
        or chi.degree != p ** n
        or chi == chi.conjugate()
    ):
        raise ConstructionError("witness construction failure")
    return WitnessPair(group=G, chi=chi, p=p, n=n)
