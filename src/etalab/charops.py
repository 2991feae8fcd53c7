"""Character algebra: products, inner products, decomposition, restriction,
induction, kernels, and the related subgroup-character bookkeeping.

Decomposition runs against the canonical table of the character's group and
is memoized per (group, class function), since the verification sweeps ask
for the same products repeatedly.  Induction works class-fusion-wise; the
elementwise formula lives in the test suite as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .chars import Character
from .cyclotomic import CycValue, coefficient_stack, pairing
from .errors import CharacterError, GroupError
from .perm import PermGroup
from .table import CharTable, as_multiplicity, character_table

__all__ = [
    "ConstituentDecomposition",
    "conjugate_character",
    "decompose",
    "eta_count",
    "induce",
    "inner_product",
    "irr_mod",
    "kernel",
    "center_of_character",
    "lin",
    "product",
    "restrict",
]

_DECOMP_MEMO: dict = {}


@dataclass(frozen=True)
class ConstituentDecomposition:
    """Distinct irreducible constituents of a character, with multiplicities."""

    constituents: tuple[tuple[Character, int], ...]

    @property
    def eta(self) -> int:
        return len(self.constituents)

    def characters(self) -> tuple[Character, ...]:
        return tuple(chi for chi, _ in self.constituents)

    def multiplicity_of(self, chi: Character) -> int:
        for other, mult in self.constituents:
            if other == chi:
                return mult
        return 0

    def degree_pattern(self) -> tuple[int, ...]:
        """Sorted degrees of the constituents, one entry per distinct character."""
        return tuple(sorted(chi.degree for chi, _ in self.constituents))


def product(a: Character, b: Character) -> Character:
    """Pointwise product of class functions on one group."""
    return a * b


def conjugate_character(a: Character) -> Character:
    return a.conjugate()


def inner_product(a: Character, b: Character) -> int:
    """Exact [a, b]; requires a non-negative rational integer result."""
    if not (a.group is b.group or a.group.same_elements(b.group)):
        raise CharacterError("characters on different groups")
    G = a.group
    e = lcm(*(v.e for v in a.values + b.values))
    x, y = (coefficient_stack([c.values], e) for c in (a, b))
    return as_multiplicity(pairing(x, G.conjugacy_classes().sizes, y, e)[0, 0], G.order)


def decompose(theta: Character, cache_dir=None) -> ConstituentDecomposition:
    """Full decomposition of theta against the canonical table of its group."""
    key = (theta.group.content_key, theta.value_key())
    hit = _DECOMP_MEMO.get(key)
    if hit is not None:
        return hit
    table = character_table(theta.group, cache_dir=cache_dir)
    mults = table.multiplicities(theta)
    out = ConstituentDecomposition(
        tuple((table[i], m) for i, m in enumerate(mults) if m)
    )
    if sum(m * chi.degree for chi, m in out.constituents) != theta.degree:
        raise CharacterError("inner product not integral")
    _DECOMP_MEMO[key] = out
    return out


def eta_count(chi: Character, psi: Character = None) -> int:
    """Number of distinct irreducible constituents of chi*psi (psi defaults
    to the complex conjugate of chi)."""
    if psi is None:
        psi = chi.conjugate()
    return decompose(chi * psi).eta


def _check_subgroup(H: PermGroup, G: PermGroup) -> None:
    if not H.is_subgroup_of(G):
        raise GroupError("not a subgroup")


def restrict(a: Character, N: PermGroup) -> Character:
    """Values of a read off on N's own class structure, at N's conductor."""
    G = a.group
    _check_subgroup(N, G)
    if N.same_elements(G):
        return a
    gcls = G.conjugacy_classes()
    e = N.exponent()
    values = []
    for rep in N.conjugacy_classes().representatives:
        values.append(a.values[gcls.class_of(rep)].rebase(e))
    return Character(N, tuple(values))


def _div_by_int(v: CycValue, n: int) -> CycValue:
    out = []
    for c in v.coeffs:
        if c % n:
            raise CharacterError("inner product not integral")
        out.append(c // n)
    return CycValue(v.e, tuple(out))


def induce(nu: Character, G: PermGroup) -> Character:
    """Frobenius induction from a subgroup, computed over class fusion."""
    H = nu.group
    _check_subgroup(H, G)
    if H.same_elements(G):
        return nu
    gcls = G.conjugacy_classes()
    hcls = H.conjugacy_classes()
    e = G.exponent()
    fused = [gcls.class_of(rep) for rep in hcls.representatives]
    sums = [CycValue.zero(e) for _ in range(len(gcls))]
    for d, k in enumerate(fused):
        sums[k] = sums[k] + nu.values[d].rebase(e) * hcls.sizes[d]
    values = []
    for k in range(len(gcls)):
        cent = G.order // gcls.sizes[k]
        values.append(_div_by_int(sums[k] * cent, H.order))
    return Character(G, tuple(values))


def kernel(a: Character) -> PermGroup:
    """Elements where the character takes its degree value; always normal."""
    G = a.group
    cls = G.conjugacy_classes()
    deg = a.values[0]
    elems = []
    for i, val in enumerate(a.values):
        if val == deg:
            elems.extend(cls.members[i])
    return G.subgroup_from_elements(frozenset(elems))


def center_of_character(a: Character) -> PermGroup:
    """Elements where the character value has maximal modulus, i.e. where
    value * conj(value) equals the squared degree; contains the kernel."""
    G = a.group
    cls = G.conjugacy_classes()
    target = a.values[0] * a.values[0].conjugate()
    elems = []
    for i, val in enumerate(a.values):
        if val * val.conjugate() == target:
            elems.extend(cls.members[i])
    return G.subgroup_from_elements(frozenset(elems))


def lin(G: PermGroup, cache_dir=None) -> list[Character]:
    """The linear characters, in canonical table order."""
    table = character_table(G, cache_dir=cache_dir)
    return [chi for chi in table if chi.degree == 1]


def irr_mod(M: PermGroup, N: PermGroup, cache_dir=None) -> list[Character]:
    """Irreducible characters of M whose kernel contains the normal subgroup N."""
    if not N.is_normal_in(M):
        raise GroupError("not normal")
    table = character_table(M, cache_dir=cache_dir)
    mcls = M.conjugacy_classes()
    gen_classes = sorted({mcls.class_of(g) for g in N.generators})
    out = []
    for chi in table:
        deg = chi.values[0]
        if all(chi.values[k] == deg for k in gen_classes):
            out.append(chi)
    return out
