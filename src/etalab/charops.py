"""Character algebra: products, inner products, decomposition, restriction,
induction, kernels, and the related subgroup-character bookkeeping.

Decomposition runs against the canonical table of the character's group
and is not kept; decompose is the one place a ConstituentDecomposition is
built.  Every pairing against a table, decompose's and restriction's, is the
table's own (CharTable._multiplicity_rows), at its conductor: restriction
multiplicities take theta's values down to N's conductor first (the `down`
kernel), as `restrict` does.  inner_product is the one other pairing.
A whole table restricted to a normal subgroup of prime index is, by
Clifford's theorem, one orbit head per row, looked up among orbit sums with
no pairing and kept on the table; along a chief series the top table's
restrictions add up columns by those heads.
Induction is one integer matmul: a class-fusion matrix, weighted by class
sizes and centralizer orders, times the subgroup character's coefficients
lifted to the parent's conductor, then an exact division by the subgroup
order.  The elementwise formula lives in the test suite as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chars import Character
from .cyclotomic import _is_prime, conjugate, down, lift, linear_map, multiply, narrowest, pairing
from .errors import CharacterError, CyclotomicError, GroupError, TableError
from .perm import PermGroup, _as_keys, _classes_of_rows, _rows_of
from .table import _key_positions, _orbit_heads, _orbit_sums
from .table import as_multiplicities, character_table

__all__ = [
    "ConstituentDecomposition",
    "branching_matrix",
    "decompose",
    "eta_count",
    "induce",
    "inner_product",
    "irr_mod",
    "kernel",
    "center_of_character",
    "lin",
    "restrict",
    "restriction_multiplicities",
]


@dataclass(frozen=True)
class ConstituentDecomposition:
    """Distinct irreducible constituents of a character, with multiplicities."""

    constituents: tuple[tuple[Character, int], ...]

    @property
    def eta(self) -> int:
        return len(self.constituents)

    def characters(self) -> tuple[Character, ...]:
        return tuple(chi for chi, _ in self.constituents)

    def degree_pattern(self) -> tuple[int, ...]:
        """Sorted degrees of the constituents, one entry per distinct character."""
        return tuple(sorted(chi.degree for chi, _ in self.constituents))


def inner_product(a: Character, b: Character) -> int:
    """Exact [a, b]; requires a non-negative rational integer result."""
    if not a.group.same_elements(b.group):
        raise CharacterError("characters on different groups")
    G = a.group
    raw = pairing(a.coeffs[None], G.conjugacy_classes().sizes, b.coeffs[None], G.exponent())
    return int(as_multiplicities(raw, G.order)[0, 0])


def decompose(theta: Character) -> ConstituentDecomposition:
    """Full decomposition of theta against the canonical table of its group."""
    table = character_table(theta.group)
    row = table.multiplicities(theta)
    return ConstituentDecomposition(tuple((table[i], m) for i, m in enumerate(row) if m))


def eta_count(chi: Character, psi: Character = None) -> int:
    """Number of distinct irreducible constituents of chi*psi (psi defaults
    to the complex conjugate of chi)."""
    if psi is None:
        psi = chi.conjugate()
    return decompose(chi * psi).eta


def _check_subgroup(H: PermGroup, G: PermGroup) -> None:
    if not H.is_subgroup_of(G):
        raise GroupError("not a subgroup")


def _fusion(N: PermGroup, G: PermGroup) -> list[int]:
    """The class of G holding each class of N, in N's class order."""
    reps = _rows_of(N.conjugacy_classes().representatives, N.degree)
    return _classes_of_rows(G.conjugacy_classes(), reps).tolist()


def restrict(a: Character, N: PermGroup) -> Character:
    """Values of a read off on N's own class structure, at N's conductor."""
    G = a.group
    _check_subgroup(N, G)
    if N.same_elements(G):
        return a
    try:
        return Character._of(N, down(a.coeffs[_fusion(N, G)], G.exponent(), N.exponent()))
    except CyclotomicError:
        raise CharacterError(f"restricted values do not lie in Z[zeta_{N.exponent()}]") from None


def restriction_multiplicities(thetas, N: PermGroup) -> list[list[int]]:
    """Rows [theta|_N, psi] over psi in N's canonical table, one per theta in
    a sequence of class functions of one group G containing N, read on N's
    classes through class fusion and paired at N's conductor."""
    if not thetas:
        return []
    G = thetas[0].group
    if not all(t.group.same_elements(G) for t in thetas):
        raise CharacterError("characters on different groups")
    _check_subgroup(N, G)
    rows = np.stack([t.coeffs for t in thetas])[:, _fusion(N, G)]
    try:
        # integral multiplicities would put theta|_N in Z[zeta_(e_N)]
        rows = down(rows, G.exponent(), N.exponent())
    except CyclotomicError:
        raise CharacterError("inner product not integral") from None
    return character_table(N)._multiplicity_rows(rows).tolist()


def _branching(N: PermGroup, M: PermGroup) -> tuple[np.ndarray, np.ndarray]:
    """N's table restricted to a normal M of prime index p, kept on it under
    M's content key as (head, first): first[nu] is the first row of nu's
    g-orbit, g in N outside M, and head[psi] that of the orbit whose sum is
    psi|_M, so [psi|_M, nu] = (head[psi] == first[nu]).  Clifford: psi|_M is
    one such sum, found among them all; Irr(M) is a basis, so a match proves it."""
    p = N.order // M.order
    if not (M.is_normal_in(N) and _is_prime(p)):
        raise GroupError("not a normal subgroup of prime index")
    table = character_table(N)
    out = table._branching.get(M.content_key)
    if out is None:
        below = character_table(M)
        # any g in N outside M has the same orbits: M fixes its own characters
        # and g generates N / M
        g = next(x for x in N.generators if x not in M)
        try:
            first = _orbit_heads(below, g, p)
            heads, sums = _orbit_sums(first, below.cube)
            # both sides keyed at one dtype, wide enough for the sums and the rows
            sums = narrowest(lift(sums, below.e, table.e))
            dtype = np.promote_types(sums.dtype, table.cube.dtype)
            keys = _as_keys(sums.astype(dtype, copy=False).reshape(len(sums), -1))
            order = np.argsort(keys)
            restricted = table.cube[:, _fusion(M, N)].astype(dtype, copy=False)
            restricted = restricted.reshape(len(table), -1)
            pos = _key_positions(keys[order], restricted, "a restriction is no orbit sum")
        except TableError as exc:
            raise TableError(
                f"internal branching failure: {exc} (group order {N.order}, index {p})"
            ) from None
        head = heads[order[pos]]
        head.setflags(write=False)
        out = table._branching[M.content_key] = (head, first)
    return out


def branching_matrix(N: PermGroup, M: PermGroup) -> np.ndarray:
    """The int64 matrix [psi|_M, nu] over psi in N's canonical table (rows)
    and nu in M's (columns), for a normal subgroup M of prime index: the one
    place the dense matrix is formed, from the index vectors of _branching."""
    head, first = _branching(N, M)
    return (head[:, None] == first).astype(np.int64)


def _restrictions_along(series, top) -> list[np.ndarray]:
    """[psi|_N, nu] for each N of a chief series and psi of series[-1]'s table
    at the indices top: R_t is the identity's rows there, and R_(i-1)'s column
    nu sums R_i's columns psi with head[psi] = first[nu], as restriction is transitive."""
    out = [np.eye(len(character_table(series[-1])), dtype=np.int64)[top]]
    for i in range(len(series) - 1, 0, -1):
        head, first = _branching(series[i], series[i - 1])
        by_head = np.zeros((len(out[-1]), len(first)), dtype=np.int64)
        np.add.at(by_head.T, head, out[-1].T)
        out.append(by_head[:, first])
    return out[::-1]


def induce(nu: Character, G: PermGroup) -> Character:
    """Frobenius induction from a subgroup, computed over class fusion."""
    H = nu.group
    _check_subgroup(H, G)
    if H.same_elements(G):
        return nu
    gcls = G.conjugacy_classes()
    hcls = H.conjugacy_classes()
    # fusion[k, d] = |C_G(g_k)| |d-th class of H| when that class lies in g_k's
    fusion = np.zeros((len(gcls), len(hcls)), dtype=np.int64)
    for d, k in enumerate(_fusion(H, G)):
        fusion[k, d] = G.order // gcls.sizes[k] * hcls.sizes[d]
    sums = linear_map(fusion, lift(nu.coeffs, H.exponent(), G.exponent()))
    if (sums % H.order).any():
        raise CharacterError("inner product not integral")
    return Character._of(G, sums // H.order)


def kernel(a: Character) -> PermGroup:
    """Elements where the character takes its degree value; always normal."""
    return _subgroup_of_classes(a.group, (a.coeffs == a.coeffs[0]).all(axis=1))


def center_of_character(a: Character) -> PermGroup:
    """Elements where the character value has maximal modulus, i.e. where
    value * conj(value) equals the squared degree; contains the kernel."""
    e = a.group.exponent()
    norms = multiply(a.coeffs, conjugate(a.coeffs, e), e)
    return _subgroup_of_classes(a.group, (norms == norms[0]).all(axis=1))


def _subgroup_of_classes(G: PermGroup, kept) -> PermGroup:
    """The subgroup made of the classes k of G with kept[k] true."""
    keep = np.asarray(kept)[G.conjugacy_classes().element_class]
    return G._subgroup_of_keys(G.element_keys()[1][keep])


def lin(G: PermGroup) -> list[Character]:
    """The linear characters, in canonical table order."""
    table = character_table(G)
    return [chi for chi in table if chi.degree == 1]


def irr_mod(M: PermGroup, N: PermGroup) -> list[Character]:
    """Irreducible characters of M whose kernel contains the normal subgroup N."""
    if not N.is_normal_in(M):
        raise GroupError("not normal")
    table = character_table(M)
    gens = _rows_of(N.generators, N.degree)
    gen_classes = np.unique(_classes_of_rows(M.conjugacy_classes(), gens))
    # rows whose values on N's generator classes equal the degree value
    keep = (table.cube[:, gen_classes] == table.cube[:, :1]).all(axis=(1, 2))
    return [chi for chi, kept in zip(table, keep) if kept]
