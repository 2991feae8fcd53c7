"""Character algebra: products, inner products, decomposition, restriction,
induction, kernels, and the related subgroup-character bookkeeping.

Decomposition runs against the canonical table of the character's group and
is kept on that table, keyed by the class function's values; products of
table rows are decomposed in blocks, one pairing of their factors each.
Restriction multiplicities [theta|_N, psi] are paired at the parent's
conductor, with N's table lifted up to it, so no value is rebased down; only
the public `restrict` takes values down to N's conductor (the `down` kernel).
A whole table restricted to a normal subgroup of prime index is its
branching matrix, kept on the table and, by Clifford's theorem, looked up
among orbit sums with no pairing; along a chief series the restrictions of
the top table are products of the one-step matrices.
Induction is one integer matmul: a class-fusion matrix, weighted by class
sizes and centralizer orders, times the subgroup character's coefficients
lifted to the parent's conductor, then an exact division by the subgroup
order.  The elementwise formula lives in the test suite as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chars import Character
from .cyclotomic import _is_prime, conjugate, down, lift, linear_map, multiply, pairing
from .errors import CharacterError, CyclotomicError, GroupError, TableError
from .perm import PermGroup, _as_keys, _classes_of_rows, _rows_of
from .table import _key_positions, _orbit_heads
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
    return as_multiplicities(raw, G.order)[0][0]


def _decompositions(table, mults: list[list[int]], degrees) -> list[ConstituentDecomposition]:
    """The decompositions against table of class functions theta from their
    rows of multiplicities; CharacterError unless each row's constituents'
    degrees sum to its theta(1), given in degrees."""
    if (linear_map(np.array(mults, dtype=object), table.cube[:, :1, 0])[:, 0] != degrees).any():
        raise CharacterError("inner product not integral")
    return [
        ConstituentDecomposition(tuple((table[i], m) for i, m in enumerate(row) if m))
        for row in mults
    ]


def decompose(theta: Character) -> ConstituentDecomposition:
    """Full decomposition of theta against the canonical table of its group."""
    table = character_table(theta.group)
    memo, key = table._decompositions, theta.value_key()
    if key not in memo:
        memo[key] = _decompositions(table, [table.multiplicities(theta)], [theta.degree])[0]
    return memo[key]


def _product_decompositions(table, a: np.ndarray, b: np.ndarray) -> list[ConstituentDecomposition]:
    """The decompositions of the pointwise products a[i] * b[i] of two (m,
    classes, phi(e)) coefficient stacks on table's classes (a stack of one
    row broadcasts), as decompose finds them, from one pairing that takes
    each product as its factors.

    Every row of a and b must be a row of table or a row's conjugate: when
    the table passes its _rational_pairings check, the multiplicities are
    then rational integers, and the pairing reads them at one embedding."""
    mults = table._multiplicity_rows((a, b), table.e, table._rational_pairings)
    return _decompositions(table, mults, a[:, 0, 0] * b[:, 0, 0])


def _norm_decompositions(table) -> list[ConstituentDecomposition]:
    """The decomposition of chi * conj(chi) for each chi of table, in table
    order, from one pairing; kept on the table with their multiplicity rows,
    which _norm_multiplicities reads."""
    out = table._decompositions.get("norms")
    if out is None:
        cube = table.cube
        conj = conjugate(cube, table.e)
        mults = table._multiplicity_rows((cube, conj), table.e, table._rational_pairings)
        out = _decompositions(table, mults, cube[:, 0, 0] * cube[:, 0, 0])
        table._decompositions["norms"] = out
        table._decompositions["norm rows"] = mults
    return out


def _norm_multiplicities(table) -> np.ndarray:
    """The (r, r) int64 array of [chi_i * conj(chi_i), chi_j] at [i, j],
    checked as _norm_decompositions checks them."""
    _norm_decompositions(table)
    return np.array(table._decompositions["norm rows"], dtype=np.int64)


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
    classes through class fusion and paired at G's conductor."""
    if not thetas:
        return []
    G = thetas[0].group
    if not all(t.group.same_elements(G) for t in thetas):
        raise CharacterError("characters on different groups")
    _check_subgroup(N, G)
    rows = np.stack([t.coeffs for t in thetas])[:, _fusion(N, G)]
    return character_table(N)._multiplicity_rows(rows, G.exponent())


def branching_matrix(N: PermGroup, M: PermGroup) -> np.ndarray:
    """The int64 matrix [psi|_M, nu] over psi in N's canonical table (rows)
    and nu in M's (columns), for a normal subgroup M of prime index p, kept
    on N's table, keyed by M's content key.  Clifford: for g in N outside M,
    psi|_M is one g-invariant nu or one g-orbit's sum, so psi's row marks the
    orbit whose sum is psi on M's classes; Irr(M) is a basis, so a match proves it."""
    p = N.order // M.order
    if not (M.is_normal_in(N) and _is_prime(p)):
        raise GroupError("not a normal subgroup of prime index")
    table = character_table(N)
    out = table._branching.get(M.content_key)
    if out is None:
        below = character_table(M)
        # the series link's g, when it links N to M, has M's class action held
        link = N._series_link
        linked = link is not None and link[0].same_elements(M)
        g = link[1] if linked else next(x for x in N.generators if x not in M)
        try:
            heads, owner = np.unique(_orbit_heads(below, g, p), return_inverse=True)
            sums = np.zeros((len(heads), *below.cube.shape[1:]), dtype=np.int64)
            np.add.at(sums, owner, below.cube)
            keys = _as_keys(lift(sums, below.e, table.e).reshape(len(sums), -1))
            order = np.argsort(keys)
            restricted = table.cube[:, _fusion(M, N)].reshape(len(table), -1)
            pos = _key_positions(keys[order], restricted, "a restriction is no orbit sum")
        except TableError as exc:
            raise TableError(
                f"internal branching failure: {exc} (group order {N.order}, index {p})"
            ) from None
        out = (owner == order[pos][:, None]).astype(np.int64)
        out.setflags(write=False)
        table._branching[M.content_key] = out
    return out


def _restrictions_along(series) -> list[np.ndarray]:
    """[psi|_N, nu] over series[-1]'s table for each N of a chief series, kept
    on that table: restriction is transitive, so R_(i-1) = R_i @ B_i with
    B_i = branching_matrix(N_i, N_(i-1)) and R_t the identity, which is kept
    there too, under the top group's own content key."""
    top = character_table(series[-1])
    out = []
    for i in range(len(series) - 1, -1, -1):
        key = series[i].content_key
        rows = top._branching.get(key)
        if rows is None:
            if out:
                rows = out[-1] @ branching_matrix(series[i + 1], series[i])
            else:
                rows = np.eye(len(top), dtype=np.int64)
            rows.setflags(write=False)
            top._branching[key] = rows
        out.append(rows)
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
