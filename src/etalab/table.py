"""Complete irreducible character tables by modular eigenvector computation.

The classic approach: class sums span the center of the group algebra, so the
class multiplication matrices M_i (with M_i[j][k] counting factorizations of
the k-th representative as class-i times class-j elements) commute and share r
one-dimensional eigenspaces over a finite field F_q, q = 1 mod exp(G) and
q > 2*sqrt(|G|).  Each common eigenvector, an RREF row and so 1 at the
identity class, is a vector of central character values; its degree is the
one divisor of |G| up to sqrt(|G|) that fits it mod q, read for all
eigenvectors at once, and exact values are lifted through power maps into
Z[zeta_e].
Lifting runs on blocks of eigenvectors of bounded size, with one product by
the power-map matrix and one by the power basis per block; the first
eigenvector, in order, that fails a check is the one reported.

A table is stored as its (characters, classes, phi(e)) coefficient cube,
read-only, in the smallest signed dtype that holds its largest |coefficient|
(int8 for every table of the catalog and its chief series); its Characters,
JSON form, cache entry and pairings are read off it, and every arithmetic
reader widens what it reads.
What callers derive from it (decompositions, branching to subgroups,
chi * conj(chi)'s multiplicities, the cube's values at each pairing prime
and embedding set) is kept on the table.

Splitting is deterministic: class matrices are consumed in canonical class
order (size ascending, then smallest member; perm), eigenvalues of each
restriction in increasing residue order, and the finished table is sorted
by (degree, coefficient vectors).  Recomputing with a different admissible
prime reproduces the table byte for byte.  The eigenlines are unique, so
the table depends neither on where splits happen nor on the matrices never
built.  For z central K_z K_j = K_(z C_j), so the eigenlines with central
character lam, a linear character of the center Z, span the space of v
with v_(z C_j) = lam(z) v_j; every table starts from these blocks, in
RREF.  An eigenline normalized at the identity holds at class i the
eigenvalue of K_i on it, so K_i moves a space exactly when its RREF is
nonzero at column i below its first row; the first such column of any
space is the next class matrix built, and it splits the spaces it moves
(an abelian group's blocks are its r lines: it builds none).  Images are
summed over the class matrix's nonzeros only, for all those rows at once.
The class algebra is split semisimple over F_q, so each class matrix A
acts diagonalizably with its eigenvalues in F_q.  The spaces of one
dimension are split as one stack, with one set of roots, one annihilator
per space: each eigenspace of A on a space is a sum of eigenlines, 1 at the
identity class, the space's first pivot, so the identity-class functional
is nonzero on each, and its annihilator under A is A's minimal polynomial
there.  Each eigenspace is the image of the Lagrange idempotent
P(A) / ((A - lam) P'(lam)), P the product of x - lam over the roots found,
read off its RREF for the whole stack at once.  The parts prove the split:
each part W with root lam has W A^T = lam W, and they fill each space.

Class matrices are numpy gathers over image rows, class i's members read
off the group's element keys; each product, formed in chunks of bounded
size, is found by perm's one key search among those keys, which gives its
class.  Each class matrix is built when the split asks for it and is not
kept; the power map, which the lift and the Galois check read, is kept on
the class set.

No floating point anywhere.  numpy does the int64 modular linear algebra,
where every product stays below 2^63 because q is kept under 2^21 and the
element cap bounds matrix sizes; the sparse images keep that bound.  The
exact pairing behind multiplicities and orthogonality (cyclotomic.pairing)
works mod primes of its own, at the conjugate embeddings of zeta_e, and is
exact by the Chinese remainder theorem.  Every pairing against a table
goes through one seam (_multiplicity_rows), at the table's own conductor:
its table side is the cube as a cyclotomic.Evaluated, kept on the table
with its per-row L1 norms and its values at each prime and embedding set,
evaluated once.  Products of rows, a row's conjugate and the rows
themselves go in as row indices, gathered from those values; a class
function that is no row is evaluated itself.  The seam decides the mode:
a table on whose values the Galois group acts as the power maps permute
its classes (_galois_actions, an exact check kept on the table) has
rational-integer products of rows and row-orthogonality sums, and so has
a class function that the Galois group moves as it moves the classes;
those pairings read one embedding only.  The seam checks each result's
degrees against the class function's; chi * conj(chi)'s multiplicities,
paired there once, are kept on the table (_norm_rows).
Column orthogonality needs no pairing: for a square table it follows from
the rows'.
"""

from __future__ import annotations

import json
import os
import weakref
from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .chars import Character
from .cyclotomic import Evaluated, _is_prime, _primitive_root, galois, linear_map, narrow_dtype
from .cyclotomic import narrowest, pairing, power_basis_matrix, reduced_degree, unit_generators
from .errors import CharacterError, EtalabError, TableError
from .perm import ConjugacyClassSet, PermGroup, Permutation, _as_keys, _class_action
from .perm import _classes_of_rows, _locate, _rows_of

__all__ = [
    "CharTable",
    "character_table",
    "class_matrix",
]

_Q_SCAN_LIMIT = 1 << 21
# bound on the permutation entries one class-matrix gather holds at a time
_GATHER_ENTRIES = 1 << 20
# bound on the multiplicity entries one lifting block holds at a time
_LIFT_ENTRIES = 1 << 16

# tables shared across equal-content group objects while one of them lives
_TABLE_MEMO: "weakref.WeakValueDictionary[str, CharTable]" = weakref.WeakValueDictionary()


# ---------------------------------------------------------------------------
# small number theory over F_q (primality and primitive roots: cyclotomic)

def _smallest_admissible_prime(order: int, e: int, offset: int = 0) -> int:
    """Smallest prime q = 1 mod e with q^2 > 4*order; offset skips ahead."""
    if offset < 0:
        raise TableError("prime_offset must be non-negative")
    q = e + 1
    while True:
        if q > 2 and _is_prime(q) and q * q > 4 * order:
            if offset == 0:
                if q >= _Q_SCAN_LIMIT:
                    raise TableError("modulus too large for exact eigenvalue scan")
                return q
            offset -= 1
        q += e


def _root_of_unity(q: int, e: int) -> int:
    """The primitive e-th root of unity mod q that zeta_e is read as."""
    return pow(_primitive_root(q), (q - 1) // e, q)


# ---------------------------------------------------------------------------
# modular linear algebra (int64 arrays, entries reduced mod q < 2^21)

def _rref(a: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms of a stack of matrices, one pivot of each at
    a time: (the stack reduced, each one's nonzero rows first; each one's
    rank)."""
    a = a % q
    n, rows, cols = a.shape
    # the rows that hold no pivot yet, which are 0 left of the next pivot,
    # and the pivot column of each row that does
    free = np.ones((n, rows), dtype=bool)
    pivot = np.full((n, rows), cols)
    has, live = np.arange(n), a  # the matrices with a pivot left, reduced in place
    while True:
        below = (live != 0) & free[has, :, None]
        ahead = below.any(axis=1)
        left = ahead.any(axis=1)
        if not left.all():
            a[has[~left]] = live[~left]
            has, live, below, ahead = has[left], live[left], below[left], ahead[left]
        if not len(has):
            break
        at = np.arange(len(has))
        c = ahead.argmax(axis=1)
        piv = below[at, :, c].argmax(axis=1)
        free[has, piv] = False
        pivot[has, piv] = c
        # clear column c in every row but the pivot row, which is scaled to 1 there
        factor = live[at, :, c]
        inv = np.array([pow(x, -1, q) for x in factor[at, piv].tolist()], dtype=np.int64)
        row = live[at, piv] * inv[:, None] % q
        factor[at, piv] -= 1
        live -= factor[:, :, None] * row[:, None]
        live %= q
    # rows in pivot order, then the zero rows
    order = pivot.argsort(axis=1, kind="stable")
    return a[np.arange(n)[:, None], order], rows - free.sum(axis=1)


def _vector_annihilator(acts: np.ndarray, q: int) -> np.ndarray:
    """Monic minimal polynomials annihilating e_0 under each of a stack of
    actions: one row each of ascending coefficients, zero above its degree,
    as wide as the largest degree needs.

    The images A^t e_0, t <= d, are the columns of a Krylov matrix, free up
    to the annihilator's degree m and no further, so its RREF has pivots
    0..m-1 and holds in column m the coefficients of A^m e_0 over them."""
    n, d = acts.shape[:2]
    krylov = np.zeros((n, d, d + 1), dtype=np.int64)
    krylov[:, 0, 0] = 1
    for t in range(d):
        krylov[:, :, t + 1] = (acts @ krylov[:, :, t, None])[:, :, 0] % q
    ech, degree = _rref(krylov, q)
    out = np.zeros((n, degree.max() + 1), dtype=np.int64)
    out[:, :-1] = -ech[np.arange(n), : degree.max(), degree] % q
    out[np.arange(n), degree] = 1
    return out


def _poly_roots(polys: np.ndarray, q: int) -> np.ndarray:
    """Each x in F_q, ascending, that is a root of one of a stack of
    polynomials (rows of ascending coefficients); the rows are evaluated at
    every x, in blocks of bounded size."""
    step = max(1, _GATHER_ENTRIES // len(polys))
    roots = []
    for start in range(0, q, step):
        xs = np.arange(start, min(start + step, q), dtype=np.int64)
        acc = np.zeros((len(polys), len(xs)), dtype=np.int64)
        for c in polys.T[::-1]:
            acc = (acc * xs + c[:, None]) % q
        roots.append(xs[(acc == 0).any(axis=0)])
    return np.concatenate(roots)


def _eigenspaces(acts: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenspaces of each of a stack of (n, d, d) actions M on coordinate
    rows, c -> c M, for _split_spaces to prove: (their coordinate rows in
    RREF, each action's in root order; the roots; [action, root] dimensions).

    One seed gives M's eigenvalues.  Only a basis's first row is nonzero at
    its first pivot, and each eigenspace has a vector nonzero there, so
    c -> c_0 is nonzero on each: E_lam e_0 != 0 for every spectral
    projection E_lam, and e_0's annihilator under M, on columns, is M's
    minimal polynomial.  With P the product of x - lam over the stack's
    roots, E_lam = L_lam(M), L_lam = P / ((x - lam) P'(lam)): it projects on
    lam's eigenspace, and is 0, giving no part, where lam is no eigenvalue
    of M.  Every part, a line or wider, is E_lam's row space in RREF, read
    for every (action, root) pair at once."""
    n, d = acts.shape[:2]
    lams = _poly_roots(_vector_annihilator(acts, q), q)
    k = len(lams)
    # P's coefficients, ascending, and each M^t for t < k, none without roots
    poly = np.ones(1, dtype=np.int64)
    for lam in lams.tolist():
        poly = np.convolve(poly, [q - lam, 1]) % q
    powers = np.empty((k, n, d, d), dtype=np.int64)
    powers[:1] = np.eye(d, dtype=np.int64)
    for t in range(1, k):
        powers[t] = acts @ powers[t - 1] % q
    # P / (x - lam) for every lam by synthetic division, ascending, and its value at lam
    quot = np.zeros((k, k + 1), dtype=np.int64)
    at = np.zeros(k, dtype=np.int64)
    for t in range(k, 0, -1):
        quot[:, t - 1] = (poly[t] + lams * quot[:, t]) % q
        at = (at * lams + quot[:, t - 1]) % q
    inv = np.array([pow(v, -1, q) for v in at.tolist()], dtype=np.int64)
    lagrange = quot[:, :k] * inv[:, None] % q
    # E_lam on every action, [action, lam], unreduced: each sum is below
    # k q^2.  Its RREF holds its row space
    idem = np.tensordot(lagrange, powers, axes=(1, 0)).swapaxes(0, 1)
    ech, size = _rref(idem.reshape(n * k, d, d), q)
    return ech[np.arange(d) < size[:, None]], lams, size.reshape(n, k)


def _split_spaces(spaces: list[np.ndarray], mat: np.ndarray, q: int) -> list[np.ndarray]:
    """Refine each space V (rows in RREF) into the eigenspaces of mat on it;
    each must have a vector nonzero at V's first pivot.  Spaces are split in
    stacks of one dimension d, n at a time with n^2 d^3 <= _LIFT_ENTRIES, so
    that the powers of a stack, one per root, stay bounded too.  V's images
    at its pivots, act_t, are the action on coordinate rows if V is
    invariant, and its parts are coordinate rows times V's basis: they lie
    in V, in RREF.  They prove the split: each part W with root lam has
    W mat^T = lam W, and V's parts have d dimensions.  Their roots differ,
    so their sum is direct and is V: V is invariant, and mat is diagonal on
    it with exactly these eigenspaces.  A missed root, a V that is not
    invariant or a mat not diagonalizable on V leaves V unfilled."""
    # x -> x mat^T over mat's nonzeros for a stack of rows, a block of rows
    # at a time, unreduced: each sum is below r q^2.  Each row of mat has a
    # nonzero: its r row starts increase, no reduceat segment empty
    rows, cols = np.divmod(mat.ravel().nonzero()[0], len(mat))
    starts = rows.searchsorted(np.arange(len(mat)))
    values = mat[rows, cols] % q

    def image(x: np.ndarray) -> np.ndarray:
        step = max(1, _GATHER_ENTRIES // len(cols))
        terms = (x[i : i + step, cols] * values for i in range(0, len(x), step))
        return np.concatenate([np.add.reduceat(t, starts, axis=1) for t in terms])

    dims = np.array([len(basis) for basis in spaces])
    first = np.cumsum(dims) - dims
    stacked = np.concatenate(spaces)
    images = image(stacked)
    refined = []  # (space index, part), each space's in root order
    for d in sorted(set(dims.tolist())):
        which = (dims == d).nonzero()[0]
        step = max(1, isqrt(_LIFT_ENTRIES // d**3))
        for start in range(0, len(which), step):
            chunk = which[start : start + step]
            at = first[chunk, None] + np.arange(d)
            basis = stacked[at]
            act_t = images[at[:, :, None], (basis != 0).argmax(axis=2)[:, None]] % q
            coords, lams, size = _eigenspaces(act_t, q)
            if (size.sum(axis=1) != d).any():
                raise TableError("internal eigensplit failure: eigenspaces do not fill the space")
            parts = (coords.reshape(len(chunk), d, d) @ basis % q).reshape(len(chunk) * d, -1)
            root = np.repeat(np.tile(lams, len(chunk)), size.ravel())
            if ((image(parts) - root[:, None] * parts) % q).any():
                raise TableError("internal eigensplit failure: eigenspaces do not fill the space")
            owner = np.repeat(chunk, (size > 0).sum(axis=1)).tolist()
            refined += zip(owner, np.split(parts, np.cumsum(size[size > 0])[:-1]))
    return [part for _, part in sorted(refined, key=lambda pair: pair[0])]


def _center_blocks(classes: ConjugacyClassSet, q: int) -> list[np.ndarray]:
    """The eigenspaces of all central class matrices at once, one per linear
    character lam of the center Z, with rows in RREF.

    K_z K_j = K_(z C_j) for z central, so an eigenline v with central
    character lam has v_(z C_j) = lam(z) v_j.  lam's space has one row per
    Z-orbit of classes on whose stabilizer lam is trivial, lam(z) at class
    z C_h for h the orbit's first class, its head: the rows' supports are
    disjoint, each starts with 1 at its head, the first at the identity.
    Irr(Z) is built one central element g at a time: with s the least power
    of g in the subgroup H so far, lam(h g^j) = lam(h) c^j for c each s-th
    root of lam(g^s) in <z>, z of order e; translation by g^j h is a gather
    of g's translates."""
    G = classes.group
    r, c = len(classes), classes.sizes.count(1)
    e = G.exponent()
    z = _root_of_unity(q, e)
    zpow = np.array([pow(z, j, q) for j in range(e)], dtype=np.int64)
    reps = _rows_of(classes.representatives, G.degree)
    # H's members as translates (row m: the class of m x_j), their positions
    # by central class, and the characters' values on them
    trans = np.arange(r)[None]
    where = np.full(c, -1)
    where[0] = 0
    vals = np.ones((1, 1), dtype=np.int64)
    for g in range(1, c):
        if where[g] >= 0:
            continue
        shift = _classes_of_rows(classes, reps[:, reps[g]], _lookup_failure(G))
        powers = [np.arange(r)]
        while where[shift[powers[-1]][0]] < 0:
            powers.append(shift[powers[-1]])
        s = len(powers)
        target = vals[:, where[shift[powers[-1]][0]]]
        is_root = zpow[np.arange(e) * s % e] == target[:, None]
        if (is_root.sum(axis=1) != s).any():
            raise TableError("internal eigensplit failure: lam(g^s) has no s-th roots in <z>")
        # one row per root c: its target's index, and c^j for j < s
        ext, root = np.nonzero(is_root)
        coef = zpow[np.outer(root, np.arange(s)) % e]
        trans = np.stack(powers)[:, trans].reshape(-1, r)
        where[trans[:, 0]] = np.arange(len(trans))
        vals = (coef[:, :, None] * vals[ext][:, None, :] % q).reshape(len(ext), -1)
    heads = np.flatnonzero(trans.min(axis=0) == np.arange(r))
    # lam is trivial on h's stabilizer when no member fixing h has lam != 1;
    # only the members fixing some head count (for abelian G, the identity)
    fixes = trans[:, heads] == heads
    fixers = np.flatnonzero(fixes.any(axis=1))
    moved = (vals[:, fixers] != 1).astype(np.int64) @ fixes[fixers].astype(np.int64)
    which, orbit = np.nonzero(moved == 0)
    rows = np.zeros((len(which), r), dtype=np.int64)
    rows[np.arange(len(which))[:, None], trans[:, heads[orbit]].T] = vals[which]
    counts = np.bincount(which, minlength=len(vals))
    return np.split(rows, np.cumsum(counts)[:-1])


def _common_eigenbasis(classes: ConjugacyClassSet, q: int) -> np.ndarray:
    """Rows of the returned (r, r) array span the r common eigenlines.

    The split starts from the center's blocks.  Every unsplit space V is a
    sum of eigenlines, each 1 at the identity class and holding at class i
    the eigenvalue of K_i on it, so V's RREF is 1 at column 0 in its first
    row and 0 there below it: K_i acts on V as a scalar exactly when V's
    rows below the first are 0 at column i.  The first column where some
    space's are not is the next class matrix built, which splits the spaces
    it moves; its eigenspaces on V, sums of eigenlines, are nonzero at
    column 0.  Column z C_h, z central, is lam(z) times column h in every
    block, and h comes first: its matrix is never built.  The spaces end
    as lines in RREF, 1 at the identity class: the rows returned."""
    order = classes.group.order
    step = "center"
    try:
        spaces = _center_blocks(classes, q)
        # [space, i]: K_i moves the space
        while (moved := np.array([space[1:].any(axis=0) for space in spaces])).any():
            i = moved.any(axis=0).argmax()
            step = f"class matrix {i}"
            mat = class_matrix(classes, i)
            parts = _split_spaces([v for v, m in zip(spaces, moved[:, i]) if m], mat, q)
            # no class up to i moves a space now, so the next i is later
            if any(part[1:, : i + 1].any() for part in parts):
                raise TableError("internal eigensplit failure: a moved space does not split")
            spaces = [v for v, m in zip(spaces, moved[:, i]) if not m] + parts
        out = np.vstack(spaces)
        if (out[:, 0] != 1).any():
            raise TableError("internal eigensplit failure: eigenvector vanishes at the identity")
    except TableError as exc:
        # a class lookup failure names the group order, which this context repeats
        message = str(exc).removesuffix(f" (group order {order})")
        raise TableError(f"{message} (group order {order}, q {q}, {step})") from None
    return out


# ---------------------------------------------------------------------------
# class multiplication coefficients

def _key_positions(keys: np.ndarray, rows: np.ndarray, missing: str) -> np.ndarray:
    """Each row's (last axis) position among sorted keys; TableError(missing)
    if one is not there."""
    pos, there = _locate(keys, _as_keys(rows))
    if not there.all():
        raise TableError(missing)
    return pos


def _lookup_failure(G: PermGroup) -> TableError:
    return TableError(
        f"internal class lookup failure: a product is not in the group (group order {G.order})"
    )


def class_matrix(classes: ConjugacyClassSet, i: int) -> np.ndarray:
    """(r, r) matrix whose [j, k] entry counts pairs (x, y) in C_i x C_j
    with x*y equal to the k-th class representative.

    y = x^-1 z_k for every member x of C_i and representative z_k, formed as
    image arrays in chunks of members, looked up among the group's sorted
    elements and counted by class."""
    G = classes.group
    reps = _rows_of(classes.representatives, G.degree)
    r, n = reps.shape
    members = np.flatnonzero(classes.element_class == i)
    step = max(1, _GATHER_ENTRIES // (r * n))
    counts = np.zeros(r * r, dtype=np.int64)
    for start in range(0, len(members), step):
        inv = np.argsort(G._rows()[members[start : start + step]], axis=1)
        # (x^-1 z_k)[pt] = z_k[x^-1[pt]]: products apply the left factor first
        products = reps[np.arange(r)[None, :, None], inv[:, None, :]]
        owner = _classes_of_rows(classes, products, _lookup_failure(G))
        counts += np.bincount((owner * r + np.arange(r)).ravel(), minlength=r * r)
    return counts.reshape(r, r)


def as_multiplicities(raw: np.ndarray, order: int) -> np.ndarray:
    """A pairing result (int64 or object) divided by |G|, as an array of
    non-negative integers of its dtype: every coefficient past the first
    must vanish."""
    head = raw[..., 0]
    if raw[..., 1:].any() or (head % order).any() or (head < 0).any():
        raise CharacterError("inner product not integral")
    return head // order


# ---------------------------------------------------------------------------
# the table object

@dataclass(frozen=True, eq=False)
class CharTable:
    """All irreducible characters of a group, canonically ordered; cube[i, k]
    holds chi_i's value on class k over the power basis of Z[zeta_e]."""

    group: PermGroup
    classes: ConjugacyClassSet
    cube: np.ndarray
    e: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "cube", narrowest(self.cube))
        self.cube.setflags(write=False)  # every attribute set below derives from it
        object.__setattr__(
            self, "irreducibles", tuple(Character._of(self.group, row) for row in self.cube)
        )
        # the rows as byte keys, sorted, with their table indices
        keys = _as_keys(self.cube.reshape(len(self.cube), -1))
        order = np.argsort(keys)
        object.__setattr__(self, "_sorted_keys", (keys[order], order))
        # charops.decompose keeps its results here, keyed by value_key()
        object.__setattr__(self, "_decompositions", {})
        # charops._branching keeps its (head, first) index vectors here, keyed
        # by the subgroup's content_key
        object.__setattr__(self, "_branching", {})

    def __len__(self) -> int:
        return len(self.irreducibles)

    def __iter__(self):
        return iter(self.irreducibles)

    def __getitem__(self, i: int) -> Character:
        return self.irreducibles[i]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.cube[:, 0, 0].tolist())

    def _rows_index(self, rows: np.ndarray) -> list[int]:
        """The table index of each row of a (m, classes, phi(e)) integer or
        object stack; TableError if one is not in the table.  Rows are keyed
        in the cube's dtype, so one with a coefficient outside its range,
        which a cast would wrap, is in no row."""
        keys, order = self._sorted_keys
        bounds = np.iinfo(self.cube.dtype)
        if rows.size and (rows.min() < bounds.min or rows.max() > bounds.max):
            raise TableError("character not in table")
        rows = rows.astype(self.cube.dtype, copy=False).reshape(len(rows), -1)
        return order[_key_positions(keys, rows, "character not in table")].tolist()

    @property
    def principal_index(self) -> int:
        one = np.zeros((1, *self.cube.shape[1:]), dtype=self.cube.dtype)
        one[..., 0] = 1
        try:
            return self._rows_index(one)[0]
        except TableError:
            raise TableError("principal character missing from table") from None

    def _row_images(self, act) -> list[int]:
        """The table index of each row with its classes permuted by act
        (class k read at class act[k]); TableError if one is not in the table."""
        return self._rows_index(self.cube[:, list(act)])

    def index_of(self, chi: Character) -> int:
        if not chi.group.same_elements(self.group):
            raise TableError("character not in table")
        return self._rows_index(chi.coeffs[None])[0]

    def multiplicities(self, theta: Character) -> list[int]:
        """[theta, chi_i] for every table entry, as exact integers."""
        if not theta.group.same_elements(self.group):
            raise CharacterError("characters on different groups")
        return self._multiplicity_rows(theta.coeffs[None])[0].tolist()

    @cached_property
    def _evaluated(self) -> Evaluated:
        """The cube as every pairing against the table reads it, kept on the
        table: its L1 norms and its values at each prime and embedding set."""
        return Evaluated(self.cube)

    def _multiplicity_rows(self, x: np.ndarray) -> np.ndarray:
        """[x_i, chi_j] at [i, j], the one pairing against the table, for x
        an (m, classes, phi(e)) stack of class functions at the table's
        conductor, or an (f, m) array of table rows standing for their
        products, ~j for conj(chi_j), as pairing reads it.

        The multiplicities are rational integers, and are read at one
        embedding, when the table passes its _galois_actions check and, for
        a stack, sigma_u(x) = x[:, P_u] for each of its unit generators u.
        Each row's constituents' degrees must sum to its x_i(1), a rational
        integer; CharacterError otherwise.  The (m, r) result is int64, or
        object when the pairing needs Python integers."""
        actions = self._galois_actions
        rational = actions is not None and (
            x.ndim == 2
            or all(np.array_equal(galois(x, self.e, u), x[:, act]) for u, act in actions)
        )
        raw = pairing(x, self.classes.sizes, self._evaluated, self.e, rational)
        mults = as_multiplicities(raw, self.group.order)
        if x.ndim == 2:
            # a row's degree is its conjugate's
            degrees = self.cube[np.maximum(x, ~x), 0, 0].astype(np.int64).prod(axis=0)
        else:
            degrees = x[:, 0, 0]
        irrational = x.ndim == 3 and x[:, 0, 1:].any()
        if irrational or (linear_map(mults, self.cube[:, :1, 0])[:, 0] != degrees).any():
            raise CharacterError("inner product not integral")
        return mults

    @cached_property
    def _norm_rows(self) -> np.ndarray:
        """The (r, r) array of [chi_i * conj(chi_i), chi_j] at [i, j], from
        one pairing; read-only."""
        rows = np.arange(len(self))
        out = self._multiplicity_rows(np.stack([rows, ~rows]))
        out.setflags(write=False)
        return out

    @cached_property
    def _galois_actions(self) -> Optional[tuple[tuple[int, np.ndarray], ...]]:
        """(u, P_u) for each u of a generating set of (Z/e)^x, with P_u the
        class map k -> class of x_k^u read off the class set's power map,
        when the table passes the checks below; None when it fails one.

        With sigma_u the automorphism zeta_e -> zeta_e^u: (a) P_u permutes the
        classes and keeps their sizes; (b) sigma_u(cube) equals cube[:, P_u]
        exactly.  Then sigma_u fixes sum_k |C_k| prod f(k) conj(y(k)) for rows
        or conjugate rows f and y, and for y a row and f any class function
        with sigma_u(f) = f o P_u.  Fixed by every sigma_u, such a sum is
        rational; it is an algebraic integer, so a rational integer.  Column
        sums need no check of their own: verify_orthogonality pairs none."""
        sizes = np.array(self.classes.sizes)
        power = self.classes.power_map
        gens = unit_generators(self.e)
        for u in gens:
            act = power[:, u]
            if (np.sort(act) != np.arange(len(sizes))).any() or (sizes[act] != sizes).any():
                return None
            if not np.array_equal(galois(self.cube, self.e, u), self.cube[:, act]):
                return None
        return tuple((u, power[:, u]) for u in gens)

    def verify_orthogonality(self) -> None:
        """Exact row and column orthogonality; raises TableError on failure.
        The row relation is the table's pairing of its own rows
        (_multiplicity_rows), read as an integer gram.  With X the (m, r)
        value matrix and D the class sizes, the rows pass when
        X D X* = |G| I: X then has rank m <= r.  For m = r, X is invertible
        and X* X = |G| D^-1, which is the column relation; for m < r, X* X
        has rank m and the columns fail.
        So the columns pass exactly when the rows do and the table is square."""
        try:
            gram = self._multiplicity_rows(np.arange(len(self))[None])
        except CharacterError:
            gram = None
        if gram is None or not np.array_equal(gram, np.eye(len(self), dtype=np.int64)):
            raise TableError("row orthogonality violated")
        if len(self) != len(self.classes):
            raise TableError("column orthogonality violated")

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "degree": self.group.degree,
            "order": self.group.order,
            "exponent": self.e,
            "modulus": self.q,
            "classes": {
                "sizes": list(self.classes.sizes),
                "reps": [list(rep.images) for rep in self.classes.representatives],
            },
            "irreducibles": self.cube.tolist(),
        }


# ---------------------------------------------------------------------------
# the computation

def _canonical_order(cube: np.ndarray) -> np.ndarray:
    """Row order of a coefficient cube sorted by degree, then by the
    flattened coefficients in decreasing order."""
    flat = cube.reshape(len(cube), -1)
    return np.lexsort(np.vstack([-flat.T[::-1], cube[:, 0, 0]]))


def _orbit_heads(table: CharTable, g: Permutation, p: int) -> np.ndarray:
    """The first row of each row's orbit under g, which normalizes the table's
    group N; TableError unless g permutes N's table in orbits of length 1 or p."""
    try:
        image = np.array(table._row_images(_class_action(table.group, g)))
    except TableError:
        raise TableError("a conjugate character is not in N's table") from None
    rows = first = point = np.arange(len(image))
    if (np.sort(image) != rows).any():
        raise TableError("g does not permute N's table")
    for _ in range(p - 1):
        point = image[point]
        first = np.minimum(first, point)
    # g^p fixes every row exactly when every orbit length divides p
    if (image[point] != rows).any():
        raise TableError("an orbit of length neither 1 nor p")
    first.setflags(write=False)
    return first


def _orbit_sums(first: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The heads of the orbits that first (as _orbit_heads gives it) names,
    ascending, and for each the sum of rows over its orbit, in int64."""
    heads, owner = np.unique(first, return_inverse=True)
    # the rows grouped by orbit: every orbit has a row, so no segment is empty
    order = np.argsort(owner, kind="stable")
    starts = np.searchsorted(owner[order], np.arange(len(heads)))
    return heads, np.add.reduceat(rows[order], starts, axis=0, dtype=np.int64)


def _compute_table(G: PermGroup, prime_offset: int = 0) -> CharTable:
    classes = G.conjugacy_classes()
    r = len(classes)
    e = G.exponent()
    order = G.order
    q = _smallest_admissible_prime(order, e, prime_offset)
    z = _root_of_unity(q, e)
    # x^(e-1) is x^-1
    pclass = classes.power_map
    inv_class = pclass[:, e - 1]

    omegas = _common_eigenbasis(classes, q)

    size_inv = np.array([pow(s, -1, q) for s in classes.sizes], dtype=np.int64)
    # mults[n, j, l] = e^-1 sum_s chi_n(x_j^s) z^(-ls), the multiplicity of z^l
    # in chi_n(x_j): zmat folds e^-1 in, and every sum stays below e q^2 < 2^63
    e_inv = pow(e, -1, q)
    zpow = np.array([e_inv * pow(z, -k, q) % q for k in range(e)], dtype=np.int64)
    zmat = zpow[np.outer(np.arange(e), np.arange(e)) % e]
    basis = power_basis_matrix(e)

    # sum_j w_j w_(j^-1) / |C_j| for each eigenvector w, which is |G| / chi(1)^2;
    # every product is reduced mod q before the next, so int64 never overflows
    s_acc = (omegas * omegas[:, inv_class] % q * size_inv % q).sum(axis=1) % q
    # chi(1) divides |G| and chi(1)^2 <= |G| < q^2 / 4, so chi(1) is the one
    # divisor d <= sqrt|G| with s d^2 = |G| mod q: two divisors below q / 2
    # with equal squares mod q are equal.  A row that none fits has a bad degree
    divisors = np.arange(1, isqrt(order) + 1)
    divisors = divisors[order % divisors == 0]
    fits = s_acc[:, None] * (divisors**2 % q) % q == order % q
    degrees = divisors[fits.argmax(axis=1)]
    bad = ~fits.any(axis=1)
    end = int(np.argmax(bad)) if bad.any() else r

    def failure(check: str, n: int) -> TableError:
        return TableError(
            f"internal lifting failure: {check} (group order {order}, q {q}, eigenvector {n})"
        )

    # |coefficient| <= chi(1) max|basis|: the cube is filled at the dtype that bound needs
    magnitude = int(degrees[:end].max(initial=1)) * int(np.abs(basis).max())
    cube = np.empty((r, r, basis.shape[1]), dtype=narrow_dtype(magnitude))
    step = max(1, _LIFT_ENTRIES // (r * e))
    # blocks of eigenvectors up to the first bad degree; the first
    # eigenvector, in order, that fails a check is reported with that check's message
    for start in range(0, end, step):
        stop = min(start + step, end)
        d = degrees[start:stop]
        chi_mod = d[:, None] * omegas[start:stop] % q * size_inv % q
        mults = chi_mod[:, pclass] @ zmat.T
        mults %= q
        over = (mults > d[:, None, None]).any(axis=(1, 2))
        short = (mults.sum(axis=2) != d[:, None]).any(axis=1)
        if (over | short).any():
            n = int(np.argmax(over | short))
            raise failure(
                "multiplicity out of range" if over[n] else "multiplicities do not sum to degree",
                start + n,
            )
        cube[start:stop] = mults @ basis
    if end < r:
        raise failure("bad degree", end)
    if degrees @ degrees != order:
        mismatch = "internal lifting failure: degree sum mismatch"
        raise TableError(f"{mismatch} (group order {order}, q {q})")

    return CharTable(group=G, classes=classes, cube=cube[_canonical_order(cube)], e=e, q=q)


# ---------------------------------------------------------------------------
# caching

def _cache_load(G: PermGroup, path: Path) -> Optional[CharTable]:
    """The cached table of G, or None when the entry is unreadable or
    malformed (a cube value no JSON integer in int64, or nested past the
    recursion limit), describes another group or fails the orthogonality check."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        classes = G.conjugacy_classes()
        e = G.exponent()
        q = _smallest_admissible_prime(G.order, e)
        # the leaves themselves are tested: an int dtype, forced or inferred,
        # would also take "1", 1.0, 1.9 or true
        leaves = np.array(data["irreducibles"], dtype=object)
        if set(map(type, leaves.flat)) != {int}:
            return None
        cube = leaves.astype(np.int64)
        r = len(classes)
        if (
            data["schema"] != 1
            or (data["degree"], data["order"], data["exponent"]) != (G.degree, G.order, e)
            or data["modulus"] != q
            or data["classes"]["sizes"] != list(classes.sizes)
            or data["classes"]["reps"] != [list(rep.images) for rep in classes.representatives]
            or cube.shape != (r, r, reduced_degree(e))
            or (_canonical_order(cube) != np.arange(r)).any()
            # integer degrees >= 1: a row times a root of unity keeps
            # both orthogonality relations and fails only this check
            or (cube[:, 0, 0] < 1).any()
            or cube[:, 0, 1:].any()
        ):
            return None
        table = CharTable(group=G, classes=classes, cube=cube, e=e, q=q)
        table.verify_orthogonality()
    except (OSError, ValueError, TypeError, KeyError, OverflowError, RecursionError, EtalabError):
        return None
    return table


def character_table(
    G: PermGroup,
    cache_dir: Union[str, Path, None] = None,
    prime_offset: int = 0,
) -> CharTable:
    """The full canonical table of G.

    prime_offset > 0 redoes the computation with a later admissible prime
    (a determinism check; results bypass all caches).
    """
    if prime_offset:
        return _compute_table(G, prime_offset)
    # held on G, or on an equal-content group
    memo_key = G.content_key
    table = G._char_table
    if table is None:
        table = _TABLE_MEMO.get(memo_key)
    if table is not None:
        G._char_table = table
        return table
    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir) / f"{memo_key}.json"
        table = _cache_load(G, cache_path)
        if table is not None:
            G._char_table = table
            _TABLE_MEMO[memo_key] = table
            return table
    table = _compute_table(G)
    G._char_table = table
    _TABLE_MEMO[memo_key] = table
    if cache_path is not None:
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            tmp_path = cache_path.with_suffix(f".{os.getpid()}.tmp")
            tmp_path.write_text(
                json.dumps(table.to_json_dict(), separators=(",", ":")), encoding="utf-8"
            )
            os.replace(tmp_path, cache_path)
        except OSError:
            pass
    return table
