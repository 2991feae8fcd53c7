"""Complete irreducible character tables by modular eigenvector computation.

The classic approach: class sums span the center of the group algebra, so the
class multiplication matrices M_i (with M_i[j][k] counting factorizations of
the k-th representative as class-i times class-j elements) commute and share r
one-dimensional eigenspaces over a finite field F_q, q = 1 mod exp(G) and
q > 2*sqrt(|G|).  Each common eigenvector, normalized at the identity class,
is a vector of central character values; degrees come back from a modular
square root and exact values are lifted through power maps into Z[zeta_e].
Lifting runs on blocks of eigenvectors of bounded size, with one product by
the power-map matrix and one by the power basis per block; the first
eigenvector, in order, that fails a check is the one reported.

A table is stored as its (characters, classes, phi(e)) int64 coefficient
cube; its Characters, JSON form, cache entry and pairings are read off it.
What callers derive from it (decompositions, branching matrices to
subgroups) is kept on the table.

Splitting is deterministic: class matrices are consumed in canonical class
order (size ascending, then smallest member; perm), eigenvalues of each
restriction in increasing residue order, and the finished table is sorted
by (degree, coefficient vectors).  Recomputing with a different admissible
prime reproduces the table byte for byte.  A space on which a class matrix
acts as a scalar is one eigenspace and is kept as it is: the eigenlines are
unique, so the table does not depend on where splits happen.  Nor on the
matrices never built: for z central K_(z C_j) = K_z K_j, so class z C_j,
with z's class and class j both earlier, is skipped; the translates z x_j
are looked up once a class matrix is first needed, one central z at a
time.  Images under a class matrix are summed over its nonzeros only,
for the rows of all unsplit spaces at once.  The class algebra is split
semisimple over F_q, so each class matrix acts diagonalizably with its
eigenvalues in F_q: they are read off as the roots of the annihilators of
coordinate seeds, taken in turn until the eigenspaces of the roots found
fill the space, and no minimal polynomial is formed.

Seeding (after Schneider, "Dixon's character table algorithm revisited",
J. Symbolic Comput. 9, 1990): when G = <N, g> is a chief-series member of
index p over N and N's table is already held, the characters of G known
from it are written down mod q: the p extensions of each g-invariant linear
character and one induced character per g-orbit of size p.  Their lines
come directly, and class matrices split only the common kernel of their
functionals, spanned by the rows of the projection that orthogonality gives
onto it.  That orthogonality is checked mod q first, grouped by coset of
N: the known characters are their distinct base rows on N times roots of
unity per coset, so one small product per coset replaces the product over
all known characters and all classes.  g's orbits on N's table are kept on
that table and serve the branching matrix of the same link.  Lifting and
sorting are unchanged, so a seeded table equals the plain one byte for
byte; a group with no held predecessor, and every prime_offset rerun, takes
the plain path, and no table is built only to seed another.

Class matrices, power maps and the seeding's coset decomposition are numpy
gathers over image rows, class i's members read off the group's element
keys; each product, formed in chunks of bounded size, is found by perm's one
key search among those keys, which gives its class.  Each class matrix is
built when the split asks for it and is not kept.

No floating point anywhere.  numpy does the int64 modular linear algebra,
where every product stays below 2^63 because q is kept under 2^21 and the
element cap bounds matrix sizes; the sparse images keep that bound.  The
exact pairing behind multiplicities and orthogonality (cyclotomic.pairing)
works mod primes of its own, at the conjugate embeddings of zeta_e, and is
exact by the Chinese remainder theorem.  A table whose rows the Galois
group permutes as the power maps permute its classes (_rational_pairings,
an exact check kept on the table) has rational-integer norms, products of
rows and orthogonality sums; those pairings read one embedding only.
"""

from __future__ import annotations

import hashlib
import json
import os
import weakref
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from .chars import Character
from .cyclotomic import _is_prime, _primitive_root, galois, lift, pairing, power_basis_matrix
from .cyclotomic import reduced_degree, unit_generators
from .errors import CharacterError, EtalabError, TableError
from .perm import ConjugacyClassSet, PermGroup, Permutation, _as_keys, _class_action
from .perm import _classes_of_rows, _locate, _locate_rows, _rows_of

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


def _sqrt_mod(a: int, q: int) -> int:
    """Tonelli-Shanks; raises if a is not a square mod the odd prime q."""
    a %= q
    if a == 0:
        return 0
    if pow(a, (q - 1) // 2, q) != 1:
        raise TableError("internal lifting failure: degree is not a square residue")
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    s, m = q - 1, 0
    while s % 2 == 0:
        s //= 2
        m += 1
    z = 2
    while pow(z, (q - 1) // 2, q) == 1:
        z += 1
    c = pow(z, s, q)
    t = pow(a, s, q)
    x = pow(a, (s + 1) // 2, q)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        x = x * b % q
        c = b * b % q
        t = t * c % q
        m = i
    return x


# ---------------------------------------------------------------------------
# modular linear algebra (int64 arrays, entries reduced mod q < 2^21)

def _rref(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    a = a % q
    rows, cols = a.shape
    r = c = 0
    pivots = []
    while r < rows and c < cols:
        # the next pivot column is c when it has a nonzero below row r, else
        # the first later column that has one
        below = np.flatnonzero(a[r:, c])
        if not len(below):
            nonzero = np.flatnonzero(a[r:, c:].any(axis=0))
            if not len(nonzero):
                break
            c += int(nonzero[0])
            below = np.flatnonzero(a[r:, c])
        piv = r + int(below[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        # row r is zero left of c, so only columns c.. change, and only in
        # the rows with a nonzero in column c
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), q - 2, q) % q
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != r]
        a[hit, c:] = (a[hit, c:] - np.outer(a[hit, c], a[r, c:])) % q
        pivots.append(c)
        r += 1
        c += 1
    return a[:r], pivots


def _nullspace(a: np.ndarray, q: int) -> np.ndarray:
    """Rows spanning the right nullspace of a over F_q."""
    ech, pivots = _rref(a, q)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -ech[:, free].T % q
    return basis


def _vector_annihilator(mat: np.ndarray, v: np.ndarray, q: int) -> np.ndarray:
    """Monic minimal polynomial (ascending coeffs) annihilating v under mat."""
    d = len(v)
    rows: list[np.ndarray] = []
    pivs: list[int] = []
    combos: list[np.ndarray] = []
    u = v % q
    power = 0
    while True:
        w = u.copy()
        wc = np.zeros(d + 1, dtype=np.int64)
        wc[power] = 1
        for row, piv, cmb in zip(rows, pivs, combos):
            c = int(w[piv])
            if c:
                w = (w - c * row) % q
                wc = (wc - c * cmb) % q
        nz = np.nonzero(w)[0]
        if len(nz) == 0:
            return wc[: power + 1]
        piv = int(nz[0])
        inv = pow(int(w[piv]), q - 2, q)
        rows.append(w * inv % q)
        pivs.append(piv)
        combos.append(wc * inv % q)
        u = mat @ u % q
        power += 1


def _poly_roots(poly: np.ndarray, q: int) -> list[int]:
    xs = np.arange(q, dtype=np.int64)
    acc = np.zeros(q, dtype=np.int64)
    for c in poly[::-1]:
        acc = (acc * xs + int(c)) % q
    return [int(x) for x in np.nonzero(acc == 0)[0]]


def _split_spaces(spaces: list[np.ndarray], mat: np.ndarray, q: int) -> list[np.ndarray]:
    """Refine each space (rows in RREF) into the eigenspaces of mat on it."""
    # images = basis @ mat.T over mat's nonzeros, for the rows of all spaces
    # of dimension above one at once; every row of mat has a nonzero, so the
    # row starts are r increasing indices and no reduceat segment is empty
    rows, cols = np.nonzero(mat)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    multi = [basis for basis in spaces if basis.shape[0] > 1]
    dims = [basis.shape[0] for basis in multi]
    first = np.cumsum([0] + dims[:-1])
    stacked = np.vstack(multi)
    images = np.add.reduceat(stacked[:, cols] * mat[rows, cols], starts, axis=1) % q
    # mat acts on a space as a scalar when each image row is one scalar times
    # its basis row: the whole space is then one eigenspace
    scalars = images[np.arange(len(stacked)), (stacked != 0).argmax(axis=1)]
    fits = ~((images - scalars[:, None] * stacked) % q).any(axis=1)
    fits &= scalars == np.repeat(scalars[first], dims)
    blocks = iter(zip(first.tolist(), np.logical_and.reduceat(fits, first).tolist()))
    refined: list[np.ndarray] = []
    for basis in spaces:
        d = basis.shape[0]
        if d == 1:
            refined.append(basis)
            continue
        start, is_scalar = next(blocks)
        if is_scalar:
            refined.append(basis)
            continue
        image = images[start : start + d]
        # action on coordinate columns; image rows expand as act.T @ basis
        act = image[:, (basis != 0).argmax(axis=1)].T.copy()
        if ((act.T @ basis - image) % q).any():
            raise TableError("internal eigensplit failure: space is not invariant")
        # act is diagonalizable over F_q, so the roots of the coordinate
        # seeds' annihilators are eigenvalues; seeds run until their
        # eigenspaces fill the space
        eye = np.eye(d, dtype=np.int64)
        eigen: dict[int, np.ndarray] = {}
        for seed in eye:
            for lam in _poly_roots(_vector_annihilator(act, seed, q), q):
                if lam not in eigen:
                    eigen[lam] = _nullspace((act - lam * eye) % q, q)
                    if not len(eigen[lam]):
                        raise TableError("internal eigensplit failure: root without eigenvector")
            if sum(map(len, eigen.values())) == d:
                break
        else:
            raise TableError("internal eigensplit failure: eigenspaces do not fill the space")
        # basis is in RREF, so (RREF of null) @ basis is in RREF too
        refined.extend(_rref(eigen[lam], q)[0] @ basis % q for lam in sorted(eigen))
    return refined


def _central_translates(classes: ConjugacyClassSet) -> Iterator[np.ndarray]:
    """For each central class in turn, the class of z x_j for every class j,
    z its element and x_j j's representative: (z x_j)[pt] = x_j[z[pt]]."""
    reps = _rows_of(classes.representatives, classes.group.degree)
    for z in reps[: classes.sizes.count(1)]:
        yield _classes_of_rows(classes, reps[:, z], _lookup_failure(classes.group))


def _common_eigenbasis(classes: ConjugacyClassSet, spaces: list[np.ndarray], q: int) -> np.ndarray:
    """Rows of the returned (r, r) array span the r common eigenlines.

    spaces are invariant subspaces (rows in RREF) whose direct sum is F_q^r;
    only those of dimension above one are split, by class matrices in class
    order.  For z central K_(z C_j) = K_z K_j, so a class z C_j whose central
    class and class j both come before it acts as a scalar on every space
    the classes before it leave, and its matrix is not built."""
    r = len(classes)
    order = classes.group.order
    # the central classes come first; step i marks the translates of class i - 1
    translates = _central_translates(classes)
    redundant = np.zeros(r, dtype=bool)
    # eigenspace dimensions always sum to r, so r spaces means r lines
    i = 0
    try:
        for i in range(1, r):
            if len(spaces) == r:
                break
            image = next(translates, None)
            if image is not None:
                redundant[image[image > np.maximum(np.arange(r), i - 1)]] = True
            if not redundant[i]:
                spaces = _split_spaces(spaces, class_matrix(classes, i) % q, q)
        if len(spaces) < r:
            raise TableError("internal eigensplit failure: class matrices leave a space unsplit")
        out = np.vstack(spaces)
        if not out[:, 0].all():
            raise TableError("internal eigensplit failure: eigenvector vanishes at the identity")
    except TableError as exc:
        raise TableError(f"{exc} (group order {order}, q {q}, class matrix {i})") from None
    scale = np.array([pow(int(row[0]), q - 2, q) for row in out], dtype=np.int64)
    return out * scale[:, None] % q


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


def _power_classes(classes: ConjugacyClassSet, n: int) -> np.ndarray:
    """(r, n) array: the class of rep_j^s for each class j and each s < n,
    applying each representative once more per step, one gather for all."""
    G = classes.group
    reps = _rows_of(classes.representatives, G.degree)
    power = np.broadcast_to(np.arange(G.degree), reps.shape)
    out = np.empty((len(reps), n), dtype=np.int64)
    for s in range(n):
        out[:, s] = _classes_of_rows(classes, power, _lookup_failure(G))
        power = np.take_along_axis(reps, power, axis=1)
    return out


def as_multiplicities(raw: np.ndarray, order: int) -> list:
    """A pairing result (int64 or object) divided by |G|, as nested lists of
    non-negative integers: every coefficient past the first must vanish."""
    head = raw[..., 0]
    if raw[..., 1:].any() or (head % order).any() or (head < 0).any():
        raise CharacterError("inner product not integral")
    return (head // order).tolist()


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
        self.cube.setflags(write=False)  # every attribute set below derives from it
        object.__setattr__(
            self, "irreducibles", tuple(Character._of(self.group, row) for row in self.cube)
        )
        # the rows as byte keys, sorted, with their table indices
        keys = _as_keys(self.cube.reshape(len(self.cube), -1))
        order = np.argsort(keys)
        object.__setattr__(self, "_sorted_keys", (keys[order], order))
        # charops.decompose keeps its results here, keyed by value_key(), and
        # charops._norm_decompositions the table's list under "norms" and
        # its multiplicity rows under "norm rows"
        object.__setattr__(self, "_decompositions", {})
        # charops.branching_matrix keeps its results here, keyed by the
        # subgroup's content_key
        object.__setattr__(self, "_branching", {})
        # _orbit_heads keeps its results here, keyed by (g's images, p)
        object.__setattr__(self, "_orbits", {})

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
        """The table index of each int64 row of a (m, classes, phi(e))
        stack; TableError if one is not in the table."""
        keys, order = self._sorted_keys
        pos = _key_positions(keys, rows.reshape(len(rows), -1), "character not in table")
        return order[pos].tolist()

    @property
    def principal_index(self) -> int:
        one = np.zeros((1, *self.cube.shape[1:]), dtype=np.int64)
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
        try:
            coeffs = chi.coeffs.astype(np.int64, copy=False)
        except OverflowError:  # a coefficient past int64 is in no row
            raise TableError("character not in table") from None
        return self._rows_index(coeffs[None])[0]

    def multiplicities(self, theta: Character) -> list[int]:
        """[theta, chi_i] for every table entry, as exact integers.  They are
        rational when the table passes its _rational_pairings check and
        sigma_u(theta) = theta o P_u for each of its unit generators u, and
        are then paired at one embedding."""
        if not theta.group.same_elements(self.group):
            raise CharacterError("characters on different groups")
        actions = self._galois_actions
        rational = actions is not None and all(
            np.array_equal(galois(theta.coeffs, self.e, u), theta.coeffs[act]) for u, act in actions
        )
        return self._multiplicity_rows(theta.coeffs[None], self.e, rational)[0]

    def _multiplicity_rows(self, rows, e: int, rational: bool = False) -> list[list[int]]:
        """[row, chi_i] for a (m, classes, phi(e)) stack of class functions, or
        a sequence of such stacks standing for their pointwise products, on
        this table's classes at a conductor e that self.e divides.

        The pairing runs at e, so nothing is rebased down: the cube is lifted.
        rational is the caller's proof that every multiplicity is a rational
        integer; the pairing then reads them at one embedding.
        """
        raw = pairing(rows, self.classes.sizes, lift(self.cube, self.e, e), e, rational)
        return as_multiplicities(raw, self.group.order)

    @property
    def _rational_pairings(self) -> bool:
        """Whether the Galois action on the rows matches the power maps, so
        that every pairing of products of rows and their conjugates, and
        every column sum sum_i chi_i(k) conj(chi_i(l)), is a rational integer.
        See _galois_actions."""
        return self._galois_actions is not None

    @cached_property
    def _galois_actions(self) -> Optional[tuple[tuple[int, np.ndarray], ...]]:
        """(u, P_u) for each u of a generating set of (Z/e)^x, with P_u the
        class map k -> class of x_k^u, when the table passes the checks below;
        None when it fails one.

        With sigma_u the automorphism zeta_e -> zeta_e^u: (a) P_u permutes the
        classes and keeps their sizes; (b) sigma_u(cube) equals cube[:, P_u]
        exactly; (c) the rows of cube[:, P_u] are the table's rows, each once.
        By (a) and (b), sigma_u fixes sum_k |C_k| prod f(k) conj(y(k)) for rows
        or conjugate rows f and y, and for y a row and f any class function
        with sigma_u(f) = f o P_u; by (b) and (c) it permutes the rows, which
        fixes each column sum.  Fixed by every sigma_u, such a sum is
        rational; it is an algebraic integer, so a rational integer."""
        sizes = np.array(self.classes.sizes)
        r = len(sizes)
        gens = unit_generators(self.e)
        power = _power_classes(self.classes, max(gens, default=0) + 1)
        for u in gens:
            act = power[:, u]
            if (np.sort(act) != np.arange(r)).any() or (sizes[act] != sizes).any():
                return None
            image = self.cube[:, act]
            if not np.array_equal(galois(self.cube, self.e, u), image):
                return None
            try:
                rows = self._rows_index(image)
            except TableError:
                return None
            if sorted(rows) != list(range(len(rows))):
                return None
        return tuple((u, power[:, u]) for u in gens)

    def verify_orthogonality(self) -> None:
        """Exact row and column orthogonality; raises TableError on failure.
        Both relations are rational integers when the table passes its
        _rational_pairings check, and are then paired at one embedding."""
        order = self.group.order
        sizes = self.classes.sizes
        cube = self.cube
        rational = self._rational_pairings
        gram = pairing(cube, sizes, cube, self.e, rational)
        expect = np.zeros(gram.shape, dtype=np.int64)
        for i in range(len(cube)):
            expect[i, i, 0] = order
        if (gram != expect).any():
            raise TableError("row orthogonality violated")
        by_class = cube.transpose(1, 0, 2)
        cols = pairing(by_class, [1] * len(cube), by_class, self.e, rational)
        expect = np.zeros(cols.shape, dtype=np.int64)
        for k, size in enumerate(sizes):
            expect[k, k, 0] = order // size
        if (cols != expect).any():
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
    group N; TableError unless g permutes N's table in orbits of length 1 or p.
    Kept on the table, keyed by g's images and p: the seeding of <N, g> and
    the branching matrix of <N, g> over N read the same orbits."""
    key = (g.images, p)
    first = table._orbits.get(key)
    if first is not None:
        return first
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
    table._orbits[key] = first
    return first


def _seed_spaces(
    G: PermGroup, classes: ConjugacyClassSet, inv_class: np.ndarray, q: int, z: int
) -> Optional[list[np.ndarray]]:
    """The eigenlines of the characters of G = <N, g> known from N's table,
    each as a one-row space, then the space the other lines span; None
    when G is no chief-series member over N or N's table is not held.

    Known mod q, with zeta_e -> z as the lift reads it: the p extensions
    lambda(n g^j) = nu(n) c^j, c^p = nu(g^p), of each g-invariant linear nu,
    and Ind nu, the sum of nu's orbit on N, for each g-orbit of size p.  A
    known psi's line is |C_k| psi(x_k) / psi(1); the other lines span the
    common kernel of v -> sum_k v_k psi(x_k^-1).

    Each known psi is a base row b (nu, or nu's orbit sum, on G's classes)
    times a coefficient a_j on coset N g^j: c^j for an extension, 1 on N
    and 0 off it for Ind nu.  Orthogonality, F L^T = D with F the
    functionals and L the lines, is checked grouped by coset: x_k in
    N g^j has x_k^-1 in N g^-j, so with M_j = b[:, inv(C_j)] diag(|C_k|)
    b[:, C_j]^T over the distinct base rows, (F L^T)[psi, psi'] is
    sum_j a_(-j) a'_j M_j[b, b'] / psi'(1)."""
    link = G._series_link
    below = None if link is None else _held_table(link[0])
    if below is None:
        return None
    N, g = link
    p = G.order // N.order
    e = G.exponent()
    ncls = below.classes
    # N's irreducibles mod q on N's classes, zeta_f read as z^(e/f)
    zf = pow(z, e // below.e, q)
    powers = np.array([pow(zf, j, q) for j in range(below.cube.shape[2])], dtype=np.int64)
    vals = below.cube % q @ powers % q
    # class representative x_k of G as n g^j with n in N: j and n's class,
    # from x_k g^-j for every j < p, (x g^-1)[pt] = g^-1[x[pt]]
    images = np.array(g.images)
    shifted = [_rows_of(classes.representatives, G.degree)]
    for _ in range(p - 1):
        shifted.append(np.argsort(images)[shifted[-1]])
    pos, there = _locate_rows(N, np.stack(shifted))
    if not there.any(axis=0).all():
        raise TableError("internal seeding failure: a class lies outside <N, g>")
    coset = there.argmax(axis=0)
    fused = ncls.element_class[pos[coset, np.arange(len(coset))]]
    # g^p by p - 1 gathers: (g^(s+1))[pt] = g[g^s[pt]]
    gp = images
    for _ in range(p - 1):
        gp = images[gp]
    gp_at, there = _locate_rows(N, gp)
    if not there:
        raise TableError("internal seeding failure: g^p lies outside N")
    try:
        first = _orbit_heads(below, g, p)
    except TableError as exc:
        raise TableError(f"internal seeding failure: {exc}") from None
    # the orbit sums, one per head: nu itself for an orbit of one
    heads, owner, length = np.unique(first, return_inverse=True, return_counts=True)
    sums = np.zeros((len(heads), vals.shape[1]), dtype=np.int64)
    np.add.at(sums, owner, vals)
    deg = below.cube[heads, 0, 0]
    induced = np.flatnonzero(length == p)
    linear = np.flatnonzero((length == 1) & (deg == 1))
    # the p-th roots c = z^s of nu(g^p), for each invariant linear nu
    zpow = np.array([pow(z, s, q) for s in range(e)], dtype=np.int64)
    target = sums[linear, ncls.element_class[gp_at]] % q
    is_root = zpow[np.arange(e) * p % e] == target[:, None]
    if (is_root.sum(axis=1) != p).any():
        raise TableError("internal seeding failure: nu(g^p) has no p-th roots in <z>")
    ext, root = np.nonzero(is_root)
    # the known characters in head order, then root order: base row, a_j, degree
    kept = np.concatenate([induced, linear])
    base = sums[kept][:, fused] % q
    which = np.concatenate([np.arange(len(induced)), len(induced) + ext])
    order = np.argsort(kept[which], kind="stable")
    which = which[order]
    on_n = np.eye(1, p, dtype=np.int64).repeat(len(induced), axis=0)
    coef = np.concatenate([on_n, zpow[np.outer(root, np.arange(p)) % e]])[order]
    degrees = np.concatenate([p * deg[induced], np.ones(len(ext), dtype=np.int64)])[order]
    sizes = np.array(classes.sizes, dtype=np.int64) % q
    deg_inv = np.array([pow(int(d), q - 2, q) for d in degrees], dtype=np.int64)
    gram = np.zeros((len(which), len(which)), dtype=np.int64)
    for j in range(p):
        cls = np.flatnonzero(coset == j)
        m_j = base[:, inv_class[cls]] * sizes[cls] % q @ base[:, cls].T % q
        pairs = coef[:, (p - j) % p, None] * coef[None, :, j] % q
        gram = (gram + pairs * m_j[which][:, which]) % q
    # orthogonality mod q: psi's functional is |G| / psi(1) on its own line, 0 on the others
    if (gram * deg_inv % q != np.diag(G.order % q * deg_inv % q)).any():
        raise TableError("internal seeding failure: known characters are not orthogonal")
    known = base[which] * coef[:, coset] % q
    spaces = [line[None] for line in known * sizes % q * deg_inv[:, None] % q]
    if len(known) < len(sizes):
        # so F L^T = D, D invertible, and the rows of I - F^T D^-1 L span ker F:
        # F kills each, and it is idempotent of rank r - k.  D^-1 L = known sizes / |G|
        scaled = known * sizes % q * pow(G.order, q - 2, q) % q
        rest, _ = _rref(np.eye(len(sizes), dtype=np.int64) - known[:, inv_class].T @ scaled % q, q)
        spaces.append(rest)
    return spaces


def _compute_table(G: PermGroup, prime_offset: int = 0) -> CharTable:
    classes = G.conjugacy_classes()
    r = len(classes)
    e = G.exponent()
    order = G.order
    q = _smallest_admissible_prime(order, e, prime_offset)
    z = pow(_primitive_root(q), (q - 1) // e, q)
    # x^(e-1) is x^-1
    pclass = _power_classes(classes, e)
    inv_class = pclass[:, e - 1]

    spaces = None
    if not prime_offset:
        try:
            spaces = _seed_spaces(G, classes, inv_class, q, z)
        except TableError as exc:
            raise TableError(f"{exc} (group order {order}, q {q})") from None
    if spaces is None:
        spaces = [np.eye(r, dtype=np.int64)]
    omegas = _common_eigenbasis(classes, spaces, q)

    size_inv = np.array([pow(s, q - 2, q) for s in classes.sizes], dtype=np.int64)

    zinv = pow(z, q - 2, q)
    zmat = np.array(
        [[pow(zinv, (l * s) % e, q) for s in range(e)] for l in range(e)], dtype=np.int64
    )
    e_inv = pow(e, q - 2, q)
    basis = power_basis_matrix(e)

    # sum_j w_j w_(j^-1) / |C_j| for each eigenvector w, which is |G| / chi(1)^2;
    # every product is reduced mod q before the next, so int64 never overflows
    s_acc = (omegas * omegas[:, inv_class] % q * size_inv % q).sum(axis=1) % q
    cube = np.empty((r, r, basis.shape[1]), dtype=np.int64)
    deg_sum = 0
    step = max(1, _LIFT_ENTRIES // (r * e))
    # a block of eigenvectors at a time; the first eigenvector, in order, that
    # fails a check is reported with that check's message
    for start in range(0, r, step):
        stop, failure = min(start + step, r), None
        degrees = []
        for n in range(start, stop):
            try:
                d = _sqrt_mod(order % q * pow(int(s_acc[n]), q - 2, q) % q, q)
                d = min(d, q - d)
                if d == 0 or d * d > order:
                    raise TableError("internal lifting failure: bad degree")
            except TableError as exc:
                stop, failure = n, str(exc)
                break
            degrees.append(d)
        d = np.array(degrees, dtype=np.int64)
        chi_mod = d[:, None] * omegas[start:stop] % q * size_inv % q
        mults = chi_mod[:, pclass] @ zmat.T
        mults %= q
        mults *= e_inv
        mults %= q
        over = (mults > d[:, None, None]).any(axis=(1, 2))
        short = (mults.sum(axis=2) != d[:, None]).any(axis=1)
        if (over | short).any():
            n = int(np.argmax(over | short))
            stop, failure = start + n, "internal lifting failure: " + (
                "multiplicity out of range" if over[n] else "multiplicities do not sum to degree"
            )
        if failure is not None:
            raise TableError(f"{failure} (group order {order}, q {q}, eigenvector {stop})")
        deg_sum += int(d @ d)
        cube[start:stop] = mults @ basis
    if deg_sum != order:
        raise TableError(f"internal lifting failure: degree sum mismatch (group order {order}, q {q})")

    return CharTable(group=G, classes=classes, cube=cube[_canonical_order(cube)], e=e, q=q)


# ---------------------------------------------------------------------------
# caching

def _cache_key(G: PermGroup) -> str:
    h = hashlib.sha256()
    h.update(b"etalab-table-v1")
    h.update(G.degree.to_bytes(4, "big"))
    for g in sorted(set(G.generators)):
        for i in g.images:
            h.update(i.to_bytes(4, "big"))
    return h.hexdigest()


def _cache_load(G: PermGroup, path: Path) -> Optional[CharTable]:
    """The cached table of G, or None when the entry is unreadable, malformed,
    describes another group or fails the orthogonality check."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        classes = G.conjugacy_classes()
        e = G.exponent()
        q = _smallest_admissible_prime(G.order, e)
        cube = np.array(data["irreducibles"], dtype=np.int64)
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
    except (OSError, ValueError, TypeError, KeyError, OverflowError, EtalabError):
        return None
    return table


def _held_table(G: PermGroup) -> Optional[CharTable]:
    """G's table if this process holds it, on G or an equal-content group."""
    table = G._char_table
    if table is None:
        table = _TABLE_MEMO.get(G.content_key)
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
    table = _held_table(G)
    if table is not None:
        G._char_table = table
        return table
    memo_key = G.content_key
    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir) / f"{_cache_key(G)}.json"
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
