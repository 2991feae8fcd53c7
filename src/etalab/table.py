"""Complete irreducible character tables by modular eigenvector computation.

The classic approach: class sums span the center of the group algebra, so the
class multiplication matrices M_i (with M_i[j][k] counting factorizations of
the k-th representative as class-i times class-j elements) commute and share r
one-dimensional eigenspaces over a finite field F_q, q = 1 mod exp(G) and
q > 2*sqrt(|G|).  Each common eigenvector, normalized at the identity class,
is a vector of central character values; degrees come back from a modular
square root and exact values are lifted through power maps into Z[zeta_e].

Splitting is deterministic: class matrices are consumed in canonical class
order, eigenvalues of each restriction in increasing residue order, and the
finished table is sorted by (degree, coefficient vectors).  Recomputing with
a different admissible prime reproduces the table byte for byte.

No floating point anywhere.  numpy does the int64 modular linear algebra,
where every product stays below 2^63 because q is kept under 2^21 and the
element cap bounds matrix sizes.  It also runs the exact pairing behind
multiplicities and orthogonality (cyclotomic.pairing), which moves to Python
integers whenever its overflow bound could be exceeded.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .chars import Character
from .cyclotomic import CycValue, coefficient_stack, pairing, power_basis_matrix, reduced_degree
from .errors import CharacterError, TableError
from .perm import ConjugacyClassSet, PermGroup, Permutation

__all__ = [
    "CharTable",
    "character_table",
    "class_mult_coefficients",
    "class_matrix",
]

_Q_SCAN_LIMIT = 1 << 21

# in-memory table store, shared across equal-content group objects
_TABLE_MEMO: dict[str, "CharTable"] = {}


# ---------------------------------------------------------------------------
# small number theory over F_q

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _smallest_admissible_prime(order: int, e: int, offset: int = 0) -> int:
    """Smallest prime q = 1 mod e with q^2 > 4*order; offset skips ahead."""
    q = e + 1
    while True:
        if q > 2 and _is_prime(q) and q * q > 4 * order:
            if offset == 0:
                if q >= _Q_SCAN_LIMIT:
                    raise TableError("modulus too large for exact eigenvalue scan")
                return q
            offset -= 1
        q += e


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _primitive_root(q: int) -> int:
    factors = _prime_factors(q - 1)
    h = 2
    while True:
        if all(pow(h, (q - 1) // f, q) != 1 for f in factors):
            return h
        h += 1


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
    a = a.copy() % q
    rows, cols = a.shape
    r = 0
    pivots = []
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), q - 2, q)
        a[r] = a[r] * inv % q
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % q
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


def _nullspace(a: np.ndarray, q: int) -> np.ndarray:
    """Rows spanning the right nullspace of a over F_q."""
    ech, pivots = _rref(a, q)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for bi, f in enumerate(free):
        basis[bi, f] = 1
        for ri, p in enumerate(pivots):
            basis[bi, p] = (-int(ech[ri, f])) % q
    return basis


def _poly_divmod_mod(num: np.ndarray, den: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    num = num.copy() % q
    dd = len(den) - 1
    lead_inv = pow(int(den[-1]), q - 2, q)
    quo = np.zeros(max(len(num) - dd, 0), dtype=np.int64)
    for k in range(len(quo) - 1, -1, -1):
        c = num[k + dd] * lead_inv % q
        if c:
            quo[k] = c
            num[k : k + dd + 1] = (num[k : k + dd + 1] - c * den) % q
    rem = num[:dd]
    nz = np.nonzero(rem)[0]
    return quo, rem[: nz[-1] + 1] if len(nz) else rem[:0]


def _poly_gcd_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    while len(b):
        _, r = _poly_divmod_mod(a, b, q)
        a, b = b, r
    inv = pow(int(a[-1]), q - 2, q)
    return a * inv % q


def _poly_mul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    for i, ai in enumerate(a):
        if ai:
            out[i : i + len(b)] = (out[i : i + len(b)] + int(ai) * b) % q
    return out


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


def _minimal_polynomial(mat: np.ndarray, q: int) -> np.ndarray:
    d = mat.shape[0]
    mp = np.array([1], dtype=np.int64)
    for seed in range(d):
        if len(mp) - 1 == d:
            break
        v = np.zeros(d, dtype=np.int64)
        v[seed] = 1
        ann = _vector_annihilator(mat, v, q)
        g = _poly_gcd_mod(mp, ann, q)
        quo, rem = _poly_divmod_mod(ann, g, q)
        if len(rem):
            raise TableError("internal eigensplit failure")
        mp = _poly_mul_mod(mp, quo, q)
    return mp


def _poly_roots(poly: np.ndarray, q: int) -> list[int]:
    xs = np.arange(q, dtype=np.int64)
    acc = np.zeros(q, dtype=np.int64)
    for c in poly[::-1]:
        acc = (acc * xs + int(c)) % q
    return [int(x) for x in np.nonzero(acc == 0)[0]]


def _common_eigenbasis(get_matrix: Callable[[int], np.ndarray], r: int, q: int) -> np.ndarray:
    """Rows of the returned (r, r) array span the r common eigenlines."""
    spaces: list[np.ndarray] = [np.eye(r, dtype=np.int64)]
    for i in range(1, r):
        if all(b.shape[0] == 1 for b in spaces):
            break
        mt = get_matrix(i).T % q
        refined: list[np.ndarray] = []
        for basis in spaces:
            d = basis.shape[0]
            if d == 1:
                refined.append(basis)
                continue
            pivots = [int(np.nonzero(row)[0][0]) for row in basis]
            image = basis @ mt % q
            # action on coordinate columns; image rows expand as act.T @ basis
            act = image[:, pivots].T.copy()
            if ((act.T @ basis - image) % q).any():
                raise TableError("internal eigensplit failure")
            total = 0
            for lam in _poly_roots(_minimal_polynomial(act, q), q):
                shifted = (act - lam * np.eye(d, dtype=np.int64)) % q
                null = _nullspace(shifted, q)
                if null.shape[0] == 0:
                    raise TableError("internal eigensplit failure")
                sub, _ = _rref(null @ basis % q, q)
                refined.append(sub)
                total += null.shape[0]
            if total != d:
                raise TableError("internal eigensplit failure")
        spaces = refined
    if not all(b.shape[0] == 1 for b in spaces):
        raise TableError("internal eigensplit failure")
    out = np.vstack([b[0] for b in spaces]) % q
    for row in out:
        if row[0] == 0:
            raise TableError("internal eigensplit failure")
    scale = np.array([pow(int(row[0]), q - 2, q) for row in out], dtype=np.int64)
    return out * scale[:, None] % q


# ---------------------------------------------------------------------------
# class multiplication coefficients

def _class_matrix_store(classes: ConjugacyClassSet) -> dict:
    store = getattr(classes, "_class_matrices", None)
    if store is None:
        store = {}
        object.__setattr__(classes, "_class_matrices", store)
    return store


def class_matrix(classes: ConjugacyClassSet, i: int) -> np.ndarray:
    """(r, r) matrix whose [j, k] entry counts pairs (x, y) in C_i x C_j
    with x*y equal to the k-th class representative."""
    store = _class_matrix_store(classes)
    mat = store.get(i)
    if mat is None:
        reps = classes.representatives
        r = len(reps)
        mat = np.zeros((r, r), dtype=np.int64)
        for x in classes.members[i]:
            xinv = x.inverse()
            for k, z in enumerate(reps):
                mat[classes.class_of(xinv * z), k] += 1
        store[i] = mat
    return mat


def class_mult_coefficients(classes: ConjugacyClassSet, i: int, j: int) -> list[int]:
    """Structure constants a_{ijk} over k, in canonical class order."""
    return [int(v) for v in class_matrix(classes, i)[j]]


def as_multiplicity(coeffs: np.ndarray, order: int) -> int:
    """A pairing's coefficients divided by |G|, as a non-negative integer."""
    m, rem = divmod(int(coeffs[0]), order)
    if rem or m < 0 or coeffs[1:].any():
        raise CharacterError("inner product not integral")
    return m


# ---------------------------------------------------------------------------
# the table object

@dataclass(frozen=True, eq=False)
class CharTable:
    """All irreducible characters of a group, canonically ordered."""

    group: PermGroup
    classes: ConjugacyClassSet
    irreducibles: tuple[Character, ...]
    e: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "_coeff_cube", None)

    def __len__(self) -> int:
        return len(self.irreducibles)

    def __iter__(self):
        return iter(self.irreducibles)

    def __getitem__(self, i: int) -> Character:
        return self.irreducibles[i]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(chi.degree for chi in self.irreducibles)

    @property
    def principal_index(self) -> int:
        one = CycValue.one(self.e).coeffs
        for i, chi in enumerate(self.irreducibles):
            if chi.degree == 1 and all(v.coeffs == one for v in chi.values):
                return i
        raise TableError("principal character missing from table")

    def index_of(self, chi: Character) -> int:
        index = self._index
        if index is None:
            index = {c.value_key(): i for i, c in enumerate(self.irreducibles)}
            object.__setattr__(self, "_index", index)
        try:
            return index[chi.value_key()]
        except KeyError:
            raise TableError("character not in table") from None

    def _cube(self) -> np.ndarray:
        """(num chars, num classes, phi(e)) stack of coefficient vectors."""
        cube = self._coeff_cube
        if cube is None:
            cube = coefficient_stack([chi.values for chi in self.irreducibles], self.e)
            object.__setattr__(self, "_coeff_cube", cube)
        return cube

    def multiplicities(self, theta: Character) -> list[int]:
        """[theta, chi_i] for every table entry, as exact integers."""
        if not (theta.group is self.group or theta.group.same_elements(self.group)):
            raise CharacterError("characters on different groups")
        tvec = coefficient_stack([theta.values], self.e)
        raw = pairing(tvec, self.classes.sizes, self._cube(), self.e)[0]
        return [as_multiplicity(row, self.group.order) for row in raw]

    def verify_orthogonality(self) -> None:
        """Exact row and column orthogonality; raises TableError on failure."""
        order = self.group.order
        sizes = self.classes.sizes
        cube = self._cube()
        gram = pairing(cube, sizes, cube, self.e)
        expect = np.zeros(gram.shape, dtype=np.int64)
        for i in range(len(self.irreducibles)):
            expect[i, i, 0] = order
        if (gram != expect).any():
            raise TableError("row orthogonality violated")
        by_class = cube.transpose(1, 0, 2)
        cols = pairing(by_class, [1] * len(cube), by_class, self.e)
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
            "irreducibles": self._cube().tolist(),
        }


# ---------------------------------------------------------------------------
# the computation

def _canonical_sort_key(chi: Character):
    flat = []
    for v in chi.values:
        flat.extend(-c for c in v.coeffs)
    return (chi.degree, tuple(flat))


def _compute_table(G: PermGroup, prime_offset: int = 0) -> CharTable:
    classes = G.conjugacy_classes()
    r = len(classes)
    e = G.exponent()
    order = G.order
    q = _smallest_admissible_prime(order, e, prime_offset)

    omegas = _common_eigenbasis(lambda i: class_matrix(classes, i) % q, r, q)

    inv_class = [classes.class_of(rep.inverse()) for rep in classes.representatives]
    sizes = classes.sizes
    size_inv = [pow(s, q - 2, q) for s in sizes]

    # power maps: class of rep_j^s for s < e
    pclass = np.zeros((r, e), dtype=np.int64)
    for j, rep in enumerate(classes.representatives):
        cur = Permutation.identity(G.degree)
        for s in range(e):
            pclass[j, s] = classes.class_of(cur)
            cur = cur * rep

    z = pow(_primitive_root(q), (q - 1) // e, q)
    zinv = pow(z, q - 2, q)
    zmat = np.array(
        [[pow(zinv, (l * s) % e, q) for s in range(e)] for l in range(e)], dtype=np.int64
    )
    e_inv = pow(e, q - 2, q)

    chars = []
    deg_sum = 0
    for w in omegas:
        s_acc = 0
        for j in range(r):
            s_acc = (s_acc + int(w[j]) * int(w[inv_class[j]]) % q * size_inv[j]) % q
        d_sq = order % q * pow(s_acc, q - 2, q) % q
        d = _sqrt_mod(d_sq, q)
        d = min(d, q - d)
        if d == 0 or d * d > order:
            raise TableError("internal lifting failure: bad degree")
        deg_sum += d * d
        chi_mod = np.array(
            [d * int(w[j]) % q * size_inv[j] % q for j in range(r)], dtype=np.int64
        )
        mults = chi_mod[pclass] @ zmat.T % q * e_inv % q
        if (mults > d).any():
            raise TableError("internal lifting failure: multiplicity out of range")
        if (mults.sum(axis=1) != d).any():
            raise TableError("internal lifting failure: multiplicities do not sum to degree")
        coeffs = mults @ power_basis_matrix(e)
        values = tuple(
            CycValue(e, tuple(int(c) for c in coeffs[j])) for j in range(r)
        )
        chars.append(Character(G, values))
    if deg_sum != order:
        raise TableError("internal lifting failure: degree sum mismatch")

    chars.sort(key=_canonical_sort_key)
    return CharTable(group=G, classes=classes, irreducibles=tuple(chars), e=e, q=q)


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
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("schema") != 1:
        return None
    classes = G.conjugacy_classes()
    if (
        data.get("degree") != G.degree
        or data.get("order") != G.order
        or data.get("exponent") != G.exponent()
        or data.get("classes", {}).get("sizes") != list(classes.sizes)
        or data.get("classes", {}).get("reps")
        != [list(rep.images) for rep in classes.representatives]
    ):
        return None
    e = G.exponent()
    phi = reduced_degree(e)
    irr_raw = data.get("irreducibles")
    if not isinstance(irr_raw, list) or len(irr_raw) != len(classes):
        return None
    chars = []
    try:
        for vals in irr_raw:
            if len(vals) != len(classes):
                return None
            values = tuple(CycValue(e, tuple(int(c) for c in v)) for v in vals)
            if len(values[0].coeffs) != phi:
                return None
            chars.append(Character(G, values))
    except Exception:
        return None
    if sum(c.degree * c.degree for c in chars) != G.order:
        return None
    table = CharTable(
        group=G, classes=classes, irreducibles=tuple(chars), e=e, q=int(data.get("modulus", 0))
    )
    try:
        table.verify_orthogonality()
    except TableError:
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
    if G._char_table is not None:
        return G._char_table
    memo_key = G.content_key
    table = _TABLE_MEMO.get(memo_key)
    if table is not None:
        G._char_table = table
        return table
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
