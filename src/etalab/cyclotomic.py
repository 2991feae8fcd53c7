"""Exact arithmetic in rings of cyclotomic integers.

A value of conductor e lives in Z[zeta_e] and is stored as an integer
coefficient vector over the power basis 1, zeta_e, ..., zeta_e^(phi(e)-1),
reduced modulo the e-th cyclotomic polynomial.  Reduction is canonical, so two
values with the same conductor are equal exactly when their coefficient
vectors are equal.

One set of array kernels does all the ring arithmetic on (..., phi) stacks of
such vectors: `multiply`, `galois` (zeta_e -> zeta_e^u; `conjugate` is
u = -1), `lift` (to a multiple of the conductor) and `down` (to a divisor),
each an integer matmul against a small cached table read off the powers of
zeta_e.  They run in int64 when a bound computed from the inputs keeps every
partial sum below 2^63, and on Python integers (dtype=object) otherwise;
an input in a narrower dtype (a table's cube, by `narrowest`) is widened
before any sum is formed.
CycValue, the scalar type, calls the same kernels on a single row.  The
pairing sum_k w_k x(k) conj(y(k)) evaluates instead: mod word-size primes
q = 1 mod e, cached per conductor, it reads both sides at the phi conjugate
embeddings of zeta_e, where products are pointwise, and combines the primes
by the Chinese remainder theorem; it widens narrow stacks a bounded block
at a time as it evaluates them.  Its y side may be an Evaluated stack,
which keeps its L1 norms and its values at each prime and embedding set
read so far; a table keeps its cube that way.  x is a stack of its own,
evaluated on each call, or rows of y by index: a product of rows is
gathered from y's kept values, and a row's conjugate is the row read at
the conjugate embedding.  When the caller knows every sum to be a
rational integer (tables check this: table.CharTable._galois_actions),
one embedding gives it, and the pairing reads only that one.  There is no
floating point and no precision loss anywhere.

Conductors mix by rebasing to the least common multiple.  Rebasing up is the
`lift` kernel; rebasing down is the `down` kernel, which reads the values at
a few pivot positions through a small integral inverse and fails loudly if
they do not lie in the smaller ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, lcm, prod

import numpy as np

from .errors import CyclotomicError

__all__ = [
    "CycValue",
    "cyclotomic_polynomial",
    "euler_phi",
]


def euler_phi(n: int) -> int:
    if n < 1:
        raise CyclotomicError(f"conductor must be positive, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # den must be monic; exact arithmetic over Z.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        if c:
            out[k] = c
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    return out, num[:dd]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Monic coefficients, ascending degree, of the e-th cyclotomic polynomial."""
    if e < 1:
        raise CyclotomicError(f"conductor must be positive, got {e}")
    num = [-1] + [0] * (e - 1) + [1]
    den = [1]
    for d in range(1, e):
        if e % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    quo, rem = _poly_divmod_monic(num, den)
    if any(rem):
        raise CyclotomicError("cyclotomic polynomial division left a remainder")
    return tuple(quo)


def reduced_degree(e: int) -> int:
    return len(cyclotomic_polynomial(e)) - 1


@lru_cache(maxsize=None)
def power_basis_matrix(e: int) -> np.ndarray:
    """(e, phi) read-only int64 matrix whose row k is zeta_e^k over the power
    basis; the kernels' tables are all read off it."""
    poly = np.array(cyclotomic_polynomial(e)[:-1], dtype=np.int64)
    out = np.zeros((e, len(poly)), dtype=np.int64)
    out[0, 0] = 1
    for k in range(1, e):
        # times zeta: shift up, then zeta^phi = -(poly[0] + ... + poly[phi-1] zeta^(phi-1))
        out[k, 1:] = out[k - 1, :-1]
        out[k] -= out[k - 1, -1] * poly
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def product_tensor(e: int) -> np.ndarray:
    """(phi, phi, phi) int64 tensor with basis_a * basis_b = sum_c T[a,b,c] basis_c."""
    j = np.arange(reduced_degree(e))
    return power_basis_matrix(e)[(j[:, None] + j) % e]


def as_coeffs(data) -> np.ndarray:
    """Nested lists of integer coefficients as an int64 array, or as a
    dtype=object array of Python integers when a coefficient does not fit."""
    try:
        return np.array(data, dtype=np.int64)
    except OverflowError:
        return np.array(data, dtype=object)


def _magnitude(a: np.ndarray) -> int:
    return max(1, int(a.max(initial=0)), -int(a.min(initial=0)))


def _exact(bound: int, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays in int64 when bound, a bound on every partial sum the
    caller forms from them, is below 2^63; otherwise on Python integers."""
    dtype = np.int64 if bound < 1 << 63 else object
    return tuple(a.astype(dtype, copy=False) for a in arrays)


def narrow_dtype(magnitude: int) -> type:
    """The smallest signed integer dtype d with magnitude <= iinfo(d).max;
    OverflowError past int64."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if magnitude <= np.iinfo(dtype).max:
            return dtype
    raise OverflowError("coefficient does not fit int64")


def narrowest(x: np.ndarray) -> np.ndarray:
    """x in narrow_dtype of its largest |coefficient|: -x and |x| stay in
    that dtype, as its minimum never occurs."""
    return x.astype(narrow_dtype(_magnitude(x)), copy=False)


def linear_map(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m, exactly: x is (..., n) and m is (n, k)."""
    x, m = _exact(m.shape[0] * _magnitude(x) * _magnitude(m), x, m)
    return x @ m


def multiply(x: np.ndarray, y: np.ndarray, e: int) -> np.ndarray:
    """Pointwise products of two (..., phi) stacks of conductor-e values."""
    t = product_tensor(e)
    phi = t.shape[0]
    x, y, t = _exact(phi * phi * _magnitude(x) * _magnitude(y) * _magnitude(t), x, y, t)
    outer = x[..., :, None] * y[..., None, :]
    return outer.reshape(*outer.shape[:-2], phi * phi) @ t.reshape(phi * phi, phi)


def galois(x: np.ndarray, e: int, u: int) -> np.ndarray:
    """Images of a (..., phi) stack of conductor-e values under the
    automorphism zeta_e -> zeta_e^u, u a unit mod e."""
    phi = x.shape[-1]
    return linear_map(x, power_basis_matrix(e)[np.arange(phi) * u % e])


def conjugate(x: np.ndarray, e: int) -> np.ndarray:
    """Complex conjugates of a (..., phi) stack of conductor-e values."""
    return galois(x, e, -1)


@lru_cache(maxsize=None)
def unit_generators(e: int) -> tuple[int, ...]:
    """Units mod e that generate (Z/e)^x: each unit, smallest first, that
    the ones before it do not generate."""
    span, gens = {1 % e}, []
    for u in range(2, e):
        if gcd(u, e) == 1 and u not in span:
            gens.append(u)
            while True:
                more = span | {s * u % e for s in span}
                if more == span:
                    break
                span = more
    return tuple(gens)


def lift(x: np.ndarray, e: int, f: int) -> np.ndarray:
    """A (..., phi(e)) stack of conductor-e values at conductor f, e | f:
    zeta_e^j becomes zeta_f^(jk), k = f / e."""
    if e == f:
        return x
    k = f // e
    return linear_map(x, power_basis_matrix(f)[: k * x.shape[-1] : k])


@lru_cache(maxsize=None)
def _down_map(e: int, f: int) -> tuple[list[int], np.ndarray]:
    """For f | e, the positions of the conductor-e basis at which the rows
    zeta_f^j = zeta_e^(jk), k = e / f, form an invertible block, and that
    block's inverse, which must be integral; one exact solve over Q."""
    k = e // f
    n = reduced_degree(f)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(power_basis_matrix(e)[: k * n : k].tolist())
    ]
    pivots = []
    for col in range(reduced_degree(e)):
        r = len(pivots)
        piv = next((i for i in range(r, n) if aug[i][col]), None)
        if piv is not None:
            row = [v / aug[piv][col] for v in aug[piv]]
            aug[piv], aug[r] = aug[r], row
            for i, a in enumerate(aug):
                if a is not row and a[col]:
                    aug[i] = [v - a[col] * w for v, w in zip(a, row)]
            pivots.append(col)
    # the left block is the inverse times the integer rows: integral when the inverse is
    if any(v.denominator != 1 for a in aug for v in a):
        raise CyclotomicError(f"internal down-rebase failure: no integral inverse for {e} -> {f}")
    return pivots, np.array([[v.numerator for v in a[-n:]] for a in aug], dtype=np.int64)


def down(x: np.ndarray, e: int, f: int) -> np.ndarray:
    """A (..., phi(e)) stack of conductor-e values at conductor f, f | e;
    raises CyclotomicError unless every value lies in Z[zeta_f]."""
    if e == f:
        return x
    pivots, inv = _down_map(e, f)
    out = linear_map(x[..., pivots], inv)
    if not np.array_equal(lift(out, f, e), x):
        raise CyclotomicError(f"values do not lie in conductor {f}")
    return out


# ---------------------------------------------------------------------------
# small number theory, shared with the table computation

# Miller-Rabin with these twelve bases is exact below 3.18e23 (Sorenson and
# Webster, Math. Comp. 86, 2017); every caller's n is below 2^62
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n below 3.18e23."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    # n - 1 = d 2^s with d odd; n is a strong probable prime to base a when
    # a^d = 1 or a^(d 2^i) = -1 for some i < s
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


# ---------------------------------------------------------------------------
# the pairing, by evaluation at the conjugate embeddings mod word-size primes

# bound on the coefficients _values widens to int64 at a time
_VALUE_ENTRIES = 1 << 18


@lru_cache(maxsize=None)
def _embedding(e: int, width: int, i: int) -> tuple[int, np.ndarray, np.ndarray, list[int]]:
    """(q, vand, interp, neg) for the i-th largest prime q = 1 mod e with
    q^2 * 2^width < 2^62: vand[j, t] = a_t^j over the roots a_t of the
    cyclotomic polynomial mod q evaluates the power basis at the embeddings
    zeta_e -> a_t, interp inverts it, and embedding neg[t] is t's conjugate."""
    q = _embedding(e, width, i - 1)[0] - e if i else isqrt((1 << (62 - width)) - 1)
    q -= (q - 1) % e
    while not _is_prime(q):
        q -= e
    z = pow(_primitive_root(q), (q - 1) // e, q)
    roots = [pow(z, u, q) for u in range(e) if gcd(u, e) == 1]
    vand = np.array([[pow(a, j, q) for a in roots] for j in range(len(roots))], dtype=np.int64)
    interp = []
    for a in roots:
        # the cyclotomic polynomial over x - a, by synthetic division, over its value at a
        quotient = [1]
        for c in cyclotomic_polynomial(e)[-2:0:-1]:
            quotient.insert(0, (c + a * quotient[0]) % q)
        scale = pow(sum(c * pow(a, j, q) for j, c in enumerate(quotient)), -1, q)
        interp.append([c * scale % q for c in quotient])
    neg = [roots.index(pow(a, -1, q)) for a in roots]
    return q, vand, np.array(interp, dtype=np.int64), neg


def _values(x: np.ndarray, q: int, vand: np.ndarray) -> np.ndarray:
    """The (m, K, phi) stack x mod q at the embeddings of vand's columns, as
    (embeddings, m, K): one contiguous matrix per embedding, for the fast matmul.
    x is read in int64 blocks of at most _VALUE_ENTRIES coefficients, so a
    narrow stack is never widened whole."""
    m, k, phi = x.shape
    flat = x.reshape(m * k, phi)
    out = np.empty((vand.shape[1], m * k), dtype=np.int64)
    # reduced first only when the evaluation's sums could pass int64
    reduce = x.dtype == object or phi * _magnitude(x) * q >= 1 << 63
    step = max(1, _VALUE_ENTRIES // phi)
    for start in range(0, m * k, step):
        block = flat[start : start + step]
        block = (block % q).astype(np.int64) if reduce else block.astype(np.int64, copy=False)
        out[:, start : start + step] = vand.T @ block.T
    out %= q
    return out.reshape(vand.shape[1], m, k)


def _l1_norms(a: np.ndarray) -> np.ndarray:
    """The (..., K) L1 norms of a (..., K, phi) stack's values, summed in
    int64 unless one could pass it: a narrow stack is not copied wide."""
    wide = a.shape[-1] * _magnitude(a) >= 1 << 63
    return np.abs(a.astype(object) if wide else a).sum(axis=-1, dtype=object if wide else np.int64)


class Evaluated:
    """The y side of pairings: an (n, K, phi) coefficient stack, kept with
    the (n, K) L1 norms of its rows' values and with its values mod each
    pairing prime at each set of embeddings a pairing has read it at."""

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs
        self.norms = _l1_norms(coeffs)
        self._values = {}

    def values(self, q: int, vand: np.ndarray, cols: tuple[int, ...]) -> np.ndarray:
        """The stack at the embeddings cols of vand's columns, as _values gives it."""
        out = self._values.get((q, cols))
        if out is None:
            out = self._values[q, cols] = _values(self.coeffs, q, vand[:, list(cols)])
        return out


def pairing(x: np.ndarray, weights, y, e: int, rational: bool = False) -> np.ndarray:
    """(m, n, phi) coefficients of sum_k w_k x_i(k) conj(y_j(k)) in Z[zeta_e].

    y is an (n, K, phi) coefficient stack, or an Evaluated one, which keeps
    what pairings read of it from one call to the next; weights are K
    integers.  x is an (m, K, phi) coefficient stack, or an (f, m) integer
    array of rows of y standing for their pointwise products, f at a time:
    index j reads y_j and ~j reads conj(y_j), as y_j at the conjugate
    embedding.  Mod each prime, one int64 matmul per embedding forms the
    sums (conj(y) at a is y at 1 / a).  Primes are added until their
    product exceeds twice a bound on the result, which is int64 while that
    product fits and Python integers (dtype=object) otherwise.

    rational is the caller's promise that every sum is a rational integer.
    A rational integer is its own value at any embedding, so each prime then
    takes one matmul, at one embedding, and nothing is interpolated; the
    result is the same, with every coefficient past the first zero.
    """
    side = y if isinstance(y, Evaluated) else Evaluated(y)
    k, phi = side.coeffs.shape[1:]
    w = [int(v) for v in weights]
    by_index = x.ndim == 2
    # the sum is one polynomial in zeta_e of degree below e, reduced once, of L1
    # norm at most sum_k |w_k| prod L1(x(k)) L1(y(k)) over each class's largest
    # L1 norms; conj(y_j) is such a polynomial with y_j's norm
    factors = [side.norms[np.maximum(j, ~j)] for j in x] if by_index else [_l1_norms(x)]
    norms = [a.max(axis=0, initial=0).tolist() for a in (*factors, side.norms)]
    bound = sum(abs(wk) * prod(ns) for wk, *ns in zip(w, *norms))
    bound *= int(np.abs(power_basis_matrix(e)).sum(axis=1).max())
    # one bucket of primes serves every sum of up to 256 terms
    width = max(8, (max(k, phi) - 1).bit_length())
    at = [0] if rational else list(range(phi))
    out, modulus = None, 1
    for i in count():
        q, vand, interp, neg = _embedding(e, width, i)
        # y is read at the conjugates of the embeddings at, and so is a row ~j of x
        cols = tuple(sorted({*at, *(neg[t] for t in at)}))
        values = side.values(q, vand, cols)
        read = np.array([cols.index(t) for t in at])
        read_conj = np.array([cols.index(neg[t]) for t in at])
        acc = np.array([wk % q for wk in w], dtype=np.int64)
        if by_index:
            for j in x:
                col = np.where(j < 0, read_conj[:, None], read[:, None])
                acc = values[col, np.maximum(j, ~j)] * acc % q
        else:
            acc = _values(x, q, vand[:, at]) * acc % q
        # the sums at each embedding, against y's kept values read in place,
        # then their coefficients mod q
        acc = np.stack([a @ values[c].T for a, c in zip(acc, read_conj)]) % q
        acc = acc[0] if rational else acc.transpose(1, 2, 0) @ interp % q
        if i:
            # Garner: the next mixed-radix digit in int64, added on in int64
            # while the product of the primes fits
            digit = (acc - out % q) * pow(modulus, -1, q) % q
            dtype = np.int64 if modulus * q < 1 << 63 else object
            acc = out.astype(dtype) + digit.astype(dtype) * modulus
        out, modulus = acc, modulus * q
        if modulus > 2 * bound:
            out[out > modulus // 2] -= modulus
            if rational:
                coeffs = np.zeros((*out.shape, phi), dtype=out.dtype)
                coeffs[..., 0] = out
                out = coeffs
            return out


@dataclass(frozen=True, eq=False)
class CycValue:
    """A cyclotomic integer: conductor plus reduced coefficient vector."""

    e: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if len(self.coeffs) != reduced_degree(self.e):
            raise CyclotomicError(
                f"coefficient vector has length {len(self.coeffs)}, "
                f"expected {reduced_degree(self.e)} for conductor {self.e}"
            )

    @classmethod
    def integer(cls, e: int, n: int) -> "CycValue":
        coeffs = [0] * reduced_degree(e)
        coeffs[0] = int(n)
        return cls(e, tuple(coeffs))

    @classmethod
    def zero(cls, e: int) -> "CycValue":
        return cls.integer(e, 0)

    @classmethod
    def one(cls, e: int) -> "CycValue":
        return cls.integer(e, 1)

    @classmethod
    def root_of_unity(cls, e: int, k: int = 1) -> "CycValue":
        return cls(e, power_basis_matrix(e)[k % e].tolist())

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_rational_integer():
            raise CyclotomicError(f"{self} is not a rational integer")
        return self.coeffs[0]

    def conjugate(self) -> "CycValue":
        return CycValue(self.e, conjugate(as_coeffs(self.coeffs), self.e).tolist())

    def rebase(self, f: int) -> "CycValue":
        if f == self.e:
            return self
        big = lcm(self.e, f)
        return CycValue(f, down(lift(as_coeffs(self.coeffs), self.e, big), big, f).tolist())

    def _coerce(self, other):
        if isinstance(other, int):
            other = CycValue.integer(self.e, other)
        elif not isinstance(other, CycValue):
            return None, None
        if self.e == other.e:
            return self, other
        big = lcm(self.e, other.e)
        return self.rebase(big), other.rebase(big)

    def __add__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return CycValue(a.e, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycValue(self.e, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return CycValue(a.e, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return CycValue(a.e, multiply(as_coeffs(a.coeffs), as_coeffs(b.coeffs), a.e).tolist())

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise CyclotomicError("negative powers are not defined in Z[zeta]")
        out = CycValue.one(self.e)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return a.coeffs == b.coeffs

    __hash__ = None

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                term = str(abs(c))
            else:
                sym = f"z{self.e}" if j == 1 else f"z{self.e}^{j}"
                term = sym if abs(c) == 1 else f"{abs(c)}*{sym}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"CycValue({self.e}, {self.coeffs!r})"
