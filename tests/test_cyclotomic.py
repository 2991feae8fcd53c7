"""Cyclotomic integer arithmetic: polynomial tables, ring axioms,
conjugation, conductor changes, the pairing against its power-basis oracle."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from etalab import cyclotomic
from etalab.catalog import catalog_ids, load_catalog_group
from etalab.cyclotomic import (
    CycValue,
    _down_map,
    _poly_divmod_monic,
    _poly_mul,
    as_coeffs,
    conjugate,
    cyclotomic_polynomial,
    down,
    euler_phi,
    lift,
    multiply,
    pairing,
    reduced_degree,
    unit_generators,
)
from etalab.errors import CyclotomicError
from etalab.table import character_table

from oracles import power_basis_pairing

# classical coefficient lists, smallest conductors
KNOWN_PHI = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    8: [1, 0, 0, 0, 1],
    9: [1, 0, 0, 1, 0, 0, 1],
    12: [1, 0, -1, 0, 1],
}


# the least strong pseudoprimes to the first 1, 2, ..., 7 prime bases, factored
STRONG_PSEUDOPRIMES = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
}


def test_is_prime_matches_a_sieve():
    n = 10**6
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for d in range(2, 1001):
        if sieve[d]:
            sieve[d * d :: d] = False
    assert [cyclotomic._is_prime(k) for k in range(n)] == sieve.tolist()


@pytest.mark.parametrize("n", sorted(STRONG_PSEUDOPRIMES))
def test_is_prime_rejects_strong_pseudoprimes(n):
    factors = STRONG_PSEUDOPRIMES[n]
    assert np.prod(factors, dtype=object) == n
    assert all(cyclotomic._is_prime(f) for f in factors)
    assert not cyclotomic._is_prime(n)


def test_euler_phi_values():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomial_tables():
    for e, coeffs in KNOWN_PHI.items():
        assert tuple(cyclotomic_polynomial(e)) == tuple(coeffs), e
        assert len(coeffs) == euler_phi(e) + 1


def test_root_of_unity_order():
    for e in (2, 3, 4, 6, 8, 9, 12):
        z = CycValue.root_of_unity(e)
        acc = CycValue.one(e)
        for k in range(1, e):
            acc = acc * z
            assert not acc == CycValue.one(e), (e, k)
        assert acc * z == CycValue.one(e)


def test_root_satisfies_cyclotomic_polynomial():
    for e in (3, 4, 5, 8, 9, 12):
        z = CycValue.root_of_unity(e)
        coeffs = cyclotomic_polynomial(e)
        acc = CycValue.zero(e)
        power = CycValue.one(e)
        for c in coeffs:
            acc = acc + power * CycValue.integer(e, c)
            power = power * z
        assert acc.is_zero()


small_e = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12])


@st.composite
def cyc_values(draw, e=None):
    conductor = e if e is not None else draw(small_e)
    deg = reduced_degree(conductor)
    coeffs = draw(
        st.lists(st.integers(-9, 9), min_size=deg, max_size=deg)
    )
    return CycValue(conductor, tuple(coeffs))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    e = data.draw(small_e)
    a = data.draw(cyc_values(e=e))
    b = data.draw(cyc_values(e=e))
    c = data.draw(cyc_values(e=e))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + CycValue.zero(e) == a
    assert a * CycValue.one(e) == a
    assert a - a == CycValue.zero(e)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_conjugation_is_a_ring_involution(data):
    e = data.draw(small_e)
    a = data.draw(cyc_values(e=e))
    b = data.draw(cyc_values(e=e))
    assert a.conjugate().conjugate() == a
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_norm_is_nonnegative_rational_integer_trace_style(data):
    # a * conj(a) has nonnegative coefficient sum under the embedding that
    # sends every root of unity to 1 (evaluation at 1 of a representative),
    # and equals 0 only for a = 0 in the rational case e <= 2
    e = data.draw(st.sampled_from([1, 2]))
    a = data.draw(cyc_values(e=e))
    sq = a * a.conjugate()
    assert sq.is_rational_integer()
    assert sq.as_int() >= 0
    assert (sq.as_int() == 0) == a.is_zero()


def test_rebase_round_trip():
    # e divides f in every pair, so lifting then solving back is lossless
    for e, f in [(3, 6), (4, 12), (1, 8), (6, 12), (2, 6)]:
        z = CycValue.root_of_unity(e) + CycValue.integer(e, 2)
        lifted = z.rebase(f)
        assert lifted.e == f
        assert lifted.rebase(e) == z
        assert lifted == z


def test_rebase_rejects_values_outside_target_field():
    z = CycValue.root_of_unity(8)
    with pytest.raises(CyclotomicError):
        z.rebase(4)


def test_down_inverts_lift_for_every_divisor():
    # f | e <= 60, on int64 stacks and on Python integers past 2**70
    rng = np.random.default_rng(2026)
    for e in range(1, 61):
        for f in (f for f in range(1, e + 1) if e % f == 0):
            x = rng.integers(-99, 100, size=(3, 2, reduced_degree(f)))
            assert np.array_equal(down(lift(x, f, e), e, f), x)
            big = x.astype(object) * 2**70 + 2**71
            assert down(lift(big, f, e), e, f).tolist() == big.tolist()


def test_down_at_prime_power_conductors_selects_coefficients():
    # zeta_f^j = zeta_e^(jk) is a basis vector when e is a prime power
    for e, f in ((8, 4), (27, 3), (32, 2), (25, 5)):
        pivots, inv = _down_map(e, f)
        assert pivots == [j * (e // f) for j in range(reduced_degree(f))]
        assert np.array_equal(inv, np.eye(reduced_degree(f), dtype=np.int64))


def test_down_rejects_values_outside_the_smaller_ring():
    for e, f in ((8, 4), (12, 6)):
        z = as_coeffs([CycValue.one(e).coeffs, CycValue.root_of_unity(e).coeffs])
        with pytest.raises(CyclotomicError):
            down(z, e, f)
        with pytest.raises(CyclotomicError):
            CycValue.root_of_unity(e).rebase(f)


def test_cross_conductor_equality():
    # 1 as an element of Q(zeta_4) equals 1 in Q(zeta_6)
    assert CycValue.one(4) == CycValue.one(6)
    # zeta_6^3 = -1 equals the integer -1 at conductor 1
    m = CycValue.root_of_unity(6, 3)
    assert m == CycValue.integer(1, -1)


def test_as_int_rejects_irrational():
    with pytest.raises(CyclotomicError):
        CycValue.root_of_unity(5).as_int()


def test_integer_round_trip_and_fraction_free():
    v = CycValue.integer(12, -7)
    assert v.is_rational_integer() and v.as_int() == -7
    assert isinstance(Fraction(v.as_int()), Fraction)


def _reduce(poly: list[int], e: int) -> list[int]:
    """poly modulo the e-th cyclotomic polynomial, as phi(e) coefficients."""
    phi = reduced_degree(e)
    _, rem = _poly_divmod_monic(poly + [0] * phi, list(cyclotomic_polynomial(e)))
    return rem


@seed(20260)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernels_match_polynomial_remainders(data):
    # the kernels against schoolbook polynomial arithmetic on Python integers;
    # coefficients past 2**62 trip the overflow bound onto the object path
    e = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 27]))
    phi = reduced_degree(e)
    coeff = st.integers(-9, 9)
    if data.draw(st.booleans()):
        coeff = st.one_of(coeff, st.integers(2**62, 2**64), st.integers(-(2**64), -(2**62)))
    row = st.lists(coeff, min_size=phi, max_size=phi)
    x = data.draw(st.lists(row, min_size=1, max_size=3))
    y = data.draw(st.lists(row, min_size=len(x), max_size=len(x)))
    k = data.draw(st.sampled_from([1, 2, 3]))

    got = multiply(as_coeffs(x), as_coeffs(y), e).tolist()
    assert got == [_reduce(_poly_mul(a, b), e) for a, b in zip(x, y)]

    want = []
    for a in x:
        poly = [0] * e
        for j, c in enumerate(a):
            poly[-j % e] += c
        want.append(_reduce(poly, e))
    assert conjugate(as_coeffs(x), e).tolist() == want

    want = []
    for a in x:
        poly = [0] * (k * phi)
        poly[::k] = a
        want.append(_reduce(poly, k * e))
    assert lift(as_coeffs(x), e, k * e).tolist() == want


def _primes_used(monkeypatch) -> list:
    """(index, q) for each evaluation prime the pairing takes; finding the
    i-th prime of a bucket also asks for the one before it."""
    embedding = cyclotomic._embedding
    taken = []

    def counted(e, width, i):
        out = embedding(e, width, i)
        taken.append((i, out[0]))
        return out

    monkeypatch.setattr(cyclotomic, "_embedding", counted)
    return taken


@pytest.mark.parametrize("gid", catalog_ids())
def test_pairing_matches_power_basis_oracle_on_catalog_tables(gid, monkeypatch):
    # both orthogonality relations, with one evaluation prime each
    table = character_table(load_catalog_group(gid))
    by_class = table.cube.transpose(1, 0, 2)
    taken = _primes_used(monkeypatch)
    for x, weights in ((table.cube, table.classes.sizes), (by_class, [1] * len(table))):
        want = power_basis_pairing(x, weights, x, table.e)
        got = pairing(x, weights, x, table.e)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
    assert [i for i, _ in taken] == [0, 0]


@seed(20261)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pairing_matches_power_basis_oracle_on_drawn_stacks(data):
    # a stack, and products of up to three rows of y by index, each row
    # conjugated or not, against the oracle on the multiplied stack; scales
    # up to 2**64 need three or more primes and Python integers
    e = data.draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 12, 16, 25, 27]))
    phi = reduced_degree(e)
    m, n, k = (data.draw(st.integers(0 if i < 2 else 1, 4)) for i in range(3))
    scale = data.draw(st.sampled_from([1, 2**20, 2**40, 2**64]))
    coeff = st.integers(-9, 9).map(lambda c: c * scale)

    def stack(rows):
        return as_coeffs(data.draw(st.lists(
            st.lists(st.lists(coeff, min_size=phi, max_size=phi), min_size=k, max_size=k),
            min_size=rows, max_size=rows,
        ))).reshape(rows, k, phi)

    x = stack(m)
    y = stack(n)
    weights = data.draw(st.lists(st.integers(-50, 50), min_size=k, max_size=k))
    got = pairing(x, weights, y, e)
    assert got.shape == (m, n, phi)
    assert got.tolist() == power_basis_pairing(x, weights, y, e).tolist()
    if not n:
        return
    # index j is row j of y, ~j its conjugate
    f = data.draw(st.integers(1, 3))
    index = st.lists(st.integers(-n, n - 1), min_size=m, max_size=m)
    rows = np.array(data.draw(st.lists(index, min_size=f, max_size=f)), dtype=np.int64)
    product = None
    for j in rows.reshape(f, m):
        factor = y[np.maximum(j, ~j)]
        factor = np.where((j < 0)[:, None, None], conjugate(factor, e), factor)
        product = factor if product is None else multiply(product, factor, e)
    got = pairing(rows.reshape(f, m), weights, y, e)
    assert got.tolist() == power_basis_pairing(product, weights, y, e).tolist()


@pytest.mark.parametrize(
    "scale, primes, dtype", [(1, 1, np.int64), (2**18, 2, np.int64), (2**30, 3, object)]
)
@pytest.mark.parametrize("e", [1, 2, 9, 25])
def test_pairing_adds_primes_until_the_bound_is_covered(e, scale, primes, dtype, monkeypatch):
    # coefficients +-scale: the bound is about scale**2 times 2**4 to 2**15,
    # and each prime is just below 2**27
    rng = np.random.default_rng(e)
    phi = reduced_degree(e)
    x = rng.choice([-scale, scale], size=(3, 4, phi))
    y = rng.choice([-scale, scale], size=(2, 4, phi))
    weights = [1, 3, 5, 7]
    taken = _primes_used(monkeypatch)
    got = pairing(x, weights, y, e)
    assert sorted({i for i, _ in taken}) == list(range(primes))
    assert all(q % e == 1 % e and q * q * 2**8 < 2**62 for _, q in taken)
    assert got.dtype == dtype
    assert got.tolist() == power_basis_pairing(x, weights, y, e).tolist()


def test_unit_generators_generate_every_unit_group():
    for e in range(1, 301):
        units = {u for u in range(e) if gcd(u, e) == 1}
        gens = unit_generators(e)
        assert set(gens) <= units, e
        span = {1 % e}
        while True:
            more = span | {s * u % e for s in span for u in gens}
            if more == span:
                break
            span = more
        assert span == units, e


@pytest.mark.parametrize("rational", [False, True])
def test_an_operand_in_both_roles_is_evaluated_once(rational, monkeypatch):
    # the norms block: the rows of cube are both factors, one of them
    # conjugated, and cube is y
    table = character_table(load_catalog_group("c25"))
    cube, e = table.cube, table.e
    values, evaluated = cyclotomic._values, []

    def counted(x, q, vand):
        evaluated.append(vand.shape[1])
        return values(x, q, vand)

    taken = _primes_used(monkeypatch)
    monkeypatch.setattr(cyclotomic, "_values", counted)
    rows = np.arange(len(table))
    pairing(np.stack([rows, ~rows]), table.classes.sizes, cube, e, rational)
    primes = len({i for i, _ in taken})
    # once per prime: one embedding and its conjugate, or all phi(25) = 20
    assert evaluated == [2 if rational else 20] * primes
