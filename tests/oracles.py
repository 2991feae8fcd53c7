"""Independent brute-force implementations used as test oracles.

Everything here recomputes structure from first principles (whole-group
enumeration, element-level sums) so that agreement with the library is a
genuine cross-check rather than the same code run twice.
"""

from __future__ import annotations

from etalab.cyclotomic import CycValue
from etalab.perm import PermGroup, Permutation


def conjugacy_partition(G: PermGroup) -> list[frozenset]:
    """Partition of G into conjugacy classes by conjugating with every
    element, not just generators."""
    elements = list(G.elements)
    seen = set()
    parts = []
    for x in elements:
        if x in seen:
            continue
        orbit = {g.inverse() * x * g for g in elements}
        seen |= orbit
        parts.append(frozenset(orbit))
    return parts


def brute_center(G: PermGroup) -> frozenset:
    return frozenset(
        z for z in G.elements if all(z * g == g * z for g in G.generators)
    )


def commutator_subgroup_elements(G: PermGroup) -> frozenset:
    """Closure of all commutators a^-1 b^-1 a b over element pairs."""
    comms = {
        a.inverse() * b.inverse() * a * b
        for a in G.elements
        for b in G.elements
    }
    ident = Permutation.identity(G.degree)
    closure = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for c in comms:
                y = x * c
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(closure)


def _value_on_element(table, chi, g) -> CycValue:
    k = table.classes.class_of(g)
    return chi.values[k]


def elementwise_inner(table, a, b) -> int:
    """[a, b] by summation over every group element, exact division."""
    G = table.group
    e = table.e
    acc = CycValue.zero(e)
    for g in G.elements:
        va = _value_on_element(table, a, g).rebase(e)
        vb = _value_on_element(table, b, g).rebase(e)
        acc = acc + va * vb.conjugate()
    n = G.order
    if any(c % n for c in acc.coeffs):
        raise AssertionError(f"inner product not divisible by {n}: {acc}")
    total = CycValue(e, tuple(c // n for c in acc.coeffs))
    return total.as_int()


def eta_elementwise(table, chi, psi) -> int:
    """Distinct-constituent count of chi*psi from element-level inner
    products against each irreducible."""
    prod = chi * psi
    return sum(
        1 for theta in table if elementwise_inner(table, prod, theta) != 0
    )


def induced_values_elementwise(table_G, nu, N, G) -> list[CycValue]:
    """Induced character values by the defining sum over all of G, with the
    off-subgroup extension by zero."""
    e = table_G.e
    n_classes = N.conjugacy_classes()
    vals = []
    for rep in table_G.classes.representatives:
        acc = CycValue.zero(e)
        for x in G.elements:
            y = x * rep * x.inverse()
            if y in N.element_set:
                acc = acc + nu.values[n_classes.class_of(y)].rebase(e)
        if any(c % N.order for c in acc.coeffs):
            raise AssertionError("induction sum not divisible by |N|")
        vals.append(CycValue(e, tuple(c // N.order for c in acc.coeffs)))
    return vals


def stabilizer_elements(G: PermGroup, N: PermGroup, nu) -> frozenset:
    """G_nu element by element: g is kept when nu(g x g^-1) = nu(x) for every
    x in N, not just for class representatives."""
    classes = N.conjugacy_classes()

    def value(x):
        return nu.values[classes.class_of(x)]

    kept = set()
    for g in G.elements:
        ginv = g.inverse()
        if all(value(g * x * ginv) == value(x) for x in N.elements):
            kept.add(g)
    return frozenset(kept)
