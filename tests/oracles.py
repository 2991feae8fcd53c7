"""Independent brute-force implementations used as test oracles.

Everything here recomputes structure from first principles (whole-group
enumeration, element-level sums) so that agreement with the library is a
genuine cross-check rather than the same code run twice.
"""

from __future__ import annotations

import hashlib
from itertools import accumulate
from math import lcm

import numpy as np

from etalab.charops import _norm_decompositions, _restrictions_along, branching_matrix
from etalab.clifford import CharacterChain, ChainLedger, _irreducible_index
from etalab.cyclotomic import (
    CycValue,
    _exact,
    _magnitude,
    _poly_divmod_monic,
    cyclotomic_polynomial,
    power_basis_matrix,
    reduced_degree,
)
from etalab.errors import ChainError, EtalabError, GroupError
from etalab.perm import PermGroup, Permutation, _class_action
from etalab.table import character_table


def closure_elementwise(degree: int, gens, cap: int) -> set:
    """The group gens generate, by breadth-first closure one permutation
    product at a time; GroupError once it has more than cap elements."""
    ident = Permutation.identity(degree)
    elems = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in elems:
                    if len(elems) >= cap:
                        raise GroupError("group too large")
                    elems.add(y)
                    new.append(y)
        frontier = new
    return elems


def exponent_elementwise(G: PermGroup) -> int:
    """lcm of the element orders, each from the element's own cycles."""
    out = 1
    for x in G.elements:
        out = lcm(out, x.order())
    return out


def content_key_elementwise(G: PermGroup) -> str:
    """sha256 of the degree and of every image of every sorted element, one
    4-byte big-endian update at a time."""
    h = hashlib.sha256()
    h.update(G.degree.to_bytes(4, "big"))
    for x in sorted(G.element_set):
        for i in x.images:
            h.update(i.to_bytes(4, "big"))
    return h.hexdigest()


def chief_series_elementwise(G: PermGroup) -> list[PermGroup]:
    """The chief series by Permutation products, one element at a time: each
    member is the one below and the first element, in sorted order, outside
    it whose p-th power and commutators with the generators lie in it."""
    info = G.p_group_info()
    if not info.is_p_group:
        raise GroupError("not a p-group")
    if G.order == 1:
        return [G]
    p = info.p
    ident = G.identity
    cur_set = frozenset([ident])
    cur = G.subgroup_from_elements(cur_set, generators=())
    series = [cur]
    gens = G.generators
    while len(cur_set) < G.order:
        chosen = None
        for g in G.elements:
            if g in cur_set:
                continue
            if g ** p not in cur_set:
                continue
            ginv = g.inverse()
            if all(ginv * x.inverse() * g * x in cur_set for x in gens):
                chosen = g
                break
        if chosen is None:
            raise GroupError("chief series construction failed")
        new_set = set(cur_set)
        pw = chosen
        for _ in range(p - 1):
            new_set.update(pw * n for n in cur_set)
            pw = pw * chosen
        cur_set = frozenset(new_set)
        cur = G.subgroup_from_elements(cur_set, generators=cur.generators + (chosen,))
        cur._series_link = (series[-1], chosen)
        series.append(cur)
    if G._series_link is None:
        G._series_link = cur._series_link
    series[-1] = G
    return series


def rref_dense(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_q, clearing the pivot column in every
    row; returns (nonzero rows, pivot columns)."""
    a = a % q
    rows, cols = a.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        below = np.flatnonzero(a[r:, c])
        if not len(below):
            continue
        piv = r + int(below[0])
        a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), q - 2, q) % q
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % q
        pivots.append(c)
        r += 1
    return a[:r], pivots


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


def class_index(classes) -> dict:
    """The class of each element, read off the class members into a dict."""
    return {x: k for k, members in enumerate(classes.members) for x in members}


def class_matrix_elementwise(classes, i: int) -> list[list[int]]:
    """Class multiplication matrix by one permutation product per member x
    of C_i and representative z_k: [j][k] counts the x with x^-1 z_k in C_j."""
    reps = classes.representatives
    owner = class_index(classes)
    mat = [[0] * len(reps) for _ in reps]
    for x in classes.members[i]:
        xinv = x.inverse()
        for k, z in enumerate(reps):
            mat[owner[xinv * z]][k] += 1
    return mat


def power_map(G: PermGroup, classes, j: int) -> list[int]:
    """Class index of rep^j for each class, in canonical class order, by one
    permutation power per representative."""
    owner = class_index(classes)
    return [owner[rep ** j] for rep in classes.representatives]


def _reduced(acc: list[int], e: int) -> list[int]:
    """A polynomial in zeta_e, one coefficient per power 0..e-1, reduced
    modulo the e-th cyclotomic polynomial."""
    return _poly_divmod_monic(acc, list(cyclotomic_polynomial(e)))[1]


def _exact_quotient(coeffs: list[int], n: int, what: str) -> list[int]:
    if any(c % n for c in coeffs):
        raise AssertionError(f"{what} not divisible by {n}: {coeffs}")
    return [c // n for c in coeffs]


def power_basis_pairing(x, weights, y, e: int) -> np.ndarray:
    """(m, n, phi) coefficients of sum_k w_k x_i(k) conj(y_j(k)) over the
    power basis: one matmul per output coefficient against the tensor P with
    basis_a * conj(basis_b) = sum_c P[a, b, c] basis_c, in int64 when a bound
    on every partial sum fits and on Python integers otherwise."""
    m, k, phi = x.shape
    n = y.shape[0]
    w = np.asarray(weights)
    j = np.arange(reduced_degree(e))
    pt = power_basis_matrix(e)[(j[:, None] - j) % e]
    bound = k * phi * phi * _magnitude(w) * _magnitude(x) * _magnitude(y) * _magnitude(pt)
    x, w, pt, y = _exact(bound, x, w, pt, y)
    wx = x * w[:, None]
    flat_y = y.reshape(n, k * phi).T
    out = np.empty((m, n, phi), dtype=x.dtype)
    for c in range(phi):
        out[:, :, c] = (wx @ pt[:, :, c]).reshape(m, k * phi) @ flat_y
    return out


def elementwise_inner(table, a, b) -> int:
    """[a, b] by summation over every group element, exact division.

    The sum runs over plain integer coefficients of the powers of zeta_e,
    with conj(zeta^j) = zeta^(-j), and is reduced once at the end."""
    G = table.group
    e = table.e
    classes = table.classes
    a_rows, b_rows = a.coeffs.tolist(), b.coeffs.tolist()
    owner = class_index(classes)
    acc = [0] * e
    for g in G.elements:
        k = owner[g]
        for i, x in enumerate(a_rows[k]):
            if x:
                for j, y in enumerate(b_rows[k]):
                    acc[(i - j) % e] += x * y
    total = _exact_quotient(_reduced(acc, e), G.order, "inner product")
    if any(total[1:]):
        raise AssertionError(f"inner product is not a rational integer: {total}")
    return total[0]


def eta_elementwise(table, chi, psi) -> int:
    """Distinct-constituent count of chi*psi from element-level inner
    products against each irreducible."""
    prod = chi * psi
    return sum(
        1 for theta in table if elementwise_inner(table, prod, theta) != 0
    )


def induced_values_elementwise(table_G, nu, N, G) -> list[CycValue]:
    """Induced character values by the defining sum over all of G, with the
    off-subgroup extension by zero.  nu's values at N's exponent f enter as
    zeta_f^j = zeta_e^(j e/f), summed over plain integer coefficients and
    reduced once per class."""
    e = table_G.e
    k = e // N.exponent()
    n_owner = class_index(N.conjugacy_classes())
    nu_rows = nu.coeffs.tolist()
    vals = []
    for rep in table_G.classes.representatives:
        acc = [0] * e
        for x in G.elements:
            y = x * rep * x.inverse()
            if y in n_owner:
                for j, c in enumerate(nu_rows[n_owner[y]]):
                    acc[j * k] += c
        vals.append(CycValue(e, _exact_quotient(_reduced(acc, e), N.order, "induction sum")))
    return vals


def stabilizer_elements(G: PermGroup, N: PermGroup, nu) -> frozenset:
    """G_nu element by element: g is kept when nu(g x g^-1) = nu(x) for every
    x in N, not just for class representatives."""
    owner = class_index(N.conjugacy_classes())

    def value(x):
        return nu.values[owner[x]]

    kept = set()
    for g in G.elements:
        ginv = g.inverse()
        if all(value(g * x * ginv) == value(x) for x in N.elements):
            kept.add(g)
    return frozenset(kept)


def class_action_orbit_sizes(G: PermGroup, N: PermGroup, table) -> list[int]:
    """Orbit length under G of each character in N's table, by table index:
    a search over the permutations of the table's rows that G's generators
    make by conjugating N's classes."""
    moves = [table._row_images(_class_action(N, g)) for g in G.generators]
    sizes = [0] * len(table)
    for start in range(len(table)):
        if sizes[start]:
            continue
        orbit = frontier = {start}
        while frontier:
            frontier = {m[k] for k in frontier for m in moves} - orbit
            orbit = orbit | frontier
        for k in orbit:
            sizes[k] = len(orbit)
    return sizes


# ---------------------------------------------------------------------------
# the chain ledger one character at a time: build_chain, classify_chain and
# the constituent bookkeeping as the package ran them per character, before
# the ledger was read off whole-table arrays


def build_chain_per_character(G: PermGroup, chi) -> CharacterChain:
    """Canonical chain under chi: first-constituent descent along the chief
    series."""
    k = _irreducible_index(G, chi)
    series = G.chief_series()
    idx = [k] * len(series)
    for i in range(len(series) - 1, 0, -1):
        row = branching_matrix(series[i], series[i - 1])[idx[i]]
        idx[i - 1] = int(np.flatnonzero(row)[0])
    nus = [character_table(N)[j] for N, j in zip(series[:-1], idx)]
    return CharacterChain(group=G, chi=chi, series=tuple(series), nus=(*nus, chi))


def _plog_per_character(p: int, n: int) -> int:
    k = 0
    while n > 1 and n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise ChainError(f"{n} is not a power of {p}")
    return k


def classify_chain_per_character(chain: CharacterChain) -> ChainLedger:
    """Stable/extension/induced labels plus the (m, r, s) ledger, with the
    identity m_i = 2 s_i + r_i checked at every index."""
    G = chain.group
    info = G.p_group_info()
    p = info.p if info.p > 1 else 2
    idx = [character_table(N).index_of(nu) for N, nu in zip(chain.series, chain.nus)]
    # Clifford: chi|N_i is a multiple of the sum over nu_i's G-orbit, so the
    # orbit is the support of chi's row of the restriction to N_i
    orders = []
    for i, rows in enumerate(_restrictions_along(chain.series)):
        row = rows[idx[-1]]
        if not row[idx[i]]:
            raise ChainError(
                "chain character is not a constituent of chi's restriction"
                f" (group order {G.order}, chain index {i})"
            )
        orders.append(G.order // np.count_nonzero(row))
    case = ["none"]
    for i in range(1, len(chain.series)):
        branching = branching_matrix(chain.series[i], chain.series[i - 1])
        here, below = idx[i], idx[i - 1]
        # nu_i restricts to nu_(i-1) alone
        extends = branching[here, below] == 1 and branching[here].sum() == 1
        # if nu_i extends nu_(i-1), G_nu_i <= G_nu_(i-1): equal orders mean equal groups
        if extends and orders[i - 1] == orders[i]:
            case.append("none")
        elif extends and orders[i - 1] == p * orders[i]:
            case.append("extension")
        elif (
            not extends
            and chain.nus[i].degree == p * chain.nus[i - 1].degree
            and orders[i] == p * orders[i - 1]
            # Frobenius reciprocity: Ind nu_(i-1) = nu_i alone
            and branching[here, below] == 1
            and branching[:, below].sum() == 1
        ):
            case.append("induced")
        else:
            raise ChainError(
                "unstable chain step is neither an extension step nor an induced step"
                f" (group order {G.order}, chain index {i})"
            )
    stable = tuple(label == "none" for label in case)
    m = tuple(accumulate(0 if flag else 1 for flag in stable))
    r = tuple(_plog_per_character(p, G.order // order) for order in orders)
    s = tuple(_plog_per_character(p, nu.degree) for nu in chain.nus)
    for i, (mi, si, ri) in enumerate(zip(m, s, r)):
        if mi != 2 * si + ri:
            raise ChainError(
                f"ledger identity m = 2s + r violated (group order {G.order}, chain index {i})"
            )
    return ChainLedger(
        stable=stable,
        case=tuple(case),
        m=m,
        r=r,
        s=s,
        stabilizer_orders=tuple(orders),
    )


def chain_extras_per_character(G: PermGroup, chi, chain, ledger):
    """Constituent bookkeeping behind the counting argument: per unstable
    index, every one-step character delta must be covered by a constituent
    of chi*conj(chi) restricting to exactly theta(1)*delta, and the
    constituent sets attached to distinct unstable indices must not overlap.

    The constituents' restrictions to N_i are their rows of the branching
    matrix of G over N_i, and the one-step characters of N_i / N_(i-1) are
    the k whose restriction to N_(i-1) is deg_k times the principal
    character."""
    table = character_table(G)
    norm = _norm_decompositions(table)[table.index_of(chi)]
    xi_idx = [table.index_of(theta) for theta in norm.characters()]
    xi_degrees = table.cube[xi_idx, 0, :1]  # the constituents' degrees, as a column
    restricted = _restrictions_along(chain.series)
    covered, attached = [], []
    for i in ledger.unstable_indices:
        tab_i = character_table(chain.series[i])
        principal = character_table(chain.series[i - 1]).principal_index
        branching = branching_matrix(chain.series[i], chain.series[i - 1])
        step = np.flatnonzero(branching[:, principal] == tab_i.degrees)
        mult_rows = restricted[i][xi_idx]
        # one-step characters are linear, so restricting to theta(1)*delta
        # is the same as the delta-entry soaking up the whole degree
        covered.append(bool((mult_rows[:, step] == xi_degrees).any(axis=0).all()))
        nonprincipal = step[step != tab_i.principal_index]
        attached.append(set(np.flatnonzero(mult_rows[:, nonprincipal].any(axis=1)).tolist()))
    disjoint_ok = sum(map(len, attached)) == len(set().union(*attached))
    sizes_ok = all(len(a) >= G.p_group_info().p - 1 for a in attached)
    return all(covered), disjoint_ok, sizes_ok


def ledger_records_per_character(G: PermGroup) -> list[dict]:
    """G's ledger records as verify_ledger wrote them one character at a
    time, counterexamples left out."""
    records = []
    for idx, chi in enumerate(character_table(G)):
        try:
            chain = build_chain_per_character(G, chi)
            ledger = classify_chain_per_character(chain)
            coverage_ok, disjoint_ok, sizes_ok = chain_extras_per_character(G, chi, chain, ledger)
        except EtalabError as exc:
            rec = {"chi": idx, "degree": chi.degree, "pass": False, "error": str(exc)}
        else:
            rec = {
                "chi": idx,
                "degree": chi.degree,
                "m": list(ledger.m),
                "r": list(ledger.r),
                "s": list(ledger.s),
                "cases": list(ledger.case),
                "coverage": coverage_ok,
                "disjoint": disjoint_ok,
                "pass": coverage_ok and disjoint_ok and sizes_ok,
            }
        records.append(rec)
    return records
