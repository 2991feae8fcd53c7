"""Conjugation action on characters of normal subgroups, stabilizers,
Clifford correspondents, and constituent chains along a chief series.

G permutes N's classes, hence Irr(N) (`perm._class_action`).  A breadth-first
search over G's generators gives nu's orbit and a transversal: |G_nu| is
|G| / |orbit|, and G_nu itself is generated by the Schreier generators
t_o g t_(o^g)^-1.  Class actions are kept on N, keyed by g, so each is
computed once per (N, g) and freed with N.

A chain tracks one irreducible chi of a p-group G down its chief series:
nu_t = chi, and each nu_{i-1} is the first constituent (canonical table
order) of nu_i restricted one step down.  Each index is stable (restriction
and stabilizer persist), an extension step (restriction survives, stabilizer
index grows by p) or an induced step (nu_i is induced from below, stabilizer
index shrinks by p).  The ledger counts m_i = unstable indices so far,
r_i = log_p of nu_i's orbit length, s_i = log_p nu_i(1), and asserts
m_i = 2 s_i + r_i.

Every chain question is read off the branching matrices
B_i = [psi|N_(i-1), nu] of single steps (`charops.branching_matrix`, kept on
N_i's table, rows looked up among orbit sums), by table index:
- nu_(i-1) is the first nonzero entry of nu_i's row of B_i;
- nu_i extends nu_(i-1) when that row is the unit vector at nu_(i-1);
- Ind nu_(i-1) = nu_i (Frobenius reciprocity) when nu_(i-1)'s column of
  B_i is the unit vector at nu_i, so no character is induced;
- |G_nu_i| is |G| divided by nu_i's orbit length, which by Clifford's
  theorem is the number of nonzero entries in chi's row of the restriction
  to N_i, the product of the B_j above (`charops._restrictions_along`).
So the chains restrict no character by pairing, and no orbit of G on
Irr(N_i) is searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .chars import Character
from .charops import _restrictions_along, branching_matrix, induce, restriction_multiplicities
from .errors import ChainError, CharacterError, GroupError, TableError
from .perm import PermGroup, Permutation, _class_action
from .table import character_table

__all__ = [
    "CharacterChain",
    "ChainLedger",
    "all_chains",
    "build_chain",
    "classify_chain",
    "clifford_correspondent",
    "conjugate_action",
    "stabilizer",
]

ALL_CHAINS_CAP = 64


def conjugate_action(nu: Character, g: Permutation, G: PermGroup) -> Character:
    """The character x -> nu(g x g^-1) on the same normal subgroup."""
    N = nu.group
    if g not in G:
        raise GroupError("element not in group")
    if not N.is_normal_in(G):
        raise GroupError("not normal")
    return Character._of(N, nu.coeffs[list(_class_action(N, g))])


def _orbit(G: PermGroup, N: PermGroup, nu: Character) -> tuple[list, dict]:
    """Breadth-first orbit of nu under G's generators: each generator's class
    action, and a transversal taking nu to every orbit point (a value key)."""
    if not N.is_normal_in(G):
        raise GroupError("not normal")
    actions = [_class_action(N, g) for g in G.generators]
    start = nu.value_key()
    transversal = {start: G.identity}
    frontier = [start]
    while frontier:
        new = []
        for point in frontier:
            t = transversal[point]
            for g, act in zip(G.generators, actions):
                image = tuple(point[k] for k in act)
                if image not in transversal:
                    transversal[image] = t * g
                    new.append(image)
        frontier = new
    return actions, transversal


def stabilizer(G: PermGroup, N: PermGroup, nu: Character) -> PermGroup:
    """G_nu, the subgroup fixing nu under conjugation; always contains N."""
    actions, transversal = _orbit(G, N, nu)
    gens = set()
    for point, t in transversal.items():
        for g, act in zip(G.generators, actions):
            s = t * g * transversal[tuple(point[k] for k in act)].inverse()
            if not s.is_identity():
                gens.add(s)
    return G.subgroup(sorted(gens))


def clifford_correspondent(chi: Character, N: PermGroup, nu: Character) -> Character:
    """The unique irreducible of the stabilizer lying over nu that induces
    back to chi."""
    G = chi.group
    # [theta|_N, nu] is theta's restriction row over Irr(N) dotted with nu's
    over_nu = character_table(N).multiplicities(nu)
    if not np.dot(restriction_multiplicities([chi], N)[0], over_nu):
        raise CharacterError("not a constituent")
    stab = stabilizer(G, N, nu)
    if stab.same_elements(G):
        return chi
    table = character_table(stab)
    rows = restriction_multiplicities(list(table), N)
    matches = [t for t, row in zip(table, rows) if np.dot(row, over_nu) and induce(t, G) == chi]
    if len(matches) != 1:
        raise ChainError("internal Clifford failure")
    return matches[0]


@dataclass(frozen=True, eq=False)
class CharacterChain:
    """One constituent chain: nus[i] lies in Irr(series[i]), nus[-1] = chi."""

    group: PermGroup
    chi: Character
    series: tuple[PermGroup, ...]
    nus: tuple[Character, ...]

    def __post_init__(self):
        if len(self.series) != len(self.nus):
            raise ChainError("chain length mismatch")

    def __len__(self) -> int:
        return len(self.series)


@dataclass(frozen=True)
class ChainLedger:
    """Per-index classification and the (m, r, s) counters of a chain."""

    stable: tuple[bool, ...]
    case: tuple[str, ...]
    m: tuple[int, ...]
    r: tuple[int, ...]
    s: tuple[int, ...]
    stabilizer_orders: tuple[int, ...]

    @property
    def unstable_indices(self) -> tuple[int, ...]:
        return tuple(i for i, flag in enumerate(self.stable) if not flag)


def _irreducible_index(G: PermGroup, chi: Character) -> int:
    """chi's index in G's table, once G is a p-group and chi an irreducible
    character of G."""
    if not G.p_group_info().is_p_group:
        raise GroupError("not a p-group")
    if not chi.group.same_elements(G):
        raise CharacterError("characters on different groups")
    # Irr(G) is the table: a class function outside it is not irreducible
    try:
        return character_table(G).index_of(chi)
    except TableError:
        raise CharacterError("not irreducible") from None


def build_chain(G: PermGroup, chi: Character) -> CharacterChain:
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


def _plog(p: int, n: int) -> int:
    k = 0
    while n > 1 and n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise ChainError(f"{n} is not a power of {p}")
    return k


def classify_chain(chain: CharacterChain) -> ChainLedger:
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
    r = tuple(_plog(p, G.order // order) for order in orders)
    s = tuple(_plog(p, nu.degree) for nu in chain.nus)
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


def all_chains(G: PermGroup, chi: Character) -> list[CharacterChain]:
    """Every constituent chain under chi, not just the canonical one.
    Supported for groups of order at most ALL_CHAINS_CAP."""
    if G.order > ALL_CHAINS_CAP:
        raise ChainError(
            f"all-chains enumeration is limited to groups of order at most {ALL_CHAINS_CAP}"
        )
    series = G.chief_series()
    # partial chains as table indices, bottom first
    partials = [[_irreducible_index(G, chi)]]
    for i in range(len(series) - 1, 0, -1):
        branching = branching_matrix(series[i], series[i - 1])
        partials = [[j] + c for c in partials for j in np.flatnonzero(branching[c[0]]).tolist()]
    tables = [character_table(N) for N in series[:-1]]
    return [
        CharacterChain(
            group=G,
            chi=chi,
            series=tuple(series),
            nus=(*(t[j] for t, j in zip(tables, idx)), chi),
        )
        for idx in partials
    ]
