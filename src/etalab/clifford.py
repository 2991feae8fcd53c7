"""Conjugation action on characters of normal subgroups, stabilizers,
Clifford correspondents, and constituent chains along a chief series.

G permutes N's classes, hence Irr(N) (`_class_action`).  A breadth-first
search over G's generators gives nu's orbit and a transversal: |G_nu| is
|G| / |orbit|, and G_nu itself is generated by the Schreier generators
t_o g t_(o^g)^-1.  Nothing is memoized.

A chain tracks one irreducible chi of a p-group G down its chief series:
nu_t = chi, and each nu_{i-1} is the first constituent (canonical table
order) of nu_i restricted one step down.  Each index is stable (restriction
and stabilizer persist), an extension step (restriction survives, stabilizer
index grows by p) or an induced step (nu_i is induced from below, stabilizer
index shrinks by p).  The ledger counts m_i = unstable indices so far,
r_i = log_p of nu_i's orbit length, s_i = log_p nu_i(1), and asserts
m_i = 2 s_i + r_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .chars import Character
from .charops import induce, inner_product, restrict
from .errors import ChainError, CharacterError, GroupError
from .perm import PermGroup, Permutation
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


def _class_action(N: PermGroup, g: Permutation) -> tuple[int, ...]:
    """Class k of N goes to the class of g x_k g^-1."""
    ncls = N.conjugacy_classes()
    ginv = g.inverse()
    return tuple(ncls.class_of(g * x * ginv) for x in ncls.representatives)


def conjugate_action(nu: Character, g: Permutation, G: PermGroup) -> Character:
    """The character x -> nu(g x g^-1) on the same normal subgroup."""
    N = nu.group
    if g not in G:
        raise GroupError("element not in group")
    if not N.is_normal_in(G):
        raise GroupError("not normal")
    return Character(N, tuple(nu.values[k] for k in _class_action(N, g)))


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


def clifford_correspondent(
    chi: Character, N: PermGroup, nu: Character, cache_dir=None
) -> Character:
    """The unique irreducible of the stabilizer lying over nu that induces
    back to chi."""
    G = chi.group
    if inner_product(restrict(chi, N), nu) == 0:
        raise CharacterError("not a constituent")
    stab = stabilizer(G, N, nu)
    if stab.same_elements(G):
        return chi
    table = character_table(stab, cache_dir=cache_dir)
    matches = []
    for theta in table:
        if inner_product(restrict(theta, N), nu) == 0:
            continue
        if induce(theta, G) == chi:
            matches.append(theta)
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


def build_chain(G: PermGroup, chi: Character, cache_dir=None) -> CharacterChain:
    """Canonical chain under chi: first-constituent descent along the chief
    series."""
    if not G.p_group_info().is_p_group:
        raise GroupError("not a p-group")
    if not (chi.group is G or chi.group.same_elements(G)):
        raise CharacterError("characters on different groups")
    if inner_product(chi, chi) != 1:
        raise CharacterError("not irreducible")
    series = G.chief_series()
    nus: list = [None] * len(series)
    nus[-1] = chi
    for i in range(len(series) - 1, 0, -1):
        res = restrict(nus[i], series[i - 1])
        tab = character_table(series[i - 1], cache_dir=cache_dir)
        mults = tab.multiplicities(res)
        first = next(j for j, m in enumerate(mults) if m)
        nus[i - 1] = tab[first]
    return CharacterChain(group=G, chi=chi, series=tuple(series), nus=tuple(nus))


def _plog(p: int, n: int) -> int:
    k = 0
    while n > 1 and n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise ChainError(f"{n} is not a power of {p}")
    return k


def classify_chain(chain: CharacterChain, cache_dir=None) -> ChainLedger:
    """Stable/extension/induced labels plus the (m, r, s) ledger, with the
    identity m_i = 2 s_i + r_i checked at every index."""
    G = chain.group
    info = G.p_group_info()
    p = info.p if info.p > 1 else 2
    orders = [G.order // len(_orbit(G, N, nu)[1]) for N, nu in zip(chain.series, chain.nus)]
    case = ["none"]
    for i in range(1, len(chain.series)):
        nu_below, nu_here = chain.nus[i - 1], chain.nus[i]
        extends = restrict(nu_here, chain.series[i - 1]) == nu_below
        # if nu_i extends nu_(i-1), G_nu_i <= G_nu_(i-1): equal orders mean equal groups
        if extends and orders[i - 1] == orders[i]:
            case.append("none")
        elif extends and orders[i - 1] == p * orders[i]:
            case.append("extension")
        elif (
            not extends
            and nu_here.degree == p * nu_below.degree
            and orders[i] == p * orders[i - 1]
            and induce(nu_below, chain.series[i]) == nu_here
        ):
            case.append("induced")
        else:
            raise ChainError("unstable chain step is neither an extension step nor an induced step")
    stable = tuple(label == "none" for label in case)
    m = tuple(accumulate(0 if flag else 1 for flag in stable))
    r = tuple(_plog(p, G.order // order) for order in orders)
    s = tuple(_plog(p, nu.degree) for nu in chain.nus)
    if any(mi != 2 * si + ri for mi, si, ri in zip(m, s, r)):
        raise ChainError("ledger identity m = 2s + r violated")
    return ChainLedger(
        stable=stable,
        case=tuple(case),
        m=m,
        r=r,
        s=s,
        stabilizer_orders=tuple(orders),
    )


def all_chains(G: PermGroup, chi: Character, cache_dir=None) -> list[CharacterChain]:
    """Every constituent chain under chi, not just the canonical one.
    Supported for groups of order at most ALL_CHAINS_CAP."""
    if G.order > ALL_CHAINS_CAP:
        raise ChainError(
            f"all-chains enumeration is limited to groups of order at most {ALL_CHAINS_CAP}"
        )
    if not G.p_group_info().is_p_group:
        raise GroupError("not a p-group")
    series = G.chief_series()
    partials = [[chi]]
    for i in range(len(series) - 1, 0, -1):
        tab = character_table(series[i - 1], cache_dir=cache_dir)
        grown = []
        for chain in partials:
            res = restrict(chain[0], series[i - 1])
            mults = tab.multiplicities(res)
            for j, m in enumerate(mults):
                if m:
                    grown.append([tab[j]] + chain)
        partials = grown
    return [
        CharacterChain(group=G, chi=chi, series=tuple(series), nus=tuple(nus))
        for nus in partials
    ]
