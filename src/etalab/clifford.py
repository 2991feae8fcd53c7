"""Conjugation action on characters of normal subgroups, stabilizers,
Clifford correspondents, and constituent chains along a chief series.

A chain tracks one irreducible chi of a p-group G down its chief series:
nu_t = chi, and each nu_{i-1} is the first constituent (canonical table
order) of nu_i restricted one step down.  Every index is then classified as
stable (restriction and stabilizer both persist) or unstable, the unstable
ones splitting into extension steps (restriction survives, stabilizer index
grows by p) and induced steps (nu_i is induced from below, stabilizer index
shrinks by p).  The ledger counts m_i = unstable indices so far, r_i =
log_p |G : G_nu_i|, s_i = log_p nu_i(1) and asserts m_i = 2 s_i + r_i.
"""

from __future__ import annotations

from dataclasses import dataclass

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

_STAB_MEMO: dict = {}

_UNSTABLE_MISMATCH = "unstable chain step is neither an extension step nor an induced step"


def conjugate_action(nu: Character, g: Permutation, G: PermGroup) -> Character:
    """The character x -> nu(g x g^-1) on the same normal subgroup."""
    N = nu.group
    if g not in G:
        raise GroupError("element not in group")
    if not N.is_normal_in(G):
        raise GroupError("not normal")
    ncls = N.conjugacy_classes()
    ginv = g.inverse()
    values = tuple(
        nu.values[ncls.class_of(g * x * ginv)] for x in ncls.representatives
    )
    return Character(N, values)


def _conjugated_values(nu: Character, g: Permutation) -> tuple:
    ncls = nu.group.conjugacy_classes()
    ginv = g.inverse()
    return tuple(nu.values[ncls.class_of(g * x * ginv)] for x in ncls.representatives)


def stabilizer(G: PermGroup, N: PermGroup, nu: Character) -> PermGroup:
    """G_nu, the subgroup fixing nu under conjugation; always contains N."""
    if not N.is_normal_in(G):
        raise GroupError("not normal")
    key = (G.content_key, N.content_key, nu.value_key())
    hit = _STAB_MEMO.get(key)
    if hit is not None:
        return hit
    # transversal scan in canonical element order; N acts trivially
    seen: set = set()
    fixed_reps = []
    n_elems = N.elements
    for g in G.elements:
        if g in seen:
            continue
        seen.update(g * n for n in n_elems)
        if _conjugated_values(nu, g) == nu.values:
            fixed_reps.append(g)
    elems = frozenset(g * n for g in fixed_reps for n in n_elems)
    stab = G.subgroup_from_elements(elems, generators=tuple(N.generators) + tuple(fixed_reps))
    _STAB_MEMO[key] = stab
    return stab


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
    stabs = [stabilizer(G, N, nu) for N, nu in zip(chain.series, chain.nus)]
    t = len(chain.series) - 1
    stable = [True]
    case = ["none"]
    m_list = [0]
    r_list = [_plog(p, G.order // stabs[0].order)]
    s_list = [_plog(p, chain.nus[0].degree)]
    if m_list[0] != 2 * s_list[0] + r_list[0]:
        raise ChainError("ledger identity m = 2s + r violated")
    for i in range(1, t + 1):
        below, here = chain.series[i - 1], chain.series[i]
        nu_below, nu_here = chain.nus[i - 1], chain.nus[i]
        res = restrict(nu_here, below)
        if res == nu_below:
            if stabs[i - 1].same_elements(stabs[i]):
                is_stable, label = True, "none"
            elif stabs[i - 1].order == p * stabs[i].order:
                is_stable, label = False, "extension"
            else:
                raise ChainError(_UNSTABLE_MISMATCH)
        else:
            if (
                nu_here.degree == p * nu_below.degree
                and stabs[i].order == p * stabs[i - 1].order
                and induce(nu_below, here) == nu_here
            ):
                is_stable, label = False, "induced"
            else:
                raise ChainError(_UNSTABLE_MISMATCH)
        stable.append(is_stable)
        case.append(label)
        m_list.append(m_list[-1] + (0 if is_stable else 1))
        r_list.append(_plog(p, G.order // stabs[i].order))
        s_list.append(_plog(p, nu_here.degree))
        if m_list[i] != 2 * s_list[i] + r_list[i]:
            raise ChainError("ledger identity m = 2s + r violated")
    return ChainLedger(
        stable=tuple(stable),
        case=tuple(case),
        m=tuple(m_list),
        r=tuple(r_list),
        s=tuple(s_list),
        stabilizer_orders=tuple(st.order for st in stabs),
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
