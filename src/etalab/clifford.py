"""Conjugation action on characters of normal subgroups, stabilizers,
Clifford correspondents, and constituent chains along a chief series.

G permutes N's classes, hence Irr(N) (`perm._class_action`).  A breadth-first
search over G's generators gives nu's orbit and a transversal, kept as
image rows: |G_nu| is |G| / |orbit|, and G_nu itself is generated by the
Schreier generators t_o g t_(o^g)^-1, formed for all o and g at once as
gathers over those rows, so no Permutation product is taken.  Class actions
are kept on N, keyed by g, so each is computed once per (N, g) and freed
with N.

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
Irr(N_i) is searched.  Chains are handled as the columns of (t+1, width)
index arrays: `_descend` finds the canonical ones under any set of
characters of G, and `_classify` labels and checks any set of chains, each
read of B_i or R_i one gather for all of them.  The ledger sweep runs both
on all of Irr(G) at once; `build_chain` and `classify_chain` run them on
one chain.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .chars import Character
from .charops import _restrictions_along, branching_matrix, induce, restriction_multiplicities
from .errors import ChainError, CharacterError, GroupError, TableError
from .perm import PermGroup, Permutation, _class_action, _rows_of
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


def _orbit(G: PermGroup, N: PermGroup, nu: Character) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first orbit of nu under G's generators, as (transversal,
    image): transversal[o] is the image row of an element taking nu to the
    o-th orbit point found, and image[o, j] the position of that point's
    image under generator j."""
    if not N.is_normal_in(G):
        raise GroupError("not normal")
    gens = _rows_of(G.generators, G.degree)
    actions = [_class_action(N, g) for g in G.generators]
    points = [nu.value_key()]
    found = {points[0]: 0}
    transversal = [np.arange(G.degree)]
    image = []
    for o, point in enumerate(points):  # grows as points are found
        image.append([])
        for row, act in zip(gens, actions):
            moved = tuple(point[k] for k in act)
            if moved not in found:
                found[moved] = len(points)
                points.append(moved)
                # (t g)[pt] = g[t[pt]]
                transversal.append(row[transversal[o]])
            image[o].append(found[moved])
    return np.array(transversal), np.array(image, dtype=np.intp).reshape(len(points), len(gens))


def stabilizer(G: PermGroup, N: PermGroup, nu: Character) -> PermGroup:
    """G_nu, the subgroup fixing nu under conjugation; always contains N.
    It is generated by the Schreier generators t_o g t_(o^g)^-1, formed for
    every orbit point o and generator g at once as gathers over image rows."""
    transversal, image = _orbit(G, N, nu)
    gens = _rows_of(G.generators, G.degree)
    # (t_o g)[pt] = g[t_o[pt]], then (t_o g t_u^-1)[pt] = t_u^-1[(t_o g)[pt]]
    moved = gens[np.arange(len(gens))[None, :, None], transversal[:, None, :]]
    schreier = np.take_along_axis(np.argsort(transversal, axis=1)[image], moved, axis=2)
    schreier = np.unique(schreier.reshape(-1, G.degree), axis=0)
    schreier = schreier[(schreier != np.arange(G.degree)).any(axis=1)]
    return G.subgroup([Permutation._from_images(tuple(row)) for row in schreier.tolist()])


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


_CASES = ("none", "extension", "induced")


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


def _descend(series, top) -> np.ndarray:
    """The canonical chains under the characters of series[-1]'s table at
    the indices top, as the columns of a (t+1, len(top)) index array: each
    nu_(i-1) is the first nonzero of nu_i's row of B_i."""
    index = np.empty((len(series), len(top)), dtype=np.intp)
    index[-1] = top
    for i in range(len(series) - 1, 0, -1):
        index[i - 1] = (branching_matrix(series[i], series[i - 1]) != 0).argmax(axis=1)[index[i]]
    return index


def build_chain(G: PermGroup, chi: Character) -> CharacterChain:
    """Canonical chain under chi: first-constituent descent along the chief
    series, read off the branching matrices for chi's index alone."""
    k = _irreducible_index(G, chi)
    series = G.chief_series()
    idx = _descend(series, [k])[:-1, 0].tolist()
    nus = [character_table(N)[j] for N, j in zip(series[:-1], idx)]
    return CharacterChain(group=G, chi=chi, series=tuple(series), nus=(*nus, chi))


def _plogs(p: int, n) -> tuple[np.ndarray, np.ndarray]:
    """log_p of each entry of n, and what is left of each once its factors p
    are divided out: 1 exactly where the entry is a power of p."""
    rest = np.array(n, dtype=np.int64)
    k = np.zeros(rest.shape, dtype=np.int64)
    while True:
        more = (rest > 1) & (rest % p == 0)
        if not more.any():
            return k, rest
        rest[more] //= p
        k[more] += 1


def _plog(p: int, n: int) -> int:
    k = 0
    while n > 1 and n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise ChainError(f"{n} is not a power of {p}")
    return k


def _classify(G: PermGroup, series, index: np.ndarray) -> tuple[np.ndarray, list]:
    """The chains in the columns of index (as _descend gives them) under
    characters of G, labelled and checked as classify_chain does, all at
    once: the (t+1, width) mask of their unstable indices, and per column
    its ChainLedger or the message of its first failing check."""
    info = G.p_group_info()
    p = info.p if info.p > 1 else 2
    top = index[-1]
    restricted = _restrictions_along(series)
    # Clifford: chi|N_i is a multiple of the sum over nu_i's G-orbit, so the
    # orbit is the support of chi's row of the restriction to N_i
    inside = np.stack([rows[top, index[i]] != 0 for i, rows in enumerate(restricted)])
    orbit = np.stack([np.count_nonzero(rows, axis=1)[top] for rows in restricted])
    orders = G.order // np.maximum(orbit, 1)
    degrees = np.stack([character_table(N).cube[index[i], 0, 0] for i, N in enumerate(series)])
    case = np.zeros(index.shape, dtype=np.intp)
    misfit = np.zeros(index.shape, dtype=bool)
    for i in range(1, len(series)):
        branching = branching_matrix(series[i], series[i - 1])
        here, below = index[i], index[i - 1]
        entry = branching[here, below]
        # nu_i restricts to nu_(i-1) alone
        extends = (entry == 1) & (branching.sum(axis=1)[here] == 1)
        # if nu_i extends nu_(i-1), G_nu_i <= G_nu_(i-1): equal orders mean equal groups
        stays = extends & (orders[i - 1] == orders[i])
        extension = extends & (orders[i - 1] == p * orders[i])
        induced = (
            ~extends
            & (degrees[i] == p * degrees[i - 1])
            & (orders[i] == p * orders[i - 1])
            # Frobenius reciprocity: Ind nu_(i-1) = nu_i alone
            & (entry == 1)
            & (branching.sum(axis=0)[below] == 1)
        )
        case[i] = np.select([extension, induced], [1, 2], 0)
        misfit[i] = ~(stays | extension | induced)
    m = np.cumsum(case != 0, axis=0)
    r, r_rest = _plogs(p, G.order // orders)
    s, s_rest = _plogs(p, degrees)
    where = f" (group order {G.order}, chain index {{}})"
    neither = "unstable chain step is neither an extension step nor an induced step"
    checks = (
        (~inside, "chain character is not a constituent of chi's restriction" + where, None),
        (misfit, neither + where, None),
        (r_rest != 1, "{} is not a power of " + str(p), r_rest),
        (s_rest != 1, "{} is not a power of " + str(p), s_rest),
        (m != 2 * s + r, "ledger identity m = 2s + r violated" + where, None),
    )
    # each failing column keeps the first check it fails, at its first index
    out = [None] * index.shape[1]
    for bad, message, rest in checks:
        for c in np.flatnonzero(bad.any(axis=0)).tolist():
            if out[c] is None:
                i = int(bad[:, c].argmax())
                out[c] = message.format(i if rest is None else rest[i, c])
    columns = zip(case.T.tolist(), m.T.tolist(), r.T.tolist(), s.T.tolist(), orders.T.tolist())
    for c, (labels, mc, rc, sc, oc) in enumerate(columns):
        if out[c] is None:
            out[c] = ChainLedger(
                stable=tuple(k == 0 for k in labels),
                case=tuple(_CASES[k] for k in labels),
                m=tuple(mc),
                r=tuple(rc),
                s=tuple(sc),
                stabilizer_orders=tuple(oc),
            )
    return case != 0, out


def classify_chain(chain: CharacterChain) -> ChainLedger:
    """Stable/extension/induced labels plus the (m, r, s) ledger, with the
    identity m_i = 2 s_i + r_i checked at every index: the chain's column
    of _classify."""
    index = [[character_table(N).index_of(nu)] for N, nu in zip(chain.series, chain.nus)]
    ledger = _classify(chain.group, chain.series, np.array(index, dtype=np.intp))[1][0]
    if isinstance(ledger, str):
        raise ChainError(ledger)
    return ledger


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
