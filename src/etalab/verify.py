"""Verification sweeps for the product-constituent bounds.

Each sweep walks (catalog) groups and checks its statement for every
character with exact arithmetic.  A sweep only yields each group's records;
one driver (`_sweep`) times it and collects the records into a
VerificationReport.  A failing record always carries enough serialized
context (group file text, character indices, decomposition) to reproduce the
violation in isolation; in the ledger sweep an error raised for one
character, or for its whole group, becomes the failing record of each
character it concerns.  Reports are deterministic apart from elapsed_ms.
Theorems A and B, corollary A, prop5 and the ledger form no product of
characters: the table's pairing of the factors' row indices
(CharTable._multiplicity_rows) gives the multiplicities of products of
table rows as the rows of one checked integer array.  eta is a row's count
of nonzero entries; degree patterns, linear constituents and
counterexamples are read off the same rows.  A table keeps its
chi * conj(chi) from one such pairing; corollary A pairs each
chi_i * chi_j once, for i <= j, in chunks of bounded size, and reduces each
chunk at once to its eta and linear-constituent flag, entered at (i, j) and
(j, i).

The ledger sweep restricts no character on its own and builds each group's
ledger once: the canonical chains, their labels and (m, r, s), and the
constituent bookkeeping are arrays over all of Irr(G), read off the orbit
heads of each step down G's chief series, the restrictions they compose and
the multiplicities of every chi * conj(chi); each record is read off them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from .catalog import default_catalog
from .chars import Character
from .charops import _branching, _restrictions_along
from .clifford import _classify, _descend, _plogs
from .constructions import prop5_witness
from .errors import ChainError, EtalabError, GroupError
from .groupfile import format_group
from .perm import PermGroup
from .table import _LIFT_ENTRIES, character_table

__all__ = [
    "VerificationReport",
    "verify_theorem_a",
    "verify_theorem_b",
    "verify_corollary_a",
    "verify_ledger",
    "verify_prop5",
]

DEFAULT_PROP5_PAIRS = ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1))


@dataclass
class VerificationReport:
    """Outcome of one sweep: per-group record lists plus an overall flag."""

    check: str
    results: list = field(default_factory=list)
    passed: bool = True
    elapsed_ms: int = 0

    def add_group_result(self, gid: str, group: PermGroup, records: list, extra: dict = None):
        ok = all(rec.get("pass", False) for rec in records)
        entry = {
            "group": gid,
            "order": group.order,
            "p": group.p_group_info().p,
            "records": records,
            "pass": ok,
        }
        if extra:
            entry.update(extra)
        self.results.append(entry)
        if not ok:
            self.passed = False

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "check": self.check,
            "results": self.results,
            "pass": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _selection(groups, max_order=None):
    if groups is None:
        groups = default_catalog(max_order)
    out = []
    for gid, G in groups:
        if max_order is not None and G.order > max_order:
            continue
        if not G.p_group_info().is_p_group:
            raise GroupError("not a p-group")
        out.append((gid, G))
    return out


def _sweep(check: str):
    """Make a generator of (gid, group, records, extra) per group into a
    sweep returning the VerificationReport, with the generator's work timed."""

    def driver(per_group):
        @wraps(per_group)
        def sweep(*args, **kwargs) -> VerificationReport:
            t0 = time.monotonic()
            report = VerificationReport(check=check)
            for gid, G, records, extra in per_group(*args, **kwargs):
                report.add_group_result(gid, G, records, extra)
            report.elapsed_ms = int((time.monotonic() - t0) * 1000)
            return report

        return sweep

    return driver


def _judged(rec: dict, ok: bool, counterexample) -> dict:
    """rec with its "pass" flag and, when ok is false, the payload that
    counterexample() builds."""
    rec["pass"] = ok
    if not ok:
        rec["counterexample"] = counterexample()
    return rec


def _bounds(G: PermGroup, table) -> tuple[list[int], list[int]]:
    """(n, 2n(p-1)+1) for each chi of table, in table order, with chi(1) =
    p^n; the trivial group has p = 1, n = 0."""
    p = G.p_group_info().p
    n, rest = _plogs(p, table.degrees)
    if (rest != 1).any():
        raise ChainError(f"{rest[rest != 1][0]} is not a power of {p}")
    return n.tolist(), (2 * n * (p - 1) + 1).tolist()


def _counterexample(G: PermGroup, row: np.ndarray, **indices) -> dict:
    """The payload of a failing product: G's group file and the product's
    [table index, multiplicity] pairs, read off its row of multiplicities."""
    payload = {
        "group_file": format_group(G),
        "decomposition": [[j, m] for j, m in enumerate(row.tolist()) if m],
    }
    payload.update(indices)
    return payload


@_sweep("theorem-a")
def verify_theorem_a(groups=None, max_order=None):
    """eta(chi, conj chi) >= 2n(p-1)+1 with n = log_p chi(1), per irreducible."""
    for gid, G in _selection(groups, max_order):
        table = character_table(G)
        norms = table._norm_rows
        etas = np.count_nonzero(norms, axis=1).tolist()
        records = []
        for idx, (degree, eta, n, bound) in enumerate(zip(table.degrees, etas, *_bounds(G, table))):
            ok = eta >= bound
            rec = {
                "chi": idx,
                "degree": degree,
                "n": n,
                "eta": eta,
                "bound": bound,
            }
            records.append(_judged(rec, ok, lambda: _counterexample(G, norms[idx], chi=idx)))
        yield gid, G, records, None


@_sweep("theorem-b")
def verify_theorem_b(groups=None, max_order=None):
    """Degree trichotomy: linear chi gives eta 1; degree-p chi gives eta in
    {2p-1, p^2} with multiplicity-one constituents in the exact degree
    pattern; higher degrees give eta >= 4p-3."""
    for gid, G in _selection(groups, max_order):
        p = G.p_group_info().p
        table = character_table(G)
        norms = table._norm_rows
        etas = np.count_nonzero(norms, axis=1).tolist()
        degrees = np.array(table.degrees)
        records = []
        observed_degree_p = []
        for idx, (deg, eta) in enumerate(zip(table.degrees, etas)):
            if deg == 1:
                ok = eta == 1
                case = "linear"
            elif deg == p:
                observed_degree_p.append(eta)
                # the sorted degrees of the constituents, one entry each, so
                # the pattern fixes eta at 2p-1 or p^2
                row = norms[idx]
                pattern = np.sort(degrees[row != 0]).tolist()
                ok = int(row.max()) == 1 and pattern in ([1] * p + [p] * (p - 1), [1] * (p * p))
                case = "degree-p"
            else:
                ok = eta >= 4 * p - 3
                case = "higher"
            rec = {
                "chi": idx,
                "degree": deg,
                "case": case,
                "eta": eta,
            }
            records.append(_judged(rec, ok, lambda: _counterexample(G, norms[idx], chi=idx)))
        yield gid, G, records, {"eta_values_degree_p": sorted(set(observed_degree_p))}


def _pair_products(table) -> tuple[np.ndarray, np.ndarray]:
    """(eta, linear): (r, r) arrays of the number of distinct constituents
    of chi_i * chi_j and of whether one of them is linear.  The product is
    symmetric, so each unordered pair i <= j is paired once, in row-major
    order, by index, in chunks whose factors, gathered from the table's
    values, hold at most _LIFT_ENTRIES entries even at all phi(e)
    embeddings, as a lifting block does; each chunk is reduced at once and
    entered at (i, j) and (j, i)."""
    r = len(table)
    first, second = np.triu_indices(r)
    is_linear = np.array(table.degrees) == 1
    eta = np.empty((r, r), dtype=np.int64)
    linear = np.empty((r, r), dtype=bool)
    step = max(1, _LIFT_ENTRIES // table.cube[0].size)
    for start in range(0, len(first), step):
        i, j = first[start : start + step], second[start : start + step]
        mults = table._multiplicity_rows(np.stack([i, j]))
        eta[i, j] = eta[j, i] = np.count_nonzero(mults, axis=1)
        linear[i, j] = linear[j, i] = (mults[:, is_linear] != 0).any(axis=1)
    return eta, linear


@_sweep("corollary-a")
def verify_corollary_a(groups=None, max_order=64):
    """Over all ordered pairs (chi, psi): whenever chi*psi has a linear
    constituent, eta(chi, psi) >= 2n(p-1)+1 with n = log_p chi(1)."""
    for gid, G in _selection(groups, max_order):
        table = character_table(G)
        etas, linear = (a.tolist() for a in _pair_products(table))

        def failing(i, j):
            # only the failing product's row is paired again
            row = table._multiplicity_rows(np.array([[i], [j]]))[0]
            return _counterexample(G, row, chi=i, psi=j)

        records = []
        for i, bound in enumerate(_bounds(G, table)[1]):
            for j, (eta, qualifies) in enumerate(zip(etas[i], linear[i])):
                rec = {"chi": i, "psi": j, "qualifies": qualifies, "eta": eta}
                if qualifies:
                    rec["bound"] = bound
                ok = not qualifies or eta >= bound
                records.append(_judged(rec, ok, lambda: failing(i, j)))
        yield gid, G, records, None


def _bookkeeping(G: PermGroup, series, unstable: np.ndarray, restricted) -> np.ndarray:
    """The constituent bookkeeping behind the counting argument, for every
    chi of G at once: a (3, r) boolean array of the coverage, disjointness
    and size flags, with unstable the (t+1, r) mask of the unstable indices
    of the canonical chains and restricted the restrictions of all of Irr(G).

    Per unstable index i of chi's chain, every one-step character delta of
    N_i / N_(i-1) must be covered by a constituent xi of chi*conj(chi)
    restricting to exactly xi(1)*delta; the constituents attached to i
    (restricting onto a non-principal one-step character) must number at
    least p - 1, and the sets attached to distinct unstable indices must
    not overlap.  A one-step character is a linear psi of N_i whose
    restriction is the principal character; the constituents' restrictions
    to N_i are their rows of R_i, so each flag is a boolean product of chi's
    constituent support with R_i over those columns."""
    table = character_table(G)
    support = (table._norm_rows != 0).astype(np.int64)
    degrees = table.cube[:, 0, 0].astype(np.int64)
    covered = np.ones(unstable.shape, dtype=bool)
    attached = np.zeros(unstable.shape, dtype=np.int64)
    for i in range(1, len(series)):
        tab_i = character_table(series[i])
        principal = character_table(series[i - 1]).principal_index
        step = (_branching(series[i], series[i - 1])[0] == principal) & (tab_i.cube[:, 0, 0] == 1)
        # one-step characters are linear, so restricting to xi(1)*delta is the
        # same as the delta-entry soaking up the whole degree
        covered[i] = (support @ (restricted[i][:, step] == degrees[:, None])).all(axis=1)
        step[tab_i.principal_index] = False
        attached[i] = restricted[i][:, step].any(axis=1)
    # a constituent attached to two unstable indices of chi's chain
    shared = (unstable.T.astype(np.int64) @ attached >= 2) & (support != 0)
    sizes = support @ attached.T >= G.p_group_info().p - 1
    return np.stack(
        [(covered | ~unstable).all(axis=0), ~shared.any(axis=1), (sizes.T | ~unstable).all(axis=0)]
    )


def _ledger_arrays(G: PermGroup) -> tuple[list, np.ndarray]:
    """The ledger of every chi of G, from G's chief series: per chi, in
    table order, its canonical chain's ChainLedger or the message of the
    error it fails with, and the bookkeeping flags of _bookkeeping.  An
    error of the whole group is every chi's; the bookkeeping's is that of
    every chi whose chain passes."""
    series = G.chief_series()
    r = len(character_table(G))
    try:
        restricted = _restrictions_along(series, np.arange(r))
        unstable, ledgers = _classify(G, series, _descend(series, np.arange(r)), restricted)
    except EtalabError as exc:
        return [str(exc)] * r, None
    try:
        return ledgers, _bookkeeping(G, series, unstable, restricted)
    except EtalabError as exc:
        return [x if isinstance(x, str) else str(exc) for x in ledgers], None


def _ledger_record(G: PermGroup, chi: Character, k: int, ledger) -> tuple[dict, bool]:
    """chi's ledger record and its verdict, read off the group's ledger
    arrays at chi's table index k; the ChainError of its error."""
    ledgers, flags = ledger
    chain = ledgers[k]
    if isinstance(chain, str):
        raise ChainError(chain)
    coverage, disjoint, sizes = flags[:, k].tolist()
    rec = {
        "chi": k,
        "degree": chi.degree,
        "m": list(chain.m),
        "r": list(chain.r),
        "s": list(chain.s),
        "cases": list(chain.case),
        "coverage": coverage,
        "disjoint": disjoint,
    }
    return rec, coverage and disjoint and sizes


@_sweep("ledger")
def verify_ledger(groups=None, max_order=None):
    """Chain ledger identity m_i = 2 s_i + r_i at every index, the
    extension/induced dichotomy at unstable indices, and the disjointness
    of per-index constituent sets used by the counting argument.

    Each group's ledger is built once, as arrays over all of Irr(G)
    (_ledger_arrays); each chi's record is read off them (_ledger_record).
    An error raised for one chi, or for the whole group, becomes the
    failing record of each chi it concerns."""
    for gid, G in _selection(groups, max_order):
        ledger = _ledger_arrays(G)
        records = []
        for idx, chi in enumerate(character_table(G)):
            try:
                rec, ok = _ledger_record(G, chi, idx, ledger)
            except EtalabError as exc:
                # "pass" keeps its place ahead of "error" when it is set again
                ok = False
                rec = {"chi": idx, "degree": chi.degree, "pass": ok, "error": str(exc)}
            records.append(
                _judged(rec, ok, lambda: {"group_file": format_group(G), "chi": idx})
            )
        yield gid, G, records, None


@_sweep("prop5")
def verify_prop5(pairs=DEFAULT_PROP5_PAIRS):
    """Witness equalities: chi(1) = p^n, chi differs from its conjugate, and
    eta(chi, conj chi) = 2n(p-1)+1 exactly."""
    for p, n in pairs:
        witness = prop5_witness(p, n)
        G = witness.group
        chi = witness.chi
        # chi is irreducible (prop5_witness checks [chi, chi] = 1), so a row
        # of G's table: its product with its conjugate is paired as the
        # row's index and ~index, the row read at the conjugate embedding
        table = character_table(G)
        k = table.index_of(chi)
        row = table._multiplicity_rows(np.array([[k], [~k]]))[0]
        conj = chi.conjugate()
        eta = int(np.count_nonzero(row))
        expected = 2 * n * (p - 1) + 1
        not_real = not (chi == conj)
        ok = chi.degree == p ** n and not_real and eta == expected
        rec = {
            "p": p,
            "n": n,
            "chi_degree": chi.degree,
            "eta": eta,
            "expected": expected,
            "chi_differs_from_conjugate": not_real,
        }
        rec = _judged(rec, ok, lambda: _counterexample(G, row))
        yield f"witness-{p}-{n}", G, [rec], None
