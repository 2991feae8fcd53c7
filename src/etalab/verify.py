"""Verification sweeps for the product-constituent bounds.

Each sweep walks (catalog) groups and checks its statement for every
character with exact arithmetic.  A sweep only yields each group's records;
one driver (`_sweep`) times it and collects the records into a
VerificationReport.  A failing record always carries enough serialized
context (group file text, character indices, decomposition) to reproduce the
violation in isolation; in the ledger sweep an error raised for one
character, or for its whole group, becomes the failing record of each
character it concerns.  Reports are deterministic apart from elapsed_ms.
Theorems A and B, corollary A and the ledger form no product of characters:
one pairing of the factors decomposes a table's chi * conj(chi), or one
chi's chi * psi, with decompose's checks.

The ledger sweep restricts no character on its own and builds each group's
ledger once, not once per character: the canonical chains, their labels
and (m, r, s), and the constituent bookkeeping are arrays over all of
Irr(G), read off the branching matrices along G's chief series (kept on the
subgroups' tables), their products and the multiplicities of every
chi * conj(chi); each character's record is read off those arrays.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from .catalog import default_catalog
from .chars import Character
from .charops import _norm_decompositions, _norm_multiplicities, _product_decompositions
from .charops import _restrictions_along, branching_matrix, decompose
from .clifford import _classify, _descend, _plog
from .constructions import prop5_witness
from .errors import ChainError, EtalabError, GroupError
from .groupfile import format_group
from .perm import PermGroup
from .table import character_table

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
        groups = default_catalog()
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


def _bound(G: PermGroup, chi: Character) -> tuple[int, int]:
    """(n, 2n(p-1)+1) with chi(1) = p^n; the trivial group has p = 1, n = 0."""
    p = G.p_group_info().p
    n = _plog(p, chi.degree)
    return n, 2 * n * (p - 1) + 1


def _counterexample(G: PermGroup, table, dec, **indices) -> dict:
    payload = {
        "group_file": format_group(G),
        "decomposition": [[table.index_of(c), m] for c, m in dec.constituents],
    }
    payload.update(indices)
    return payload


@_sweep("theorem-a")
def verify_theorem_a(groups=None, max_order=None):
    """eta(chi, conj chi) >= 2n(p-1)+1 with n = log_p chi(1), per irreducible."""
    for gid, G in _selection(groups, max_order):
        table = character_table(G)
        records = []
        for idx, (chi, dec) in enumerate(zip(table, _norm_decompositions(table))):
            n, bound = _bound(G, chi)
            ok = dec.eta >= bound
            rec = {
                "chi": idx,
                "degree": chi.degree,
                "n": n,
                "eta": dec.eta,
                "bound": bound,
            }
            records.append(_judged(rec, ok, lambda: _counterexample(G, table, dec, chi=idx)))
        yield gid, G, records, None


@_sweep("theorem-b")
def verify_theorem_b(groups=None, max_order=None):
    """Degree trichotomy: linear chi gives eta 1; degree-p chi gives eta in
    {2p-1, p^2} with multiplicity-one constituents in the exact degree
    pattern; higher degrees give eta >= 4p-3."""
    for gid, G in _selection(groups, max_order):
        p = G.p_group_info().p
        table = character_table(G)
        records = []
        observed_degree_p = []
        for idx, (chi, dec) in enumerate(zip(table, _norm_decompositions(table))):
            deg = chi.degree
            if deg == 1:
                ok = dec.eta == 1
                case = "linear"
            elif deg == p:
                observed_degree_p.append(dec.eta)
                # the pattern has one entry per constituent, so it fixes eta
                # at 2p-1 or p^2
                ok = all(m == 1 for _, m in dec.constituents) and dec.degree_pattern() in (
                    (1,) * p + (p,) * (p - 1),
                    (1,) * (p * p),
                )
                case = "degree-p"
            else:
                ok = dec.eta >= 4 * p - 3
                case = "higher"
            rec = {
                "chi": idx,
                "degree": deg,
                "case": case,
                "eta": dec.eta,
            }
            records.append(_judged(rec, ok, lambda: _counterexample(G, table, dec, chi=idx)))
        yield gid, G, records, {"eta_values_degree_p": sorted(set(observed_degree_p))}


@_sweep("corollary-a")
def verify_corollary_a(groups=None, max_order=64):
    """Over all ordered pairs (chi, psi): whenever chi*psi has a linear
    constituent, eta(chi, psi) >= 2n(p-1)+1 with n = log_p chi(1)."""
    for gid, G in _selection(groups, max_order):
        table = character_table(G)
        records = []
        for i, chi in enumerate(table):
            bound = _bound(G, chi)[1]
            # chi * psi for every psi, one pairing per chi
            row = table.cube[i : i + 1]
            for j, dec in enumerate(_product_decompositions(table, row, table.cube)):
                qualifies = any(c.degree == 1 for c, _ in dec.constituents)
                rec = {"chi": i, "psi": j, "qualifies": qualifies, "eta": dec.eta}
                if qualifies:
                    rec["bound"] = bound
                ok = not qualifies or dec.eta >= bound
                records.append(
                    _judged(rec, ok, lambda: _counterexample(G, table, dec, chi=i, psi=j))
                )
        yield gid, G, records, None


def _bookkeeping(G: PermGroup, series, unstable: np.ndarray) -> np.ndarray:
    """The constituent bookkeeping behind the counting argument, for every
    chi of G at once: a (3, r) boolean array of the coverage, disjointness
    and size flags, with unstable the (t+1, r) mask of the unstable indices
    of the canonical chains.

    Per unstable index i of chi's chain, every one-step character delta of
    N_i / N_(i-1) must be covered by a constituent xi of chi*conj(chi)
    restricting to exactly xi(1)*delta; the constituents attached to i
    (restricting onto a non-principal one-step character) must number at
    least p - 1, and the sets attached to distinct unstable indices must
    not overlap.  A one-step character is a row of B_i whose restriction to
    N_(i-1) is its degree times the principal character; the constituents'
    restrictions to N_i are their rows of R_i, so each flag is a boolean
    product of chi's constituent support with R_i over those columns."""
    table = character_table(G)
    support = (_norm_multiplicities(table) != 0).astype(np.int64)
    degrees = table.cube[:, 0, 0]
    restricted = _restrictions_along(series)
    covered = np.ones(unstable.shape, dtype=bool)
    attached = np.zeros(unstable.shape, dtype=np.int64)
    for i in range(1, len(series)):
        tab_i = character_table(series[i])
        principal = character_table(series[i - 1]).principal_index
        step = branching_matrix(series[i], series[i - 1])[:, principal] == tab_i.cube[:, 0, 0]
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
        unstable, ledgers = _classify(G, series, _descend(series, np.arange(r)))
    except EtalabError as exc:
        return [str(exc)] * r, None
    try:
        return ledgers, _bookkeeping(G, series, unstable)
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
        # the chief-series tables bottom-up, each seeded from the one below;
        # the last is G's
        for N in G.chief_series():
            table = character_table(N)
        ledger = _ledger_arrays(G)
        records = []
        for idx, chi in enumerate(table):
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
        dec = decompose(chi * chi.conjugate())
        expected = 2 * n * (p - 1) + 1
        not_real = not (chi == chi.conjugate())
        ok = chi.degree == p ** n and not_real and dec.eta == expected
        rec = {
            "p": p,
            "n": n,
            "chi_degree": chi.degree,
            "eta": dec.eta,
            "expected": expected,
            "chi_differs_from_conjugate": not_real,
        }
        rec = _judged(rec, ok, lambda: _counterexample(G, character_table(G), dec))
        yield f"witness-{p}-{n}", G, [rec], None
