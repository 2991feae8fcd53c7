"""Verification sweeps for the product-constituent bounds.

Each sweep walks (catalog) groups and checks its statement character by
character with exact arithmetic.  A sweep only yields each group's records;
one driver (`_sweep`) times it and collects the records into a
VerificationReport.  A failing record always carries enough serialized
context (group file text, character indices, decomposition) to reproduce the
violation in isolation; in the ledger sweep an error raised for one
character becomes that character's failing record.  Reports are
deterministic apart from elapsed_ms.  Theorems A and B, corollary A and the
ledger form no product of characters: one pairing of the factors decomposes
a table's chi * conj(chi), or one chi's chi * psi, with decompose's checks.

The ledger sweep restricts no character on its own: chains, their labels
and the constituent bookkeeping read rows and columns of the branching
matrices along G's chief series, which are kept on the subgroups' tables.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from .catalog import default_catalog
from .chars import Character
from .charops import _norm_decompositions, _product_decompositions, _restrictions_along
from .charops import branching_matrix, decompose
from .clifford import _plog, build_chain, classify_chain
from .constructions import prop5_witness
from .errors import EtalabError, GroupError
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


def _chain_extras(G: PermGroup, chi: Character, chain, ledger):
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


@_sweep("ledger")
def verify_ledger(groups=None, max_order=None):
    """Chain ledger identity m_i = 2 s_i + r_i at every index, the
    extension/induced dichotomy at unstable indices, and the disjointness
    of per-index constituent sets used by the counting argument."""
    for gid, G in _selection(groups, max_order):
        # the chief-series tables bottom-up, each seeded from the one below;
        # the last is G's
        for N in G.chief_series():
            table = character_table(N)
        records = []
        for idx, chi in enumerate(table):
            try:
                chain = build_chain(G, chi)
                ledger = classify_chain(chain)
                coverage_ok, disjoint_ok, sizes_ok = _chain_extras(G, chi, chain, ledger)
            except EtalabError as exc:
                # "pass" keeps its place ahead of "error" when it is set again
                ok = False
                rec = {"chi": idx, "degree": chi.degree, "pass": ok, "error": str(exc)}
            else:
                ok = coverage_ok and disjoint_ok and sizes_ok
                rec = {
                    "chi": idx,
                    "degree": chi.degree,
                    "m": list(ledger.m),
                    "r": list(ledger.r),
                    "s": list(ledger.s),
                    "cases": list(ledger.case),
                    "coverage": coverage_ok,
                    "disjoint": disjoint_ok,
                }
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
