"""Verification sweeps for the product-constituent bounds.

Each sweep walks (catalog) groups, checks its statement character by
character with exact arithmetic, and collects per-record results into a
VerificationReport.  A failing record always carries enough serialized
context (group file text, character indices, decomposition) to reproduce the
violation in isolation.  Reports are deterministic apart from elapsed_ms.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .catalog import default_catalog
from .chars import Character
from .charops import decompose, irr_mod, restrict
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


def _counterexample(G: PermGroup, table, dec, **indices) -> dict:
    payload = {
        "group_file": format_group(G),
        "decomposition": [[table.index_of(c), m] for c, m in dec.constituents],
    }
    payload.update(indices)
    return payload


def verify_theorem_a(groups=None, max_order=None, cache_dir=None) -> VerificationReport:
    """eta(chi, conj chi) >= 2n(p-1)+1 with n = log_p chi(1), per irreducible."""
    t0 = time.monotonic()
    report = VerificationReport(check="theorem-a")
    for gid, G in _selection(groups, max_order):
        p = G.p_group_info().p
        table = character_table(G, cache_dir=cache_dir)
        records = []
        for idx, chi in enumerate(table):
            n = _plog(p, chi.degree) if G.order > 1 else 0
            dec = decompose(chi * chi.conjugate())
            bound = 2 * n * (p - 1) + 1 if G.order > 1 else 1
            ok = dec.eta >= bound
            rec = {
                "chi": idx,
                "degree": chi.degree,
                "n": n,
                "eta": dec.eta,
                "bound": bound,
                "pass": ok,
            }
            if not ok:
                rec["counterexample"] = _counterexample(G, table, dec, chi=idx)
            records.append(rec)
        report.add_group_result(gid, G, records)
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report


def verify_theorem_b(groups=None, max_order=None, cache_dir=None) -> VerificationReport:
    """Degree trichotomy: linear chi gives eta 1; degree-p chi gives eta in
    {2p-1, p^2} with multiplicity-one constituents in the exact degree
    pattern; higher degrees give eta >= 4p-3."""
    t0 = time.monotonic()
    report = VerificationReport(check="theorem-b")
    for gid, G in _selection(groups, max_order):
        p = G.p_group_info().p
        table = character_table(G, cache_dir=cache_dir)
        records = []
        observed_degree_p = []
        for idx, chi in enumerate(table):
            deg = chi.degree
            dec = decompose(chi * chi.conjugate())
            mults = [m for _, m in dec.constituents]
            pattern = dec.degree_pattern()
            if deg == 1:
                ok = dec.eta == 1
                case = "linear"
            elif deg == p:
                observed_degree_p.append(dec.eta)
                shape_small = (
                    dec.eta == 2 * p - 1
                    and pattern == tuple([1] * p + [p] * (p - 1))
                )
                shape_big = dec.eta == p * p and pattern == tuple([1] * (p * p))
                ok = (
                    dec.eta in (2 * p - 1, p * p)
                    and all(m == 1 for m in mults)
                    and (shape_small or shape_big)
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
                "pass": ok,
            }
            if not ok:
                rec["counterexample"] = _counterexample(G, table, dec, chi=idx)
            records.append(rec)
        report.add_group_result(
            gid, G, records, extra={"eta_values_degree_p": sorted(set(observed_degree_p))}
        )
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report


def verify_corollary_a(groups=None, max_order=64, cache_dir=None) -> VerificationReport:
    """Over all ordered pairs (chi, psi): whenever chi*psi has a linear
    constituent, eta(chi, psi) >= 2n(p-1)+1 with n = log_p chi(1)."""
    t0 = time.monotonic()
    report = VerificationReport(check="corollary-a")
    for gid, G in _selection(groups, max_order):
        p = G.p_group_info().p
        table = character_table(G, cache_dir=cache_dir)
        records = []
        for i, chi in enumerate(table):
            n = _plog(p, chi.degree) if G.order > 1 else 0
            for j, psi in enumerate(table):
                dec = decompose(chi * psi)
                has_linear = any(c.degree == 1 for c, _ in dec.constituents)
                if has_linear:
                    bound = 2 * n * (p - 1) + 1 if G.order > 1 else 1
                    ok = dec.eta >= bound
                    rec = {
                        "chi": i,
                        "psi": j,
                        "qualifies": True,
                        "eta": dec.eta,
                        "bound": bound,
                        "pass": ok,
                    }
                    if not ok:
                        rec["counterexample"] = _counterexample(G, table, dec, chi=i, psi=j)
                else:
                    rec = {
                        "chi": i,
                        "psi": j,
                        "qualifies": False,
                        "eta": dec.eta,
                        "pass": True,
                    }
                records.append(rec)
        report.add_group_result(gid, G, records)
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report


_RESTRICT_MULT_MEMO: dict = {}


def _restriction_multiplicities(theta: Character, N: PermGroup, cache_dir=None):
    """Multiplicity vector of theta restricted to N, memoized across the
    sweep (the same table irreducibles recur in many product decompositions)."""
    key = (theta.group.content_key, theta.value_key(), N.content_key)
    hit = _RESTRICT_MULT_MEMO.get(key)
    if hit is None:
        tab = character_table(N, cache_dir=cache_dir)
        hit = tuple(tab.multiplicities(restrict(theta, N)))
        _RESTRICT_MULT_MEMO[key] = hit
    return hit


def _chain_extras(G: PermGroup, chi: Character, chain, ledger, cache_dir=None):
    """Constituent bookkeeping behind the counting argument: per unstable
    index, every one-step character delta must be covered by a constituent
    of chi*conj(chi) restricting to exactly theta(1)*delta, and the
    constituent sets attached to distinct unstable indices must not overlap."""
    dec = decompose(chi * chi.conjugate())
    xi = dec.characters()
    p = G.p_group_info().p
    attach: dict[int, set] = {}
    coverage_ok = True
    for i in ledger.unstable_indices:
        if i == 0:
            continue
        N_i = chain.series[i]
        N_below = chain.series[i - 1]
        tab_i = character_table(N_i, cache_dir=cache_dir)
        one_step = irr_mod(N_i, N_below)
        step_idx = [tab_i.index_of(d) for d in one_step]
        nonprincipal_idx = [k for k in step_idx if k != tab_i.principal_index]
        mult_rows = [
            _restriction_multiplicities(theta, N_i, cache_dir=cache_dir)
            for theta in xi
        ]
        # one-step characters are linear, so restricting to theta(1)*delta
        # is the same as the delta-entry soaking up the whole degree
        for k in step_idx:
            if not any(
                row[k] == theta.degree for theta, row in zip(xi, mult_rows)
            ):
                coverage_ok = False
        attach[i] = {
            t_idx
            for t_idx, row in enumerate(mult_rows)
            if any(row[k] for k in nonprincipal_idx)
        }
    disjoint_ok = True
    keys = sorted(attach)
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            if attach[keys[a]] & attach[keys[b]]:
                disjoint_ok = False
    sizes_ok = all(len(attach[i]) >= p - 1 for i in keys)
    return coverage_ok, disjoint_ok, sizes_ok


def verify_ledger(groups=None, max_order=None, cache_dir=None) -> VerificationReport:
    """Chain ledger identity m_i = 2 s_i + r_i at every index, the
    extension/induced dichotomy at unstable indices, and the disjointness
    of per-index constituent sets used by the counting argument."""
    t0 = time.monotonic()
    report = VerificationReport(check="ledger")
    for gid, G in _selection(groups, max_order):
        table = character_table(G, cache_dir=cache_dir)
        records = []
        for idx, chi in enumerate(table):
            try:
                chain = build_chain(G, chi, cache_dir=cache_dir)
                ledger = classify_chain(chain, cache_dir=cache_dir)
            except EtalabError as exc:
                records.append(
                    {
                        "chi": idx,
                        "degree": chi.degree,
                        "pass": False,
                        "error": str(exc),
                        "counterexample": {"group_file": format_group(G), "chi": idx},
                    }
                )
                continue
            identity_ok = all(
                m == 2 * s + r for m, r, s in zip(ledger.m, ledger.r, ledger.s)
            )
            coverage_ok, disjoint_ok, sizes_ok = _chain_extras(
                G, chi, chain, ledger, cache_dir=cache_dir
            )
            ok = identity_ok and coverage_ok and disjoint_ok and sizes_ok
            rec = {
                "chi": idx,
                "degree": chi.degree,
                "m": list(ledger.m),
                "r": list(ledger.r),
                "s": list(ledger.s),
                "cases": list(ledger.case),
                "coverage": coverage_ok,
                "disjoint": disjoint_ok,
                "pass": ok,
            }
            if not ok:
                rec["counterexample"] = {"group_file": format_group(G), "chi": idx}
            records.append(rec)
        report.add_group_result(gid, G, records)
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report


def verify_prop5(pairs=DEFAULT_PROP5_PAIRS, cache_dir=None) -> VerificationReport:
    """Witness equalities: chi(1) = p^n, chi differs from its conjugate, and
    eta(chi, conj chi) = 2n(p-1)+1 exactly."""
    t0 = time.monotonic()
    report = VerificationReport(check="prop5")
    for p, n in pairs:
        witness = prop5_witness(p, n, cache_dir=cache_dir)
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
            "pass": ok,
        }
        if not ok:
            table = character_table(G, cache_dir=cache_dir)
            rec["counterexample"] = _counterexample(G, table, dec)
        report.add_group_result(f"witness-{p}-{n}", G, [rec])
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report
