"""One benchmark process: set-up, one timed sweep of a workload, checks.

run.py starts a fresh interpreter running this file for every sample, so
that no etalab memo (tables, decompositions, stabilizers, catalog groups)
survives from one sample into the next.  Modes:

    worker.py setup  --workload W --spawn T [--tiny]
        set up only, and report set-up time
    worker.py sweep  --workload W --spawn T [--tiny] [--trace-out PATH]
        set up, run one timed sweep, check every output against
        reference.json, report
    worker.py record
        rewrite reference.json from the current program

--spawn is the time.monotonic() reading the parent took just before
starting this process; set-up time runs from there to the first timed call.
Every mode prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
TMP_ROOT = ROOT / ".perfbench_tmp"

TINY_MAX_ORDER = 32
COROLLARY_MAX_ORDER = 64  # verify_corollary_a's default cap


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, n: int, ok: bool, note: str) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            if len(self.notes) < 20:
                self.notes.append(note)

    def run(self, what: str, op) -> None:
        """One operation; op returns None when its output checks out, else
        a message.  Any exception counts as a failed operation."""
        try:
            msg = op()
        except Exception as exc:  # a failing operation must not end the run
            traceback.print_exc()
            msg = f"{type(exc).__name__}: {exc}"
        self.add(1, msg is None, f"{what}: {msg}")

    def check_report(self, check: str, expected: list, sweep) -> None:
        """Each group entry of the report must match its reference digest;
        an entry stands for as many operations as it has records."""
        try:
            report = sweep()
        except Exception as exc:  # the whole sweep failed: every record fails
            traceback.print_exc()
            for ref in expected:
                self.add(ref["records"], False, f"{check} {ref['group']}: {type(exc).__name__}: {exc}")
            return
        got = {entry["group"]: entry for entry in report.to_json_dict()["results"]}
        for ref in expected:
            entry = got.pop(ref["group"], None)
            ok = (
                entry is not None
                and entry["pass"]
                and report.passed
                and digest(entry) == ref["digest"]
            )
            self.add(ref["records"], ok, f"{check} {ref['group']}: output differs from reference")
        for gid, entry in got.items():
            self.add(len(entry["records"]), False, f"{check} {gid}: unexpected group in report")


class Context:
    def __init__(self, etalab, tiny: bool):
        self.etalab = etalab
        self.max_order = TINY_MAX_ORDER if tiny else None
        self.corollary_cap = min(COROLLARY_MAX_ORDER, self.max_order or COROLLARY_MAX_ORDER)
        # set-up shared by every workload: parse and close the whole catalog
        self.groups = [
            (gid, G)
            for gid, G in etalab.catalog.default_catalog()
            if self.max_order is None or G.order <= self.max_order
        ]
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.tally = Tally()
        self.cache_dir = None

    def expected(self, check: str, limit) -> list:
        """Reference entries of a sweep run over groups of order <= limit."""
        return [
            ref
            for ref in self.reference["reports"][check]
            if limit is None or ref["order"] <= limit
        ]


# ---------------------------------------------------------------------------
# workloads


def eta_setup(ctx: Context) -> None:
    ctx.tables = [
        (gid, ctx.etalab.table.character_table(G, cache_dir=ctx.cache_dir)) for gid, G in ctx.groups
    ]


def eta_timed(ctx: Context) -> None:
    verify, tally = ctx.etalab.verify, ctx.tally
    tally.check_report(
        "theorem-a", ctx.expected("theorem-a", ctx.max_order),
        lambda: verify.verify_theorem_a(max_order=ctx.max_order),
    )
    tally.check_report(
        "theorem-b", ctx.expected("theorem-b", ctx.max_order),
        lambda: verify.verify_theorem_b(max_order=ctx.max_order),
    )
    tally.check_report(
        "corollary-a", ctx.expected("corollary-a", ctx.corollary_cap),
        lambda: verify.verify_corollary_a(max_order=ctx.corollary_cap),
    )
    tally.check_report("prop5", ctx.expected("prop5", None), verify.verify_prop5)
    for gid, table in ctx.tables:
        tally.run(f"orthogonality {gid}", table.verify_orthogonality)


def eta_check(ctx: Context) -> None:
    """The tables built in set-up, against their reference digests."""
    for gid, table in ctx.tables:
        def same_as_reference(gid=gid, table=table):
            if digest(table.to_json_dict()) != ctx.reference["tables"][gid]:
                return "table differs from reference"
            return None

        ctx.tally.run(f"table {gid}", same_as_reference)


def ledger_timed(ctx: Context) -> None:
    verify = ctx.etalab.verify
    ctx.tally.check_report(
        "ledger", ctx.expected("ledger", ctx.max_order), lambda: verify.verify_ledger(max_order=ctx.max_order)
    )


# name: (set-up after the catalog, timed phase, checks after the timed phase)
WORKLOADS = {
    "eta": (eta_setup, eta_timed, eta_check),
    "ledger": (None, ledger_timed, None),
}


# ---------------------------------------------------------------------------
# reference outputs


def record_references(etalab) -> dict:
    """Digests of every output the workloads check, from the current
    program: each catalog table's to_json_dict(), and each group entry of
    each sweep report (the report JSON without elapsed_ms)."""
    verify = etalab.verify
    out = {"tables": {}, "reports": {}}
    for gid, G in etalab.catalog.default_catalog():
        out["tables"][gid] = digest(etalab.table.character_table(G).to_json_dict())
    sweeps = {
        "theorem-a": verify.verify_theorem_a,
        "theorem-b": verify.verify_theorem_b,
        "corollary-a": lambda: verify.verify_corollary_a(max_order=COROLLARY_MAX_ORDER),
        "ledger": verify.verify_ledger,
        "prop5": verify.verify_prop5,
    }
    for check, sweep in sweeps.items():
        report = sweep()
        if not report.passed:
            raise SystemExit(f"{check} does not pass; refusing to record it as a reference")
        out["reports"][check] = [
            {
                "group": entry["group"],
                "order": entry["order"],
                "records": len(entry["records"]),
                "digest": digest(entry),
            }
            for entry in report.to_json_dict()["results"]
        ]
    return out


# ---------------------------------------------------------------------------


def import_etalab():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import etalab

    if src not in Path(etalab.__file__).resolve().parents:
        raise SystemExit(f"etalab was imported from {etalab.__file__}, not from {src}")
    return etalab


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "sweep", "record"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--spawn", type=float)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    etalab = import_etalab()
    rec = None
    if args.trace_out:
        rec = spans.Recorder()
        spans.install(rec)

    if args.mode == "record":
        REFERENCE.write_text(json.dumps(record_references(etalab), indent=1) + "\n", encoding="utf-8")
        return 0

    ctx = Context(etalab, args.tiny)
    setup, timed, check = WORKLOADS[args.workload]
    TMP_ROOT.mkdir(exist_ok=True)
    ctx.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=TMP_ROOT)
    try:
        if setup is not None:
            setup(ctx)
        setup_s = time.monotonic() - args.spawn
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        t0 = time.perf_counter()
        timed(ctx)
        wall_s = time.perf_counter() - t0
        if check is not None:
            check(ctx)
        cache_bytes = sum(p.stat().st_size for p in Path(ctx.cache_dir).rglob("*") if p.is_file())
    finally:
        shutil.rmtree(ctx.cache_dir, ignore_errors=True)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "notes": ctx.tally.notes,
    }
    if rec is not None:
        result["layers"] = spans.layer_metrics(rec, wall_s, cache_bytes)
        result["missing_hooks"] = rec.missing
        out = Path(args.trace_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        rec.write_tsv(out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
