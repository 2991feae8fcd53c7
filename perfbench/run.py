"""etalab benchmark: the eta and ledger workloads, each sample in a fresh
interpreter.

    python3 perfbench/run.py                 every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1       every workload, per-layer metrics
                                             and tracing overhead
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                                             one workload; the last line of
                                             stdout is the JSON result

A timed run repeats whole sweeps until --seconds have passed (at least
one), with set-up-only samples before and after them (see SETUP_MIN_*).
It reports the median sweep wall time, the median set-up time over all
samples, the median peak RSS of the sweep processes, and the share of
operations that passed their output check.  A traced run (--trace 1) makes one sweep with the
per-layer hooks of spans.py installed.  The exit code is non-zero when any
output check fails or a process does not finish.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("eta", "ledger")
# set-up-only samples, taken both before and after the sweeps so that they
# span the run: on each side at least this many, and at least this much
# set-up time, so that the short set-ups get more samples
SETUP_MIN_SAMPLES = 1
SETUP_MIN_SECONDS = 2.0
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
)

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def child(mode: str, workload: str, *extra: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    spawn = time.monotonic()
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload, "--spawn", repr(spawn), *extra]
    try:
        proc = subprocess.run(
            cmd, stdin=subprocess.DEVNULL, capture_output=True, text=True, cwd=ROOT,
            env=child_env(), timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} {workload}: no result within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} {workload}: exit code {proc.returncode}\n{proc.stderr.strip()}")
    sys.stderr.write(proc.stderr)  # tracebacks of failed operations, if any
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def prepare(tiny: bool) -> list:
    """Byte-compile the package once, so that no sample pays for it."""
    compileall.compile_dir(str(ROOT / "src" / "etalab"), quiet=1)
    return ["--tiny"] if tiny else []


def timed_run(workload: str, seconds: float, tiny: bool) -> dict:
    size = prepare(tiny)

    def setup_samples() -> list:
        got = []
        while len(got) < SETUP_MIN_SAMPLES or sum(got) < SETUP_MIN_SECONDS:
            got.append(child("setup", workload, *size)["setup_s"])
        return got

    setups = setup_samples()
    sweeps = []
    start = time.monotonic()
    while not sweeps or time.monotonic() - start < seconds:
        sweeps.append(child("sweep", workload, *size))
    setups += setup_samples()
    attempted = sum(s["attempted"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    values = {
        "wall_s": statistics.median(s["wall_s"] for s in sweeps),
        "setup_s": statistics.median(setups + [s["setup_s"] for s in sweeps]),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sweeps),
        "pass_frac": (attempted - failed) / attempted if attempted else 0.0,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "notes": [n for s in sweeps for n in s["notes"]],
        "samples": {"sweeps": len(sweeps), "setups": len(setups) + len(sweeps)},
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }


def traced_run(workload: str, seed: int, tiny: bool) -> dict:
    size = prepare(tiny)
    out = ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.tsv"
    sweep = child("sweep", workload, *size, "--trace-out", str(out))
    for hook in sweep["missing_hooks"]:
        print(f"warning: {hook} not found; its metrics read 0", file=sys.stderr)
    print(f"spans of {workload} written to {out.relative_to(ROOT)}", file=sys.stderr)
    return {
        "attempted": sweep["attempted"],
        "failed": sweep["failed"],
        "notes": sweep["notes"],
        "samples": {"sweeps": 1, "setups": 1},
        "metrics": {
            name: {"value": sweep["layers"][name], "unit": unit} for name, unit in spans.LAYER_METRICS
        },
    }


def result_line(run: dict) -> str:
    return json.dumps(
        {
            "correct": run["failed"] == 0 and run["attempted"] > 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": run["metrics"],
        }
    )


def show(workload: str, run: dict) -> None:
    print(f"== {workload} ({run['samples']['sweeps']} sweeps, {run['samples']['setups']} set-up samples)")
    for name, m in run["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    frac = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    print(f"  {'failed_frac':32s} {frac:.6g} ratio ({run['failed']} of {run['attempted']} operations)")
    for note in run["notes"]:
        print(f"  FAILED {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload, JSON result on the last line")
    ap.add_argument("--seed", type=int, default=0, help="names the spans file; both workloads are fixed sweeps")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="catalog capped at order 32")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "etalab" / "__init__.py").is_file():
        print(f"error: no etalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))
    try:
        if args.workload:
            if args.trace:
                run = traced_run(args.workload, args.seed, args.tiny)
            else:
                run = timed_run(args.workload, args.seconds, args.tiny)
            for note in run["notes"]:
                print(f"FAILED {note}", file=sys.stderr)
            print("samples " + json.dumps(run["samples"]))
            print(result_line(run))
            return 0 if run["failed"] == 0 else 1
        ok = True
        for workload in WORKLOADS:
            if args.trace:
                plain = timed_run(workload, 0, args.tiny)
                run = traced_run(workload, args.seed, args.tiny)
                traced_wall = run["metrics"]["trace.wall_s"]["value"]
                plain_wall = plain["metrics"]["wall_s"]["value"]
                run["metrics"]["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
                run["metrics"]["trace.overhead_frac"] = {
                    "value": traced_wall / plain_wall - 1.0, "unit": "ratio"
                }
            else:
                run = timed_run(workload, args.seconds, args.tiny)
            show(workload, run)
            ok = ok and run["failed"] == 0 and (not args.trace or plain["failed"] == 0)
        return 0 if ok else 1
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
