"""Time one heavy step in fresh processes, optionally against a second
checkout, one process at a time.

Run from the repository root:

    python3 scripts/scale.py STEP [--runs N] [--parent PATH]

Steps (set-up named in brackets runs before the clock starts):
- witness-3-2: prop5_witness(3, 2), the order-3^13 witness;
- series-3-2: the chief series of that group [the group and its classes];
- table-3-2: its cold character table [the group];
- ledger-5-1: verify_ledger on prop5_witness(5, 1) [the group];
- witness-2-2: prop5_witness(2, 2), a small step for a smoke test.

Each run is a new Python process that imports the package from a
checkout's `src/`: this script's own checkout, and with --parent also the
checkout at PATH, the two alternating (the side that leads swaps from one
pair of runs to the next).  It prints one JSON object: for each side, the
median and quartiles of the step's wall time, the process's user + sys CPU
and its ru_maxrss in MB, with every run's value.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _witness(p: int, n: int):
    from etalab.constructions import prop5_witness

    return lambda: None, lambda _: prop5_witness(p, n)


def _series():
    from etalab.constructions import prop5_witness

    def setup():
        G = prop5_witness(3, 2).group
        G.conjugacy_classes()
        return G

    return setup, lambda G: G.chief_series()


def _table():
    from etalab.constructions import prop5_witness
    from etalab.table import character_table

    return lambda: prop5_witness(3, 2).group, character_table


def _ledger():
    from etalab.constructions import prop5_witness
    from etalab.verify import verify_ledger

    return lambda: prop5_witness(5, 1).group, lambda G: verify_ledger(groups=[("w51", G)])


STEPS = {
    "witness-3-2": lambda: _witness(3, 2),
    "series-3-2": _series,
    "table-3-2": _table,
    "ledger-5-1": _ledger,
    "witness-2-2": lambda: _witness(2, 2),
}


def child(step: str) -> None:
    """Run one step in this process and print its wall time as JSON; the
    package is whichever `src/` leads sys.path."""
    setup, run = STEPS[step]()
    state = setup()
    start = time.perf_counter()
    run(state)
    print(json.dumps({"wall_s": time.perf_counter() - start}))


def run_once(step: str, checkout: Path) -> dict:
    """One fresh process running step on checkout's package: the step's wall
    time, and the process's user + sys CPU and ru_maxrss (KB on Linux)."""
    code = (
        f"import sys; sys.path[:0] = [{str(checkout / 'src')!r}, {str(HERE)!r}]; "
        f"import scale; scale.child({step!r})"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{step} on {checkout} exited {proc.returncode}")
    return {
        "wall_s": json.loads(out)["wall_s"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024,
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles and every value, in run order."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=sorted(STEPS))
    parser.add_argument("--runs", type=int, default=5, help="runs per side (default 5)")
    parser.add_argument("--parent", type=Path, help="a second checkout to alternate with")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    sides = {"change": ROOT}
    if args.parent is not None:
        if not (args.parent / "src" / "etalab").is_dir():
            parser.error(f"{args.parent} holds no src/etalab")
        sides["parent"] = args.parent.resolve()
    runs = {name: [] for name in sides}
    for i in range(args.runs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for name in order:
            runs[name].append(run_once(args.step, sides[name]))
            print(f"{args.step} {name} run {i + 1}: {runs[name][-1]}", file=sys.stderr)
    report = {
        "step": args.step,
        "sides": {
            name: {
                "checkout": str(sides[name]),
                **{m: summary([r[m] for r in runs[name]]) for m in ("wall_s", "cpu_s", "maxrss_mb")},
            }
            for name in sides
        },
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
