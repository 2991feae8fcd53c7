"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Runs every workload timed and traced with --tiny (catalog capped at order
32) and checks that each result line has the
contract's shape, that every metric BENCHMARK.json names is present with its
unit, and that every output check passed.  Then checks that the human-readable
modes print every metric, and that the benchmark refuses to run, without
printing a result, when the package sources are absent.  Takes one to two
minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd, timeout=600)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run([str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, sorted(result["metrics"])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        if not trace:
            assert got["value"] > 0, (m, got)
    print(f"ok  {workload} trace={trace}: {result['attempted']} operations")


def check_human(spec: dict) -> None:
    n = len(spec["workloads"])
    proc = run([str(HERE / "run.py"), "--tiny", "--seconds", "1"])
    assert proc.returncode == 0, proc.stderr
    for name in [m["name"] for m in spec["end_to_end"]] + ["failed_frac"]:
        assert proc.stdout.count(f" {name} ") == n, (name, proc.stdout)
    proc = run([str(HERE / "run.py"), "--tiny", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    for name in [m["name"] for m in spec["per_layer"]] + ["trace.overhead_s", "trace.overhead_frac"]:
        assert proc.stdout.count(f" {name} ") == n, (name, proc.stdout)
    print("ok  human-readable modes")


def check_refuses_without_sources() -> None:
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=tmp_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([f"{HERE.name}/run.py", "--workload", "ledger", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the package sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == ["eta", "ledger"], workloads
    for workload in workloads:
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_human(spec)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
