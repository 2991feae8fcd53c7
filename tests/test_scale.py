"""scripts/scale.py: one run of its small step in a fresh process."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scale_runs_the_small_step_once():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scale.py"), "witness-2-2", "--runs", "1"],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    report = json.loads(out.stdout)
    assert report["step"] == "witness-2-2"
    assert list(report["sides"]) == ["change"]
    side = report["sides"]["change"]
    assert side["checkout"] == str(ROOT)
    for metric in ("wall_s", "cpu_s", "maxrss_mb"):
        value = side[metric]
        assert len(value["runs"]) == 1 and value["runs"][0] > 0
        assert value["q1"] == value["median"] == value["q3"] == value["runs"][0]
