"""Smallest run of the benchmark harness: it must finish, check every answer
and report each end-to-end metric with its unit."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "top_rung_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def test_ladder_smoke_run():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
