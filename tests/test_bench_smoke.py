"""Smallest run of the benchmark harness: it must finish, check every answer
and report each end-to-end metric with its unit; a traced run reports
each per-layer metric of BENCHMARK.json."""

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


def run_bench(*args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_ladder_smoke_run():
    proc = run_bench("--workload", "ladder", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_queries_smoke_run():
    """The tracer binds engine functions by name (transforms.homology_dual,
    the HodgeDiamond methods, RationalFunctionY.__init__ and more); a
    rename in the engine fails this run."""
    proc = run_bench("--workload", "queries", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in bench["per_layer"])


def test_traced_registry_smoke_run():
    """The tracer binds gysin_pushforward, lambda_y, chern_character and
    each verify suite by name; a rename in the engine fails this run."""
    proc = run_bench("--workload", "registry", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in bench["per_layer"])
