"""Self-checks of the benchmark harness: exact traced counts, byte-identical
traced output, oracles that catch a wrong answer, and the metric contract.

    python3 -m pytest perfbench/test_perfbench.py -q

These run the engine in child processes (about a minute in all); they are
not part of the engine's own test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

REGISTRY = [(run.VERIFY, wl.check_registry)]


def test_registry_counts_are_exact_and_repeat(tmp_path):
    bench = run.Run(seconds=0)
    plain = run.cli_pass(bench, REGISTRY)
    layers = []
    for i in range(2):
        trace_dir = tmp_path / str(i)
        trace_dir.mkdir()
        traced = run.cli_pass(bench, REGISTRY, trace_dir)
        assert traced.failures == {}
        assert traced.outputs == plain.outputs      # tracing changes no byte
        layers.append(run.layer_values(traced))
    first, second = layers
    assert first["spaces.projbundle_built"] == 718
    assert first["transforms.chi_y_genus_calls"] == 519
    assert first["bundles.genus_series_misses"] == 8
    assert first["spaces.mul_calls"] == 32127
    assert first["verify.checks"] == 535
    assert {k: first[k] for k in run.COUNTS} == {k: second[k] for k in run.COUNTS}
    assert all(first[f"verify.{name}_s"] > 0 for name in run.SUITES)


@pytest.mark.parametrize("workload", ["ladder", "queries"])
def test_counts_repeat_between_traced_passes(tmp_path, workload):
    bench = run.Run(seconds=0)
    w = run.WORKLOADS[workload](5)
    traced = []
    for i in range(2):
        trace_dir = tmp_path / str(i)
        trace_dir.mkdir()
        traced.append(w.run_pass(bench, 0, trace_dir))
    run.check_counts_repeat(traced, [run.layer_values(p) for p in traced])
    assert [p.failures for p in traced] == [{}, {}]


def test_differing_counts_are_failures():
    traced = [run.Pass(), run.Pass()]
    layers = [dict.fromkeys(run.COUNTS, 1), dict.fromkeys(run.COUNTS, 1)]
    layers[1]["spaces.mul_calls"] = 2
    run.check_counts_repeat(traced, layers)
    assert traced[0].failures == {} and len(traced[1].failures) == 1


def test_tracer_wraps_every_binding_site():
    code = """
import tracer
from hirzebruch import bundles, cli, rings, spaces, transforms, verify
rec = tracer.Recorder()
tracer.install(rec)
assert spaces.CohClass.__rmul__ is spaces.CohClass.__mul__
assert rings.LaurentY.__rmul__ is rings.LaurentY.__mul__
assert hasattr(spaces.CohClass.__mul__, "__wrapped__")
assert transforms.apply_series is bundles.apply_series
assert transforms.lambda_y is bundles.lambda_y
assert hasattr(transforms.lambda_y, "__wrapped__")
for name in ("chi_y_genus", "mht", "pushforward"):
    assert getattr(verify, name) is getattr(transforms, name)
    assert hasattr(getattr(verify, name), "__wrapped__")
assert all(hasattr(fn, "__wrapped__") for fn in verify.SUITES.values())
h = spaces.projective(2).gen_class(0)
(2 * h) * h
assert rec.agg["spaces.mul"][0] == 2 and rec.counts["spaces.mul"] == 1
"""
    env = dict(run.ENV, PYTHONPATH=f"{run.ROOT / 'src'}:{HERE}")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=run.ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_wrong_expected_values_are_failures(monkeypatch):
    bench = run.Run(seconds=0)
    ops = [(["genus", "--space", "P2", "--format", "json"],
            lambda doc: wl.check_genus_space(doc, ("P", 3))),
           (["genus", "--space", "P2", "--format", "json"],
            lambda doc: wl.check_genus_space(doc, ("P", 2)))]
    p = run.cli_pass(bench, ops)
    assert p.attempted == 2 and len(p.failures) == 1

    rungs = wl.ladder_specs(0)[:3]
    rungs[1] = (rungs[1][0], wl.chi_projective(4))      # P5 is not P4
    p = run.ladder_pass(bench, rungs)
    assert p.attempted == 3 and len(p.failures) == 1

    monkeypatch.setitem(wl.REGISTRY_COUNTS, "ghrr", 9)
    p = run.cli_pass(bench, REGISTRY)
    assert len(p.failures) == 1


def test_query_stream_passes_its_oracles():
    bench = run.Run(seconds=0)
    stream = wl.query_stream(7)
    p = run.cli_pass(bench, [next(stream) for _ in range(24)])
    assert p.failures == {}


def test_oracles_match_known_values():
    assert wl.chi_hypersurface(3, 4) == {0: 2, 1: -20, 2: 2}       # K3 surface
    assert wl.chi_hypersurface(2, 3) == {}                           # elliptic curve
    assert wl.chi_arrangement(2, 2) == {0: 1, 1: 1}
    assert wl.csm_arrangement(3, 2) == {3: 1, 2: 2, 1: 1}
    assert wl.euler(("Proj", ("P", 2), [0, 1])) == 6
    assert wl.parse_poly("-1 - 3/2*u^2*v + y^-1", ["u", "v", "y"]) == {
        (0, 0, 0): -1, (2, 1, 0): wl.Fraction(-3, 2), (0, 0, -1): 1}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    mapped = [m for layer in layers for m in layer["metrics"]]
    assert sorted(mapped) == sorted(run.PER_LAYER)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_has_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "queries", "--seed", "3",
         "--seconds", "1", "--trace", trace],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert {"python", "git_sha", "nproc", "seed", "loadavg_1m_start",
            "loadavg_1m_end", "speed_factor"} <= set(meta)


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "registry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
