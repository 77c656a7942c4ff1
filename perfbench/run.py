"""Benchmark for the hirzebruch engine.

    python3 perfbench/run.py --workload registry|ladder|queries \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/``.  Every pass runs in a fresh interpreter, one child process at a
time, so no in-process cache survives from one pass to the next.

Workloads (closed loop, one client):

* ``registry``: one ``hirz verify --suite all --format json`` per pass; it
  must exit 0 with all 535 checks passing.  The identity registry is what CI
  waits on; it rebuilds the same projective-bundle models many times.
* ``ladder``: one library process per pass that builds each model of the
  size ladder (P^4..P^14, (P^1)^2..(P^1)^7, P(O(a1)+..+O(ar)) over P^3 for
  r = 2..4 with seeded twists) once and computes its chi_y genus.  Nothing
  repeats, so the class-multiply kernel and large rationals dominate.
* ``queries``: passes of 16 short ``hirz ... --format json`` commands drawn
  from a seeded stream (genus, epoly, classes, arrangement, describe on
  models of dimension <= 4).  Interpreter start and import dominate.  The
  mix is an unverified assumption: with no record of real usage, each
  command kind, space family and size is drawn uniformly (``workloads.py``
  lists the ranges), and that mix decides what ``query_*`` measure.

Every answer is checked against an oracle that does not use the engine
(see ``workloads.py``).  With ``--trace 0`` the last line of standard
output carries the end-to-end metrics; ``--trace 1`` runs a third of the
time untraced and the rest under the span recorder (``tracer.py``) and
reports the per-layer metrics (raw times, medians over the traced passes;
``trace.overhead_ratio`` divides the speed-corrected median traced pass by
the untraced one, so that a change of machine speed between the two phases
does not show as overhead); the spans of the last traced pass stay in
``perfbench/_out/<workload>/``.  The line before the result is a ``meta``
document with the environment: Python version, source hash, git SHA when
there is one, nproc, seed, the 1-minute load average at start and end, and
the raw and corrected values of the end-to-end metrics.

Metrics are raw wall times, except where a workload's ``corrected`` set
names them: those are corrected for the machine's momentary speed.  On the
shared 2-vCPU virtual machine of ``baseline.json`` the same pass ran up to
60% slower for tens of seconds at a time, which no statistic within one run
can remove.  So the harness pins itself and its children to one CPU and
times a frozen reference kernel (``reference_kernel``, the shape of the
engine's class multiply) three times before the first pass and after every
pass.  A corrected time is the wall time multiplied by ``REF_NOMINAL_S /
median(reference times just before and after the pass)``; a corrected
set-up time uses the same factor over the whole run.  A metric is corrected
where, on the ten runs the ``corrected`` sets were chosen from, the
correction narrowed its spread across runs; ``baseline.json`` gives the raw
and the corrected spread of every metric on a second set of ten runs, which
did not confirm every choice.  The meta line carries both values of every
metric of each run.  Counts, ratios and memory are never corrected.

End-to-end metrics, on each workload:

* ``setup_s``: median over fresh interpreters (at least 7, one after each
  pass) of the time from launch until the workload's modules are imported
  and its first op could start.
* ``pass_s``: median wall time of one pass.
* ``top_rung_s``: median over passes of the slowest op in the pass: the
  (P^1)^7 rung on ``ladder``, the slowest command of the batch on
  ``queries``; on ``registry`` a pass is a single op.
* ``query_p50_ms`` and ``query_tail_ms``: median and tail of the time a
  caller waits for one answer: one command on ``queries`` and ``registry``,
  the in-process ladder on ``ladder``.  The tail is the highest of p99.9,
  p99, p95, p90 and p75 with at least 10 samples beyond it, else p75 (a
  handful of multi-second passes supports no higher percentile); the meta
  document names it and gives the sample count.
* ``ok_frac``: share of ops that exited 0 with an answer equal to the
  oracle's (1 - failed/attempted; the result line also gives both counts).
* ``peak_rss_mb``: peak resident set size over the child processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import ceil
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = str(HERE / "child.py")
PY = sys.executable
LAUNCH = object()        # placeholder for the launch time in a child's argv
BUDGET_S = 170           # whole run, well inside the 180 s limit
SETUP_PROBES = 7
QUERY_BATCH = 16
TOP_RUNG = "x".join(["P1"] * 7)
VERIFY = ["verify", "--suite", "all", "--format", "json"]

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "top_rung_s": "s", "query_p50_ms": "ms",
    "query_tail_ms": "ms", "ok_frac": "ratio", "peak_rss_mb": "MB",
}
SUITES = list(wl.REGISTRY_COUNTS)
# per-layer metric -> unit; counts must repeat exactly between traced passes
COUNTS = {
    "spaces.mul_calls": "count", "spaces.mul_pairs": "count",
    "spaces.mul_in_degree_ratio": "ratio", "spaces.reduce_calls": "count",
    "spaces.max_terms": "count", "rings.coeff_max_bits": "bits",
    "spaces.models_built": "count", "spaces.projbundle_built": "count",
    "bundles.power_sums_calls": "count", "bundles.apply_series_calls": "count",
    "bundles.lambda_y_calls": "count", "bundles.genus_series_hit_ratio": "ratio",
    "bundles.genus_series_misses": "count", "transforms.chi_y_genus_calls": "count",
    "rings.laurent_mul_calls": "count", "rings.rf_new_calls": "count",
    "verify.checks": "count",
}
TIMES = {
    "spaces.mul_self_s": "s", "spaces.reduce_s": "s", "spaces.build_self_s": "s",
    "bundles.power_sums_self_s": "s", "bundles.apply_series_self_s": "s",
    "bundles.lambda_y_self_s": "s", "transforms.mhc_y_self_s": "s",
    "transforms.mht_self_s": "s", "transforms.pushforward_self_s": "s",
    "transforms.pullback_smooth_self_s": "s", "rings.laurent_mul_self_s": "s",
    **{f"verify.{name}_s": "s" for name in SUITES},
    "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
    "exprlang.parse_ms": "ms", "motivic.self_ms": "ms", "hodge.self_ms": "ms",
    "trace.unspanned_s": "s", "trace.overhead_ratio": "ratio",
}
PER_LAYER = {**COUNTS, **TIMES}


ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


# A frozen stand-in for the engine's sparse class multiply: exponent tuples,
# Fraction coefficients, truncation by degree.  Timing it tells how fast the
# machine runs such code at the moment.  It must never change, or corrected
# times stop being comparable with earlier results.
_REF_CLASS = {(i, j, k): Fraction(i + 2 * j - k, 1 + (i * j) % 5)
              for i in range(4) for j in range(4) for k in range(3)}
REF_NOMINAL_S = 0.0125   # its duration on the 2-vCPU Xeon VM of baseline.json, when quiet


def reference_kernel():
    t0 = time.perf_counter()
    for _ in range(3):
        raw = {}
        for e1, v1 in _REF_CLASS.items():
            for e2, v2 in _REF_CLASS.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if sum(e) <= 7:
                    raw[e] = raw.get(e, 0) + v1 * v2
    return time.perf_counter() - t0


class Run:
    """Deadline bookkeeping, machine-speed samples and the child processes
    of one benchmark run."""

    def __init__(self, seconds):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.ref_samples = []

    def elapsed(self):
        return time.perf_counter() - self.start

    def sample_speed(self):
        """Time the reference kernel three times; returns the times."""
        samples = [reference_kernel() for _ in range(3)]
        self.ref_samples += samples
        return samples

    def speed(self):
        """Factor that corrects a wall time of this run to nominal speed."""
        return REF_NOMINAL_S / statistics.median(self.ref_samples)

    def child(self, argv):
        """Run one child to completion: (wall s, exit code, stdout, stderr)."""
        timeout = max(1.0, BUDGET_S - self.elapsed())
        t0 = time.perf_counter()
        argv = [str(time.monotonic_ns()) if a is LAUNCH else a for a in argv]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None, b"", b"timed out"
        return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


class Pass:
    def __init__(self):
        self.speed = 1.0         # corrects this pass's times to nominal speed
        self.wall = 0.0
        self.top = 0.0           # slowest op, seconds
        self.waits_ms = []       # what a caller waits for one answer
        self.attempted = 0
        self.failures = {}       # op -> first reason it failed
        self.outputs = []        # CLI standard output per op
        self.traces = []         # trace documents, one per child

    def fail(self, op, why):
        self.failures.setdefault(op, why)


def _answer(check, rc, out, err):
    """None when the command answered correctly, else the reason."""
    if rc != 0:
        return f"exit {rc}: {err.decode(errors='replace').strip()[-200:]}"
    try:
        return check(json.loads(out))
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return f"unreadable answer: {exc!r}"


def cli_pass(run, ops, trace_dir=None):
    p = Pass()
    for j, (argv, check) in enumerate(ops):
        if trace_dir is None:
            cmd = [PY, "-m", "hirzebruch.cli", *argv]
        else:
            trace_file = str(trace_dir / f"op{j}.json")
            cmd = [PY, CHILD, "cli", LAUNCH, trace_file, "--", *argv]
        wall, rc, out, err = run.child(cmd)
        p.wall += wall
        p.top = max(p.top, wall)
        p.waits_ms.append(wall * 1e3)
        p.attempted += 1
        p.outputs.append(out)
        failure = _answer(check, rc, out, err)
        if failure:
            p.fail(j, f"{' '.join(argv)}: {failure}")
        if trace_dir is not None and rc == 0:
            p.traces.append(json.loads(Path(trace_file).read_text()))
        if rc is None:
            break
    return p


def ladder_pass(run, rungs, trace_dir=None):
    p = Pass()
    specs = [s for s, _ in rungs]
    cmd = [PY, CHILD, "ladder", LAUNCH, json.dumps(specs)]
    if trace_dir is not None:
        trace_file = trace_dir / "ladder.json"
        cmd.append(str(trace_file))
    p.wall, rc, out, err = run.child(cmd)
    p.attempted = len(rungs)
    if rc != 0:
        for spec in specs:
            p.fail(spec, f"{spec}: exit {rc}: {err.decode(errors='replace').strip()[-200:]}")
        return p
    got = json.loads(out.splitlines()[-1])["rungs"]
    for (spec, want), rung in zip(rungs, got):
        chi = {e: Fraction(n, d) for e, n, d in rung["chi"]}
        if rung["spec"] != spec or chi != want:
            p.fail(spec, f"{spec}: got {chi}, expected {want}")
        if spec == TOP_RUNG:
            p.top = rung["ns"] / 1e9
    p.waits_ms.append(sum(r["ns"] for r in got) / 1e6)
    if trace_dir is not None:
        p.traces.append(json.loads(trace_file.read_text()))
    return p


class Registry:
    modules = ("hirzebruch.cli",)
    corrected = frozenset({"setup_s", "pass_s", "top_rung_s", "query_p50_ms"})

    def __init__(self, seed):
        pass                      # the registry's inputs are fixed

    def run_pass(self, run, i, trace_dir=None):
        return cli_pass(run, [(VERIFY, wl.check_registry)], trace_dir)


class Ladder:
    modules = ("hirzebruch", "hirzebruch.exprlang", "hirzebruch.transforms")
    corrected = frozenset({"setup_s", "pass_s", "top_rung_s", "query_p50_ms"})

    def __init__(self, seed):
        self.rungs = wl.ladder_specs(seed)

    def run_pass(self, run, i, trace_dir=None):
        return ladder_pass(run, self.rungs, trace_dir)


class Queries:
    modules = ("hirzebruch.cli",)
    corrected = frozenset({"setup_s", "pass_s", "top_rung_s", "query_tail_ms"})

    def __init__(self, seed):
        self.stream = wl.query_stream(seed)
        self.batches = []

    def run_pass(self, run, i, trace_dir=None):
        """Pass ``i`` runs the ``i``-th batch of the stream."""
        while len(self.batches) <= i:
            self.batches.append([next(self.stream) for _ in range(QUERY_BATCH)])
        return cli_pass(run, self.batches[i], trace_dir)


WORKLOADS = {"registry": Registry, "ladder": Ladder, "queries": Queries}


# ---------------------------------------------------------------------------
# measurement


def setup_probe(modules):
    """Time from launching a fresh interpreter until ``modules`` are
    imported, in seconds."""
    code = f"import time, {', '.join(modules)}; print(time.monotonic_ns())"
    launch = time.monotonic_ns()
    proc = subprocess.run([PY, "-c", code], cwd=ROOT, env=ENV,
                          capture_output=True, timeout=60, check=True)
    return (int(proc.stdout) - launch) / 1e9


def tail(samples):
    """(percentile, value) by nearest rank: the highest of p99.9, p99, p95,
    p90 and p75 with at least 10 samples beyond it.  With fewer than 40
    samples no percentile has that support; p75 is reported then."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = next((p for p in (99.9, 99, 95, 90) if n * (100 - p) / 100 >= 10), 75)
    return pct, ordered[ceil(pct / 100 * n) - 1]


def passes(run, workload, until, index, trace_dir=None, between=None):
    """Run passes while the next one, if as long as the last, ends by the
    deadline (at least one).  ``index`` maps the pass number to the
    workload's input batch; ``between`` runs after each pass.  A pass's
    speed factor comes from the reference times just before and after it."""
    out = []
    before = run.sample_speed()
    while not out or run.elapsed() + out[-1].wall <= until:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
        p = workload.run_pass(run, index(len(out)), trace_dir)
        after = run.sample_speed()
        p.speed = REF_NOMINAL_S / statistics.median(before + after)
        before = after
        out.append(p)
        if between is not None:
            between()
        if run.elapsed() > BUDGET_S - 20:
            break
    return out


def end_to_end(run, workload):
    """Set-up probes are spread between the passes, so that they sample the
    machine at the same moments as the passes do.  The first launch writes
    bytecode caches and is not counted."""
    setup = []

    def probe():
        setup.append(setup_probe(workload.modules))

    probe()
    probe()
    done = passes(run, workload, run.seconds, lambda i: i, between=probe)
    while len(setup) <= SETUP_PROBES:
        probe()
    setup_s = statistics.median(setup[1:])
    corrected, pct = _summary(done, setup_s * run.speed(), lambda p: p.speed)
    raw, _ = _summary(done, setup_s, lambda p: 1.0)
    values = {k: corrected[k] if k in workload.corrected else raw[k] for k in raw}
    info = {"passes": len(done), "samples": sum(len(p.waits_ms) for p in done),
            "tail_percentile": pct, "speed_factor": run.speed(),
            "corrected_metrics": sorted(workload.corrected),
            "raw": raw, "corrected": corrected}
    return done, {k: (v, END_TO_END[k]) for k, v in values.items()}, info


def _summary(done, setup_s, speed):
    """End-to-end values, each pass's times scaled by ``speed(pass)``."""
    waits = [w * speed(p) for p in done for w in p.waits_ms]
    pct, tail_ms = tail(waits)
    attempted = sum(p.attempted for p in done)
    failed = sum(len(p.failures) for p in done)
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(p.wall * speed(p) for p in done),
        "top_rung_s": statistics.median(p.top * speed(p) for p in done),
        "query_p50_ms": statistics.median(waits),
        "query_tail_ms": tail_ms,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }, pct


def _merge(traces):
    agg, counts, maxima = {}, {}, {}
    extra = dict.fromkeys(("interp_ns", "import_ns", "cache_hits", "cache_misses"), 0)
    for t in traces:
        for name, (calls, total, self_ns) in t["agg"].items():
            a = agg.setdefault(name, [0, 0, 0])
            a[0] += calls
            a[1] += total
            a[2] += self_ns
        for name, n in t["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, v in t["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), v)
        for key in extra:
            extra[key] += t[key]
    return agg, counts, maxima, extra


def layer_values(p):
    """Per-layer values of one traced pass."""
    agg, counts, maxima, extra = _merge(p.traces)
    procs = max(len(p.traces), 1)

    def calls(name):
        return agg.get(name, [0, 0, 0])[0]

    def total(name):
        return agg.get(name, [0, 0, 0])[1] / 1e9

    def self_s(prefix):
        return sum(a[2] for n, a in agg.items() if n.startswith(prefix)) / 1e9

    pairs = counts.get("spaces.mul_pairs", 0)
    lookups = extra["cache_hits"] + extra["cache_misses"]
    roots = total("cli.main") + total("ladder.rung")
    v = {
        "spaces.mul_calls": counts.get("spaces.mul", 0),
        "spaces.mul_pairs": pairs,
        "spaces.mul_in_degree_ratio":
            counts.get("spaces.mul_pairs_in_degree", 0) / pairs if pairs else 0.0,
        "spaces.reduce_calls": calls("spaces.reduce"),
        "spaces.max_terms": maxima.get("spaces.max_terms", 0),
        "rings.coeff_max_bits": maxima.get("rings.coeff_max_bits", 0),
        "spaces.models_built": counts.get("spaces.model_init", 0),
        "spaces.projbundle_built": calls("spaces.build.projective_bundle"),
        "bundles.genus_series_hit_ratio": extra["cache_hits"] / lookups if lookups else 0.0,
        "bundles.genus_series_misses": extra["cache_misses"],
        "transforms.chi_y_genus_calls": calls("transforms.chi_y_genus"),
        "rings.laurent_mul_calls": calls("rings.laurent_mul"),
        "rings.rf_new_calls": counts.get("rings.rf_new", 0),
        "verify.checks": counts.get("verify.checks", 0),
        "spaces.mul_self_s": self_s("spaces.mul"),
        "spaces.reduce_s": total("spaces.reduce"),
        "spaces.build_self_s": self_s("spaces.build."),
        "transforms.mhc_y_self_s": self_s("transforms.mhc_y"),
        "transforms.mht_self_s": self_s("transforms.mht"),
        "transforms.pushforward_self_s": self_s("transforms.pushforward"),
        "transforms.pullback_smooth_self_s": self_s("transforms.pullback_smooth"),
        "rings.laurent_mul_self_s": self_s("rings.laurent_mul"),
        "cli.interp_ms": extra["interp_ns"] / procs / 1e6,
        "cli.import_ms": extra["import_ns"] / procs / 1e6,
        "cli.main_ms": total("cli.main") / procs * 1e3,
        "exprlang.parse_ms": self_s("exprlang.") / procs * 1e3,
        "motivic.self_ms": self_s("motivic.") / procs * 1e3,
        "hodge.self_ms": self_s("hodge.") / procs * 1e3,
        "trace.unspanned_s": roots - self_s(""),
    }
    for name in ("power_sums", "apply_series", "lambda_y"):
        v[f"bundles.{name}_calls"] = calls(f"bundles.{name}")
        v[f"bundles.{name}_self_s"] = self_s(f"bundles.{name}")
    for name in SUITES:
        v[f"verify.{name}_s"] = total(f"verify.{name}")
    return v


def check_counts_repeat(traced, layers):
    """Fail each traced pass whose exact counts differ from the first's."""
    first = {k: layers[0][k] for k in COUNTS}
    for p, v in zip(traced, layers):
        differ = sorted(k for k in COUNTS if v[k] != first[k])
        if differ:
            p.fail("counts", f"traced counts differ from the first traced pass: {differ}")


def per_layer(run, workload, trace_dir):
    """A third of the time untraced, the rest traced, all on the first
    input batch so that traced and untraced passes do the same work."""
    plain = passes(run, workload, run.seconds / 3, lambda i: 0)
    traced = passes(run, workload, run.seconds, lambda i: 0, trace_dir)
    done = plain + traced
    for p in traced:
        for j, (a, b) in enumerate(zip(plain[0].outputs, p.outputs)):
            if a != b:
                p.fail(j, f"op {j}: traced output differs from untraced output")
    layers = [layer_values(p) for p in traced]
    check_counts_repeat(traced, layers)
    values = {k: layers[0][k] for k in COUNTS}
    values.update({k: statistics.median(v[k] for v in layers)
                   for k in TIMES if k != "trace.overhead_ratio"})
    values["trace.overhead_ratio"] = (statistics.median(p.wall * p.speed for p in traced)
                                      / statistics.median(p.wall * p.speed for p in plain))
    info = {"passes": len(plain), "traced_passes": len(traced),
            "speed_factor": run.speed()}
    return done, {k: (v, PER_LAYER[k]) for k, v in values.items()}, info


# ---------------------------------------------------------------------------
# environment


def _git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_sha():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hirzebruch" / "cli.py").is_file():
        print(f"error: no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "git_sha": _git_sha(), "source_sha256": _source_sha(),
        "nproc": os.cpu_count(), "loadavg_1m_start": os.getloadavg()[0],
    }
    # Speed samples are taken in this process.  Pinned to one CPU, which the
    # children inherit, they sample the CPU that the work runs on.
    if hasattr(os, "sched_setaffinity"):
        meta["cpu"] = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {meta["cpu"]})
    run = Run(args.seconds)
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        done, metrics, info = per_layer(run, workload, HERE / "_out" / args.workload)
    else:
        done, metrics, info = end_to_end(run, workload)
    failures = [f for p in done for f in p.failures.values()]
    for f in failures[:5]:
        print(f"FAILED {f}", file=sys.stderr)
    meta.update(info, loadavg_1m_end=os.getloadavg()[0], elapsed_s=run.elapsed())
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(p.attempted for p in done),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
