"""One benchmark process: a ladder pass, or one traced CLI command.

    child.py ladder LAUNCH_NS SPECS_JSON [TRACE_FILE]
    child.py cli LAUNCH_NS TRACE_FILE -- ARGV...

LAUNCH_NS is the parent's ``time.monotonic_ns()`` just before it started
this process (CLOCK_MONOTONIC, shared by all processes on the machine), so
the child can report how long the interpreter took to start.

A ladder pass imports the engine, then builds each model from its spec
string and computes its chi_y genus once; it prints one JSON document with
the time and the genus of every rung.  The traced CLI command runs
``hirzebruch.cli.main`` under the span recorder, so its standard output is
the CLI's own.  With a trace file, spans and counts are written there.
"""

import sys
import time

_START_NS = time.monotonic_ns()

# json is imported only after the engine, so that the engine's import time
# includes the standard modules it loads itself


def _import(names):
    t0 = time.perf_counter_ns()
    for name in names:
        __import__(name)
    return time.perf_counter_ns() - t0


def _trace_extra(launch_ns, import_ns):
    from hirzebruch import bundles
    info = bundles.genus_series.cache_info()
    return {"interp_ns": _START_NS - launch_ns, "import_ns": import_ns,
            "cache_hits": info.hits, "cache_misses": info.misses}


def ladder(launch_ns, specs, trace_file=None):
    import_ns = _import(["hirzebruch", "hirzebruch.exprlang", "hirzebruch.transforms"])
    import json
    specs = json.loads(specs)
    rec = None
    rung = _rung
    if trace_file:
        import tracer
        rec = tracer.Recorder()
        tracer.install(rec)
        rung = rec.span("ladder.rung", _rung)
    from hirzebruch import exprlang, transforms
    rungs = []
    for i, spec in enumerate(specs):
        if rec is not None:
            rec.op = i
        t0 = time.perf_counter_ns()
        chi = rung(exprlang, transforms, spec)
        ns = time.perf_counter_ns() - t0
        rungs.append({"spec": spec, "ns": ns,
                      "chi": [[e, c.numerator, c.denominator] for e, c in chi.items()]})
    if rec is not None:
        rec.dump(trace_file, **_trace_extra(launch_ns, import_ns))
    print(json.dumps({"rungs": rungs}))


def _rung(exprlang, transforms, spec):
    return transforms.chi_y_genus(exprlang.parse_space(spec))


def traced_cli(launch_ns, trace_file, argv):
    import_ns = _import(["hirzebruch.cli"])
    import tracer
    rec = tracer.Recorder()
    tracer.install(rec)
    from hirzebruch import cli
    code = cli.main(argv)
    sys.stdout.flush()
    rec.dump(trace_file, **_trace_extra(launch_ns, import_ns))
    return code


def main(argv):
    mode, launch_ns = argv[0], int(argv[1])
    if mode == "ladder":
        ladder(launch_ns, argv[2], argv[3] if len(argv) > 3 else None)
        return 0
    if mode == "cli" and argv[3] == "--":
        return traced_cli(launch_ns, argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
