"""Summarise end-to-end benchmark runs.

    python3 perfbench/summarize.py RUN_OUTPUT...

Each RUN_OUTPUT is the standard output of one ``run.py --trace 0`` run.
For each workload and metric this prints, over the runs, the median, the
quartiles and the spread (q3 - q1) / median of the reported value, and the
spread of the raw and of the speed-corrected value from the meta line, as
one JSON document (the shape of ``end_to_end`` in ``baseline.json``).
"""

import json
import statistics
import sys


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def summarize(paths):
    runs = {}
    for path in paths:
        lines = open(path).read().splitlines()
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        runs.setdefault(meta["workload"], []).append((meta, result))
    out = {}
    for workload, done in sorted(runs.items()):
        out[workload] = {}
        for name in done[0][1]["metrics"]:
            entry = stats([r["metrics"][name]["value"] for _, r in done])
            entry["raw_spread"] = stats([m["raw"][name] for m, _ in done])["spread"]
            entry["corrected_spread"] = stats([m["corrected"][name] for m, _ in done])["spread"]
            entry["runs"] = len(done)
            out[workload][name] = {k: round(v, 6) if isinstance(v, float) else v
                                   for k, v in entry.items()}
    return out


if __name__ == "__main__":
    print(json.dumps(summarize(sys.argv[1:]), indent=1))
