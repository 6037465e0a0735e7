"""Summarize benchmark results into one JSON document per commit.

    python3 bench/summarize.py > summary.json

Reads every ``.bench_out/*/result.json`` that ``run.py`` wrote and prints,
per workload and mode, each metric's median, quartiles and quartile spread
(``(q3 - q1) / median``) over the seeds run, with the run record of the
first result. Compare two summaries metric by metric, workload by workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".bench_out"


def summarize(paths):
    groups = {}
    for path in sorted(paths):
        with open(path) as fh:
            result = json.load(fh)
        record = result["record"]
        key = f"{record['workload']}/trace{record['trace']}"
        groups.setdefault(key, []).append(result)
    summary = {}
    for key, results in sorted(groups.items()):
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {
                "unit": first["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
            }
        summary[key] = {
            "seeds": [r["record"]["seed"] for r in results],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "converged": statistics.median(r["info"]["converged"] for r in results),
            "final_residual": statistics.median(r["info"]["final_residual"] for r in results),
            "metrics": metrics,
            "record": results[0]["record"],
        }
    return summary


if __name__ == "__main__":
    json.dump(summarize(OUT.glob("*/result.json")), sys.stdout, indent=2)
    sys.stdout.write("\n")
