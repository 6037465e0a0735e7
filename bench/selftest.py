"""Self-test of the benchmark harness on tiny problems (a few seconds).

    python3 bench/selftest.py

Shows that the tracer's self times add up to the enclosing span, that a
run whose step size is deliberately too large raises DivergenceError and
is counted as a failed run instead of crashing the benchmark, and that
every metric BENCHMARK.json names is printed with its unit in both modes.
Exits non-zero on the first check that fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import time

import run
from tracer import END, NAME, PARENT, START, Tracer, self_times
from workloads import WORKLOADS, CliWorkload, LibWorkload

OUT = run.ROOT / ".bench_out" / "selftest"


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def tiny_lib(**overrides):
    sizes = {"Q": 3, "N": 4, "r": 4, "grid": 16, "iterations": 20, "residual_bound": math.inf}
    return LibWorkload(0, **{**sizes, **overrides})


def tiny_cli():
    return CliWorkload("paper-1d-a", ("--max-iter", "30"), math.inf)


def run_tiny(workload, trace):
    """One benchmark invocation on ``workload``; returns (stdout, result)."""
    args = argparse.Namespace(workload="selftest", seed=0, seconds=0, trace=trace)
    outdir = run._clear(OUT / f"trace{trace}")
    inv = run.execute(workload, 0, bool(trace), outdir)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.report(args, workload, inv, outdir)
    return printed.getvalue(), result


def test_self_times_sum_to_parent():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.002))

    def middle():
        time.sleep(0.001)
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle)
    root = tracer.wrap("root", lambda: (middle(), leaf(), time.sleep(0.001)))
    tracer.begin_run()
    root()
    spans = tracer.spans()
    own = self_times(spans)
    check([s[NAME] for s in spans] == ["root", "middle", "leaf", "leaf", "leaf"],
          f"spans out of entry order: {spans}")
    check([s[PARENT] for s in spans] == [-1, 0, 1, 1, 0], "wrong parents")
    check(all(t >= 0 for t in own), f"negative self time: {own}")
    total = spans[0][END] - spans[0][START]
    check(abs(sum(own) - total) <= 1e-9, f"self times sum to {sum(own)}, root took {total}")
    middle_total = spans[1][END] - spans[1][START]
    check(abs(own[1] + own[2] + own[3] - middle_total) <= 1e-9, "middle not accounted for")
    print("ok  tracer self times sum to the parent span")


def test_divergence_is_a_failed_run():
    printed, result = run_tiny(tiny_lib(omega=50.0), trace=0)
    check(result["attempted"] >= 1, "no run attempted")
    check(result["failed"] == result["attempted"], f"diverging runs not all failed: {result}")
    check(result["correct"] is False, "a failed run must make the result incorrect")
    check("diverged" in printed, "failure reason not printed")
    print(f"ok  oversized step: {result['failed']}/{result['attempted']} runs failed, no crash")


def test_every_metric_printed_with_unit():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, table, trace in (("end_to_end", run.END_TO_END, 0), ("per_layer", run.PER_LAYER, 1)):
        named = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        check(named == table, f"BENCHMARK.json {key} differs from run.py")
        for workload in (tiny_cli(), tiny_lib()):
            printed, result = run_tiny(workload, trace)
            check(result["correct"], f"tiny run failed: {printed}")
            for name, unit, _ in table:
                check(re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}\b", printed, re.M),
                      f"{name} not printed with unit {unit}")
                check(result["metrics"][name]["unit"] == unit, f"{name} has the wrong unit")
            check(list(result["metrics"]) == [n for n, _, _ in table], "extra or missing metrics")
    print("ok  every named metric printed with its unit, in both modes")


if __name__ == "__main__":
    test_self_times_sum_to_parent()
    test_divergence_is_a_failed_run()
    test_every_metric_printed_with_unit()
