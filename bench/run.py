"""Benchmark of the mfgspectral solver.

    python3 bench/run.py --workload cli-2d-a --seed 0 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) back to back, at least twice and
then while half of another run fits in ``--seconds``, from the package
source in ``src/`` of the checkout this file sits in. Every run passes the
correctness gate, and all runs of one invocation must write identical
artifacts. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it instruments every layer from outside the package (see
``layers.py``) and prints the per-layer metrics instead. Each metric is
printed by name with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. Artifacts,
spans and a full ``result.json`` with the run record go to
``.bench_out/<workload>-seed<n>-trace<t>/``.

Times are reported in reference-host seconds: wall time, less the
reference stints ``hostspeed`` runs inside each solve, scaled by how much
slower than on a quiet host the reference computation ran meanwhile (see
``hostspeed.py``). The unscaled wall times are printed and stored beside
them.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import mfgspectral  # noqa: E402
from tracer import END, NAME, PARENT, START, Tracer, self_times, span_cost  # noqa: E402
from workloads import WORKLOADS, Rep  # noqa: E402

MIN_REPS = 2
SETUP_SECONDS = 0.25

# (name, unit, better)
END_TO_END = [
    ("total_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("iterations", "count", "lower"),
    ("ms_per_iter", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# Printed but not bounded: one export takes 10 ms to 1 s, and the host's
# speed swings too fast for the reference to correct so short a span (the
# quartile spread of export_s over five seeds stayed at 0.2 on cli-2d-a).
# Export time still counts in total_s and in the postprocess layer metrics.
UNBOUNDED = [("export_s", "s", "lower")]

PER_LAYER = [
    ("basis.grad_all.calls", "count", "lower"),
    ("basis.grad_all.self_s", "s", "lower"),
    ("basis.grad_all.points", "count", "lower"),
    ("basis.grad_all.bytes_out", "B", "lower"),
    ("basis.eval_all.calls", "count", "lower"),
    ("basis.eval_all.self_s", "s", "lower"),
    ("basis.eval_all.points", "count", "lower"),
    ("basis.eval_all.bytes_out", "B", "lower"),
    ("pdhg.step_x.self_s", "s", "lower"),
    ("pdhg.step_x.flops", "flop", "lower"),
    ("pdhg.step_a.self_s", "s", "lower"),
    ("pdhg.step_z.self_s", "s", "lower"),
    ("pdhg.loop.self_s", "s", "lower"),
    ("pdhg.iter_ms.p50", "ms", "lower"),
    ("pdhg.iter_ms.p99", "ms", "lower"),
    ("pdhg.fixed_point_residual.calls", "count", "lower"),
    ("pdhg.fixed_point_residual.self_s", "s", "lower"),
    ("pdhg.records", "count", "lower"),
    ("pdhg.diagnostics.bytes", "B", "lower"),
    ("pdhg.final_residual", "1", "lower"),
    ("problem.moment_vector.calls", "count", "lower"),
    ("problem.moment_vector.self_s", "s", "lower"),
    ("problem.moment_vector.calls_per_iter", "1/iter", "lower"),
    ("problem.saddle_value.calls", "count", "lower"),
    ("problem.saddle_value.self_s", "s", "lower"),
    ("problem.discretize_measure.self_s", "s", "lower"),
    ("kernel.fourier_coefficients.self_s", "s", "lower"),
    ("kernel.fourier_coefficients.kernel_evals", "count", "lower"),
    ("kernel.build.self_s", "s", "lower"),
    ("kernel.prox_apply.calls", "count", "lower"),
    ("kernel.prox_apply.self_s", "s", "lower"),
    ("kernel.apply_k.calls", "count", "lower"),
    ("kernel.apply_k.self_s", "s", "lower"),
    ("kernel.apply_j.calls", "count", "lower"),
    ("kernel.apply_j.self_s", "s", "lower"),
    ("cli.validate_config.self_s", "s", "lower"),
    ("cli.build_problem.self_s", "s", "lower"),
    ("postprocess.symmetry_defect.self_s", "s", "lower"),
    ("postprocess.write_trajectories_csv.self_s", "s", "lower"),
    ("postprocess.write_trajectories_csv.bytes", "B", "lower"),
    ("postprocess.density.self_s", "s", "lower"),
    ("postprocess.density.bytes", "B", "lower"),
    ("postprocess.straightness_metric.self_s", "s", "lower"),
    ("postprocess.write_metrics_json.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.solve_s", "s", "lower"),
    ("trace.overhead_frac", "1", "lower"),
]

# Work counts derived from array shapes and file sizes: they repeat exactly.
COMPUTED = {
    "basis.grad_all.points", "basis.grad_all.bytes_out",
    "basis.eval_all.points", "basis.eval_all.bytes_out",
    "pdhg.step_x.flops", "kernel.fourier_coefficients.kernel_evals",
    "pdhg.diagnostics.bytes", "postprocess.write_trajectories_csv.bytes",
    "postprocess.density.bytes",
}


@dataclasses.dataclass
class Invocation:
    """Everything one benchmark invocation measured.

    ``setup_samples`` holds (wall seconds, scale) pairs; ``scale`` turns
    wall seconds into reference-host seconds (see ``hostspeed.py``).
    """

    reps: list
    tracer: Tracer
    setup_samples: list


def _clear(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def safe_rep(workload, tracer, outdir, replay) -> Rep:
    """One run; an unexpected error is a failed run, never a crash."""
    t0 = time.perf_counter()
    try:
        return workload.rep(tracer, str(outdir), replay)
    except Exception:
        rep = Rep(total_s=time.perf_counter() - t0)
        rep.failures.append("error: " + traceback.format_exc().strip().splitlines()[-1])
        return rep


def execute(workload, seconds, traced, outdir: Path) -> Invocation:
    """Run back to back for about ``seconds``, at least twice.

    Another run starts while at least half of one still fits. Untraced,
    stand-alone set-ups are timed before, between and after the runs, and
    each run replays its export, so that set-up and export samples span
    the same stretch of time as the runs.
    """
    inv = Invocation(reps=[], tracer=Tracer(), setup_samples=[])

    def between_runs():
        if not traced:
            inv.setup_samples.extend(hostspeed.interleave(workload.setup, SETUP_SECONDS))

    started = time.perf_counter()
    while True:
        between_runs()
        inv.tracer.begin_run()
        first = len(inv.tracer.log)
        layers.install(inv.tracer, traced)
        hostspeed.install_sampler(inv.tracer)
        try:
            rep = safe_rep(workload, inv.tracer, _clear(outdir / "artifacts"), not traced)
        finally:
            inv.tracer.restore()
        scale_rep(rep, inv.tracer.log[first:])
        inv.reps.append(rep)
        elapsed = time.perf_counter() - started
        if len(inv.reps) >= MIN_REPS and elapsed + 0.5 * elapsed / len(inv.reps) > seconds:
            break
    between_runs()
    check_repeats(inv.reps)
    return inv


def scale_rep(rep, spans):
    """Take the reference stints out of the run's wall times and scale it.

    The stints ran inside the solve. Each stretch of the solve between two
    stints is scaled by the stints on either side; the rest of the run by
    the mean stint, or by a reference timed now when no stint ran.
    """
    stints = [(s[START], s[END]) for s in spans if s[NAME] == hostspeed.SPAN]
    rep.stints = [end - start for start, end in stints]
    rep.scale = hostspeed.REFERENCE_S / statistics.fmean(
        rep.stints or [hostspeed.time_reference()]
    )
    rep.total_s -= sum(rep.stints)
    solve = next((s for s in spans if s[NAME] == "pdhg.solve" and s[PARENT] == -1), None)
    if solve is None or rep.solve_s is None:
        return
    rep.solve_s -= sum(rep.stints)
    edges = [solve[START]] + [t for stint in stints for t in stint] + [solve[END]]
    rep.solve_scaled = 0.0
    for k in range(len(stints) + 1):
        near = rep.stints[max(k - 1, 0):k + 1]
        factor = hostspeed.REFERENCE_S / statistics.fmean(near) if near else rep.scale
        rep.solve_scaled += (edges[2 * k + 1] - edges[2 * k]) * factor


def check_repeats(reps):
    """Runs of one workload and seed must write identical artifacts."""
    reference = next((r.fingerprint for r in reps if r.ok), None)
    for rep in reps:
        if rep.ok and rep.fingerprint != reference:
            differ = sorted(k for k in reference if rep.fingerprint.get(k) != reference[k])
            rep.failures.append(f"outputs differ from the first run: {differ}")


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(inv, scaled):
    """End-to-end metrics, in reference-host seconds when ``scaled``."""
    good = [r for r in inv.reps if r.ok] or inv.reps

    def scale(rep):
        return rep.scale if scaled else 1.0

    def solve(rep):
        return rep.solve_scaled if scaled else rep.solve_s

    # set-up and export are timed on their own, interleaved with the
    # reference; inside a run they count towards total_s only
    exports = [t * (k if scaled else 1.0) for r in good for t, k in r.export_samples]
    setups = [t * (k if scaled else 1.0) for t, k in inv.setup_samples]
    solved = [r for r in good if r.solve_s is not None]
    return {
        "total_s": _median(solve(r) + (r.total_s - r.solve_s) * scale(r) for r in solved),
        "setup_s": _median(setups),
        "solve_s": _median(solve(r) for r in solved),
        "export_s": _median(exports),
        "iterations": _median(r.iterations for r in good),
        "ms_per_iter": _median(1000.0 * solve(r) / r.iterations for r in solved if r.iterations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, reps, cost):
    """Layer metrics of each good run from its spans, as (metrics, run) pairs."""
    spans = tracer.spans()
    selfs = self_times(spans)
    by_run = collections.defaultdict(list)
    for span in spans:
        by_run[tracer.run_of(span[0])].append(span)
    rows = []
    for run, rep in enumerate(reps):
        if not rep.ok:
            continue
        m = collections.defaultdict(float)
        solve = None
        for span in by_run[run]:
            sid, name = span[0], span[NAME]
            work = tracer.work.get(sid)
            m[name + ".calls"] += 1
            m[name + ".self_s"] += selfs[sid]
            if name in ("basis.grad_all", "basis.eval_all"):
                m[name + ".points"] += work[0]
                m[name + ".bytes_out"] += work[1]
            elif name == "pdhg.step_x":
                m["pdhg.step_x.flops"] += work
            elif name == "kernel.fourier_coefficients":
                m[name + ".kernel_evals"] += work
            elif name.startswith("postprocess.") and work is not None:
                m[name + ".bytes"] += work
            elif name == "pdhg.solve" and span[PARENT] == -1:
                solve = span
        if solve is None:
            continue
        inside = [s for s in by_run[run] if s[0] > solve[0] and s[END] <= solve[END]]
        reference = [s for s in inside if s[NAME] == hostspeed.SPAN]
        inside = [s for s in inside if s[NAME] != hostspeed.SPAN]
        # one iteration runs from one step_a to the next (the last to the
        # end of the solve), so it includes the diagnostics record; the
        # reference stints are taken out of the iteration they fell in
        marks = [s[START] for s in inside if s[NAME] == "pdhg.step_a" and s[PARENT] == solve[0]]
        iter_s = [b - a for a, b in zip(marks, marks[1:] + [solve[END]])]
        for s in reference:
            iter_s[bisect.bisect_right(marks, s[START]) - 1] -= s[END] - s[START]
        iter_ms = [1000.0 * t for t in iter_s]
        if iter_ms:
            m["pdhg.iter_ms.p50"] = statistics.median(iter_ms)
            m["pdhg.iter_ms.p99"] = (
                statistics.quantiles(iter_ms, n=100)[98] if len(iter_ms) > 1 else iter_ms[0]
            )
        m["pdhg.loop.self_s"] = selfs[solve[0]]
        m["pdhg.records"] = rep.records
        m["pdhg.diagnostics.bytes"] = rep.diagnostics_bytes
        m["pdhg.final_residual"] = rep.final_residual
        m["problem.moment_vector.calls_per_iter"] = (
            m["problem.moment_vector.calls"] / rep.iterations if rep.iterations else 0.0
        )
        traced_solve = solve[END] - solve[START] - sum(s[END] - s[START] for s in reference)
        added = len(inside) * cost
        m["trace.spans"] = len(by_run[run]) - len(reference)
        m["trace.solve_s"] = traced_solve
        m["trace.overhead_frac"] = added / (traced_solve - added)
        rows.append((m, rep))
    return rows


def write_spans(path: Path, tracer):
    spans = tracer.spans()
    selfs = self_times(spans)
    with open(path, "w") as fh:
        fh.write("run,sid,parent,name,start_s,end_s,self_s\n")
        for (sid, name, parent, start, end), own in zip(spans, selfs):
            fh.write(f"{tracer.run_of(sid)},{sid},{parent},{name},{start!r},{end!r},{own!r}\n")


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {k: info.get(k) for k in ("name", "version")}


def run_record(args, workload, inputs_digest, reps):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_digest": inputs_digest,
        "inputs": workload.inputs(),
        "runs": len(reps),
        "load": "closed loop: 1 client, 1 process, runs back to back",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "mfgspectral": mfgspectral.__version__,
        "nproc": os.cpu_count(),
        "threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def _inputs_digest(workload):
    text = json.dumps(workload.inputs(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def report(args, workload, inv, outdir: Path):
    """Print every metric with its unit and return the final result object."""
    reps = inv.reps
    failed = sum(not r.ok for r in reps)
    good = [r for r in reps if r.ok]
    if args.trace:
        spec = PER_LAYER
        rows = per_layer(inv.tracer, reps, span_cost())

        def layer_medians(scaled):
            return {
                name: _median(
                    row.get(name, 0.0) * (rep.scale if scaled and unit in ("s", "ms") else 1.0)
                    for row, rep in rows
                )
                for name, unit, _ in spec
            }

        metrics, wall = layer_medians(True), layer_medians(False)
    else:
        spec = END_TO_END
        metrics, wall = end_to_end(inv, True), end_to_end(inv, False)
    scale = _median(r.scale for r in reps)
    info = {
        "converged": sum(bool(r.converged) for r in good) / len(good) if good else 0.0,
        "failed_frac": failed / len(reps),
        "final_residual": _median(r.final_residual for r in good),
        "scale": scale,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"runs {len(reps)}  failed {failed}")
    for i, rep in enumerate(reps):
        for failure in rep.failures:
            print(f"  run {i} failed: {failure}")
    print(f"  times in reference-host seconds (hostspeed.py): wall x {scale:.6g} (median)")
    for name, unit, _ in spec:
        tag = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:<44} {metrics[name]:>16.6g} {unit}{tag}")
    print("  not bounded:")
    extra = [] if args.trace else UNBOUNDED
    for name, unit, _ in extra:
        print(f"  {name:<44} {metrics[name]:>16.6g} {unit}")
    for name, unit, _ in spec + extra:
        if unit in ("s", "ms"):
            print(f"  wall.{name:<39} {wall[name]:>16.6g} {unit}")
    for name, value in info.items():
        print(f"  {name:<44} {value:>16.6g}")
    record = run_record(args, workload, _inputs_digest(workload), reps)
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec},
    }
    with open(outdir / "result.json", "w") as fh:
        json.dump({**result, "wall": wall, "info": info, "record": record,
                   "setup_samples": inv.setup_samples,
                   "runs": [dataclasses.asdict(r) for r in reps]}, fh, indent=2)
    if args.trace:
        write_spans(outdir / "spans.csv", inv.tracer)
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = Path(mfgspectral.__file__).resolve().parent
    if package != (SRC / "mfgspectral").resolve():
        print(f"error: mfgspectral imported from {package}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    outdir = _clear(ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    inv = execute(workload, args.seconds, bool(args.trace), outdir)
    result = report(args, workload, inv, outdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
