"""The benchmark's workloads and the correctness gate every run passes.

Each workload is a batch solve driven as a closed loop: one client in one
process, runs back to back, as a researcher runs ``mfgspectral solve`` or
calls ``solve()`` and waits. A run (one ``rep``) does set-up, solve and
export, then checks what the program wrote.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import os
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from mfgspectral import basis, cli, kernel, pdhg, postprocess, problem
from mfgspectral.postprocess import DensitySnapshot
from mfgspectral.problem import DivergenceError

import hostspeed
from tracer import END, NAME, PARENT, SID, START, Tracer

# Seconds of extra exports replayed after each untraced run: one export is
# 10 ms to 1 s, too short to time once on a host whose speed swings.
REPLAY_SECONDS = 1.0
SYMMETRY_LIMIT = 1e-9
MASS_TOL = 1e-9
# Diagnostics fields that may carry wall-clock time; the repeat check
# compares every other field byte for byte.
TIMING_FIELDS = frozenset({"elapsed", "elapsed_s", "elapsed_seconds", "wall_s", "wall_seconds"})


@dataclasses.dataclass
class Rep:
    """Timings and checked outputs of one set-up, solve and export."""

    total_s: float
    setup_s: float | None = None
    solve_s: float | None = None
    export_s: float | None = None
    iterations: int | None = None
    converged: bool | None = None
    final_residual: float | None = None
    records: int | None = None
    diagnostics_bytes: int | None = None
    export_samples: list = dataclasses.field(default_factory=list)  # (seconds, scale)
    # filled in by the runner: reference stints inside the solve, the
    # run's wall-to-reference-host factor and the scaled solve time
    stints: list = dataclasses.field(default_factory=list)
    scale: float = 1.0
    solve_scaled: float | None = None
    fingerprint: dict = dataclasses.field(default_factory=dict)
    failures: list = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _diagnostics_digest(path) -> str:
    lines = []
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            for name in TIMING_FIELDS:
                record.pop(name, None)
            lines.append(json.dumps(record, sort_keys=True))
    return _digest("\n".join(lines).encode())


def check_outputs(rep, result, outdir, workload):
    """Fill ``rep`` from the written artifacts and record every failed check."""
    with open(os.path.join(outdir, "metrics.json")) as fh:
        metrics = json.load(fh)
    rep.iterations = metrics["iterations"]
    rep.converged = metrics["converged"]
    rep.final_residual = metrics["fixed_point_residual"]
    if result is None:
        rep.failures.append("solver returned no result")
    elif not (np.all(np.isfinite(result.a)) and np.all(np.isfinite(result.x))):
        rep.failures.append("non-finite value in a or x")
    if not rep.final_residual <= workload.residual_bound:
        rep.failures.append(
            f"final residual {rep.final_residual:.3e} above bound {workload.residual_bound:.0e}"
        )
    if workload.symmetric:
        defect = metrics["symmetry_defect"]
        if defect is None or not defect <= SYMMETRY_LIMIT:
            rep.failures.append(f"symmetry defect {defect} above {SYMMETRY_LIMIT:.0e}")

    fingerprint = {
        "iterations": rep.iterations,
        "final_residual": repr(rep.final_residual),
    }
    names = ["trajectories.csv"] + [f"density_t{i}.csv" for i in workload.slices]
    for name in names:
        with open(os.path.join(outdir, name), "rb") as fh:
            fingerprint[name] = _digest(fh.read())
    for i in workload.slices:
        table = np.loadtxt(os.path.join(outdir, f"density_t{i}.csv"), delimiter=",", skiprows=1)
        values = table[:, -1].reshape((workload.bins,) * workload.dimension)
        mass = DensitySnapshot(time_index=i, bins=workload.bins, values=values).mass()
        if not abs(mass - 1.0) <= MASS_TOL:
            rep.failures.append(f"density at slice {i} has mass {mass!r}")
    diagnostics = os.path.join(outdir, "diagnostics.jsonl")
    fingerprint["diagnostics.jsonl"] = _diagnostics_digest(diagnostics)
    rep.fingerprint = fingerprint
    rep.diagnostics_bytes = os.path.getsize(diagnostics)
    with open(diagnostics) as fh:
        rep.records = sum(1 for _ in fh)
    return rep


class CliWorkload:
    """``mfgspectral solve <preset>`` through ``cli.main``, as a user runs it.

    The presets take no seed; the seed is recorded all the same.
    """

    symmetric = True

    def __init__(self, preset, extra_args, residual_bound, seed=0):
        cfg = cli.validate_config(cli.load_config_source(preset))
        self.preset = preset
        self.extra_args = tuple(extra_args)
        self.residual_bound = residual_bound
        self.seed = seed
        self.dimension = cfg.dimension
        self.bins = cfg.bins
        self.slices = cfg.density_slices

    def inputs(self) -> dict:
        return {
            "argv": ["solve", self.preset, *self.extra_args],
            "config": cli.PRESETS[self.preset],
            "seed": self.seed,
        }

    def setup(self) -> float:
        """Seconds from config to a ready problem, as cli.main spends them."""
        t0 = time.perf_counter()
        cfg = cli.validate_config(cli.load_config_source(self.preset))
        cli.build_problem(cfg)
        return time.perf_counter() - t0

    def _main(self, outdir):
        argv = ["solve", self.preset, "--output-dir", outdir, *self.extra_args]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stderr.getvalue().strip()

    def replay_exports(self, result, outdir):
        """Export times of ``cli.main`` rerun with its solve replaced by ``result``."""
        solved_at = []

        def solved(*args, **kwargs):
            solved_at.append(time.perf_counter())
            return result

        def export():
            self._main(outdir)
            return time.perf_counter() - solved_at[-1]

        original, cli.solve = cli.solve, solved
        try:
            return hostspeed.interleave(export, REPLAY_SECONDS)
        finally:
            cli.solve = original

    def rep(self, tracer, outdir, replay=False) -> Rep:
        first = len(tracer.log)
        t0 = time.perf_counter()
        code, stderr = self._main(outdir)
        t1 = time.perf_counter()
        top = {s[NAME]: s for s in tracer.log[first:] if s[PARENT] == -1}
        rep = Rep(total_s=t1 - t0)
        setup = [top.get(n) for n in ("cli.validate_config", "cli.build_problem")]
        if None not in setup:
            rep.setup_s = sum(s[END] - s[START] for s in setup)
        solved = top.get("pdhg.solve")
        if solved is not None:
            rep.solve_s = solved[END] - solved[START]
            rep.export_s = t1 - solved[END]
        if code != 0:
            rep.failures.append(f"exit code {code}: {stderr}")
            return rep
        result = tracer.work.get(solved[SID])
        check_outputs(rep, result, outdir, self)
        if replay and rep.ok:
            replays = os.path.join(outdir, "replay")
            rep.export_samples = self.replay_exports(result, replays)
        return rep


class LibWorkload:
    """The library path on a dense, seed-generated 2d kernel.

    K(x, y) = g((x1 - y1) + s (x2 - y2)) g(x2 - y2), with g the 1d periodic
    Gaussian: integer shear keeps it periodic and positive semi-definite
    but not separable, so its coefficient matrix is dense. The solve runs a
    fixed number of iterations (tol 0) so that every seed does the same
    work: to tol 1e-4, seeds 0-9 needed from 1637 to over 3000 iterations,
    and the spread across seeds would then swamp the spread from the code.
    """

    symmetric = False
    dimension = 2
    bins = 50

    def __init__(self, seed, Q=12, N=20, r=8, grid=40, iterations=1000,
                 lam=1.0, omega=1.0 / 12.0, residual_bound=5e-3):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.sigma = float(rng.uniform(0.2, 0.4))
        self.mu = float(rng.uniform(0.4, 0.8))
        self.shear = int(rng.choice([1, -1]))
        # constant plus 5 low modes of size <= 0.05 each: |M - 1| <= 0.5
        self.m_coefficients = np.concatenate([[1.0], rng.uniform(-0.05, 0.05, 5)])
        self.u_coefficients = rng.uniform(-0.3, 0.3, 6)
        self.low_modes = basis.basis_2d(4)
        self.Q, self.N, self.r, self.grid = Q, N, r, grid
        self.slices = (0, N // 2, N)
        self.solver = pdhg.SolverConfig(
            lam=lam, omega=omega, theta=1.0, max_iter=iterations, tol=0.0, record_every=1
        )
        self.residual_bound = residual_bound

    def inputs(self) -> dict:
        return {
            "seed": self.seed,
            "sigma": self.sigma,
            "mu": self.mu,
            "shear": self.shear,
            "M": self.m_coefficients.tolist(),
            "U": self.u_coefficients.tolist(),
            "Q": self.Q,
            "N": self.N,
            "r": self.r,
            "grid": self.grid,
            "solver": dataclasses.asdict(self.solver),
        }

    def _kernel(self, x, y):
        spec = kernel.GaussianKernelSpec(sigma=self.sigma, mu=self.mu, dimension=1)
        d = x - y
        return (kernel.kernel_eval_direct(spec, d[..., 0] + self.shear * d[..., 1], 0.0)
                * kernel.kernel_eval_direct(spec, d[..., 1], 0.0))

    def _density(self, p):
        return basis.eval_all(self.low_modes, p) @ self.m_coefficients

    def _terminal(self, p):
        return basis.eval_all(self.low_modes, p) @ self.u_coefficients

    def _terminal_grad(self, p):
        return np.einsum("nkd,k->nd", basis.grad_all(self.low_modes, p), self.u_coefficients)

    def build(self, tracer):
        b = basis.basis_2d(self.r)
        with tracer.span("kernel.build"):
            coefficients = kernel.fourier_coefficients(self._kernel, b, self.grid)
            spectral = kernel.spectral_from_dense(
                kernel.fejer_average(coefficients, self.r, b), b
            )
        measure = problem.discretize_measure(self._density, self.Q, 2)
        mfg = problem.MFGProblem(
            kernel=spectral,
            initial_density=self._density,
            terminal_cost=self._terminal,
            terminal_grad=self._terminal_grad,
            num_steps=self.N,
        )
        return mfg, measure

    def setup(self) -> float:
        t0 = time.perf_counter()
        self.build(Tracer())
        return time.perf_counter() - t0

    def export(self, result, mfg, measure, outdir):
        """The artifacts and metrics ``cli.run`` writes after a solve."""
        postprocess.write_trajectories_csv(os.path.join(outdir, "trajectories.csv"), result.x)
        for i in self.slices:
            snap = postprocess.density_histogram(result.x, measure, i, self.bins)
            postprocess.write_density_csv(os.path.join(outdir, f"density_t{i}.csv"), snap)
        metrics = {
            "iterations": result.iterations,
            "converged": result.converged,
            "fixed_point_residual": pdhg.fixed_point_residual(
                result.a, result.x, mfg.kernel, measure
            ),
            "final_saddle_value": problem.saddle_value(result.a, result.x, mfg, measure),
            "straightness_max": postprocess.straightness_metric(result.x)[1],
            "symmetry_defect": postprocess.symmetry_defect(result.x, measure),
        }
        postprocess.write_metrics_json(os.path.join(outdir, "metrics.json"), metrics)

    def rep(self, tracer, outdir, replay=False) -> Rep:
        t0 = time.perf_counter()
        mfg, measure = self.build(tracer)
        t1 = time.perf_counter()
        rep = Rep(total_s=math.nan, setup_s=t1 - t0)
        try:
            result = pdhg.solve(
                mfg, measure, self.solver,
                diagnostics_path=os.path.join(outdir, "diagnostics.jsonl"),
            )
        except DivergenceError as exc:
            now = time.perf_counter()
            rep.total_s, rep.solve_s = now - t0, now - t1
            rep.failures.append(f"diverged: {exc}")
            return rep
        t2 = time.perf_counter()
        self.export(result, mfg, measure, outdir)
        t3 = time.perf_counter()
        rep.total_s, rep.solve_s, rep.export_s = t3 - t0, t2 - t1, t3 - t2
        check_outputs(rep, result, outdir, self)
        if replay and rep.ok:
            replays = os.path.join(outdir, "replay")
            os.makedirs(replays)

            def export():
                t = time.perf_counter()
                self.export(result, mfg, measure, replays)
                return time.perf_counter() - t

            rep.export_samples = hostspeed.interleave(export, REPLAY_SECONDS)
        return rep


WORKLOADS = {
    "cli-1d-a": lambda seed: CliWorkload("paper-1d-a", (), 1e-7, seed),
    "cli-2d-a": lambda seed: CliWorkload("paper-2d-a", ("--tol", "2e-4"), 3e-3, seed),
    "lib-2d-dense": LibWorkload,
}
