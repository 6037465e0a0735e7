"""End-to-end acceptance suite.

Each criterion prints one `[acceptance] ... PASS/FAIL` line (run with
`pytest -s tests/test_acceptance.py` to see them while passing) and
asserts its stated tolerance. Long runs are shared through module-scoped
fixtures; the full suite takes about half a minute, dominated by the 2d
experiment.
"""

import math
import time

import numpy as np
import pytest

from mfgspectral.cli import (
    build_problem,
    kernel_info,
    load_config_source,
    main,
    validate_config,
)
from mfgspectral.kernel import (
    GaussianKernelSpec,
    fejer_average,
    fourier_coefficients,
    gaussian_spectral_1d,
    kernel_eval_direct,
    psd_check,
    translation_invariant_blocks,
)
from mfgspectral.pdhg import solve, step_a, step_x
from mfgspectral.postprocess import (
    density_histogram,
    straightness_metric,
    symmetry_defect,
)
from mfgspectral.problem import discretize_measure, moment_vector


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def _run_preset(name, **solver_overrides):
    raw = load_config_source(name)
    raw["solver"].update(solver_overrides)
    cfg = validate_config(raw)
    problem, measure = build_problem(cfg)
    t0 = time.perf_counter()
    result = solve(problem, measure, cfg.solver)
    elapsed = time.perf_counter() - t0
    return result, problem, measure, elapsed


@pytest.fixture(scope="module")
def run_flat_kernel():
    raw = load_config_source("paper-1d-a")
    raw["r"] = 1
    raw["solver"].update(max_iter=200000, tol=1e-8)
    cfg = validate_config(raw)
    problem, measure = build_problem(cfg)
    t0 = time.perf_counter()
    result = solve(problem, measure, cfg.solver)
    elapsed = time.perf_counter() - t0
    return result, problem, measure, elapsed


@pytest.fixture(scope="module")
def run_1d_a():
    return _run_preset("paper-1d-a")


@pytest.fixture(scope="module")
def run_1d_b():
    return _run_preset("paper-1d-b")


@pytest.fixture(scope="module")
def run_1d_c():
    return _run_preset("paper-1d-c")


@pytest.fixture(scope="module")
def run_2d_b():
    return _run_preset("paper-2d-b")


def test_criterion_1_flat_kernel_decoupling(run_flat_kernel):
    result, problem, measure, elapsed = run_flat_kernel
    _, straightness = straightness_metric(result.x)
    a_gap = float(np.max(np.abs(result.a - 0.5)))
    ok = (
        result.converged
        and straightness < 1e-4
        and a_gap < 1e-6
        and elapsed < 10.0
    )
    _report(
        "criterion 1 flat-kernel decoupling",
        ok,
        f"straightness={straightness:.3e}, a_gap={a_gap:.2e}, "
        f"time={elapsed:.1f}s, iters={result.iterations}",
    )


def test_criterion_2_approximate_flatness(run_1d_c):
    result, problem, measure, elapsed = run_1d_c
    _, straightness = straightness_metric(result.x)
    ok = straightness < 0.05 and elapsed < 60.0
    _report(
        "criterion 2 approximate flatness (sigma=0.8)",
        ok,
        f"straightness={straightness:.4f}, time={elapsed:.1f}s",
    )


def test_criterion_3_fixed_point_residual(run_1d_a):
    result, problem, measure, elapsed = run_1d_a
    residuals = [rec["residual"] for rec in result.diagnostics]
    below = [
        rec["iteration"]
        for rec in result.diagnostics
        if rec["residual"] < 1e-3 and rec["iteration"] <= 20000
    ]
    tail = residuals[-max(2, len(residuals) // 10) :]
    non_increasing = all(b <= a * 1.1 for a, b in zip(tail, tail[1:]))
    ok = bool(below) and non_increasing
    _report(
        "criterion 3 fixed-point residual",
        ok,
        f"first<1e-3 at iter {below[0] if below else 'never'}, "
        f"final={residuals[-1]:.2e}, tail monotone(10%)={non_increasing}",
    )


def test_criterion_4_symmetry(run_1d_a):
    result, problem, measure, elapsed = run_1d_a
    defect = symmetry_defect(result.x, measure)
    ok = defect < 1e-3
    _report("criterion 4 mirror symmetry", ok, f"defect={defect:.2e}")


def test_criterion_5_kernel_cross_validation():
    spec = GaussianKernelSpec(sigma=0.2, mu=0.5)
    analytic = gaussian_spectral_1d(spec, 8)
    t0 = time.perf_counter()
    coeffs = fourier_coefficients(
        lambda x, y: kernel_eval_direct(spec, x, y), analytic.basis, 512
    )
    elapsed = time.perf_counter() - t0
    diag_gap = float(np.max(np.abs(np.diag(coeffs) - np.diag(analytic.k_mat))))
    off = coeffs - np.diag(np.diag(coeffs))
    off_gap = float(np.max(np.abs(off)))
    ok = diag_gap < 1e-8 and off_gap < 1e-8 and elapsed < 5.0
    _report(
        "criterion 5 kernel spectral cross-validation",
        ok,
        f"diag_gap={diag_gap:.2e}, off_gap={off_gap:.2e}, time={elapsed:.2f}s",
    )


def test_criterion_6_fejer_psd_preservation():
    rng = np.random.default_rng(100)
    worst = math.inf
    for _ in range(20):
        m = int(rng.integers(3, 12))
        g = rng.normal(size=(m, m))
        averaged = fejer_average(g.T @ g, m // 2 + 1)
        worst = min(worst, psd_check(averaged))
    ok = worst >= -1e-10
    _report(
        "criterion 6 Fejer PSD preservation", ok, f"min eigenvalue={worst:.2e}"
    )


def test_criterion_7_gradient_oracle():
    # the trajectory step is a preconditioned proximal step: per unit weight
    # it satisfies (Q / omega)(x - x_new) = L x_new / dt + grad(coupling +
    # terminal)(x), the kinetic gradient taken at the new iterate and the
    # rest at the old one; both gradients are checked by central differences
    rng = np.random.default_rng(101)
    raw = load_config_source("paper-1d-a")
    cfg = validate_config(raw)
    problem, measure = build_problem(cfg)
    omega = cfg.solver.omega
    h = 1e-6

    def particle_terms(path, a, alpha):
        # the terms of the x-objective that involve particle alpha, divided
        # by its weight c_alpha: (kinetic, coupling + terminal); the rest
        # cancels exactly in the central difference
        c = float(measure.weights[alpha])
        diffs = path[1:] - path[:-1]
        kinetic = c * float(np.sum(diffs**2)) / (2 * problem.dt)
        coupling = 0.0
        for j, k in enumerate(problem.basis.indices):
            if k == 1:
                vals = np.ones_like(path[1:, 0])
            elif k % 2 == 0:
                vals = math.sqrt(2.0) * np.sin(math.pi * k * path[1:, 0])
            else:
                vals = math.sqrt(2.0) * np.cos(math.pi * (k - 1) * path[1:, 0])
            coupling += problem.dt * c * float(np.dot(a[j], vals))
        terminal = c * float(problem.terminal_cost(path[-1:, :])[0])
        return kinetic / c, (coupling + terminal) / c

    def central_difference(path, a, alpha, i, part):
        bumped = path.copy()
        bumped[i, 0] += h
        f_plus = particle_terms(bumped, a, alpha)[part]
        bumped[i, 0] -= 2 * h
        f_minus = particle_terms(bumped, a, alpha)[part]
        return (f_plus - f_minus) / (2 * h)

    # per-coordinate denominators drown in finite-difference roundoff, so
    # the relative error of the identity is measured per state against the
    # sup-norm of its sampled right-hand side
    worst = 0.0
    stationary = np.repeat(measure.points[:, None, :], problem.num_steps + 1, axis=1)
    for _ in range(50):
        x = stationary.copy()
        x[:, 1:, :] += rng.normal(scale=0.15, size=(measure.count, problem.num_steps, 1))
        a = rng.normal(scale=0.4, size=(problem.basis.size, problem.num_steps))
        x_new = step_x(x, a, problem, measure, omega)
        gaps, scale = [], 0.0
        for _ in range(10):  # spot-check random coordinates of the identity
            alpha = int(rng.integers(0, measure.count))
            i = int(rng.integers(1, problem.num_steps + 1))
            lhs = measure.count / omega * (x[alpha, i, 0] - x_new[alpha, i, 0])
            expect = central_difference(x_new[alpha], a, alpha, i, 0)
            expect += central_difference(x[alpha], a, alpha, i, 1)
            gaps.append(abs(lhs - expect))
            scale = max(scale, abs(expect))
        worst = max(worst, max(gaps) / max(scale, 1e-12))
    ok = worst < 1e-5
    _report("criterion 7 gradient oracle", ok, f"max relative error={worst:.2e}")


def test_criterion_8_step_a_proximal_optimality():
    rng = np.random.default_rng(102)
    kernels = {
        "diagonal": gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 8),
        "block2x2": translation_invariant_blocks(
            [1.0, 0.4, 0.2, 0.05], [0.0, 0.3, -0.1, 0.02]
        ),
    }
    worst = 0.0
    for ker in kernels.values():
        for _ in range(10):
            n, lam, dt = 6, float(rng.uniform(0.5, 4.0)), 0.05
            q_pts = int(rng.integers(2, 7))
            measure = discretize_measure(lambda p: np.ones(p.shape[0]), q_pts, 1)
            a = rng.normal(size=(ker.size, n))
            z = np.repeat(measure.points[:, None, :], n + 1, axis=1)
            z[:, 1:, :] += rng.normal(scale=0.4, size=(q_pts, n, 1))
            q = moment_vector(z, measure, ker.basis)
            out = step_a(a, q, ker, dt=dt, lam=lam)
            gap = (lam * dt * ker.j_mat + np.eye(ker.size)) @ out - (
                a + lam * dt * q
            )
            worst = max(worst, float(np.max(np.abs(gap))))
    ok = worst < 1e-12
    _report(
        "criterion 8 proximal optimality of the coefficient step",
        ok,
        f"max residual={worst:.2e}",
    )


def test_criterion_9_mu_ordering(run_1d_a, run_1d_b):
    result_a, _, measure_a, _ = run_1d_a  # mu = 0.5
    result_b, _, measure_b, _ = run_1d_b  # mu = 1.5
    bins = 100
    peak_a = density_histogram(result_a.x, measure_a, 20, bins).values.max()
    peak_b = density_histogram(result_b.x, measure_b, 20, bins).values.max()
    ok = peak_b < peak_a
    _report(
        "criterion 9 crowd-aversion ordering in mu",
        ok,
        f"peak(mu=1.5)={peak_b:.3f} < peak(mu=0.5)={peak_a:.3f}",
    )


def test_criterion_10_2d_completion(run_2d_b):
    result, problem, measure, elapsed = run_2d_b
    info = kernel_info(validate_config(load_config_source("paper-2d-b")))
    ok = (
        result.converged
        and result.iterations <= 50000
        and elapsed < 600.0
        and len(info["eigenvalues"]) == 28
    )
    _report(
        "criterion 10 2d completion",
        ok,
        f"iters={result.iterations}, time={elapsed:.0f}s, "
        f"eigenvalues={len(info['eigenvalues'])}",
    )


def test_criterion_11_determinism(tmp_path):
    # internal parallelism is vectorized array arithmetic with a fixed
    # reduction order, so repeated runs must be byte-identical
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert main(["solve", "paper-1d-a", "--output-dir", str(out1)]) == 0
    assert main(["solve", "paper-1d-a", "--output-dir", str(out2)]) == 0
    names = [
        "trajectories.csv",
        "diagnostics.jsonl",
        "metrics.json",
        "density_t0.csv",
        "density_t10.csv",
        "density_t20.csv",
    ]
    mismatched = [
        n for n in names if (out1 / n).read_bytes() != (out2 / n).read_bytes()
    ]
    ok = not mismatched
    _report(
        "criterion 11 byte-identical artifacts",
        ok,
        f"compared {len(names)} files" + (f", mismatch: {mismatched}" if mismatched else ""),
    )
