import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mfgspectral import basis as basis_module
from mfgspectral import pdhg
from mfgspectral.basis import basis_1d
from mfgspectral.kernel import (
    GaussianKernelSpec,
    SpectralKernel,
    gaussian_spectral_1d,
    gaussian_spectral_2d,
    spectral_from_dense,
    translation_invariant_blocks,
)
from mfgspectral.pdhg import (
    SolverConfig,
    check_steps,
    fixed_point_residual,
    prox_a_operator,
    solve,
    step_a,
    step_size_bound,
    step_x,
    step_z,
)
from mfgspectral.problem import (
    DiscreteMeasure,
    DivergenceError,
    MFGProblem,
    discretize_measure,
    moment_vector,
)


def oracle_phi(k, x):
    # independent transcription of the 1d basis rule
    if k == 1:
        return np.ones_like(x)
    if k % 2 == 0:
        return math.sqrt(2.0) * np.sin(math.pi * k * x)
    return math.sqrt(2.0) * np.cos(math.pi * (k - 1) * x)


def x_objective(x, a, problem, measure):
    # the function whose gradient step_x descends, written independently
    c = measure.weights
    dt = problem.dt
    diffs = x[:, 1:, :] - x[:, :-1, :]
    kinetic = float(np.sum(c * np.sum(diffs**2, axis=(1, 2)) / (2 * dt)))
    coupling = 0.0
    for j, k in enumerate(problem.basis.indices):
        vals = oracle_phi(k, x[:, 1:, 0])  # (Q, N)
        coupling += dt * float(np.sum(c[:, None] * a[j][None, :] * vals))
    terminal = float(np.dot(c, problem.terminal_cost(x[:, -1, :])))
    return kinetic + coupling + terminal


def zero_fn(p):
    return np.zeros(p.shape[0])


def zero_grad(p):
    return np.zeros_like(p)


def make_problem(kernel, U=None, gradU=None, N=5):
    return MFGProblem(
        kernel=kernel,
        initial_density=lambda p: np.ones(p.shape[0]),
        terminal_cost=U or zero_fn,
        terminal_grad=gradU or zero_grad,
        num_steps=N,
    )


def uniform_measure(Q):
    return discretize_measure(lambda p: np.ones(p.shape[0]), Q, 1)


def stationary(measure, N):
    return np.repeat(measure.points[:, None, :], N + 1, axis=1)


class TestStepSizeBound:
    def test_constant_basis_is_zero(self):
        m = uniform_measure(5)
        assert step_size_bound(m, basis_1d(1), 0.05) == 0.0

    def test_single_particle_single_frequency(self):
        m = DiscreteMeasure(points=np.array([[0.5]]), weights=np.array([1.0]))
        assert step_size_bound(m, basis_1d(2), 1.0) == pytest.approx(
            78.95683520871486, rel=1e-13
        )

    def test_uniform_weight_scaling(self):
        b = basis_1d(4)
        m1 = DiscreteMeasure(points=np.array([[0.5]]), weights=np.array([1.0]))
        m50 = uniform_measure(50)
        assert step_size_bound(m50, b, 0.1) == pytest.approx(
            step_size_bound(m1, b, 0.1) / 50.0, rel=1e-12
        )
        # the preconditioned bound counts particles, not their weights
        skewed = discretize_measure(
            lambda p: 1.0 / 6.0 + 5.0 / 3.0 * np.sin(np.pi * p[:, 0]) ** 2, 50, 1
        )
        assert step_size_bound(skewed, b, 0.1) == pytest.approx(
            step_size_bound(m1, b, 0.1) / 50.0, rel=1e-12
        )


class TestCheckSteps:
    def test_ok(self):
        cfg = SolverConfig(lam=3.0, omega=1.0 / 12.0)
        assert check_steps(cfg, 1.0) is True

    def test_violation(self):
        cfg = SolverConfig(lam=3.0, omega=1.0 / 12.0)
        assert check_steps(cfg, 10.0) is False

    def test_zero_bound_always_ok(self):
        cfg = SolverConfig(lam=100.0, omega=100.0)
        assert check_steps(cfg, 0.0) is True


class TestStepA:
    def test_zero_lambda_is_identity(self):
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 3)
        m = uniform_measure(4)
        a = np.arange(12.0).reshape(3, 4)
        q = moment_vector(stationary(m, 4), m, ker.basis)
        out = step_a(a, q, ker, dt=0.25, lam=0.0)
        np.testing.assert_array_equal(out, a)

    def test_flat_kernel_fixed_point(self):
        mu = 0.5
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, mu), 1)
        m = uniform_measure(6)
        a = np.full((1, 5), mu)
        z = stationary(m, 5)
        rng = np.random.default_rng(16)
        z[:, 1:, :] += rng.normal(scale=0.3, size=(6, 5, 1))
        out = step_a(a, moment_vector(z, m, ker.basis), ker, dt=0.2, lam=3.0)
        np.testing.assert_allclose(out, mu, rtol=1e-14)

    def test_scalar_arithmetic(self):
        ker = SpectralKernel(basis_1d(1), k_mat=[[0.5]], j_mat=[[2.0]])
        prox = prox_a_operator(ker, 0.5)
        rhs = np.array([[1.0 + 0.5 * 3.0]])
        assert prox(rhs)[0, 0] == pytest.approx(1.25, abs=1e-15)

    @pytest.mark.parametrize(
        "builder",
        ["gaussian_spectral_1d", "translation_invariant_blocks", "spectral_from_dense"],
    )
    def test_proximal_optimality(self, builder):
        rng = np.random.default_rng(17)
        if builder == "gaussian_spectral_1d":
            ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 6)
        elif builder == "translation_invariant_blocks":
            ker = translation_invariant_blocks(
                [1.0, 0.3, 0.15], [0.0, 0.4, -0.07]
            )
        else:
            g = rng.normal(size=(5, 5))
            ker = spectral_from_dense(g.T @ g + np.eye(5), basis_1d(5))
        n, lam, dt = 6, 2.3, 0.17
        m = uniform_measure(5)
        a = rng.normal(size=(ker.size, n))
        z = stationary(m, n)
        z[:, 1:, :] += rng.normal(scale=0.4, size=(5, n, 1))
        q = moment_vector(z, m, ker.basis)
        out = step_a(a, q, ker, dt=dt, lam=lam)
        lhs = (lam * dt * ker.j_mat + np.eye(ker.size)) @ out
        rhs = a + lam * dt * q
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_gaussian_prox_matches_closed_form(self, dimension):
        # the old diagonal applier: rhs / (1 + lam_dt / k)
        spec = GaussianKernelSpec(0.2, 0.5, dimension=dimension)
        build = gaussian_spectral_1d if dimension == 1 else gaussian_spectral_2d
        ker = build(spec, 8)
        lam_dt = 0.15
        rhs = np.random.default_rng(19).normal(size=(ker.size, 5))
        k = np.diag(ker.k_mat)
        np.testing.assert_allclose(
            prox_a_operator(ker, lam_dt)(rhs),
            rhs / (1.0 + lam_dt / k)[:, None],
            rtol=1e-14,
        )

    def test_block_prox_matches_closed_form(self):
        # the old block applier: one 2x2 inverse per frequency
        c, s = [1.0, 0.3, 0.15], [0.0, 0.4, -0.07]
        ker = translation_invariant_blocks(c, s)
        lam_dt = 0.4
        rhs = np.random.default_rng(20).normal(size=(ker.size, 5))
        expect = np.empty_like(rhs)
        expect[0] = rhs[0] / (1.0 + lam_dt / c[0])
        for n in (1, 2):
            j_blk = np.array([[c[n], -s[n]], [s[n], c[n]]]) / (c[n] ** 2 + s[n] ** 2)
            inv = np.linalg.inv(lam_dt * j_blk + np.eye(2))
            expect[2 * n - 1 : 2 * n + 1] = inv @ rhs[2 * n - 1 : 2 * n + 1]
        np.testing.assert_allclose(
            prox_a_operator(ker, lam_dt)(rhs), expect, rtol=1e-14
        )

    def test_time_slices_independent(self):
        rng = np.random.default_rng(18)
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 4)
        prox = prox_a_operator(ker, 0.3)
        rhs = rng.normal(size=(4, 7))
        perm = rng.permutation(7)
        direct = prox(rhs)[:, perm]
        permuted = prox(rhs[:, perm])
        np.testing.assert_array_equal(direct, permuted)


class TestStepX:
    def test_stationary_without_forcing(self):
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 3)
        m = uniform_measure(5)
        prob = make_problem(ker, N=4)
        x = stationary(m, 4)
        out = step_x(x, np.zeros((3, 4)), prob, m, omega=1.0 / 12.0)
        np.testing.assert_array_equal(out, x)

    def test_single_particle_single_step_formula(self):
        mu = 0.5
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, mu), 2)
        U = lambda p: np.sin(2 * np.pi * p[:, 0])
        gradU = lambda p: (2 * np.pi * np.cos(2 * np.pi * p[:, 0]))[:, None]
        prob = make_problem(ker, U=U, gradU=gradU, N=1)
        m = DiscreteMeasure(points=np.array([[0.3]]), weights=np.array([1.0]))
        x = np.array([[[0.3], [0.45]]])
        a_new = np.array([[0.2], [-0.1]])
        omega, dt = 0.05, 1.0
        out = step_x(x, a_new, prob, m, omega)
        x1 = 0.45
        grad_phi1 = 0.0
        grad_phi2 = math.sqrt(2) * 2 * math.pi * math.cos(2 * math.pi * x1)
        grad = (
            (x1 - 0.3) / dt
            + float(gradU(np.array([[x1]]))[0, 0])
            + dt * (0.2 * grad_phi1 + (-0.1) * grad_phi2)
        )
        # N = 1 and Q = 1: L = [[1]], so the kinetic inverse is 1 / (1 + omega / dt)
        expect = x1 - omega / (1.0 + omega / dt) * grad
        assert out[0, 1, 0] == pytest.approx(expect, abs=1e-15)
        assert out[0, 0, 0] == 0.3

    def test_interior_equilibrium_row_follows_kinetic_solve(self):
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 1)
        m = DiscreteMeasure(points=np.array([[0.4]]), weights=np.array([1.0]))
        prob = make_problem(ker, N=3)
        x = np.array([[[0.4], [0.6], [0.6], [0.6]]])
        omega, dt = 0.1, 1.0 / 3.0
        out = step_x(x, np.zeros((1, 3)), prob, m, omega=omega)
        # slice 2 has equal neighbors, so its own gradient vanishes; it moves
        # only through the kinetic inverse, by its (2, 1) entry times the
        # pull on slice 1: for M = Id + s L with s = omega / (Q dt),
        # inv(M)[1, 0] = s (1 + s) / det M
        s = omega / dt
        det = (1 + 2 * s) * ((1 + 2 * s) * (1 + s) - s**2) - s**2 * (1 + s)
        pull = (0.6 - 0.4) / dt
        assert out[0, 2, 0] == pytest.approx(
            0.6 - omega * s * (1 + s) / det * pull, abs=1e-15
        )
        # slice 1 keeps pulling toward the pin
        assert out[0, 1, 0] < 0.6 - 1e-6

    def test_update_is_negative_scaled_gradient(self):
        rng = np.random.default_rng(19)
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 4)
        U = lambda p: 1.0 + np.sin(4 * np.pi * p[:, 0] + np.pi / 2)
        gradU = lambda p: (4 * np.pi * np.cos(4 * np.pi * p[:, 0] + np.pi / 2))[
            :, None
        ]
        prob = make_problem(ker, U=U, gradU=gradU, N=4)
        m = discretize_measure(
            lambda p: 1.0 / 6.0 + 5.0 / 3.0 * np.sin(np.pi * p[:, 0]) ** 2, 5, 1
        )
        omega = 1.0 / 12.0
        h = 1e-6
        x = stationary(m, 4)
        x[:, 1:, :] += rng.normal(scale=0.2, size=(5, 4, 1))
        a = rng.normal(scale=0.5, size=(4, 4))
        update = step_x(x, a, prob, m, omega) - x
        # the update is -P (omega / Q) grad A_alpha, grad A_alpha the gradient
        # of particle alpha's terms per unit weight, P the kinetic inverse
        lap = 2 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
        lap[-1, -1] = 1.0
        precond = np.linalg.inv(np.eye(4) + omega / (5 * prob.dt) * lap)
        for alpha in range(5):
            fd = np.empty(4)
            for i in range(1, 5):
                bumped = x.copy()
                bumped[alpha, i, 0] += h
                f_plus = x_objective(bumped, a, prob, m)
                bumped[alpha, i, 0] -= 2 * h
                f_minus = x_objective(bumped, a, prob, m)
                fd[i - 1] = (f_plus - f_minus) / (2 * h) / m.weights[alpha]
            expect = -(omega / 5) * precond @ fd
            for i in range(1, 5):
                scale = max(abs(expect[i - 1]), 1e-8)
                assert abs(update[alpha, i, 0] - expect[i - 1]) / scale < 1e-5

    def test_equal_paths_step_equally_across_weights(self):
        # the step per unit weight is the same for every particle, so a
        # heavy and a light particle on the same path move identically
        rng = np.random.default_rng(24)
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 4)
        U = lambda p: 1.0 + np.sin(4 * np.pi * p[:, 0] + np.pi / 2)
        gradU = lambda p: (4 * np.pi * np.cos(4 * np.pi * p[:, 0] + np.pi / 2))[
            :, None
        ]
        prob = make_problem(ker, U=U, gradU=gradU, N=4)
        m = DiscreteMeasure(
            points=np.array([[0.3], [0.3]]), weights=np.array([100.0, 1.0]) / 101.0
        )
        x = stationary(m, 4)
        x[:, 1:, :] += rng.normal(scale=0.2, size=(1, 4, 1))
        a = rng.normal(scale=0.5, size=(4, 4))
        out = step_x(x, a, prob, m, omega=0.5)
        assert not np.array_equal(out[0], x[0])
        np.testing.assert_array_equal(out[0], out[1])

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_particles_independent(self, dimension):
        rng = np.random.default_rng(20)
        if dimension == 1:
            ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 3)
            grid = 6
        else:  # the paper-2d basis; 144 particles
            ker = gaussian_spectral_2d(GaussianKernelSpec(0.1, 0.75, dimension=2), 8)
            grid = 12
        U = lambda p: np.sum(np.cos(2 * np.pi * p), axis=1)
        gradU = lambda p: -2 * np.pi * np.sin(2 * np.pi * p)
        prob = make_problem(ker, U=U, gradU=gradU, N=3)
        m = discretize_measure(
            lambda p: 0.4 + np.sin(np.pi * p[:, 0]) ** 2, grid, dimension
        )
        q = m.count
        x = stationary(m, 3)
        x[:, 1:, :] += rng.normal(scale=0.1, size=(q, 3, dimension))
        a = rng.normal(size=(ker.size, 3))
        out = step_x(x, a, prob, m, omega=0.02)

        perm = rng.permutation(q)
        m_perm = DiscreteMeasure(points=m.points[perm], weights=m.weights[perm])
        out_perm = step_x(x[perm], a, prob, m_perm, omega=0.02)
        np.testing.assert_array_equal(out_perm, out[perm])


def test_coupling_terms_build_no_basis_tensors():
    # paper-2d shapes: Q = 400 particles, N = 20 slices, 28 functions, d = 2
    ker = gaussian_spectral_2d(GaussianKernelSpec(0.1, 0.75, dimension=2), 8)
    prob = make_problem(ker, N=20)
    m = discretize_measure(lambda p: np.ones(p.shape[0]), 20, 2)
    rng = np.random.default_rng(23)
    x = stationary(m, 20)
    x[:, 1:, :] += rng.normal(scale=0.1, size=(400, 20, 2))
    a = rng.normal(size=(ker.size, 20))
    step_x(x, a, prob, m, omega=0.1)  # fill the basis' cached index maps
    tracemalloc.start()
    try:
        step_x(x, a, prob, m, omega=0.1)
        step_x_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        moment_vector(x, m, ker.basis)
        moments_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # below the (Q*N, size, d) gradient and (Q*N, size) value tables alone
    assert step_x_peak < 400 * 20 * ker.size * 2 * 8
    assert moments_peak < 400 * 20 * ker.size * 8


class TestStepZ:
    def test_theta_zero(self):
        x_new = np.random.default_rng(21).normal(size=(3, 4, 1))
        x_old = np.zeros_like(x_new)
        np.testing.assert_array_equal(step_z(x_new, x_old, 0.0), x_new)

    def test_theta_one(self):
        rng = np.random.default_rng(22)
        x_new = rng.normal(size=(3, 4, 1))
        x_old = rng.normal(size=(3, 4, 1))
        np.testing.assert_allclose(
            step_z(x_new, x_old, 1.0), 2 * x_new - x_old, atol=1e-15
        )

    def test_arithmetic(self):
        out = step_z(np.array([[[0.6]]]), np.array([[[0.5]]]), 1.0)
        assert out[0, 0, 0] == pytest.approx(0.7, abs=1e-15)

    def test_moment_arrays(self):
        # the solve extrapolates (size, N) moments
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 4)
        m = uniform_measure(5)
        rng = np.random.default_rng(25)
        x_old = stationary(m, 3)
        x_new = x_old.copy()
        x_new[:, 1:, :] += rng.normal(scale=0.2, size=(5, 3, 1))
        p_old = moment_vector(x_old, m, ker.basis)
        p_new = moment_vector(x_new, m, ker.basis)
        out = step_z(p_new, p_old, 0.5)
        assert out.shape == (4, 3)
        np.testing.assert_allclose(out, 1.5 * p_new - 0.5 * p_old, rtol=0, atol=1e-14)
        with pytest.raises(ValueError, match="extrapolated"):
            step_z(p_new, p_old[:, :2], 0.5)


class TestFixedPointResidual:
    def test_exact_fixed_point(self):
        rng = np.random.default_rng(23)
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 5)
        m = uniform_measure(6)
        x = stationary(m, 4)
        x[:, 1:, :] += rng.normal(scale=0.2, size=(6, 4, 1))
        p = moment_vector(x, m, ker.basis)
        a = ker.apply_k(p)
        assert fixed_point_residual(a, x, ker, m) == 0.0

    def test_flat_kernel_constant_coefficients(self):
        mu = 0.5
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, mu), 1)
        m = uniform_measure(6)
        x = stationary(m, 4)
        a = np.full((1, 4), mu)
        assert fixed_point_residual(a, x, ker, m) < 1e-15

    def test_zero_coefficients(self):
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 4)
        m = uniform_measure(5)
        x = stationary(m, 3)
        p = moment_vector(x, m, ker.basis)
        expect = float(np.max(np.abs(ker.apply_k(p))))
        assert fixed_point_residual(np.zeros((4, 3)), x, ker, m) == pytest.approx(
            expect
        )


class TestSolve:
    def test_flat_kernel_constant_terminal(self):
        mu = 0.5
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, mu), 1)
        prob = make_problem(ker, U=lambda p: 1.0 + 0.0 * p[:, 0], N=5)
        m = uniform_measure(8)
        cfg = SolverConfig(lam=3.0, omega=1.0 / 12.0, max_iter=2000, tol=1e-12)
        res = solve(prob, m, cfg)
        assert res.converged
        np.testing.assert_allclose(res.a, mu, atol=1e-10)
        np.testing.assert_allclose(res.x, stationary(m, 5), atol=1e-12)

    def test_infinite_tolerance_returns_initial_state(self):
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 3)
        prob = make_problem(ker, N=4)
        m = uniform_measure(5)
        cfg = SolverConfig(lam=3.0, omega=1.0 / 12.0, tol=math.inf)
        res = solve(prob, m, cfg)
        assert res.iterations == 0
        np.testing.assert_array_equal(res.a, np.zeros((3, 4)))
        np.testing.assert_array_equal(res.x, stationary(m, 4))

    def test_divergence_raises_with_diagnostics(self):
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 4)
        # anti-confining terminal cost: the last slice is pushed outward
        # every iteration, whatever the step size
        U = lambda p: -5.0 * p[:, 0] ** 2
        gradU = lambda p: -10.0 * p
        prob = make_problem(ker, U=U, gradU=gradU, N=5)
        m = uniform_measure(4)
        cfg = SolverConfig(
            lam=3.0, omega=1.0 / 12.0, max_iter=5000, tol=1e-12, record_every=1
        )
        with pytest.raises(DivergenceError) as err:
            solve(prob, m, cfg)
        iterations = [r["iteration"] for r in err.value.diagnostics]
        assert iterations == list(range(1, err.value.iteration))

    def test_non_finite_step_raises_before_commit(self):
        # from its 5th call the terminal gradient is infinite for one
        # particle: the step must stop with DivergenceError, before the
        # infinite coordinates reach the basis tables and warn there
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 4)
        calls = []

        def gradU(p):
            calls.append(None)
            g = (4 * np.pi * np.cos(4 * np.pi * p[:, 0]))[:, None]
            if len(calls) >= 5:
                g[2] = np.inf
            return g

        prob = make_problem(ker, U=lambda p: np.sin(4 * np.pi * p[:, 0]), gradU=gradU)
        m = uniform_measure(4)
        cfg = SolverConfig(
            lam=3.0, omega=1.0 / 12.0, max_iter=100, tol=0.0, record_every=1
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                solve(prob, m, cfg)
        assert err.value.iteration == 5
        assert [r["iteration"] for r in err.value.diagnostics] == [1, 2, 3, 4]

    def test_unbounded_coefficients_raise(self, monkeypatch):
        # |a| is bounded as well as |x|: the third coefficient step jumps
        real_step_a = pdhg.step_a
        calls = []

        def step_a_jumping(*args, **kwargs):
            calls.append(None)
            out = real_step_a(*args, **kwargs)
            return out + 2.0 * pdhg.DIVERGENCE_LIMIT if len(calls) == 3 else out

        monkeypatch.setattr(pdhg, "step_a", step_a_jumping)
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 3)
        prob = make_problem(ker, N=4)
        m = uniform_measure(5)
        cfg = SolverConfig(lam=3.0, omega=1.0 / 12.0, max_iter=10, tol=0.0, record_every=1)
        with pytest.raises(DivergenceError) as err:
            solve(prob, m, cfg)
        assert err.value.iteration == 3
        assert [r["iteration"] for r in err.value.diagnostics] == [1, 2]

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    @pytest.mark.parametrize("record_every", [1, 50])
    def test_one_table_build_per_iteration(self, monkeypatch, dimension, record_every):
        # d per-axis tables at the start, then d per iteration, shared by
        # the trajectory step, the moments and the diagnostics
        built = []
        real = basis_module._axis_tables

        def counting(*args, **kwargs):
            built.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(basis_module, "_axis_tables", counting)
        if dimension == 1:
            ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 4)
        else:
            ker = gaussian_spectral_2d(GaussianKernelSpec(0.1, 0.75, dimension=2), 5)
        prob = make_problem(
            ker, U=lambda p: np.sum(np.cos(2 * np.pi * p), axis=1),
            gradU=lambda p: -2 * np.pi * np.sin(2 * np.pi * p), N=4,
        )
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 4, dimension)
        k = 60
        cfg = SolverConfig(
            lam=3.0, omega=0.5, max_iter=k, tol=0.0, record_every=record_every
        )
        res = solve(prob, m, cfg)
        assert res.iterations == k
        assert len(built) == dimension * (k + 1)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_two_iterations_by_hand(self, theta, dimension):
        # the solve extrapolates moments, not trajectories
        if dimension == 1:
            ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 6)
        else:
            ker = gaussian_spectral_2d(GaussianKernelSpec(0.1, 0.75, dimension=2), 6)
        prob = make_problem(
            ker, U=lambda p: np.sum(np.cos(2 * np.pi * p), axis=1),
            gradU=lambda p: -2 * np.pi * np.sin(2 * np.pi * p), N=5,
        )
        m = discretize_measure(
            lambda p: 0.4 + np.sin(np.pi * p[:, 0]) ** 2, 5, dimension
        )
        lam, omega, dt = 3.0, 0.5, prob.dt
        cfg = SolverConfig(lam=lam, omega=omega, theta=theta, max_iter=2, tol=0.0)
        res = solve(prob, m, cfg)

        x0 = np.repeat(m.points[:, None, :], 6, axis=1)
        p0 = moment_vector(x0, m, ker.basis)
        a1 = step_a(np.zeros((ker.size, 5)), p0, ker, dt, lam)
        x1 = step_x(x0, a1, prob, m, omega)
        p1 = moment_vector(x1, m, ker.basis)
        q1 = p1 + theta * (p1 - p0)
        a2 = step_a(a1, q1, ker, dt, lam)
        x2 = step_x(x1, a2, prob, m, omega)
        assert not np.array_equal(x2, x1)
        np.testing.assert_array_equal(res.a, a2)
        np.testing.assert_array_equal(res.x, x2)

    def test_pinning_and_finiteness_on_generic_run(self):
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 4)
        U = lambda p: 1.0 + np.sin(4 * np.pi * p[:, 0] + np.pi / 2)
        gradU = lambda p: (4 * np.pi * np.cos(4 * np.pi * p[:, 0] + np.pi / 2))[
            :, None
        ]
        prob = make_problem(ker, U=U, gradU=gradU, N=5)
        m = discretize_measure(
            lambda p: 1.0 / 6.0 + 5.0 / 3.0 * np.sin(np.pi * p[:, 0]) ** 2, 6, 1
        )
        cfg = SolverConfig(
            lam=3.0, omega=1.0 / 12.0, max_iter=300, tol=0.0, record_every=50
        )
        res = solve(prob, m, cfg)
        assert res.iterations == 300
        np.testing.assert_array_equal(res.x[:, 0, :], m.points)
        assert np.all(np.isfinite(res.a)) and np.all(np.isfinite(res.x))
        assert [r["iteration"] for r in res.diagnostics] == [50, 100, 150, 200, 250, 300]

    def test_flat_kernel_trajectories_straight(self):
        mu = 0.5
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, mu), 1)
        U = lambda p: 1.0 + np.sin(4 * np.pi * p[:, 0] + np.pi / 2)
        gradU = lambda p: (4 * np.pi * np.cos(4 * np.pi * p[:, 0] + np.pi / 2))[
            :, None
        ]
        prob = make_problem(ker, U=U, gradU=gradU, N=8)
        # Q sized so omega * c * curvature stays in the stable regime
        m = uniform_measure(12)
        tol = 1e-9
        cfg = SolverConfig(lam=3.0, omega=1.0 / 12.0, max_iter=60000, tol=tol)
        res = solve(prob, m, cfg)
        assert res.converged
        np.testing.assert_allclose(res.a, mu, atol=1e-9)
        s = np.linspace(0.0, 1.0, 9)
        chord = (1 - s)[None, :, None] * res.x[:, :1, :] + s[None, :, None] * res.x[
            :, -1:, :
        ]
        # trajectory lag at stagnation is step_norm / contraction_rate,
        # about 120x the step tolerance for these parameters
        assert np.max(np.abs(res.x - chord)) < 200 * tol

    def test_deterministic_repeat(self):
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 4)
        U = lambda p: np.cos(2 * np.pi * p[:, 0])
        gradU = lambda p: (-2 * np.pi * np.sin(2 * np.pi * p[:, 0]))[:, None]
        prob = make_problem(ker, U=U, gradU=gradU, N=4)
        m = uniform_measure(5)
        cfg = SolverConfig(lam=3.0, omega=1.0 / 12.0, max_iter=100, tol=0.0)
        res1 = solve(prob, m, cfg)
        res2 = solve(prob, m, cfg)
        np.testing.assert_array_equal(res1.a, res2.a)
        np.testing.assert_array_equal(res1.x, res2.x)

    def test_diagnostics_jsonl(self, tmp_path):
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 3)
        prob = make_problem(ker, N=3)
        m = uniform_measure(4)
        cfg = SolverConfig(
            lam=3.0, omega=1.0 / 12.0, max_iter=20, tol=0.0, record_every=5
        )
        path = tmp_path / "diag.jsonl"
        res = solve(prob, m, cfg, diagnostics_path=path)
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line) for line in lines] == res.diagnostics
        assert [r["iteration"] for r in res.diagnostics] == [5, 10, 15, 20]
        # plain Python scalars under the five keys, so the records serialize
        scalar_types = {
            "iteration": int, "saddle_value": float, "residual": float,
            "a_step": float, "x_step": float,
        }
        for rec in res.diagnostics:
            assert {k: type(v) for k, v in rec.items()} == scalar_types


class TestSolverConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(lam=0.0, omega=0.1)
        with pytest.raises(ValueError):
            SolverConfig(lam=1.0, omega=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(lam=1.0, omega=0.1, theta=1.5)
        with pytest.raises(ValueError):
            SolverConfig(lam=1.0, omega=0.1, record_every=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": math.nan},
            {"tol": -1e-8},
            {"lam": math.inf},
            {"lam": math.nan},
            {"omega": math.inf},
            {"omega": math.nan},
        ],
    )
    def test_non_finite_inputs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**{"lam": 1.0, "omega": 0.1, **kwargs})

    @pytest.mark.parametrize("field", ["max_iter", "record_every"])
    @pytest.mark.parametrize("value", [10.5, 2.5, 4.0, True, "4", None])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{"lam": 1.0, "omega": 0.1, field: value})

    def test_numpy_integer_counts_allowed(self):
        cfg = SolverConfig(
            lam=1.0, omega=0.1, max_iter=np.int64(7), record_every=np.int32(2)
        )
        assert (cfg.max_iter, cfg.record_every) == (7, 2)

    def test_zero_and_infinite_tol_allowed(self):
        assert SolverConfig(lam=1.0, omega=0.1, tol=0.0).tol == 0.0
        assert SolverConfig(lam=1.0, omega=0.1, tol=math.inf).tol == math.inf
