import dataclasses
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
    gaussian_spectral,
    spectral_from_dense,
    translation_invariant_blocks,
)
from mfgspectral.pdhg import (
    SolverConfig,
    fixed_point_residual,
    prox_a_operator,
    prox_x_operator,
    solve,
    step_a,
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


class TestStepA:
    def test_zero_lambda_is_identity(self):
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 3)
        m = uniform_measure(4)
        a = np.arange(12.0).reshape(3, 4)
        q = moment_vector(stationary(m, 4), m, ker.basis)
        out = step_a(a, q, ker, dt=0.25, lam=0.0)
        np.testing.assert_array_equal(out, a)

    def test_flat_kernel_fixed_point(self):
        mu = 0.5
        ker = gaussian_spectral(GaussianKernelSpec(0.2, mu), 1)
        m = uniform_measure(6)
        a = np.full((1, 5), mu)
        z = stationary(m, 5)
        rng = np.random.default_rng(16)
        z[:, 1:, :] += rng.normal(scale=0.3, size=(6, 5, 1))
        out = step_a(a, moment_vector(z, m, ker.basis), ker, dt=0.2, lam=3.0)
        np.testing.assert_allclose(out, mu, rtol=1e-14)

    def test_scalar_arithmetic(self):
        ker = SpectralKernel(basis_1d(1), k_mat=[[0.5]])  # J = [[2.0]]
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
            ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 6)
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
        ker = gaussian_spectral(spec, 8)
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
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)
        prox = prox_a_operator(ker, 0.3)
        rhs = rng.normal(size=(4, 7))
        perm = rng.permutation(7)
        direct = prox(rhs)[:, perm]
        permuted = prox(rhs[:, perm])
        np.testing.assert_array_equal(direct, permuted)

    @pytest.mark.parametrize("lam_dt", [-0.1, math.nan, math.inf, -math.inf])
    def test_bad_lam_dt_rejected(self, lam_dt):
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)
        with pytest.raises(ValueError, match="lam_dt"):
            prox_a_operator(ker, lam_dt)


class TestStepX:
    def test_stationary_without_forcing(self):
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 3)
        m = uniform_measure(5)
        prob = make_problem(ker, N=4)
        x = stationary(m, 4)
        out = step_x(x, np.zeros((3, 4)), prob, m, omega=1.0 / 12.0)
        np.testing.assert_array_equal(out, x)

    def test_single_particle_single_step_formula(self):
        mu = 0.5
        ker = gaussian_spectral(GaussianKernelSpec(0.2, mu), 2)
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
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 1)
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
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)
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
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)
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
            ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 3)
            grid = 6
        else:  # the paper-2d basis; 144 particles
            ker = gaussian_spectral(GaussianKernelSpec(0.1, 0.75, dimension=2), 8)
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

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_output_keeps_input_layout(self, dimension):
        # a slice-major x (a (Q, N+1, d) view of (d, N+1, Q) memory, as in
        # solve) gives slice-major paths, a C-order x C-order ones, same values
        rng = np.random.default_rng(21)
        if dimension == 1:
            ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 5)
        else:
            ker = gaussian_spectral(GaussianKernelSpec(0.1, 0.75, dimension=2), 6)
        prob = make_problem(
            ker, U=lambda p: np.sum(np.cos(2 * np.pi * p), axis=1),
            gradU=lambda p: -2 * np.pi * np.sin(2 * np.pi * p), N=20,
        )
        m = discretize_measure(
            lambda p: 0.4 + np.sin(np.pi * p[:, 0]) ** 2, 50 if dimension == 1 else 7,
            dimension,
        )
        x = stationary(m, 20)
        x[:, 1:, :] += rng.normal(scale=0.1, size=(m.count, 20, dimension))
        a = rng.normal(size=(ker.size, 20))
        slice_major = np.ascontiguousarray(x.transpose(2, 1, 0)).transpose(2, 1, 0)
        out_c = step_x(x, a, prob, m, omega=0.5)
        out_sm = step_x(slice_major, a, prob, m, omega=0.5)
        assert out_c.flags.c_contiguous
        assert out_sm.transpose(2, 1, 0).flags.c_contiguous
        np.testing.assert_array_equal(out_sm, out_c)


class TestProxX:
    def test_applier_returns_view_of_slice_major_memory(self):
        # C-order and slice-major gradients give the same (Q, N, d) view of
        # (d, N, Q) memory, holding step (Id + (step / dt) L)^-1 grad; at
        # these (paper-1d) sizes a strided product would differ in last bits
        n, q, dt, step = 20, 50, 0.05, 0.01
        lap = np.diag([2.0] * (n - 1) + [1.0]) - np.eye(n, k=1) - np.eye(n, k=-1)
        inverse = step * np.linalg.inv(np.eye(n) + (step / dt) * lap)
        grad = np.random.default_rng(22).normal(size=(q, n, 2))
        expect = np.einsum("ij,qjd->qid", inverse, grad)
        prox = prox_x_operator(n, dt, step)
        slice_major = np.ascontiguousarray(grad.transpose(2, 1, 0)).transpose(2, 1, 0)
        outs = [prox(grad), prox(slice_major)]
        for out in outs:
            assert out.shape == (q, n, 2)
            assert out.base is not None and out.base.shape == (2, n, q)
            assert out.transpose(2, 1, 0).flags.c_contiguous
            np.testing.assert_allclose(out, expect, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_zero_step_does_not_move(self):
        np.testing.assert_array_equal(
            prox_x_operator(3, 0.5, 0.0)(np.ones((2, 3, 1))), np.zeros((2, 3, 1))
        )

    @pytest.mark.parametrize("step", [-0.1, -math.inf, math.inf, math.nan])
    def test_bad_step_rejected(self, step):
        with pytest.raises(ValueError, match="step"):
            prox_x_operator(3, 0.5, step)

    @pytest.mark.parametrize("curvature", [-0.1, -math.inf, math.inf, math.nan])
    def test_bad_curvature_rejected(self, curvature):
        with pytest.raises(ValueError, match="curvature"):
            prox_x_operator(3, 0.5, 0.1, curvature)

    def test_curvature_shortens_only_the_last_slice(self):
        # (Id + (step / dt) L + D)^-1 with D = (step c - 1) e_N e_N^T: the
        # last slice's own step is 1 / c instead of step
        n, dt, step, c = 6, 0.2, 0.05, 158.0
        lap = np.diag([2.0] * (n - 1) + [1.0]) - np.eye(n, k=1) - np.eye(n, k=-1)
        system = np.eye(n) + (step / dt) * lap
        system[-1, -1] += step * c - 1.0
        grad = np.random.default_rng(23).normal(size=(4, n, 1))
        expect = np.einsum("ij,qjd->qid", step * np.linalg.inv(system), grad)
        out = prox_x_operator(n, dt, step, c)(grad)
        np.testing.assert_allclose(out, expect, rtol=0, atol=1e-14)
        # with no kinetic coupling the last slice moves by grad / c
        lone = prox_x_operator(n, 1e300, step, c)(grad)
        np.testing.assert_allclose(lone[:, -1], grad[:, -1] / c, rtol=1e-15)
        np.testing.assert_allclose(lone[:, :-1], step * grad[:, :-1], rtol=1e-15)


def test_coupling_terms_build_no_basis_tensors():
    # paper-2d shapes: Q = 400 particles, N = 20 slices, 28 functions, d = 2
    ker = gaussian_spectral(GaussianKernelSpec(0.1, 0.75, dimension=2), 8)
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
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)
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
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 5)
        m = uniform_measure(6)
        x = stationary(m, 4)
        x[:, 1:, :] += rng.normal(scale=0.2, size=(6, 4, 1))
        p = moment_vector(x, m, ker.basis)
        a = ker.apply_k(p)
        assert fixed_point_residual(a, x, ker, m) == 0.0

    def test_flat_kernel_constant_coefficients(self):
        mu = 0.5
        ker = gaussian_spectral(GaussianKernelSpec(0.2, mu), 1)
        m = uniform_measure(6)
        x = stationary(m, 4)
        a = np.full((1, 4), mu)
        assert fixed_point_residual(a, x, ker, m) < 1e-15

    def test_zero_coefficients(self):
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)
        m = uniform_measure(5)
        x = stationary(m, 3)
        p = moment_vector(x, m, ker.basis)
        expect = float(np.max(np.abs(ker.apply_k(p))))
        assert fixed_point_residual(np.zeros((4, 3)), x, ker, m) == pytest.approx(
            expect
        )


class TestSolve:
    @staticmethod
    def _forced_problem(dimension):
        if dimension == 1:
            ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 6)
        else:
            ker = gaussian_spectral(GaussianKernelSpec(0.1, 0.75, dimension=2), 6)
        prob = make_problem(
            ker, U=lambda p: np.sum(np.cos(2 * np.pi * p), axis=1),
            gradU=lambda p: -2 * np.pi * np.sin(2 * np.pi * p), N=5,
        )
        m = discretize_measure(
            lambda p: 0.4 + np.sin(np.pi * p[:, 0]) ** 2, 5, dimension
        )
        return ker, prob, m

    def test_flat_kernel_constant_terminal(self):
        mu = 0.5
        ker = gaussian_spectral(GaussianKernelSpec(0.2, mu), 1)
        prob = make_problem(ker, U=lambda p: 1.0 + 0.0 * p[:, 0], N=5)
        m = uniform_measure(8)
        cfg = SolverConfig(lam=3.0, omega=1.0 / 12.0, max_iter=2000, tol=1e-12)
        res = solve(prob, m, cfg)
        assert res.converged
        np.testing.assert_allclose(res.a, mu, atol=1e-10)
        np.testing.assert_allclose(res.x, stationary(m, 5), atol=1e-12)

    def test_measure_dimension_mismatch_rejected(self):
        _, prob, _ = self._forced_problem(1)
        _, _, m2 = self._forced_problem(2)
        with pytest.raises(
            ValueError, match="^measure dimension does not match the problem$"
        ):
            solve(prob, m2, SolverConfig(lam=3.0, omega=0.5, max_iter=1))

    def test_zero_max_iter_returns_initial_state(self):
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 3)
        prob = make_problem(ker, N=4)
        m = uniform_measure(5)
        cfg = SolverConfig(lam=3.0, omega=1.0 / 12.0, max_iter=0)
        res = solve(prob, m, cfg)
        assert res.iterations == 0
        assert res.converged is False
        np.testing.assert_array_equal(res.a, np.zeros((3, 4)))
        np.testing.assert_array_equal(res.x, stationary(m, 4))

    def test_divergence_raises_with_diagnostics(self):
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)
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
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)
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
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 3)
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
        # one table call for all axes at the start, then one per iteration,
        # shared by the trajectory step, the moments and the diagnostics
        built = []
        real = basis_module._axis_tables

        def counting(*args, **kwargs):
            built.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(basis_module, "_axis_tables", counting)
        if dimension == 1:
            ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)
        else:
            ker = gaussian_spectral(GaussianKernelSpec(0.1, 0.75, dimension=2), 5)
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
        assert len(built) == k + 1

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_two_iterations_by_hand(self, theta, dimension):
        # the solve extrapolates moments, not trajectories
        ker, prob, m = self._forced_problem(dimension)
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

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_momentum_zero_matches_reference_loop(self, dimension):
        # the plain PDHG loop, written out: momentum 0 adds no operation
        ker, prob, m = self._forced_problem(dimension)
        lam, omega, theta, dt, k = 3.0, 0.5, 1.0, prob.dt, 40
        res = solve(prob, m, SolverConfig(
            lam=lam, omega=omega, theta=theta, max_iter=k, tol=0.0, momentum=0.0
        ))
        a = np.zeros((ker.size, 5))
        x = np.repeat(m.points[:, None, :], 6, axis=1)
        p = q = moment_vector(x, m, ker.basis)
        for _ in range(k):
            a = step_a(a, q, ker, dt, lam)
            x = step_x(x, a, prob, m, omega)
            p_new = moment_vector(x, m, ker.basis)
            p, q = p_new, step_z(p_new, p, theta)
        np.testing.assert_array_equal(res.a, a)
        np.testing.assert_array_equal(res.x, x)

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_momentum_matches_heavy_ball_loop(self, dimension):
        # each step adds 0.9 times the last realized step while the plain
        # step points along it; x_step is the larger of the two steps
        ker, prob, m = self._forced_problem(dimension)
        # at omega = 0.5 plain steps of these 5 particles alternate in sign
        lam, omega, dt, k = 3.0, 0.2, prob.dt, 60
        res = solve(prob, m, SolverConfig(
            lam=lam, omega=omega, max_iter=k, tol=0.0, momentum=0.9, record_every=1
        ))
        a = np.zeros((ker.size, 5))
        x = np.repeat(m.points[:, None, :], 6, axis=1)
        p = q = moment_vector(x, m, ker.basis)
        velocity = np.zeros_like(x[:, 1:])
        taken, x_steps = [], []
        for _ in range(k):
            a = step_a(a, q, ker, dt, lam)
            x_new = step_x(x, a, prob, m, omega)
            plain = x_new[:, 1:] - x[:, 1:]
            realized = plain
            if float(np.sum(plain * velocity)) > 0.0:
                realized = 0.9 * velocity + plain
                x_new[:, 1:] += 0.9 * velocity
            taken.append(realized is not plain)
            x_steps.append(max(np.linalg.norm(plain, axis=2).max(),
                               np.linalg.norm(realized, axis=2).max()))
            velocity, x = realized, x_new
            p_new = moment_vector(x, m, ker.basis)
            p, q = p_new, step_z(p_new, p, 1.0)
        assert any(taken) and not all(taken[1:])  # both branches ran
        np.testing.assert_array_equal(res.a, a)
        np.testing.assert_array_equal(res.x, x)
        np.testing.assert_allclose(
            [r["x_step"] for r in res.diagnostics], x_steps, rtol=1e-9
        )

    def test_momentum_stop_bounds_plain_and_realized_steps(self):
        # the converged solve's last step: realized from the (k-1)-iteration
        # run, plain from one more written-out step of that run
        ker, prob, m = self._forced_problem(1)
        lam, omega, theta, tol = 3.0, 0.1, 1.0, 1e-7
        cfg = SolverConfig(lam=lam, omega=omega, theta=theta, tol=tol, momentum=0.9)
        res = solve(prob, m, cfg)
        assert res.converged and res.iterations > 2
        before = [
            solve(prob, m, dataclasses.replace(cfg, max_iter=res.iterations - i))
            for i in (1, 2)
        ]
        p1, p2 = (moment_vector(r.x, m, ker.basis) for r in before)
        a = step_a(before[0].a, p1 + theta * (p1 - p2), ker, prob.dt, lam)
        plain = step_x(before[0].x, a, prob, m, omega) - before[0].x
        realized = res.x - before[0].x
        assert res.diagnostics[-1]["x_step"] <= tol
        for step in (plain, realized):
            assert np.linalg.norm(step, axis=2).max() <= tol * (1 + 1e-6)
        assert np.max(np.abs(realized - plain)) > 0.0  # the heavy ball went on

    def test_momentum_keeps_unforced_stationary_paths(self):
        # flat kernel, no terminal cost: the heavy ball never moves
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 1)
        prob = make_problem(ker, N=5)
        m = uniform_measure(8)
        cfg = SolverConfig(lam=3.0, omega=0.5, max_iter=50, tol=0.0, momentum=0.9)
        res = solve(prob, m, cfg)
        np.testing.assert_array_equal(res.x, stationary(m, 5))
        assert all(r["x_step"] == 0.0 for r in res.diagnostics)

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_slice_major_inside_c_order_result(self, monkeypatch, dimension):
        # every step_x of the solve sees (d, N+1, Q) memory; the result is
        # one C-contiguous copy with slice 0 pinned to the grid
        layouts = []
        real = pdhg.step_x

        def recording(x, *args, **kwargs):
            layouts.append(x.transpose(2, 1, 0).flags.c_contiguous)
            out = real(x, *args, **kwargs)
            layouts.append(out.transpose(2, 1, 0).flags.c_contiguous)
            return out

        monkeypatch.setattr(pdhg, "step_x", recording)
        if dimension == 1:
            ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)
        else:
            ker = gaussian_spectral(GaussianKernelSpec(0.1, 0.75, dimension=2), 5)
        prob = make_problem(
            ker, U=lambda p: np.sum(np.cos(2 * np.pi * p), axis=1),
            gradU=lambda p: -2 * np.pi * np.sin(2 * np.pi * p), N=4,
        )
        m = discretize_measure(
            lambda p: 0.4 + np.sin(np.pi * p[:, 0]) ** 2, 5, dimension
        )
        res = solve(prob, m, SolverConfig(lam=3.0, omega=0.5, max_iter=5, tol=0.0))
        assert layouts == [True] * 10
        assert res.x.flags.c_contiguous
        assert res.x.shape == (m.count, 5, dimension)
        np.testing.assert_array_equal(res.x[:, 0, :], m.points)

    def test_pinning_and_finiteness_on_generic_run(self):
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)
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
        ker = gaussian_spectral(GaussianKernelSpec(0.2, mu), 1)
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

    @staticmethod
    def _curved_flat_problem(curvature):
        # the flat-kernel set-up above, whose U = 1 + sin(4 pi x + pi / 2)
        # has a gradient of Lipschitz constant (4 pi)^2
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 1)
        return MFGProblem(
            kernel=ker,
            initial_density=lambda p: np.ones(p.shape[0]),
            terminal_cost=lambda p: 1.0 + np.sin(4 * np.pi * p[:, 0] + np.pi / 2),
            terminal_grad=lambda p: (
                4 * np.pi * np.cos(4 * np.pi * p[:, 0] + np.pi / 2)
            )[:, None],
            num_steps=8,
            terminal_curvature=curvature,
        )

    def test_curvature_cap_converges_where_the_plain_step_cycles(self):
        # at omega 0.5 the explicit terminal step omega / Q = 1 / 24 is far
        # above 1 / (4 pi)^2: without the cap the solve cycles, with it the
        # paths converge to straight lines
        m = uniform_measure(12)
        tol = 1e-9
        cfg = SolverConfig(lam=3.0, omega=0.5, max_iter=2000, tol=tol)
        res = solve(self._curved_flat_problem(16 * np.pi**2), m, cfg)
        assert res.converged and res.iterations < 400
        np.testing.assert_allclose(res.a, 0.5, atol=1e-9)
        s = np.linspace(0.0, 1.0, 9)
        chord = (1 - s)[None, :, None] * res.x[:, :1] + s[None, :, None] * res.x[:, -1:]
        assert np.max(np.abs(res.x - chord)) < 200 * tol
        plain = solve(self._curved_flat_problem(0.0), m, cfg)
        assert not plain.converged and plain.iterations == 2000

    def test_curvature_below_q_over_omega_keeps_the_bits(self):
        # c <= Q / omega leaves the step as it was, bit for bit
        m = uniform_measure(12)
        cfg = SolverConfig(lam=3.0, omega=0.5, max_iter=50, tol=0.0, momentum=0.5)
        plain = solve(self._curved_flat_problem(0.0), m, cfg)
        for c in (1.0, 12.0, 24.0):
            res = solve(self._curved_flat_problem(c), m, cfg)
            np.testing.assert_array_equal(res.x, plain.x)
            np.testing.assert_array_equal(res.a, plain.a)
        capped = solve(self._curved_flat_problem(25.0), m, cfg)
        assert not np.array_equal(capped.x, plain.x)

    def test_deterministic_repeat(self):
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)
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
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 3)
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
        with pytest.raises(ValueError, match="^max_iter must be nonnegative, got -1$"):
            SolverConfig(lam=1.0, omega=0.1, max_iter=-1)

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

    @pytest.mark.parametrize("field", ["lam", "omega", "theta", "tol"])
    @pytest.mark.parametrize("value", [True, False, "0.5", None, 1j])
    def test_non_real_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{"lam": 1.0, "omega": 0.1, field: value})

    def test_numpy_and_integer_reals_allowed(self):
        cfg = SolverConfig(
            lam=np.float64(2.0), omega=1, theta=np.float32(0.5), tol=np.int64(0)
        )
        assert (cfg.lam, cfg.omega, cfg.theta, cfg.tol) == (2.0, 1, 0.5, 0)

    @pytest.mark.parametrize("field", ["lam", "omega", "theta", "tol"])
    def test_integers_beyond_float_range_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} is too large for a float"):
            SolverConfig(**{"lam": 1.0, "omega": 0.1, field: 10**400})

    def test_real_fields_stored_as_floats(self):
        cfg = SolverConfig(lam=3, omega=np.float32(0.5), theta=1, tol=np.int64(0))
        assert {type(v) for v in (cfg.lam, cfg.omega, cfg.theta, cfg.tol)} == {float}

    def test_numpy_integer_counts_allowed(self):
        cfg = SolverConfig(
            lam=1.0, omega=0.1, max_iter=np.int64(7), record_every=np.int32(2)
        )
        assert (cfg.max_iter, cfg.record_every) == (7, 2)

    @pytest.mark.parametrize(
        "value", [1.0, -0.1, math.nan, math.inf, True, "0.9"]
    )
    def test_bad_momentum_rejected(self, value):
        with pytest.raises(ValueError, match="^momentum "):
            SolverConfig(lam=1.0, omega=0.1, momentum=value)

    def test_momentum_defaults_to_zero(self):
        assert SolverConfig(lam=1.0, omega=0.1).momentum == 0.0
        cfg = SolverConfig(lam=1.0, omega=0.1, momentum=np.float32(0.5))
        assert type(cfg.momentum) is float and cfg.momentum == 0.5

    def test_zero_tol_allowed_infinite_rejected(self):
        # +inf would stop before the first step and call that converged
        assert SolverConfig(lam=1.0, omega=0.1, tol=0.0).tol == 0.0
        with pytest.raises(
            ValueError, match="^tol must be nonnegative and finite, got inf$"
        ):
            SolverConfig(lam=1.0, omega=0.1, tol=math.inf)
