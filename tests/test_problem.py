import math
import re

import numpy as np
import pytest

from mfgspectral.cli import build_problem, load_config_source, validate_config
from mfgspectral.kernel import (
    GaussianKernelSpec,
    gaussian_spectral,
)
from mfgspectral.problem import (
    DiscreteMeasure,
    DivergenceError,
    MFGProblem,
    action,
    action_gradient,
    best_response,
    discrete_G,
    discretize_measure,
    moment_vector,
    saddle_value,
)

SQRT2 = math.sqrt(2.0)


def flat_kernel(mu=0.5):
    return gaussian_spectral(GaussianKernelSpec(sigma=0.2, mu=mu), 1)


def zero_fn(p):
    return np.zeros(p.shape[0])


def zero_grad(p):
    return np.zeros_like(p)


def make_problem(kernel, U=None, gradU=None, N=4):
    return MFGProblem(
        kernel=kernel,
        initial_density=lambda p: np.ones(p.shape[0]),
        terminal_cost=U or zero_fn,
        terminal_grad=gradU or zero_grad,
        num_steps=N,
    )


def stationary_trajectories(measure, N):
    return np.repeat(measure.points[:, None, :], N + 1, axis=1)


def value_at(x0, a, problem):
    """Best-response value of one particle started at the 1d point x0."""
    return best_response(a, [[x0]], problem)[1][0]


def descend_alone(x0, a, problem, max_steps=5000, tol=1e-10):
    """Reference loop: best_response's monotone descent for one particle."""
    path = np.repeat(np.asarray(x0, dtype=float)[None, None], problem.num_steps + 1, 1)
    value = action(path, a, problem)[0]
    step = problem.dt / 4.0
    for _ in range(max_steps):
        grad = action_gradient(path, a, problem)
        while True:
            candidate = path.copy()
            candidate[:, 1:] -= step * grad
            cand_value = action(candidate, a, problem)[0]
            if cand_value <= value or step < 1e-18:
                path, value = candidate, cand_value
                break
            step *= 0.5
        if step * np.max(np.abs(grad)) < tol:
            break
    return value


def paper_like_problem(dimension, N):
    """A crowd-averse instance with the paper's terminal costs, 1d or 2d."""
    if dimension == 1:
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 8)
        U = lambda p: 1.0 + np.sin(4 * np.pi * p[:, 0] + np.pi / 2)
        gradU = lambda p: (4 * np.pi * np.cos(4 * np.pi * p[:, 0] + np.pi / 2))[
            :, None
        ]
    else:
        ker = gaussian_spectral(GaussianKernelSpec(0.1, 0.75, dimension=2), 6)
        U = lambda p: 1.5 + 0.5 * (
            np.cos(6 * np.pi * p[:, 0]) + np.cos(2 * np.pi * p[:, 1])
        )
        gradU = lambda p: np.column_stack(
            [
                -3 * np.pi * np.sin(6 * np.pi * p[:, 0]),
                -np.pi * np.sin(2 * np.pi * p[:, 1]),
            ]
        )
    return MFGProblem(
        kernel=ker,
        initial_density=lambda p: np.ones(p.shape[0]),
        terminal_cost=U,
        terminal_grad=gradU,
        num_steps=N,
    )


class TestDiscretizeMeasure:
    @pytest.mark.parametrize(
        "Q, dimension, message",
        [
            (2.5, 1, "Q must be an integer, got 2.5"),
            (True, 1, "Q must be an integer, got True"),
            (3, True, "dimension must be an integer, got True"),
            (3, 2.0, "dimension must be an integer, got 2.0"),
        ],
        ids=["Q-float", "Q-bool", "dimension-bool", "dimension-float"],
    )
    def test_counts_must_be_integers(self, Q, dimension, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            discretize_measure(lambda p: np.ones(p.shape[0]), Q, dimension)

    def test_counts_accept_numpy_integers(self):
        m = discretize_measure(lambda p: np.ones(p.shape[0]), np.int64(3), np.int32(2))
        assert m.points.shape == (9, 2)

    def test_uniform_density(self):
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 4, 1)
        np.testing.assert_allclose(m.points[:, 0], [0.2, 0.4, 0.6, 0.8])
        np.testing.assert_allclose(m.weights, 0.25)

    def test_sin_squared_weights(self):
        m = discretize_measure(lambda p: np.sin(np.pi * p[:, 0]) ** 2, 3, 1)
        np.testing.assert_allclose(m.weights, [0.25, 0.5, 0.25], atol=1e-15)

    def test_reference_1d_density(self):
        m = discretize_measure(
            lambda p: 1.0 / 6.0 + 5.0 / 3.0 * np.sin(np.pi * p[:, 0]) ** 2, 50, 1
        )
        assert m.count == 50
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(m.weights > 0)

    def test_2d_grid_order(self):
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 3, 2)
        assert m.count == 9
        np.testing.assert_allclose(m.points[0], [0.25, 0.25])
        np.testing.assert_allclose(m.points[1], [0.25, 0.5])
        np.testing.assert_allclose(m.points[3], [0.5, 0.25])
        np.testing.assert_allclose(m.weights, 1.0 / 9.0)

    def test_degenerate_density_rejected(self):
        with pytest.raises(ValueError):
            discretize_measure(lambda p: np.zeros(p.shape[0]), 5, 1)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            discretize_measure(lambda p: -np.ones(p.shape[0]), 5, 1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            discretize_measure(lambda p: np.ones(p.shape[0]), 0, 1)
        with pytest.raises(ValueError):
            discretize_measure(lambda p: np.ones(p.shape[0]), 3, 3)

    def test_density_values_checked(self):
        message = r"^density must return one value per grid point, got shape \(3, 1\)$"
        with pytest.raises(ValueError, match=message):
            discretize_measure(lambda p: np.ones((p.shape[0], 1)), 3, 1)
        message = "^density produced non-finite values on the grid$"
        with pytest.raises(ValueError, match=message):
            discretize_measure(lambda p: np.full(p.shape[0], np.nan), 3, 1)


class TestMeasureInvariants:
    def test_shape_validation(self):
        message = r"^points must have shape \(Q, d\), got \(2, 3\)$"
        with pytest.raises(ValueError, match=message):
            DiscreteMeasure(points=np.zeros((2, 3)), weights=np.array([0.5, 0.5]))
        message = "^weights must match the number of points$"
        with pytest.raises(ValueError, match=message):
            DiscreteMeasure(points=np.array([[0.2], [0.8]]), weights=np.array([1.0]))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(points=np.array([[0.5]]), weights=np.array([0.8]))
        with pytest.raises(ValueError):
            DiscreteMeasure(
                points=np.array([[0.2], [0.8]]), weights=np.array([1.5, -0.5])
            )

    @pytest.mark.parametrize(
        "points, weights",
        [
            ([[0.1], [0.2]], [np.nan, 1.0]),
            ([[0.1], [np.nan]], [0.5, 0.5]),
            ([[0.1, np.inf], [0.2, 0.3]], [0.5, 0.5]),
        ],
        ids=["nan-weight", "nan-point", "inf-point"],
    )
    def test_non_finite_rejected(self, points, weights):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure(points=np.array(points), weights=np.array(weights))

    def test_weights_not_mutated(self):
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 4, 1)
        w = m.weights.copy()
        prob = make_problem(flat_kernel(), N=3)
        x = stationary_trajectories(m, 3)
        a = np.zeros((1, 3))
        saddle_value(a, x, prob, m)
        moment_vector(x, m, prob.basis)
        np.testing.assert_array_equal(m.weights, w)
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-14)


class TestSaddleValue:
    def test_stationary_zero_coefficients(self):
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 5, 1)
        U = lambda p: 1.0 + np.cos(2 * np.pi * p[:, 0])
        prob = make_problem(flat_kernel(), U=U, N=4)
        x = stationary_trajectories(m, 4)
        a = np.zeros((1, 4))
        expect = -float(np.dot(m.weights, U(m.points)))
        assert saddle_value(a, x, prob, m) == pytest.approx(expect, abs=1e-14)

    def test_constant_basis_formula(self):
        # r=1, a == c everywhere, stationary particles
        mu = 0.5
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 4, 1)
        U = lambda p: 0.3 + 0.0 * p[:, 0]
        prob = make_problem(flat_kernel(mu), U=U, N=5)
        c = 0.7
        a = np.full((1, 5), c)
        x = stationary_trajectories(m, 5)
        j11 = 1.0 / mu
        expect = j11 * c**2 / 2.0 - c - 0.3
        assert saddle_value(a, x, prob, m) == pytest.approx(expect, abs=1e-13)

    def test_single_particle_linear_trajectory(self):
        U = lambda p: np.sin(2 * np.pi * p[:, 0])
        m = DiscreteMeasure(points=np.array([[0.2]]), weights=np.array([1.0]))
        prob = make_problem(flat_kernel(), U=U, N=10)
        v = 0.35
        times = np.linspace(0.0, 1.0, 11)
        x = (0.2 + v * times)[None, :, None]
        a = np.zeros((1, 10))
        # telescoping kinetic sum gives v^2/2 exactly on the uniform grid
        expect = -(v**2) / 2.0 - float(U(np.array([[0.2 + v]]))[0])
        assert saddle_value(a, x, prob, m) == pytest.approx(expect, abs=1e-12)

    def test_quadratic_term_identity(self):
        # substituting a = K p turns the quadratic term into <p, K p>/2 * dt
        rng = np.random.default_rng(12)
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 6)
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 7, 1)
        prob = make_problem(ker, N=5)
        x = stationary_trajectories(m, 5) + 0.0
        x[:, 1:, :] += rng.normal(scale=0.1, size=(7, 5, 1))
        p = moment_vector(x, m, ker.basis)
        a = ker.apply_k(p)
        quad_direct = 0.5 * prob.dt * float(np.sum(a * ker.apply_j(a)))
        quad_identity = 0.5 * prob.dt * float(np.sum(p * ker.apply_k(p)))
        assert quad_direct == pytest.approx(quad_identity, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 4, 1)
        prob = make_problem(flat_kernel(), N=4)
        with pytest.raises(ValueError):
            saddle_value(np.zeros((1, 3)), stationary_trajectories(m, 4), prob, m)
        with pytest.raises(ValueError):
            saddle_value(np.zeros((1, 4)), stationary_trajectories(m, 3), prob, m)

    def test_start_off_the_grid_rejected(self):
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 4, 1)
        prob = make_problem(flat_kernel(), N=4)
        x = stationary_trajectories(m, 4)
        x[0, 0, 0] += 0.01
        message = "^initial trajectory slice must equal the particle grid$"
        with pytest.raises(ValueError, match=message):
            saddle_value(np.zeros((1, 4)), x, prob, m)

    def test_num_steps_must_be_positive(self):
        with pytest.raises(ValueError, match="^num_steps must be positive, got 0$"):
            make_problem(flat_kernel(), N=0)

    @pytest.mark.parametrize("value", [2.5, 4.0, True])
    def test_num_steps_must_be_an_integer(self, value):
        message = f"^num_steps must be an integer, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            make_problem(flat_kernel(), N=value)

    def test_num_steps_accepts_numpy_integers(self):
        assert make_problem(flat_kernel(), N=np.int64(4)).dt == 0.25


class TestTerminalCurvature:
    def curved(self, value):
        return MFGProblem(
            kernel=flat_kernel(),
            initial_density=lambda p: np.ones(p.shape[0]),
            terminal_cost=zero_fn,
            terminal_grad=zero_grad,
            num_steps=4,
            terminal_curvature=value,
        )

    def test_defaults_to_zero(self):
        assert make_problem(flat_kernel()).terminal_curvature == 0.0

    @pytest.mark.parametrize("value", [0, 3, np.int64(3), np.float32(2.5), 158.0])
    def test_stored_as_float(self, value):
        curvature = self.curved(value).terminal_curvature
        assert type(curvature) is float and curvature == float(value)

    @pytest.mark.parametrize(
        "value", [-1.0, -1e-300, math.nan, math.inf, -math.inf, True, False, "1",
                  None, 10**400],
    )
    def test_bad_values_rejected(self, value):
        with pytest.raises(ValueError, match="terminal_curvature"):
            self.curved(value)


class TestMomentVector:
    def test_constant_row_is_one(self):
        rng = np.random.default_rng(13)
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)
        m = discretize_measure(
            lambda p: 0.5 + np.sin(np.pi * p[:, 0]) ** 2, 6, 1
        )
        x = stationary_trajectories(m, 5)
        x[:, 1:, :] += rng.normal(scale=0.2, size=(6, 5, 1))
        p = moment_vector(x, m, ker.basis)
        np.testing.assert_allclose(p[0], 1.0, atol=1e-14)

    def test_stationary_constant_in_time(self):
        from mfgspectral.basis import eval_all

        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 5)
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 6, 1)
        x = stationary_trajectories(m, 4)
        p = moment_vector(x, m, ker.basis)
        expect = m.weights @ eval_all(ker.basis, m.points)
        for i in range(4):
            np.testing.assert_allclose(p[:, i], expect, atol=1e-14)

    def test_two_particle_value(self):
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 2)
        m = DiscreteMeasure(
            points=np.array([[0.1], [0.9]]), weights=np.array([0.5, 0.5])
        )
        x = stationary_trajectories(m, 1)
        x[0, 1, 0] = 0.0
        x[1, 1, 0] = 0.25
        p = moment_vector(x, m, ker.basis)
        # 0.5 * phi_2(0) + 0.5 * phi_2(0.25) = 0.5 * sqrt(2)
        assert p[1, 0] == pytest.approx(0.7071067811865476, abs=1e-14)

    def test_bounded_by_sqrt2(self):
        rng = np.random.default_rng(14)
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 8)
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 9, 1)
        x = stationary_trajectories(m, 6)
        x[:, 1:, :] += rng.normal(scale=3.0, size=(9, 6, 1))
        p = moment_vector(x, m, ker.basis)
        assert np.max(np.abs(p)) <= SQRT2 + 1e-12

    @pytest.mark.parametrize(
        "dimension, shape, expect",
        [
            (1, (5, 1, 1), (5, 2, 1)),
            (2, (9, 1, 2), (9, 2, 2)),
            (1, (4, 3, 1), (5, 3, 1)),
            (2, (8, 3, 2), (9, 3, 2)),
        ],
        ids=["one-slice-1d", "one-slice-2d", "particles-1d", "particles-2d"],
    )
    def test_trajectory_shape_checked(self, dimension, shape, expect):
        # one slice leaves no moving slice to take moments of, and the
        # particle count must be the measure's
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5, dimension=dimension), 3)
        m = discretize_measure(
            lambda p: np.ones(p.shape[0]), 5 if dimension == 1 else 3, dimension
        )
        message = f"trajectories must have shape {expect}, got {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            moment_vector(np.zeros(shape), m, ker.basis)


class TestDiscreteValue:
    def test_constant_terminal_cost(self):
        prob = make_problem(
            flat_kernel(), U=lambda p: 2.5 + 0.0 * p[:, 0], N=5
        )
        a = np.zeros((1, 5))
        assert value_at(0.3, a, prob) == pytest.approx(2.5, abs=1e-12)

    def test_start_at_terminal_minimum(self):
        U = lambda p: 1.0 + np.cos(4 * np.pi * p[:, 0])
        gradU = lambda p: (-4 * np.pi * np.sin(4 * np.pi * p[:, 0]))[:, None]
        prob = make_problem(flat_kernel(), U=U, gradU=gradU, N=5)
        a = np.zeros((1, 5))
        # x0 = 0.25 is a critical minimum of U; no motion is optimal
        assert value_at(0.25, a, prob) == pytest.approx(0.0, abs=1e-10)

    def test_constant_running_cost(self):
        mu = 0.8
        prob = make_problem(flat_kernel(mu), N=6)
        a = np.full((1, 6), mu)
        assert value_at(0.4, a, prob) == pytest.approx(mu, abs=1e-12)

    def test_translation_consistency(self):
        prob = make_problem(flat_kernel(), N=4)
        a = np.zeros((1, 4))
        for x0 in (0.0, 0.31, 0.77):
            assert value_at(x0, a, prob) == pytest.approx(0.0, abs=1e-12)

    def test_descent_actually_improves(self):
        U = lambda p: 1.0 + np.sin(4 * np.pi * p[:, 0] + np.pi / 2)
        gradU = lambda p: (4 * np.pi * np.cos(4 * np.pi * p[:, 0] + np.pi / 2))[
            :, None
        ]
        prob = make_problem(flat_kernel(), U=U, gradU=gradU, N=8)
        a = np.zeros((1, 8))
        x0 = 0.2
        value = value_at(x0, a, prob)
        stationary = float(U(np.array([[x0]]))[0])
        assert value < stationary


class TestDiscreteG:
    def test_constant_terminal(self):
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 5, 1)
        prob = make_problem(flat_kernel(), U=lambda p: 1.7 + 0.0 * p[:, 0], N=4)
        assert discrete_G(np.zeros((1, 4)), prob, m) == pytest.approx(1.7, abs=1e-12)

    def test_constant_running(self):
        mu = 0.5
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 5, 1)
        prob = make_problem(flat_kernel(mu), N=4)
        assert discrete_G(np.full((1, 4), mu), prob, m) == pytest.approx(
            mu, abs=1e-12
        )

    def test_concavity_spot_check(self):
        rng = np.random.default_rng(15)
        ker = gaussian_spectral(GaussianKernelSpec(0.3, 0.5), 4)
        U = lambda p: 0.5 + 0.3 * np.sin(2 * np.pi * p[:, 0])
        gradU = lambda p: (0.6 * np.pi * np.cos(2 * np.pi * p[:, 0]))[:, None]
        prob = MFGProblem(
            kernel=ker,
            initial_density=lambda p: np.ones(p.shape[0]),
            terminal_cost=U,
            terminal_grad=gradU,
            num_steps=5,
        )
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 4, 1)
        for _ in range(3):
            a = rng.normal(scale=0.3, size=(4, 5))
            b = rng.normal(scale=0.3, size=(4, 5))
            g_mid = discrete_G(0.5 * (a + b), prob, m)
            g_avg = 0.5 * discrete_G(a, prob, m) + 0.5 * discrete_G(b, prob, m)
            assert g_mid >= g_avg - 1e-5


def test_trajectory_action_manual():
    prob = make_problem(flat_kernel(), U=lambda p: 0.1 + 0.0 * p[:, 0], N=2)
    path = np.array([[0.0], [0.1], [0.3]])
    a = np.zeros((1, 2))
    # dt = 1/2: kinetic = (0.01 + 0.04) / (2 * 0.5) = 0.05
    assert action(path[None], a, prob)[0] == pytest.approx(0.05 + 0.1, abs=1e-14)


class TestAction:
    def test_saddle_value_is_quadratic_term_minus_weighted_actions(self):
        rng = np.random.default_rng(16)
        prob = paper_like_problem(2, N=4)
        m = discretize_measure(lambda p: 1.0 + 0.5 * np.cos(2 * np.pi * p[:, 0]), 3, 2)
        x = stationary_trajectories(m, 4)
        x[:, 1:, :] += rng.normal(scale=0.2, size=(9, 4, 2))
        a = rng.normal(scale=0.5, size=(prob.basis.size, 4))
        quad = 0.5 * prob.dt * float(np.sum(a * prob.kernel.apply_j(a)))
        expect = quad - float(np.dot(m.weights, action(x, a, prob)))
        assert saddle_value(a, x, prob, m) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_gradient_matches_finite_differences(self, dimension):
        rng = np.random.default_rng(17)
        prob = paper_like_problem(dimension, N=3)
        x = np.repeat(rng.uniform(0, 1, size=(2, 1, dimension)), 4, axis=1)
        x[:, 1:, :] += rng.normal(scale=0.1, size=(2, 3, dimension))
        a = rng.normal(scale=0.5, size=(prob.basis.size, 3))
        grad = action_gradient(x, a, prob)
        h = 1e-6
        for i in range(3):
            for e in range(dimension):
                shift = np.zeros_like(x)
                shift[:, i + 1, e] = h
                fd = (action(x + shift, a, prob) - action(x - shift, a, prob)) / (2 * h)
                np.testing.assert_allclose(grad[:, i, e], fd, rtol=1e-6, atol=1e-6)


    def test_lone_particle_gradient_equals_its_batch_row(self):
        # bit for bit on the paper-2d-a measure (Q = 400): a particle's action
        # gradient does not depend on which particles share its batch
        prob, m = build_problem(validate_config(load_config_source("paper-2d-a")))
        rng = np.random.default_rng(24)
        n, d = prob.num_steps, prob.dimension
        x = stationary_trajectories(m, n)
        x[:, 1:, :] += rng.normal(scale=0.1, size=(m.count, n, d))
        a = rng.normal(scale=0.5, size=(prob.basis.size, n))
        batch = action_gradient(x, a, prob)
        for alpha in rng.choice(m.count, size=20, replace=False):
            np.testing.assert_array_equal(
                action_gradient(x[alpha : alpha + 1], a, prob)[0], batch[alpha]
            )


class TestBestResponse:
    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_each_particle_matches_its_lone_solve(self, dimension):
        # bit for bit: no step size or stop flag leaks between particles
        rng = np.random.default_rng(18)
        prob = paper_like_problem(dimension, N=6)
        starts = rng.uniform(0, 1, size=(7, dimension))
        a = rng.normal(scale=0.5, size=(prob.basis.size, 6))
        x, values = best_response(a, starts, prob)
        for alpha, start in enumerate(starts):
            x_alone, value_alone = best_response(a, start[None], prob)
            assert values[alpha] == value_alone[0]
            np.testing.assert_array_equal(x[alpha], x_alone[0])

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_matches_the_reference_loop(self, dimension):
        # the loop contracts one particle in another summation order
        rng = np.random.default_rng(20)
        prob = paper_like_problem(dimension, N=5)
        starts = rng.uniform(0, 1, size=(4, dimension))
        a = rng.normal(scale=0.5, size=(prob.basis.size, 5))
        _, values = best_response(a, starts, prob)
        for alpha, start in enumerate(starts):
            assert values[alpha] == pytest.approx(
                descend_alone(start, a, prob), rel=1e-12, abs=1e-14
            )

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_values_are_actions_no_worse_than_the_start(self, dimension):
        rng = np.random.default_rng(19)
        prob = paper_like_problem(dimension, N=5)
        starts = rng.uniform(0, 1, size=(6, dimension))
        a = rng.normal(scale=0.5, size=(prob.basis.size, 5))
        x, values = best_response(a, starts, prob)
        stationary = np.repeat(starts[:, None, :], 6, axis=1)
        assert np.all(values <= action(stationary, a, prob))
        assert np.all(values < action(stationary, a, prob) - 1e-6)  # all moved
        np.testing.assert_array_equal(x[:, 0, :], starts)
        np.testing.assert_array_equal(values, action(x, a, prob))

    def test_free_particles_reach_the_straight_line_optimum(self):
        # with a = 0 the best path runs straight to some y, and its action
        # is (y - x0)^2 / 2 + U(y) exactly on the uniform grid
        U = lambda p: 1.0 + np.sin(4 * np.pi * p[:, 0] + np.pi / 2)
        gradU = lambda p: (4 * np.pi * np.cos(4 * np.pi * p[:, 0] + np.pi / 2))[
            :, None
        ]
        prob = make_problem(flat_kernel(), U=U, gradU=gradU, N=8)
        starts = np.array([[0.2], [0.4], [0.65]])
        x, values = best_response(np.zeros((1, 8)), starts, prob)
        for x0, value, path in zip(starts[:, 0], values, x[:, :, 0]):
            y = np.linspace(x0 - 0.5, x0 + 0.5, 2000001)
            best = np.min((y - x0) ** 2 / 2 + U(y[:, None]))
            assert value == pytest.approx(best, abs=1e-9)
            assert np.max(np.abs(np.diff(path, 2))) < 1e-6

    def test_non_finite_action_raises(self):
        U = lambda p: np.where(p[:, 0] == 0.3, 0.0, np.inf)
        gradU = lambda p: np.ones_like(p)
        prob = make_problem(flat_kernel(), U=U, gradU=gradU, N=3)
        with pytest.raises(DivergenceError, match="non-finite"):
            best_response(np.zeros((1, 3)), [[0.3]], prob)

    def test_start_shape_checked(self):
        prob = make_problem(flat_kernel(), N=3)
        with pytest.raises(ValueError, match="starting points"):
            best_response(np.zeros((1, 3)), [0.3], prob)
        with pytest.raises(ValueError, match="starting points"):
            best_response(np.zeros((1, 3)), [[0.3, 0.4]], prob)

    @pytest.mark.parametrize(
        "a_shape", [(3, 2), (4, 3), (4,)], ids=["size", "slices", "flat"]
    )
    def test_coefficient_shape_checked(self, a_shape):
        prob = make_problem(gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4), N=2)
        message = f"coefficient path must have shape (4, 2), got {a_shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            best_response(np.zeros(a_shape), [[0.3], [0.6]], prob)
