"""Problem instances: particle measures, the discrete saddle objective, and
per-trajectory value evaluation.

Trajectories live on the universal cover (unwrapped real coordinates, shape
(Q, N+1, d) with slice 0 pinned to the particle grid); basis and cost
evaluations are periodic, so no wrapping is ever needed inside the solver.
Coefficient paths are plain (r, N) arrays whose column i approximates the
coefficients at time (i+1)/N; index 0 is unused because every quadrature in
the discrete objective is right-point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import (
    BasisSet,
    eval_all,  # noqa: F401  (traced in this namespace by bench/layers.py)
    field_gradient,
    grad_all,  # noqa: F401  (traced in this namespace by bench/layers.py)
    moments,
)
from .kernel import SpectralKernel


class DivergenceError(RuntimeError):
    """An iteration produced non-finite or unbounded state."""

    def __init__(self, message, diagnostics=None, iteration=None):
        super().__init__(message)
        self.diagnostics = diagnostics
        self.iteration = iteration


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Weighted particle cloud representing the initial density."""

    points: np.ndarray  # (Q, d)
    weights: np.ndarray  # (Q,)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[1] not in (1, 2):
            raise ValueError(f"points must have shape (Q, d), got {pts.shape}")
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must match the number of points")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def discretize_measure(density: Callable, Q: int, dimension: int) -> DiscreteMeasure:
    """Sample a density on the interior grid alpha/(Q+1) and normalize.

    For dimension 2 the grid is the tensor square of the 1d grid, listed
    with the first coordinate slowest (lexicographic).
    """
    if Q < 1:
        raise ValueError(f"Q must be positive, got {Q}")
    if dimension not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {dimension}")
    line = np.arange(1, Q + 1) / (Q + 1)
    if dimension == 1:
        pts = line[:, None]
    else:
        a, b = np.meshgrid(line, line, indexing="ij")
        pts = np.column_stack([a.ravel(), b.ravel()])
    vals = np.asarray(density(pts), dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ValueError(
            f"density must return one value per grid point, got shape {vals.shape}"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError("density produced non-finite values on the grid")
    if np.any(vals < -1e-12):
        raise ValueError("density is negative on the grid")
    vals = np.maximum(vals, 0.0)
    total = vals.sum()
    if total <= 0.0:
        raise ValueError("density vanishes on the whole grid; measure is degenerate")
    return DiscreteMeasure(points=pts, weights=vals / total)


@dataclass(frozen=True, eq=False)
class MFGProblem:
    """A mean-field game instance with quadratic kinetic cost on [0, 1]."""

    kernel: SpectralKernel
    initial_density: Callable  # (n, d) -> (n,)
    terminal_cost: Callable  # (n, d) -> (n,)
    terminal_grad: Callable  # (n, d) -> (n, d)
    num_steps: int

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be positive, got {self.num_steps}")

    @property
    def basis(self) -> BasisSet:
        return self.kernel.basis

    @property
    def dimension(self) -> int:
        return self.kernel.basis.dimension

    @property
    def dt(self) -> float:
        return 1.0 / self.num_steps


def _check_trajectories(x: np.ndarray, measure: DiscreteMeasure, num_steps: int):
    if x.shape != (measure.count, num_steps + 1, measure.dimension):
        raise ValueError(
            f"trajectories must have shape ({measure.count}, {num_steps + 1}, "
            f"{measure.dimension}), got {x.shape}"
        )
    if not np.array_equal(x[:, 0, :], measure.points):
        raise ValueError("initial trajectory slice must equal the particle grid")


def moment_vector(
    x: np.ndarray, measure: DiscreteMeasure, basis: BasisSet
) -> np.ndarray:
    """Weighted basis moments of the moving particles: shape (size, N).

    Entry (k, i) is sum_alpha c_alpha phi_k(x_alpha at slice i+1), contracted
    slice by slice against per-axis tables (:func:`~mfgspectral.basis.moments`).
    """
    return moments(basis, x[:, 1:], measure.weights)


def saddle_value(
    a: np.ndarray, x: np.ndarray, problem: MFGProblem, measure: DiscreteMeasure
) -> float:
    """The inner expression of the discrete saddle problem.

    Quadratic inverse-kernel term minus kinetic energy, coupling and
    terminal cost; minimized over coefficient paths, maximized over
    trajectories.
    """
    a = np.asarray(a, dtype=float)
    basis = problem.basis
    if a.shape != (basis.size, problem.num_steps):
        raise ValueError(
            f"coefficient path must have shape ({basis.size}, "
            f"{problem.num_steps}), got {a.shape}"
        )
    _check_trajectories(x, measure, problem.num_steps)
    return _saddle_value(a, x, moment_vector(x, measure, basis), problem, measure)


def _saddle_value(a, x, p, problem: MFGProblem, measure: DiscreteMeasure) -> float:
    # saddle_value of checked inputs, given the basis moments p of x
    dt = problem.dt
    quad = 0.5 * dt * float(np.sum(a * problem.kernel.apply_j(a)))
    diffs = x[:, 1:, :] - x[:, :-1, :]
    kinetic = float(
        np.sum(measure.weights * np.sum(diffs**2, axis=(1, 2))) / (2.0 * dt)
    )
    coupling = dt * float(np.sum(a * p))
    terminal = float(np.dot(measure.weights, problem.terminal_cost(x[:, -1, :])))
    return quad - kinetic - coupling - terminal


def trajectory_action(path: np.ndarray, a: np.ndarray, problem: MFGProblem) -> float:
    """Discrete action of one trajectory: kinetic + coupling + terminal."""
    diffs = path[1:] - path[:-1]
    kinetic = float(np.sum(diffs**2)) / (2.0 * problem.dt)
    p = moments(problem.basis, path[None, 1:], [1.0])  # (size, N)
    running = problem.dt * float(np.sum(a * p))
    terminal = float(problem.terminal_cost(path[-1:, :])[0])
    return kinetic + running + terminal


def _action_gradient(path: np.ndarray, a: np.ndarray, problem: MFGProblem):
    dt = problem.dt
    n = problem.num_steps
    grad = np.zeros((n, problem.dimension))
    grad += (path[1:] - path[:-1]) / dt
    grad[:-1] -= (path[2:] - path[1:-1]) / dt
    grad += dt * field_gradient(problem.basis, path[None, 1:], a)[0]
    grad[-1] += problem.terminal_grad(path[-1:, :])[0]
    return grad


def discrete_value_at(
    x0,
    a: np.ndarray,
    problem: MFGProblem,
    step: float | None = None,
    max_steps: int = 5000,
    tol: float = 1e-10,
) -> float:
    """Approximate value of the discrete control problem started at x0.

    Monotone gradient descent on the single-trajectory action from the
    stationary path; the trial step (default dt/4, stable for the kinetic
    term) is halved whenever it would increase the action, which keeps the
    returned value a true upper bound on the discrete infimum.
    """
    a = np.asarray(a, dtype=float)
    start = np.atleast_1d(np.asarray(x0, dtype=float))
    if start.shape != (problem.dimension,):
        raise ValueError(
            f"starting point must have {problem.dimension} coordinate(s)"
        )
    if step is None:
        step = problem.dt / 4.0
    path = np.tile(start, (problem.num_steps + 1, 1))
    value = trajectory_action(path, a, problem)
    for _ in range(max_steps):
        grad = _action_gradient(path, a, problem)
        moved = 0.0
        while True:
            candidate = path.copy()
            candidate[1:] -= step * grad
            cand_value = trajectory_action(candidate, a, problem)
            if not np.isfinite(cand_value):
                raise DivergenceError(
                    "trajectory descent produced non-finite values"
                )
            if cand_value <= value or step < 1e-18:
                moved = step * float(np.max(np.abs(grad)))
                path, value = candidate, cand_value
                break
            step *= 0.5
        if moved < tol:
            break
    return value


def discrete_G(
    a: np.ndarray,
    problem: MFGProblem,
    measure: DiscreteMeasure,
    step: float | None = None,
    max_steps: int = 5000,
    tol: float = 1e-10,
) -> float:
    """Measure-weighted sum of per-particle discrete values."""
    values = [
        discrete_value_at(y, a, problem, step=step, max_steps=max_steps, tol=tol)
        for y in measure.points
    ]
    return float(np.dot(measure.weights, values))
