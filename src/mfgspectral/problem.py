"""Problem instances: particle measures, the discrete saddle objective, and
the discrete action of every trajectory with its batched best response.

Trajectories live on the universal cover (unwrapped real coordinates, shape
(Q, N+1, d) with slice 0 pinned to the particle grid); basis and cost
evaluations are periodic, so no wrapping is ever needed inside the solver.
Coefficient paths are plain (size, N) arrays, size the kernel's basis
size (for a full family r in 1d and r(r-1)/2 in 2d, so 28 at r = 8),
whose column i approximates the coefficients at time (i+1)/N; index 0 is
unused because every quadrature in the discrete objective is right-point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import (
    BasisSet,
    SliceTables,
    _check_int,
    eval_all,
    grad_all,  # noqa: F401  (traced in this namespace by bench/layers.py)
)
from .kernel import SpectralKernel, _as_real


class DivergenceError(RuntimeError):
    """An iteration produced non-finite or unbounded state; ``diagnostics``
    holds the solve's record dicts so far, ``iteration`` the failing one."""

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
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(w))):
            raise ValueError("points and weights must be finite")
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
    with the first coordinate slowest (lexicographic). Either way the
    mirror image 1 - p of point i is point Q^d - 1 - i, the listing rule
    :func:`~mfgspectral.postprocess.symmetry_defect` pairs particles by.
    """
    _check_int("Q", Q)
    _check_int("dimension", dimension)
    if Q < 1:
        raise ValueError(f"Q must be positive, got {Q}")
    if dimension not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {dimension}")
    line = np.arange(1, Q + 1) / (Q + 1)
    grid = np.indices((Q,) * dimension).reshape(dimension, -1)  # (d, Q^d)
    pts = np.ascontiguousarray(line[grid].T)
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
    """A mean-field game instance with quadratic kinetic cost on [0, 1].

    ``terminal_curvature`` is an upper bound on the spectral norm of the
    Hessian of the terminal cost U, that is, a Lipschitz constant of
    ``terminal_grad``; 0 means none is known. The trajectory step takes U
    explicitly and shortens its last slice's step to at most 1 /
    ``terminal_curvature`` (see :func:`~mfgspectral.pdhg.prox_x_operator`).
    It is stored as a float and must be finite and nonnegative.
    ``num_steps`` must be a positive Python or numpy integer.
    ``initial_density`` is stored for the caller; nothing in the package
    reads it, since the particles come from :func:`discretize_measure`.
    """

    kernel: SpectralKernel
    initial_density: Callable  # (n, d) -> (n,)
    terminal_cost: Callable  # (n, d) -> (n,)
    terminal_grad: Callable  # (n, d) -> (n, d)
    num_steps: int
    terminal_curvature: float = 0.0

    def __post_init__(self):
        _check_int("num_steps", self.num_steps)
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be positive, got {self.num_steps}")
        curvature = _as_real("terminal_curvature", self.terminal_curvature)
        if not (math.isfinite(curvature) and curvature >= 0):
            raise ValueError(
                f"terminal_curvature must be nonnegative and finite, got {curvature}"
            )
        object.__setattr__(self, "terminal_curvature", curvature)

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
    slice by slice against per-axis tables
    (:meth:`~mfgspectral.basis.SliceTables.moments`).
    """
    return SliceTables(basis, x[:, 1:]).moments(measure.weights)


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


def action(x: np.ndarray, a: np.ndarray, problem: MFGProblem) -> np.ndarray:
    """Discrete action of each trajectory, kinetic + coupling + terminal: shape (Q,).

    ``x`` holds (Q, N+1, d) paths and ``a`` the (size, N) coefficient paths
    of the coupling field, read at the basis values of every point of slices
    1..N (:func:`~mfgspectral.basis.eval_all`).
    """
    q, n, d = x.shape[0], problem.num_steps, problem.dimension
    diffs = x[:, 1:] - x[:, :-1]
    kinetic = np.sum((diffs**2).reshape(q, -1), axis=1) / (2.0 * problem.dt)
    values = eval_all(problem.basis, x[:, 1:].reshape(-1, d)).reshape(q, n, -1)
    terms = (values * a.T).transpose(0, 2, 1)  # (Q, size, N)
    running = problem.dt * np.sum(terms.reshape(q, -1), axis=1)
    return kinetic + running + problem.terminal_cost(x[:, -1, :])


def action_gradient(
    x: np.ndarray, a: np.ndarray, problem: MFGProblem, tables=None
) -> np.ndarray:
    """Gradient of each trajectory's action in slices 1..N: shape (Q, N, d).

    The coupling term is the gradient of the field sum_k a[k, i] phi_k at
    each particle, read from ``tables``, the basis
    :class:`~mfgspectral.basis.SliceTables` at x[:, 1:] (built when not given).
    """
    dt = problem.dt
    inner = x[:, 1:, :]  # slices 1..N
    if tables is None:
        tables = SliceTables(problem.basis, inner)
    grad = inner - x[:, :-1, :]
    grad[:, :-1, :] += x[:, 1:-1, :] - x[:, 2:, :]
    grad /= dt
    grad += tables.field_gradient(dt * a)  # scaled as (size, N), not (Q, N, d)
    grad[:, -1, :] += problem.terminal_grad(x[:, -1, :])
    return grad


def best_response(a: np.ndarray, x0, problem: MFGProblem):
    """Each particle's best path and value against the coefficient paths ``a``.

    Monotone gradient descent on all Q actions at once, from the stationary
    paths at the (Q, d) starting points ``x0``. Each particle has its own
    trial step, first dt/4 (stable for the kinetic term) and halved
    whenever it would raise that particle's action, so each value is the
    action of a real path: an upper bound on the particle's discrete value,
    the same in a batch of any size, as :func:`action` and
    :func:`action_gradient` are (the trajectory step's kinetic solve,
    :func:`~mfgspectral.pdhg.prox_x_operator`, is not). A particle stops
    after 5000 accepted steps or once a step moves it less than 1e-10; each
    round evaluates only the particles still descending. Returns the
    (Q, N+1, d) paths and their (Q,) actions.
    """
    a = np.asarray(a, dtype=float)
    start = np.asarray(x0, dtype=float)
    if start.ndim != 2 or start.shape[1] != problem.dimension:
        raise ValueError(
            f"starting points must have shape (Q, {problem.dimension}), "
            f"got {start.shape}"
        )
    x = np.repeat(start[:, None, :], problem.num_steps + 1, axis=1)
    values = action(x, a, problem)
    grad = action_gradient(x, a, problem)
    step = np.full(len(start), problem.dt / 4.0)
    accepted = np.zeros(len(start), dtype=int)
    active = np.arange(len(start))
    while active.size:
        trial = x[active]
        trial[:, 1:] -= step[active, None, None] * grad[active]
        trial_values = action(trial, a, problem)
        if not np.all(np.isfinite(trial_values)):
            raise DivergenceError("trajectory descent produced non-finite values")
        take = (trial_values <= values[active]) | (step[active] < 1e-18)
        step[active[~take]] *= 0.5
        moved = active[take]
        x[moved], values[moved] = trial[take], trial_values[take]
        accepted[moved] += 1
        far = step[moved] * np.max(np.abs(grad[moved]), axis=(1, 2)) >= 1e-10
        going = moved[far & (accepted[moved] < 5000)]
        if going.size:
            grad[going] = action_gradient(x[going], a, problem)
        active = np.sort(np.concatenate([active[~take], going]))
    return x, values


def discrete_G(a: np.ndarray, problem: MFGProblem, measure: DiscreteMeasure) -> float:
    """Measure-weighted sum of the particles' best-response values.

    Each value is an upper bound on its particle's discrete value (see
    :func:`best_response`), so the sum is one too.
    """
    _, values = best_response(a, measure.points, problem)
    return float(np.dot(measure.weights, values))
