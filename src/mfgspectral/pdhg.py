"""Primal-dual hybrid gradient iteration on the discrete saddle problem.

One iteration performs three steps: an exact proximal solve for the
coefficient paths (independent across time slices, so the shifted inverse is
computed once and reused), one preconditioned proximal step for the particle
trajectories, and linear extrapolation of the trajectories' basis moments.
The trajectory step gives particle alpha the step tau_alpha = omega / (Q
c_alpha) (diagonal preconditioning), takes the kinetic term implicitly and
the coupling and terminal terms at the incoming iterate; since tau_alpha
c_alpha = omega / Q for every particle, all particles and axes share one
N x N kinetic inverse, also computed once per solve.

The trajectories enter the coefficient step only through their moments
p(x), on which the coupling a . p is linear, so the extrapolation
q = p(x_new) + theta (p(x_new) - p(x)) is taken on the moments (for a
linear p it equals the moments of the extrapolated trajectories). Then
every basis contraction of an iteration reads one set of per-axis tables
(:class:`~mfgspectral.basis.SliceTables`) at the current trajectories,
rebuilt in place once per iteration: the coupling gradient of the
trajectory step, the moments p(x_new) for the next coefficient step, and
the recorded diagnostics. No table of every basis function at every
particle position is ever formed. Stopping is on step-norm stagnation;
the fixed-point residual is tracked as a diagnostic because the coupling
is not bilinear and carries no convergence guarantee.

All reductions use a fixed summation order, so repeated runs are
bit-reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisSet,
    SliceTables,
    grad_all,  # noqa: F401  (traced in this namespace by bench/layers.py)
    lipschitz_bounds,
)
from .kernel import SpectralKernel
from .problem import (
    DiscreteMeasure,
    DivergenceError,
    MFGProblem,
    _saddle_value,
    action_gradient,
    moment_vector,
    saddle_value,  # noqa: F401  (traced in this namespace by bench/layers.py)
)

DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class SolverConfig:
    """Step sizes and stopping policy for the saddle-point iteration."""

    lam: float  # proximal step for the coefficient paths
    omega: float  # trajectory step of a particle of average weight 1/Q
    theta: float = 1.0  # moment extrapolation weight in [0, 1]
    max_iter: int = 20000
    tol: float = 1e-8
    record_every: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        for name in ("max_iter", "record_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")
        if not self.tol >= 0.0:  # also rejects NaN; +inf stops at once
            raise ValueError(f"tol must be nonnegative, got {self.tol}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be positive, got {self.record_every}")


@dataclass
class SolverResult:
    """Final iterates of :func:`solve` and its list of record dicts."""

    a: np.ndarray
    x: np.ndarray
    iterations: int
    converged: bool
    diagnostics: list[dict]


def step_size_bound(
    measure: DiscreteMeasure, basis: BasisSet, dt: float
) -> float:
    """Squared bound of the preconditioned coupling map, dt^2 * sum Lip^2 / Q.

    The coupling operator's bound dt^2 * sum Lip^2 * sum_alpha c_alpha^2
    tau_alpha / omega, with the trajectory steps tau_alpha = omega / (Q
    c_alpha) and weights summing to 1, is dt^2 * sum Lip^2 / Q.
    """
    lips = lipschitz_bounds(basis)
    return float(dt**2 * np.sum(lips**2) / measure.count)


def check_steps(config: SolverConfig, a_squared: float) -> bool:
    """True when omega * lam < 1 / A^2 (vacuously true for A^2 = 0).

    The product bound is a heuristic here (the coupling is not bilinear),
    so a violation is reported, never fatal.
    """
    if a_squared <= 0.0:
        return True
    return config.omega * config.lam < 1.0 / a_squared


def prox_a_operator(kernel: SpectralKernel, lam_dt: float):
    """Invert (lam_dt * J + Id) once; returns a columnwise applier."""
    if lam_dt < 0:
        raise ValueError(f"lam_dt must be nonnegative, got {lam_dt}")
    inverse = np.linalg.inv(lam_dt * kernel.j_mat + np.eye(kernel.size))

    def apply(rhs: np.ndarray) -> np.ndarray:
        return inverse @ rhs

    return apply


def step_a(
    a: np.ndarray,
    q: np.ndarray,
    kernel: SpectralKernel,
    dt: float,
    lam: float,
    prox=None,
) -> np.ndarray:
    """Exact proximal update of the coefficient paths, per time slice.

    Solves (lam*dt*J + Id) a_new = a + lam*dt*q columnwise, with q the
    (size, N) extrapolated basis moments of the trajectories (see
    :func:`step_z`).
    """
    if prox is None:
        prox = prox_a_operator(kernel, lam * dt)
    return prox(a + lam * dt * q)


def prox_x_operator(num_steps: int, dt: float, step: float):
    """Invert (Id + (step / dt) L) once; returns grad -> step * inverse @ grad.

    L is the N x N Laplacian of the kinetic term over slices 1..N, with
    slice 0 pinned and a free end at slice N. The applier takes (Q, N, d)
    arrays and multiplies every particle's path on every axis by the scaled
    inverse as one (N, N) x (N, Q d) matrix product.
    """
    lap = 2.0 * np.eye(num_steps) - np.eye(num_steps, k=1) - np.eye(num_steps, k=-1)
    lap[-1, -1] = 1.0
    inverse = step * np.linalg.inv(np.eye(num_steps) + (step / dt) * lap)

    def apply(grad: np.ndarray) -> np.ndarray:
        q, n, d = grad.shape
        columns = grad.transpose(1, 0, 2).reshape(n, q * d)
        return (inverse @ columns).reshape(n, q, d).transpose(1, 0, 2)

    return apply


def step_x(
    x: np.ndarray,
    a_new: np.ndarray,
    problem: MFGProblem,
    measure: DiscreteMeasure,
    omega: float,
    prox=None,
    tables=None,
) -> np.ndarray:
    """Preconditioned proximal step on the trajectory objective.

    Particle alpha takes the step tau_alpha = omega / (Q c_alpha), with the
    kinetic term implicit and the coupling and terminal terms evaluated at
    the incoming iterate, so that per unit weight the new paths satisfy

        (Q / omega) (x - x_new) = L x_new / dt + grad(coupling + terminal)(x),

    L x_new taking the pinned slice 0 as its left neighbor. It is computed
    as x - (omega / Q) P grad A(x), with grad A the unweighted action
    gradient (:func:`~mfgspectral.problem.action_gradient`, which reads the
    coupling from ``tables`` when given) and P = (Id + omega / (Q dt) L)^-1
    shared by all particles, so an unforced stationary path stays
    bit-exact; ``prox`` applies (omega / Q) P, as built by
    ``prox_x_operator(N, dt, omega / Q)`` when not given. Slice 0 stays
    pinned.
    """
    if prox is None:
        prox = prox_x_operator(problem.num_steps, problem.dt, omega / measure.count)
    x_new = x.copy()
    x_new[:, 1:, :] = x[:, 1:, :] - prox(action_gradient(x, a_new, problem, tables))
    return x_new


def step_z(new: np.ndarray, old: np.ndarray, theta: float) -> np.ndarray:
    """Extrapolate: new + theta * (new - old).

    The solve applies it to the basis moments, q = p(x_new) + theta *
    (p(x_new) - p(x_old)), each of shape (size, N).
    """
    if new.shape != old.shape:
        raise ValueError(
            "extrapolated arrays must have matching shapes, "
            f"got {new.shape} and {old.shape}"
        )
    return new + theta * (new - old)


def fixed_point_residual(
    a: np.ndarray,
    x: np.ndarray,
    kernel: SpectralKernel,
    measure: DiscreteMeasure,
) -> float:
    """Sup-norm of a - K p(x); vanishes at an equilibrium."""
    return _residual(a, moment_vector(x, measure, kernel.basis), kernel)


def _residual(a: np.ndarray, p: np.ndarray, kernel: SpectralKernel) -> float:
    # fixed_point_residual given the basis moments p of x
    return float(np.max(np.abs(a - kernel.apply_k(p))))


def solve(
    problem: MFGProblem,
    measure: DiscreteMeasure,
    config: SolverConfig,
    diagnostics_path=None,
) -> SolverResult:
    """Run the three-step iteration from the stationary initialization.

    Starts with zero coefficients and stationary trajectories, whose
    moments are the first extrapolated moments; stops when both step norms
    fall to the tolerance or at max_iter. The per-axis tables are built
    once per iteration, at the new trajectories, and shared by the next
    trajectory step, the moments and the diagnostics. Each recorded
    iteration is one dict (iteration, saddle_value, residual, a_step,
    x_step) in ``diagnostics``, also written as one JSON line to
    ``diagnostics_path`` when set. A non-finite or unbounded step raises
    :class:`~mfgspectral.problem.DivergenceError`, carrying the records
    so far, before it is committed to the iterates.
    """
    if measure.dimension != problem.dimension:
        raise ValueError("measure dimension does not match the problem")
    n = problem.num_steps
    size = problem.basis.size

    a = np.zeros((size, n))
    x = np.repeat(measure.points[:, None, :], n + 1, axis=1)
    iteration = 0
    tables = SliceTables(problem.basis, x[:, 1:])
    p = q = tables.moments(measure.weights)  # p(x0), also the first q
    records = []
    prox_a = prox_a_operator(problem.kernel, config.lam * problem.dt)
    prox_x = prox_x_operator(n, problem.dt, config.omega / measure.count)
    sink = open(diagnostics_path, "w") if diagnostics_path is not None else None

    last_step = math.inf
    try:
        while iteration < config.max_iter and last_step > config.tol:
            a_new = step_a(
                a, q, problem.kernel, problem.dt, config.lam, prox=prox_a
            )
            x_new = step_x(
                x, a_new, problem, measure, config.omega,
                prox=prox_x, tables=tables,
            )
            # checked before the tables see x_new; NaN and inf fail too
            if not (
                np.max(np.abs(a_new)) <= DIVERGENCE_LIMIT
                and np.max(np.abs(x_new)) <= DIVERGENCE_LIMIT
            ):
                raise DivergenceError(
                    f"solver diverged at iteration {iteration + 1}; "
                    "check the step-size bound",
                    diagnostics=records,
                    iteration=iteration + 1,
                )
            tables.rebuild(x_new[:, 1:])
            p_new = tables.moments(measure.weights)
            q = step_z(p_new, p, config.theta)

            a_step = float(np.max(np.abs(a_new - a)))
            moved = x_new - x
            x_step = float(
                np.sqrt(np.max(np.sum(moved**2, axis=2)))
            )  # max particle displacement
            a, x, p = a_new, x_new, p_new
            iteration += 1
            last_step = max(a_step, x_step)

            if (
                iteration % config.record_every == 0
                or last_step <= config.tol
                or iteration == config.max_iter
            ):
                record = {
                    "iteration": iteration,
                    "saddle_value": _saddle_value(a, x, p, problem, measure),
                    "residual": _residual(a, p, problem.kernel),
                    "a_step": a_step,
                    "x_step": x_step,
                }
                records.append(record)
                if sink is not None:
                    sink.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if sink is not None:
            sink.close()

    return SolverResult(
        a=a,
        x=x,
        iterations=iteration,
        converged=last_step <= config.tol,
        diagnostics=records,
    )
