"""Primal-dual hybrid gradient iteration on the discrete saddle problem.

One iteration performs three steps: an exact proximal solve for the
coefficient paths (independent across time slices, so the shifted inverse is
computed once and reused), one preconditioned proximal step for the particle
trajectories, and linear extrapolation of the trajectories' basis moments.
The trajectory step gives particle alpha the step tau_alpha = omega / (Q
c_alpha) (diagonal preconditioning), takes the kinetic term implicitly and
the coupling and terminal terms at the incoming iterate; since tau_alpha
c_alpha = omega / Q for every particle, all particles and axes share one
N x N kinetic inverse, also computed once per solve. A forward step on the
terminal cost U is stable only up to about 1 / Lip(grad U), so the last
slice, the only one U acts on, takes per unit weight the step min(omega /
Q, 1 / c), c the problem's ``terminal_curvature``: a majorize-minimize
step that keeps the fixed points and the shared inverse, and with c <=
Q / omega is the plain step bit for bit.

The trajectories enter the coefficient step only through their moments
p(x), on which the coupling a . p is linear, so the extrapolation
q = p(x_new) + theta (p(x_new) - p(x)) is taken on the moments (for a
linear p it equals the moments of the extrapolated trajectories). Then
every basis contraction of an iteration reads one table buffer of all
axes (:class:`~mfgspectral.basis.SliceTables`) at the current
trajectories, rebuilt in place by one table call per iteration: the
coupling gradient of the trajectory step, the moments p(x_new) for the
next coefficient step, and the recorded diagnostics. No table of every
basis function at every particle position is ever formed. Stopping is on
step-norm stagnation; the fixed-point residual is tracked as a diagnostic
because the coupling is not bilinear and carries no convergence
guarantee.

The solve keeps its trajectories slice-major: (d, N+1, Q) memory, used
through its (Q, N+1, d) transpose view, so every shape in the API is the
usual one. The table call reads the (d, N, Q) coordinates and the
shared kinetic solve reads (N, Q) rows of one coordinate, both of which
this layout holds contiguously; the returned trajectories are
C-contiguous again.

With ``momentum`` m > 0 the trajectory step is Polyak's heavy ball: the
plain step's paths gain m v, v = x_k - x_{k-1} the last realized step,
while the plain step points along v, <x_plain - x_k, v> > 0; otherwise
the iteration keeps the plain step, which restarts the velocity (gradient
restart, O'Donoghue and Candes 2015). A fixed point has v = 0, so
momentum changes the path to a fixed point but not the fixed points. The
recorded ``x_step``, which the stop test reads, is the larger particle
displacement of the plain and the realized step, so a converged solve
certifies what the plain iteration's does: neither step moved a particle
by more than the tolerance. The velocity holds slices 1..N only, in the
(d, N, Q) memory of the plain step, so their inner product reads both
contiguously. With m = 0 (the default) the two steps are one, no extra
operation runs and the iteration is the paper's PDHG.

:class:`SolverConfig` owns the iteration's defaults and range checks.

All reductions use a fixed summation order, so repeated runs are
bit-reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    SliceTables,
    _check_int,
    grad_all,  # noqa: F401  (traced in this namespace by bench/layers.py)
)
from .kernel import SpectralKernel, _as_real
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
    """Step sizes and stopping policy for the saddle-point iteration.

    Real fields are stored as floats; invalid values raise ValueError.
    """

    lam: float  # proximal step for the coefficient paths
    omega: float  # trajectory step of a particle of average weight 1/Q
    theta: float = 1.0  # moment extrapolation weight in [0, 1]
    max_iter: int = 20000
    tol: float = 1e-8
    record_every: int = 50
    momentum: float = 0.0  # heavy-ball weight of the trajectory step in [0, 1)

    def __post_init__(self):
        for name in ("lam", "omega", "theta", "tol", "momentum"):
            object.__setattr__(self, name, _as_real(name, getattr(self, name)))
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        for name in ("max_iter", "record_every"):
            _check_int(name, getattr(self, name))
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be nonnegative and finite, got {self.tol}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be positive, got {self.record_every}")


@dataclass
class SolverResult:
    """Final iterates of :func:`solve` and its list of record dicts.

    ``x`` is a C-contiguous (Q, N+1, d) array, copied once from the solve's
    slice-major trajectories.
    """

    a: np.ndarray
    x: np.ndarray
    iterations: int
    converged: bool
    diagnostics: list[dict]


def prox_a_operator(kernel: SpectralKernel, lam_dt: float):
    """Invert (lam_dt * J + Id) once; returns a columnwise applier.

    ``lam_dt`` must be nonnegative and finite.
    """
    if not (math.isfinite(lam_dt) and lam_dt >= 0):
        raise ValueError(f"lam_dt must be nonnegative and finite, got {lam_dt}")
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


def prox_x_operator(num_steps: int, dt: float, step: float, curvature: float = 0.0):
    """Invert (Id + (step / dt) L + D) once; returns grad -> step * inverse @ grad.

    L is the N x N Laplacian of the kinetic term over slices 1..N, with
    slice 0 pinned and a free end at slice N. D is zero but for its last
    entry, max(0, step * curvature - 1), so slice N, where a terminal cost
    whose gradient is ``curvature``-Lipschitz acts, takes the step
    min(step, 1 / curvature) and every other slice ``step``; with
    step * curvature <= 1 the matrix is Id + (step / dt) L exactly.
    ``step`` and ``curvature`` must be nonnegative and finite. The applier
    takes (Q, N, d) arrays and multiplies every particle's path on every
    axis by the scaled inverse, as d batched (N, N) x (N, Q) matrix
    products on (d, N, Q) memory; it returns the (Q, N, d) view of that
    memory. A slice-major gradient (see
    :func:`solve`) is read in place, and a C-order one is copied first, so
    both layouts give the same result bit for bit.
    """
    for name, value in (("step", step), ("curvature", curvature)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be nonnegative and finite, got {value}")
    lap = 2.0 * np.eye(num_steps) - np.eye(num_steps, k=1) - np.eye(num_steps, k=-1)
    lap[-1, -1] = 1.0
    system = np.eye(num_steps) + (step / dt) * lap
    system[-1, -1] += max(0.0, step * curvature - 1.0)
    inverse = step * np.linalg.inv(system)

    def apply(grad: np.ndarray) -> np.ndarray:
        columns = np.ascontiguousarray(grad.transpose(2, 1, 0))
        return np.matmul(inverse, columns).transpose(2, 1, 0)

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

        s_i (x - x_new) = L x_new / dt + grad(coupling + terminal)(x),

    L x_new taking the pinned slice 0 as its left neighbor, s_i = Q / omega
    on slices i < N and s_N = max(Q / omega, c) on the last, c the
    problem's ``terminal_curvature``: the explicit terminal step is held
    to 1 / c. It is computed as x - (omega / Q) P grad A(x), with grad A
    the unweighted action gradient
    (:func:`~mfgspectral.problem.action_gradient`, which reads the
    coupling from ``tables`` when given) and P = (Id + omega / (Q dt) L +
    D)^-1 shared by all particles, D the last-slice term of
    :func:`prox_x_operator`, so an unforced stationary path stays
    bit-exact; ``prox`` applies (omega / Q) P, as built by
    ``prox_x_operator(N, dt, omega / Q, c)`` when not given. Slice 0 stays
    pinned. The new paths keep the memory layout of ``x``: slice-major in,
    slice-major out (as in :func:`solve`), C order in, C order out; the
    values do not depend on the layout.
    """
    if prox is None:
        prox = prox_x_operator(
            problem.num_steps, problem.dt, omega / measure.count,
            problem.terminal_curvature,
        )
    x_new = np.empty_like(x)  # in the memory layout of x
    x_new[:, 0, :] = x[:, 0, :]
    move = prox(action_gradient(x, a_new, problem, tables))
    np.subtract(x[:, 1:, :], move, out=x_new[:, 1:, :])
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


def _max_displacement(step: np.ndarray) -> float:
    # the largest Euclidean length of one particle's step at one slice
    return float(np.sqrt(np.max(np.sum(step**2, axis=2))))


def solve(
    problem: MFGProblem,
    measure: DiscreteMeasure,
    config: SolverConfig,
    diagnostics_path=None,
) -> SolverResult:
    """Run the three-step iteration from the stationary initialization.

    Starts with zero coefficients and stationary trajectories, whose
    moments are the first extrapolated moments; stops when both step norms
    fall to the tolerance or at max_iter. The basis tables are built once
    per iteration, at the new trajectories, and shared by the next
    trajectory step, the moments and the diagnostics. Each recorded
    iteration is one dict (iteration, saddle_value, residual, a_step,
    x_step) in ``diagnostics``, also written as one JSON line to
    ``diagnostics_path`` when set. A non-finite or unbounded step raises
    :class:`~mfgspectral.problem.DivergenceError`, carrying the records
    so far, before it is committed to the iterates; with momentum the
    check reads the paths after the heavy-ball term. The iterates ``x``
    live in slice-major (d, N+1, Q) memory throughout (see the module
    docstring), and the result holds a C-contiguous copy.
    """
    if measure.dimension != problem.dimension:
        raise ValueError("measure dimension does not match the problem")
    n = problem.num_steps
    size = problem.basis.size

    a = np.zeros((size, n))
    x = np.repeat(measure.points.T[:, None, :], n + 1, axis=1).transpose(2, 1, 0)
    iteration = 0
    tables = SliceTables(problem.basis, x[:, 1:])
    p = q = tables.moments(measure.weights)  # p(x0), also the first q
    records = []
    prox_a = prox_a_operator(problem.kernel, config.lam * problem.dt)
    prox_x = prox_x_operator(
        n, problem.dt, config.omega / measure.count, problem.terminal_curvature
    )
    sink = open(diagnostics_path, "w") if diagnostics_path is not None else None

    velocity = np.zeros_like(x[:, 1:])  # the last realized step of slices 1..N
    last_step = math.inf
    try:
        while iteration < config.max_iter and last_step > config.tol:
            a_new = step_a(
                a, q, problem.kernel, problem.dt, config.lam, prox=prox_a
            )
            x_new = step_x(
                x, a_new, problem, measure, config.omega, prox=prox_x, tables=tables
            )
            moved = x_new[:, 1:] - x[:, 1:]  # the plain step; slice 0 never moves
            realized = moved
            # einsum walks both operands in memory order and, unlike BLAS dot,
            # starts no threads (waking them cost a paper-2d-a solve 12 ms on 2 CPUs)
            if config.momentum and np.einsum("qnd,qnd->", moved, velocity) > 0.0:
                realized = config.momentum * velocity
                x_new[:, 1:] += realized
                realized += moved
            # checked before the tables see x_new; NaN and inf fail too
            if not (
                np.max(np.abs(a_new)) <= DIVERGENCE_LIMIT
                and np.max(np.abs(x_new)) <= DIVERGENCE_LIMIT
            ):
                raise DivergenceError(
                    f"solver diverged at iteration {iteration + 1}; "
                    "try a smaller omega or lambda",
                    diagnostics=records,
                    iteration=iteration + 1,
                )
            a_step = float(np.max(np.abs(a_new - a)))
            x_step = _max_displacement(moved)
            if realized is not moved:  # the heavy ball went on
                x_step = max(x_step, _max_displacement(realized))
            velocity = realized
            tables.rebuild(x_new[:, 1:])
            p_new = tables.moments(measure.weights)
            q = step_z(p_new, p, config.theta)
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
        x=np.ascontiguousarray(x),
        iterations=iteration,
        converged=last_step <= config.tol,
        diagnostics=records,
    )
