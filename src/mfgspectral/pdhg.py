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

Trajectories are slice-major: (d, N+1, Q) memory, used through its
(Q, N+1, d) transpose view, so every shape in the API is the usual one.
The table call reads the (d, N, Q) coordinates and the shared kinetic
solve, d batched (N, N) x (N, Q) products, reads and writes (N, Q) rows
of one coordinate, all of which this layout holds contiguously. The
paths of :func:`step_x` and the trajectories of :class:`SolverResult`
are such views; ``np.ascontiguousarray`` gives C order. :func:`step_x`
gives the same paths, bit for bit, for ``x`` of either layout.

Each solve makes one workspace before its first step, and the loop
writes every per-iteration array of the trajectories into it: two
trajectory buffers used in turn, whose slice 0 is written once
(:func:`step_x` writes slices 1..N of the new paths into the one passed
as ``out``); the plain step and the velocity; and scratch for the step
norms. The step norms and the divergence check reduce with ufunc
``reduce`` calls and make no temporaries. The
:class:`~mfgspectral.basis.SliceTables` keep their own buffers. Each
iteration still allocates the trajectory gradient
(:func:`~mfgspectral.problem.action_gradient` makes its kinetic
differences, coupling gradient and terminal term as new arrays), the
small (size, N) arrays of the coefficient step, the moments and the
extrapolation, and what the records hold.

With ``momentum`` m > 0 the trajectory step is Polyak's heavy ball: the
plain step's paths gain m v, v = x_k - x_{k-1} the last realized step,
while the plain step points along v, <x_plain - x_k, v> > 0; otherwise
the iteration keeps the plain step, which restarts the velocity (gradient
restart, O'Donoghue and Candes 2015). A fixed point has v = 0, so
momentum changes the path to a fixed point but not the fixed points. The
recorded ``x_step``, which the stop test reads, is the larger particle
displacement of the plain and the realized step, so a converged solve
certifies what the plain iteration's does: neither step moved a particle
by more than the tolerance. It is computed only where something reads
it: at a record, or when ``a_step`` is within the tolerance, since
otherwise the stop test cannot pass. The velocity holds slices 1..N
only, in the (d, N, Q) memory of the plain step, so their inner product
reads both contiguously. When the heavy ball goes on, the velocity turns
into the realized step in place; otherwise the plain step's buffer
becomes the velocity. With m = 0 (the default) the two steps are one, no
extra operation runs and the iteration is the paper's PDHG.

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
    _as_real,
    _check_int,
    _check_real,
    _check_shape,
    grad_all,  # noqa: F401  (traced in this namespace by bench/layers.py)
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

_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(r, sort_keys=True)

# whole-array reductions without fromnumeric's wrappers (np.max, np.min)
_amax, _amin = np.maximum.reduce, np.minimum.reduce


@dataclass(frozen=True)
class SolverConfig:
    """Step sizes and stopping policy for the saddle-point iteration.

    Reals are stored as floats and counts as ints; bad values raise ValueError.
    """

    lam: float  # proximal step for the coefficient paths
    omega: float  # trajectory step of a particle of average weight 1/Q
    theta: float = 1.0  # moment extrapolation weight in [0, 1]
    max_iter: int = 20000
    tol: float = 1e-8
    record_every: int = 50
    momentum: float = 0.0  # heavy-ball weight of the trajectory step in [0, 1)

    def __post_init__(self):
        for name, value in (
            ("lam", _check_real("lam", self.lam, positive=True)),
            ("omega", _check_real("omega", self.omega, positive=True)),
            ("theta", _as_real("theta", self.theta)),
            ("max_iter", _check_int("max_iter", self.max_iter, minimum=0)),
            ("tol", _check_real("tol", self.tol)),
            ("record_every", _check_int("record_every", self.record_every, minimum=1)),
            ("momentum", _as_real("momentum", self.momentum)),
        ):
            object.__setattr__(self, name, value)
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


@dataclass
class SolverResult:
    """Final iterates of :func:`solve` and its list of record dicts.

    ``x`` is the (Q, N+1, d) view of the solve's slice-major trajectories.
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
    lam_dt = _check_real("lam_dt", lam_dt)
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
    :func:`step_z`). ``a`` must have shape (size, N), size the kernel's,
    and ``q`` the shape of ``a``, or ValueError is raised.
    """
    a, q = np.asarray(a, dtype=float), np.asarray(q, dtype=float)
    _check_shape("coefficient path", a, (kernel.size, a.shape[1] if a.ndim > 1 else 1))
    _check_shape("q", q, a.shape)
    if prox is None:
        prox = prox_a_operator(kernel, lam * dt)
    return prox(a + lam * dt * q)


def prox_x_operator(num_steps: int, dt: float, step: float, curvature: float = 0.0):
    """The (N, N) matrix step * (Id + (step / dt) L + D)^-1.

    L is the N x N Laplacian of the kinetic term over slices 1..N, with
    slice 0 pinned and a free end at slice N. D is zero but for its last
    entry, max(0, step * curvature - 1), so slice N, where a terminal cost
    whose gradient is ``curvature``-Lipschitz acts, takes the step
    min(step, 1 / curvature) and every other slice ``step``; with
    step * curvature <= 1 the matrix is Id + (step / dt) L exactly.
    ``num_steps`` must be a positive integer, ``dt`` positive and finite,
    ``step`` and ``curvature`` nonnegative and finite.
    """
    num_steps = _check_int("num_steps", num_steps, minimum=1)
    dt = _check_real("dt", dt, positive=True)
    step = _check_real("step", step)
    curvature = _check_real("curvature", curvature)
    lap = 2.0 * np.eye(num_steps) - np.eye(num_steps, k=1) - np.eye(num_steps, k=-1)
    lap[-1, -1] = 1.0
    system = np.eye(num_steps) + (step / dt) * lap
    system[-1, -1] += max(0.0, step * curvature - 1.0)
    return step * np.linalg.inv(system)


def step_x(
    x: np.ndarray,
    a_new: np.ndarray,
    problem: MFGProblem,
    measure: DiscreteMeasure,
    omega: float,
    prox=None,
    tables=None,
    out=None,
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
    bit-exact; ``prox`` is the matrix (omega / Q) P, built by
    ``prox_x_operator(N, dt, omega / Q, c)`` when not given. Slice 0 stays
    pinned. The new paths are slice-major (see the module docstring),
    whatever the layout of ``x``. With ``out``, a slice-major (Q, N+1, d)
    array other than ``x``, slices 1..N of the new paths are written into
    it and it is returned; its slice 0 is not touched, so the caller keeps
    it equal to that of ``x``. An ``out`` that may share memory with ``x``
    raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if prox is None:
        prox = prox_x_operator(
            problem.num_steps, problem.dt, omega / measure.count,
            problem.terminal_curvature,
        )
    grad = action_gradient(x, a_new, problem, tables)
    if out is None:
        out = np.empty(x.shape[::-1]).transpose(2, 1, 0)
        out[:, 0] = x[:, 0]
    elif np.may_share_memory(out, x):  # the product would overwrite x first
        raise ValueError("out must not share memory with x")
    columns = np.ascontiguousarray(grad.transpose(2, 1, 0))
    np.matmul(prox, columns, out=out[:, 1:].transpose(2, 1, 0))
    np.subtract(x[:, 1:], out[:, 1:], out=out[:, 1:])
    return out


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
    """Sup-norm of a - K p(x); vanishes at an equilibrium.

    ``x`` holds (Q, N+1, d) trajectories, N read from ``x``, and ``a`` the
    (size, N) coefficient paths; other shapes raise ValueError with the
    messages of :func:`~mfgspectral.problem.saddle_value`.
    """
    a = np.asarray(a, dtype=float)
    p = moment_vector(x, measure, kernel.basis)
    _check_shape("coefficient path", a, p.shape)
    return _residual(a, p, kernel)


def _residual(a: np.ndarray, p: np.ndarray, kernel: SpectralKernel) -> float:
    # fixed_point_residual given the basis moments p of x
    return float(np.max(np.abs(a - kernel.apply_k(p))))


def _bounded(v: np.ndarray) -> bool:
    # every entry within DIVERGENCE_LIMIT in absolute value; NaN fails
    return bool(
        _amax(v, None) <= DIVERGENCE_LIMIT and _amin(v, None) >= -DIVERGENCE_LIMIT
    )


def _max_displacement(step: np.ndarray, square: np.ndarray) -> float:
    # the largest Euclidean length of one particle's step at one slice, for a
    # (Q, N, d) view of (d, N, Q) memory: its square, summed over the axes in
    # memory order, into the (d, N, Q) scratch ``square``
    np.square(step.transpose(2, 1, 0), out=square)
    for e in range(1, square.shape[0]):
        square[0] += square[e]
    return math.sqrt(_amax(square[0], None))


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
    check reads the paths after the heavy-ball term. The result holds the
    solve's last slice-major trajectory buffer (see the module docstring).
    """
    if measure.dimension != problem.dimension:
        raise ValueError("measure dimension does not match the problem")
    n, size, d, count = (
        problem.num_steps, problem.basis.size, measure.dimension, measure.count
    )

    # the workspace: every array the loop writes, made once, each (Q, ., d)
    # one a view of (d, ., Q) memory (see the module docstring)
    def slice_major(slices):
        return np.empty((d, slices, count)).transpose(2, 1, 0)

    x, x_new = slice_major(n + 1), slice_major(n + 1)  # used in turn
    x[...] = measure.points[:, None, :]
    x_new[:, 0, :] = measure.points  # slice 0, never written again
    # the plain step and the velocity (the last realized step)
    plain, velocity = slice_major(n), slice_major(n)
    velocity[...] = 0.0
    square = np.empty((d, n, count))  # x_step's scratch
    a_change = np.empty((size, n))  # a_step's scratch

    a = np.zeros((size, n))
    iteration = 0
    tables = SliceTables(problem.basis, x[:, 1:])
    p = q = tables.moments(measure.weights)  # p(x0), also the first q
    records = []
    prox_a = prox_a_operator(problem.kernel, config.lam * problem.dt)
    prox_x = prox_x_operator(
        n, problem.dt, config.omega / measure.count, problem.terminal_curvature
    )
    sink = open(diagnostics_path, "w") if diagnostics_path is not None else None

    last_step = math.inf
    try:
        while iteration < config.max_iter and last_step > config.tol:
            a_new = step_a(
                a, q, problem.kernel, problem.dt, config.lam, prox=prox_a
            )
            x_new = step_x(
                x, a_new, problem, measure, config.omega, prox=prox_x,
                tables=tables, out=x_new,
            )
            moved = np.subtract(x_new[:, 1:], x[:, 1:], out=plain)  # slice 0 stays
            # einsum walks both operands in memory order and, unlike BLAS dot,
            # starts no threads (waking them cost a paper-2d-a solve 12 ms on 2 CPUs)
            heavy = config.momentum and np.einsum("qnd,qnd->", moved, velocity) > 0.0
            if heavy:  # the velocity becomes the realized step
                velocity *= config.momentum
                x_new[:, 1:] += velocity
                velocity += moved
            # checked before the tables see x_new; NaN and inf fail too
            if not (_bounded(a_new) and _bounded(x_new)):
                raise DivergenceError(
                    f"solver diverged at iteration {iteration + 1}; "
                    "try a smaller omega or lambda",
                    diagnostics=records,
                    iteration=iteration + 1,
                )
            np.subtract(a_new, a, out=a_change)
            a_step = float(_amax(np.abs(a_change, out=a_change), None))
            iteration += 1
            due = (
                iteration % config.record_every == 0 or iteration == config.max_iter
            )
            last_step = a_step
            if due or a_step <= config.tol:  # else x_step is never read
                x_step = _max_displacement(moved, square)
                if heavy:
                    x_step = max(x_step, _max_displacement(velocity, square))
                last_step = max(a_step, x_step)
            if not heavy:
                plain, velocity = velocity, plain
            tables.rebuild(x_new[:, 1:])
            p_new = tables.moments(measure.weights)
            q = step_z(p_new, p, config.theta)
            a, p = a_new, p_new
            x, x_new = x_new, x

            if due or last_step <= config.tol:
                record = {
                    "iteration": iteration,
                    "saddle_value": _saddle_value(a, x, p, problem, measure),
                    "residual": _residual(a, p, problem.kernel),
                    "a_step": a_step,
                    "x_step": x_step,
                }
                records.append(record)
                if sink is not None:
                    sink.write(_RECORD_ENCODER.encode(record) + "\n")
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
