"""Trigonometric bases on the unit torus, in one and two dimensions.

One-dimensional functions are indexed from k = 1: the constant function,
then sine/cosine pairs of increasing integer frequency,

    k = 1: 1,   k even: sqrt(2) sin(pi k x),   k odd > 1: sqrt(2) cos(pi (k-1) x),

so the frequency of function k is ``k // 2`` full periods on [0, 1)
(:attr:`BasisSet.frequencies`) and the family is orthonormal in L2 of the
periodic unit interval. Two-dimensional functions are products of two
one-dimensional ones, indexed by pairs (k, k') with k + k' <= r, listed in
lexicographic order. Indices are 1-based throughout.

Evaluation is the same in both dimensions. A table holds the 1d functions
at every coordinate of every axis, up to the highest frequency over all
axes, and is filled by one call; it costs one tan per coordinate, of the
half angle, from which sin and cos follow by the half-angle formulas
(within 2.3e-16 of libm's sin and cos of the same angle), and higher
frequencies by the angle-addition recurrence. The derivative of each
function is a multiple of another row of the table. Pointwise work,
:func:`eval_all` and :func:`grad_all`, fills one (rows, d, n) table and
multiplies one of its rows per axis for each value or gradient component
at each point. The solver's contractions, :meth:`SliceTables.moments`
(weights against values) and :meth:`SliceTables.field_gradient`
(coefficients against gradients), work slice by slice on a (rows, d, N, Q)
table instead, so they never form an (n, size) or (n, size, d) array. A
:class:`SliceTables` has a fixed shape: a caller that needs several
contractions at the same points builds it once, and :meth:`~SliceTables.rebuild`
refills it in place at new points of that shape. The moments of a slice
are T1 w in 1d and T1 diag(w) T2^T in 2d. For the gradient field, a fixed
scatter matrix lays the coefficients, times the derivative constants, out
over the table rows as one array A per component; the field is then T1 A
in 1d, and in 2d component e is sum_k T1[k] (A_e T2)[k], one batched
matmul followed by one einsum that multiplies and sums in the same pass.
A :class:`BasisSet` derives its table layout (rows of every function and
derivative) once, as ``_layout``, and the scatter matrix from it once, as
``_scatter``; both are cached read-only and shared by all its tables.

Every module imports this one, so it also owns the argument rules, each
stated once and returning a Python int or float: :func:`_check_int` for
counts, :func:`_check_dimension` for dimensions, :func:`_as_real` for reals
and :func:`_check_real` for finite ones; :func:`_check_shape` checks an
array's exact shape.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


def _check_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is a Python or
    numpy integer (not a bool) of at least ``minimum``, 0 or 1, if given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        sign = "positive" if minimum else "nonnegative"
        raise ValueError(f"{name} must be {sign}, got {value}")
    return int(value)


def _check_dimension(value) -> int:
    """``value`` as an int; ValueError unless it is an integer 1 or 2."""
    value = _check_int("dimension", value)
    if value not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {value}")
    return value


def _check_shape(name: str, array: np.ndarray, shape: tuple) -> None:
    """ValueError naming ``name`` unless ``array`` has exactly ``shape``."""
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")


def _as_real(name: str, value) -> float:
    """``value`` as a float; ValueError naming ``name`` if it is a bool, not
    a real number, or an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{name} is too large for a float") from None


def _check_real(name: str, value, positive: bool = False) -> float:
    """:func:`_as_real`'s float; ValueError unless finite and >= 0 (> 0 if positive)."""
    value = _as_real(name, value)
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be {sign} and finite, got {value}")
    return value


def tensor_indices(r: int) -> list[tuple[int, int]]:
    """All pairs (k, k') with k, k' >= 1 and k + k' <= r, lexicographic."""
    r = _check_int("r", r)
    if r < 2:
        raise ValueError(f"2d truncation must be at least 2, got {r}")
    return [(k, kp) for k in range(1, r) for kp in range(1, r - k + 1)]


class _Layout(NamedTuple):
    """Where the 1d tables hold each basis function and its derivatives."""

    top: int  # the highest frequency: the tables hold rows 0..2 top
    rows: tuple  # per axis, each function's table row k - 1, k its index there
    derivatives: tuple  # per axis e, (rows, factors): d/dx_e = factors x rows' product


@dataclass(frozen=True)
class BasisSet:
    """An ordered family of torus basis functions.

    ``indices`` holds integers k for dimension 1 and pairs (k, k') for
    dimension 2. The standard constructors :func:`basis_1d` and
    :func:`basis_2d` build the full families; a subset of indices is legal
    (used when degenerate kernel frequencies are dropped). Indices must be
    distinct, and each per-axis index must be an integer (not a bool) in
    1..truncation. The dimension, truncation and indices are stored as
    Python ints, the indices as a tuple (of pairs in 2d).
    """

    dimension: int
    truncation: int
    indices: tuple

    def __post_init__(self):
        dimension = _check_dimension(self.dimension)
        truncation = _check_int("truncation", self.truncation)
        if not self.indices:
            raise ValueError("basis must contain at least one function")
        indices = []
        for idx in self.indices:
            ks = (idx,) if dimension == 1 else tuple(idx)
            if len(ks) != dimension or any(
                isinstance(k, bool)
                or not isinstance(k, (int, np.integer))
                or not 1 <= k <= truncation
                for k in ks
            ):
                raise ValueError(f"invalid basis index {idx!r}")
            ks = tuple(map(int, ks))
            indices.append(ks[0] if dimension == 1 else ks)
        if len(set(indices)) != len(indices):
            raise ValueError("basis indices must be distinct")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "indices", tuple(indices))

    @property
    def size(self) -> int:
        return len(self.indices)

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Read-only (size, dimension) array of per-axis frequencies k // 2."""
        ks = np.asarray(self.indices, dtype=int).reshape(self.size, self.dimension)
        freqs = ks // 2
        freqs.setflags(write=False)
        return freqs

    @cached_property
    def _layout(self) -> _Layout:
        # read-only; (sqrt(2) sin wt)' is w times the cosine one row down and
        # (sqrt(2) cos wt)' -w times the sine one row up
        ks = np.asarray(self.indices, dtype=int).reshape(self.size, self.dimension).T
        rows, sine = ks - 1, ks % 2 == 0
        deriv = np.where(sine, ks, np.maximum(ks - 2, 0))
        factors = TWO_PI * np.where(sine, ks // 2, -(ks // 2))
        for array in (rows, deriv, factors):
            array.setflags(write=False)
        derivatives = tuple(
            ((*rows[:e], deriv[e], *rows[e + 1 :]), f) for e, f in enumerate(factors)
        )
        return _Layout(int(self.frequencies.max()), tuple(rows), derivatives)

    @cached_property
    def _scatter(self) -> np.ndarray:
        # read-only S of SliceTables.field_gradient: (j, e, r1[, r2]) holds
        # function j's factor along e at its derivative's table rows, else 0;
        # no column has two nonzeros, so coeffs.T @ S is exact
        d = self.dimension
        scatter = np.zeros((self.size, d) + (2 * self._layout.top + 1,) * d)
        for e, (rows, factors) in enumerate(self._layout.derivatives):
            scatter[(np.arange(self.size), e, *rows)] = factors
        scatter = scatter.reshape(self.size, -1)
        scatter.setflags(write=False)
        return scatter


def basis_1d(r: int) -> BasisSet:
    """The first r one-dimensional basis functions."""
    r = _check_int("r", r)
    if r < 1:
        raise ValueError(f"1d basis size must be positive, got {r}")
    return BasisSet(dimension=1, truncation=r, indices=tuple(range(1, r + 1)))


def basis_2d(r: int) -> BasisSet:
    """All tensor-product functions with index sum at most r."""
    return BasisSet(dimension=2, truncation=r, indices=tuple(tensor_indices(r)))


def hessian_bounds(basis: BasisSet) -> np.ndarray:
    """Vector of bounds on the Hessian's spectral norm, in basis order.

    Function n gets (2 pi)^2 |n|^2 prod_e S_e, with S_e the sup-norm of
    factor e (sqrt(2) at a nonzero frequency, else 1); in 1d that is the
    exact constant sqrt(2) (2 pi (k//2))^2.
    """
    freqs = basis.frequencies
    sup = np.where(freqs == 0, 1.0, SQRT2)
    return TWO_PI**2 * np.sum(freqs**2, axis=1) * np.prod(sup, axis=1)


def _axis_tables(t: np.ndarray, top: int, out: np.ndarray | None = None) -> np.ndarray:
    """Table of the 1d functions 1..2*top+1 at coordinates t.

    Shape (2*top+1, *t.shape); row k - 1 holds function k, so rows 2m - 1
    and 2m are sqrt(2) sin and sqrt(2) cos of frequency m. Only one tan per
    coordinate is evaluated, of the half angle u = tan(th / 2) on the
    argument reduced (exactly) to one period, th / 2 = pi (t - rint t) in
    [-pi/2, pi/2]; then sin th = 2u / (1 + u^2) and cos th = (1 - u^2) /
    (1 + u^2), finite at th / 2 = +-pi/2 too. numpy builds for AVX-512
    vectorize float64 tan but call libm for sin and cos, so this is 4-5x
    cheaper there; the two values are within 2.3e-16 of sin and cos of the
    same rounded angle (libm: 5.6e-17), measured on 2e6 points against
    long double. Frequency m follows from frequency m - 1 by angle
    addition, sin m th = sin (m-1) th cos th + cos (m-1) th sin th, and
    cos m th = cos (m-1) th cos th - sin (m-1) th sin th. The rows are
    computed in place, into ``out`` when given, each written in order.
    """
    table = np.empty((2 * top + 1,) + t.shape) if out is None else out
    table[0] = 1.0
    if top:
        u = np.rint(t, out=np.empty(t.shape))  # in order, even if t is not
        np.subtract(t, u, out=u)
        u *= math.pi
        np.tan(u, out=u)
        cos = np.multiply(u, u)  # u^2 until the line that makes it cos
        scratch = np.add(cos, 1.0)  # 1 + u^2, then the recurrence's scratch
        sin = np.add(u, u, out=u)
        sin /= scratch
        np.subtract(1.0, cos, out=cos)
        cos /= scratch
        np.multiply(sin, SQRT2, out=table[1])
        np.multiply(cos, SQRT2, out=table[2])
        for m in range(2, top + 1):
            s, c = table[2 * m - 3], table[2 * m - 2]
            np.multiply(c, sin, out=scratch)
            np.multiply(s, cos, out=table[2 * m - 1])
            table[2 * m - 1] += scratch
            np.multiply(s, sin, out=scratch)
            np.multiply(c, cos, out=table[2 * m])
            table[2 * m] -= scratch
    return table


_BLOCK = 1024  # points per block: small gathered temporaries fault in few pages


def _point_table(basis: BasisSet, points) -> np.ndarray:
    # the (rows, d, n) table of every axis at (n, d) points, from one call
    pts = given = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if basis.dimension == 1 else pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != basis.dimension:
        raise ValueError(
            f"points must have shape (n, {basis.dimension}), got {given.shape}"
        )
    return _axis_tables(pts.T, basis._layout.top)


def _fill_products(dest: np.ndarray, table: np.ndarray, rows) -> None:
    # dest[j] = product over axes e of table[rows[e][j], e]
    for start in range(0, dest.shape[1], _BLOCK):
        block = slice(start, start + _BLOCK)
        factors = [table[:, e, block][r] for e, r in enumerate(rows)]
        dest[:, block] = math.prod(factors[1:], start=factors[0])


def eval_all(basis: BasisSet, points) -> np.ndarray:
    """Values of every basis function at many points: shape (n, size)."""
    table = _point_table(basis, points)
    out = np.empty((table.shape[2], basis.size))
    _fill_products(out.T, table, basis._layout.rows)
    return out


def grad_all(basis: BasisSet, points) -> np.ndarray:
    """Gradients of every basis function at many points: shape (n, size, d)."""
    table = _point_table(basis, points)
    out = np.empty((table.shape[2], basis.size, basis.dimension))
    for i, (rows, factors) in enumerate(basis._layout.derivatives):
        _fill_products(out[:, :, i].T, table, rows)
        out[:, :, i] *= factors
    return out


class SliceTables:
    """Tables of a basis at every slice of a (Q, N, d) point cloud.

    The shape of the cloud is fixed when the object is made. All axes
    share one (rows, d, N, Q) buffer, rows = 2 * top + 1 for the highest
    frequency top over all axes: buffer[:, e, i] holds the 1d functions at
    the coordinates points[:, i, e] of slice i, each row written in order.
    An axis with lower frequencies gets extra rows that no basis function
    reads. The buffer and its per-axis (N, rows, Q) views are made once;
    :meth:`rebuild` refills them in place at new points of the same shape
    with one :func:`_axis_tables` call over all axes, so one object serves
    a whole solve: each iteration's coupling gradient at the current
    points and the moments that feed the next coefficient step. In 2d
    both contractions write their intermediates into one work array made
    with the tables; the gradient fills it one component at a time.
    """

    def __init__(self, basis: BasisSet, points):
        self.basis = basis
        d = basis.dimension
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 3 or pts.shape[2] != d:
            raise ValueError(f"points must have shape (Q, N, {d}), got {pts.shape}")
        rows, (q, n) = 2 * basis._layout.top + 1, pts.shape[:2]
        self._buffer = np.empty((rows, *pts.shape[::-1]))
        self._axes = self._buffer.transpose(1, 2, 0, 3)  # d x (N, rows, Q)
        self.rebuild(pts)
        if d == 2:  # one work array: the weighted tables, or the gradient terms
            work = np.empty(rows * n * max(q, 2))
            self._weighted = work[: rows * n * q].reshape(rows, n, q)
            self._terms = work.reshape(n, rows, max(q, 2))

    def rebuild(self, points) -> None:
        """Tabulate in place at new points of the shape the tables were made for.

        Points of any other shape raise ``ValueError``. The one table call
        reads the (d, N, Q) coordinates points.transpose(2, 1, 0), which
        are contiguous when the points are a view of (d, N, Q) memory, as
        the solve's slice-major trajectories are; the values do not depend
        on the layout.
        """
        pts = np.asarray(points, dtype=float)
        _check_shape("points", pts, self._buffer.shape[:0:-1])  # (Q, N, d)
        _axis_tables(pts.transpose(2, 1, 0), self.basis._layout.top, out=self._buffer)

    def moments(self, weights) -> np.ndarray:
        """Weighted basis moments of each slice: shape (size, N).

        Entry (k, i) is sum_a weights[a] phi_k(points[a, i]). In 1d the
        moments of slice i are T1 w; in 2d they are T1 diag(w) T2^T, with
        T1 and T2 the per-axis tables of that slice, read at each
        function's pair of table rows.
        """
        w = np.asarray(weights, dtype=float)
        if self.basis.dimension == 1:
            per_slice = self._axes[0] @ w  # (N, rows)
        else:  # T1 weighted in the buffer's own (rows, N, Q) order
            first = self._buffer[:, 0]
            weighted = np.einsum("rnq,q->rnq", first, w, out=self._weighted)
            per_slice = weighted.transpose(1, 0, 2) @ self._axes[1].transpose(0, 2, 1)
        return per_slice[(slice(None), *self.basis._layout.rows)].T

    def field_gradient(self, coeffs) -> np.ndarray:
        """Gradient of sum_k coeffs[k, i] phi_k at each points[a, i]: shape (Q, N, d).

        The derivative of each function along axis e is a constant times a
        product of table rows, so one product A = coeffs^T S with a fixed
        scatter matrix S lays out each slice's coefficients, times those
        constants, over the table rows of every component. In 1d component
        1 is sum_k T1[k] A[k]; in 2d component e is sum_k T1[k] (A_e T2)[k],
        one batched matmul for A_e T2 into the work array and one einsum
        that multiplies by T1 and sums over k in the same pass. A particle
        gets the same bits alone as in any batch: numpy would take gemv for
        one column, so a lone particle's T2 goes into the matmul twice.
        Coefficients of a shape other than (size, N) raise ``ValueError``.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        rows, d, n, q = self._buffer.shape
        _check_shape("coefficient path", coeffs, (self.basis.size, n))
        scattered = coeffs.T @ self.basis._scatter  # (N, d * rows**d)
        t1, out = self._axes[0], np.empty((d, n, q))
        if d == 1:
            np.einsum("nrq,nr->nq", t1, scattered, out=out[0])
        else:  # a lone particle goes in twice: gemm, as for any batch
            t2 = self._axes[1] if q > 1 else np.repeat(self._axes[1], 2, axis=2)
            components = scattered.reshape(n, d, rows, rows)
            for e in range(d):
                np.matmul(components[:, e], t2, out=self._terms)
                np.einsum("nrq,nrq->nq", self._terms[..., :q], t1, out=out[e])
        return out.transpose(2, 1, 0)
