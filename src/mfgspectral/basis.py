"""Trigonometric bases on the unit torus, in one and two dimensions.

One-dimensional functions are indexed from k = 1: the constant function,
then sine/cosine pairs of increasing integer frequency,

    k = 1: 1,   k even: sqrt(2) sin(pi k x),   k odd > 1: sqrt(2) cos(pi (k-1) x),

so the frequency of function k is ``k // 2`` full periods on [0, 1)
(:attr:`BasisSet.frequencies`) and the family is orthonormal in L2 of the
periodic unit interval. Two-dimensional functions are products of two
one-dimensional ones, indexed by pairs (k, k') with k + k' <= r, listed in
lexicographic order. Indices are 1-based throughout.

Evaluation is the same in both dimensions: per axis, a table of the 1d
functions (and one of their derivatives) at all point coordinates, and a
product of one table row per axis for each value or gradient component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


def tensor_indices(r: int) -> list[tuple[int, int]]:
    """All pairs (k, k') with k, k' >= 1 and k + k' <= r, lexicographic."""
    if r < 2:
        raise ValueError(f"2d truncation must be at least 2, got {r}")
    return [(k, kp) for k in range(1, r) for kp in range(1, r - k + 1)]


@dataclass(frozen=True)
class BasisSet:
    """An ordered family of torus basis functions.

    ``indices`` holds integers k for dimension 1 and pairs (k, k') for
    dimension 2. The standard constructors :func:`basis_1d` and
    :func:`basis_2d` build the full families; a subset of indices is legal
    (used when degenerate kernel frequencies are dropped).
    """

    dimension: int
    truncation: int
    indices: tuple

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if not self.indices:
            raise ValueError("basis must contain at least one function")
        for idx in self.indices:
            ks = (idx,) if self.dimension == 1 else tuple(idx)
            if len(ks) != self.dimension or any(
                not isinstance(k, (int, np.integer)) or k < 1 for k in ks
            ):
                raise ValueError(f"invalid basis index {idx!r}")

    @property
    def size(self) -> int:
        return len(self.indices)

    @cached_property
    def _position(self) -> dict:
        return {idx: j for j, idx in enumerate(self.indices)}

    def position(self, index) -> int:
        """0-based position of a basis index; raises IndexError if absent."""
        try:
            return self._position[index]
        except (KeyError, TypeError):
            raise IndexError(f"index {index!r} not in basis") from None

    @cached_property
    def _axis_rows(self) -> tuple:
        # per axis: the table row k - 1 of each function, and the table size
        ks = np.asarray(self.indices, dtype=int).reshape(self.size, self.dimension)
        return tuple((k - 1, int(k.max())) for k in ks.T)

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Read-only (size, dimension) array of per-axis frequencies k // 2."""
        freqs = np.stack([(rows + 1) // 2 for rows, _ in self._axis_rows], axis=1)
        freqs.setflags(write=False)
        return freqs


def basis_1d(r: int) -> BasisSet:
    """The first r one-dimensional basis functions."""
    if r < 1:
        raise ValueError(f"1d basis size must be positive, got {r}")
    return BasisSet(dimension=1, truncation=r, indices=tuple(range(1, r + 1)))


def basis_2d(r: int) -> BasisSet:
    """All tensor-product functions with index sum at most r."""
    return BasisSet(dimension=2, truncation=r, indices=tuple(tensor_indices(r)))


def eval_basis(basis: BasisSet, index, x) -> float:
    """Value of one basis function at a single point (periodic in x)."""
    j = basis.position(index)
    return float(eval_all(basis, [x])[0, j])  # as a one-point list, x must be one point


def grad_basis(basis: BasisSet, index, x) -> np.ndarray:
    """Analytic gradient of one basis function at a single point."""
    j = basis.position(index)
    return grad_all(basis, [x])[0, j]


def lipschitz_bound(basis: BasisSet, index) -> float:
    """Lipschitz constant of one basis function (Euclidean, on the torus lift)."""
    return float(lipschitz_bounds(basis)[basis.position(index)])


def lipschitz_bounds(basis: BasisSet) -> np.ndarray:
    """Vector of Lipschitz constants in basis order.

    A product of factors with Lipschitz constants L_e and sup-norms S_e gets
    sqrt(sum_i L_i^2 prod_{e != i} S_e^2), which dominates |grad|; in 1d
    that is the exact constant L = 2*sqrt(2)*pi*(k//2).
    """
    freqs = basis.frequencies
    lip, sup = SQRT2 * TWO_PI * freqs, np.where(freqs == 0, 1.0, SQRT2)
    # factors[j, i, e]: factor e of gradient component i of function j
    factors = np.where(np.eye(basis.dimension, dtype=bool), lip[:, None], sup[:, None])
    return np.sqrt(np.sum(np.prod(factors, axis=2) ** 2, axis=1))


def _as_points(basis: BasisSet, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if basis.dimension == 1 else pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != basis.dimension:
        raise ValueError(
            f"points must have shape (n, {basis.dimension}), got {pts.shape}"
        )
    return pts


def _axis_tables(t: np.ndarray, kmax: int, vals: bool = True, grads: bool = False):
    """(kmax, n) tables of the 1d functions 1..kmax at coordinates t.

    Row k - 1 holds function k: values, and derivatives, each None when not
    requested. Each frequency costs at most one sin and one cos, shared.
    The constant alone (kmax = 1) has the scalar tables 1 and 0.
    """
    if kmax == 1:
        return 1.0, 0.0
    w = TWO_PI * np.arange(1, kmax // 2 + 1)
    arg = w[:, None] * t
    odd = (kmax - 1) // 2  # frequencies whose cosine is in the table
    # values take every sine and the odd cosines, derivatives the reverse
    sin = np.sin(arg if vals else arg[:odd])
    cos = np.cos(arg if grads else arg[:odd])
    val_table = grad_table = None
    if vals:
        val_table = np.empty((kmax, t.size))
        val_table[0] = 1.0
        val_table[1::2] = SQRT2 * sin
        val_table[2::2] = SQRT2 * cos[:odd]
    if grads:
        grad_table = np.empty((kmax, t.size))
        grad_table[0] = 0.0
        grad_table[1::2] = (SQRT2 * w)[:, None] * cos
        grad_table[2::2] = (-SQRT2 * w[:odd])[:, None] * sin[:odd]
    return val_table, grad_table


_BLOCK = 1024  # points per block: small gathered temporaries fault in few pages


def _fill_products(dest: np.ndarray, tables, basis: BasisSet) -> None:
    # dest[j] = product over axes of each function's row of that axis' table
    for start in range(0, dest.shape[1], _BLOCK):
        block = slice(start, start + _BLOCK)
        factors = [
            t if isinstance(t, float) else t[:, block][rows]
            for t, (rows, _) in zip(tables, basis._axis_rows)
        ]
        dest[:, block] = math.prod(factors[1:], start=factors[0])


def eval_all(basis: BasisSet, points) -> np.ndarray:
    """Values of every basis function at many points: shape (n, size)."""
    pts = _as_points(basis, points)
    vals = [_axis_tables(t, kmax)[0] for t, (_, kmax) in zip(pts.T, basis._axis_rows)]
    out = np.empty((pts.shape[0], basis.size))
    _fill_products(out.T, vals, basis)
    return out


def grad_all(basis: BasisSet, points) -> np.ndarray:
    """Gradients of every basis function at many points: shape (n, size, d)."""
    pts = _as_points(basis, points)
    d = basis.dimension
    # values enter only as factors of another axis' derivative
    tables = [
        _axis_tables(t, kmax, vals=d > 1, grads=True)
        for t, (_, kmax) in zip(pts.T, basis._axis_rows)
    ]
    out = np.empty((pts.shape[0], basis.size, d))
    for i in range(d):
        factors = [grad if e == i else val for e, (val, grad) in enumerate(tables)]
        _fill_products(out[:, :, i].T, factors, basis)
    return out
