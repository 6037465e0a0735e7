"""Spectral coefficient matrices of interaction kernels on the torus.

A kernel K(x, y) expanded over the trigonometric basis is represented by
its dense coefficient matrix K; :class:`SpectralKernel` derives from it
the inverse J = K^-1 used by the solver, the one place J is formed: the
reciprocals of the diagonal when K is diagonal with no zero on it
(periodic Gaussians, even displacement profiles), else a refined LAPACK
inverse (the 2x2 blocks of profiles with an odd part, kernels obtained
by quadrature). The constructors build K alone;
:func:`spectral_from_dense` is the one path that shifts K by eps*I, for
dense and Gaussian kernels alike.

The periodic Gaussian has one constructor for both dimensions,
:func:`gaussian_spectral`, which reads the dimension from its spec. Its
pointwise value (:func:`kernel_eval_direct`) sums the 2 floor(5 sigma) + 2
Gaussian images within 5 sigma of the period [0, 1); each image left out
is below exp(-50) ~ 2e-22 of the peak, far under half an ulp.

The quadrature (:func:`fourier_coefficients`) takes one path in both
dimensions: it evaluates the kernel on the tensor grid in row blocks of
at most 2^16 point pairs, so the kernel's temporaries stay in cache and
memory does not grow with the square of the grid, and it rejects kernel
values of the wrong shape or that are not finite. The blocks it hands
the kernel are read-only views of one coordinate-major grid, (g^d, d)
in shape but (d, g^d) in memory, so in 2d the kernel's differences and
per-coordinate slices run along contiguous rows of g^2 values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import (
    BasisSet,
    _check_dimension,
    _check_int,
    _check_real,
    _check_shape,
    basis_1d,
    basis_2d,
    eval_all,
)

DEGENERATE_DET = 1e-14
AUTO_EPS = 1e-6
AUTO_EPS_TRIGGER = 1e-10


@dataclass(frozen=True)
class GaussianKernelSpec:
    """Periodic Gaussian interaction kernel parameters.

    sigma controls the spread, mu the total interaction weight; the
    d-dimensional kernel is the product of identical 1d factors, of total
    weight mu^d. sigma and mu are stored as floats, dimension as an int;
    invalid values, including a mu whose mu^d overflows, raise ValueError.
    """

    sigma: float
    mu: float
    dimension: int = 1

    def __post_init__(self):
        for name in ("sigma", "mu"):
            value = _check_real(name, getattr(self, name), positive=True)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "dimension", _check_dimension(self.dimension))
        try:  # the total weight mu^d must be a float
            self.mu**self.dimension
        except OverflowError:
            raise ValueError(
                f"mu = {self.mu} overflows a float in mu^{self.dimension}"
            ) from None


def _dense_inverse(k_mat: np.ndarray) -> np.ndarray:
    j = np.linalg.inv(k_mat)
    # one Newton refinement step tightens K @ J toward the identity
    return j + j @ (np.eye(k_mat.shape[0]) - k_mat @ j)


@dataclass(frozen=True, eq=False)
class SpectralKernel:
    """Coefficient matrix of a kernel in a trigonometric basis, and its inverse.

    ``k_mat`` is a dense (size, size) array; ``eps`` records the total
    identity shift applied to it. ``j_mat = k_mat^-1`` is derived, not
    passed: a diagonal K with no zero on its diagonal gets the reciprocals
    of the diagonal, any other K the refined LAPACK inverse. A singular K,
    or one whose inverse is not finite, raises ValueError.
    """

    basis: BasisSet
    k_mat: np.ndarray
    eps: float = 0.0
    j_mat: np.ndarray = field(init=False)

    def __post_init__(self):
        k_mat = np.asarray(self.k_mat, dtype=float)
        if k_mat.shape != (self.size, self.size):
            raise ValueError(
                f"k_mat shape {k_mat.shape} does not match basis size {self.size}"
            )
        diagonal = np.diagonal(k_mat)
        # an inverse that overflows is rejected below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            if np.count_nonzero(k_mat) == np.count_nonzero(diagonal) == self.size:
                j_mat = np.diag(1.0 / diagonal)
            else:
                try:
                    j_mat = _dense_inverse(k_mat)
                except np.linalg.LinAlgError as exc:
                    raise ValueError(f"matrix is singular: {exc}") from exc
        if not np.isfinite(j_mat).all():
            raise ValueError("matrix is singular: its inverse is not finite")
        object.__setattr__(self, "k_mat", k_mat)
        object.__setattr__(self, "j_mat", j_mat)

    @property
    def size(self) -> int:
        return self.basis.size

    def apply_k(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product K @ v; v leads with ``size`` and may carry
        trailing axes, or ValueError is raised."""
        return self._apply(self.k_mat, v)

    def apply_j(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product J @ v; v leads with ``size`` and may carry
        trailing axes, or ValueError is raised."""
        return self._apply(self.j_mat, v)

    def _apply(self, matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
        _check_shape("v", v, (self.size, *v.shape[1:]))
        return (matrix @ v.reshape(self.size, -1)).reshape(v.shape)

    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the symmetric part of K, ascending."""
        return np.linalg.eigvalsh(_symmetric_part(self.k_mat))


def _symmetric_part(c: np.ndarray) -> np.ndarray:
    # (c + c^T) / 2 with each term halved first, so entries near the float
    # maximum do not overflow; halving is exact above the subnormals, so
    # elsewhere this equals 0.5 * (c + c.T) bit for bit
    return 0.5 * c + 0.5 * c.T


def _kept(basis: BasisSet, k_mat: np.ndarray, keep: np.ndarray) -> SpectralKernel:
    # the kernel on the functions where keep holds, in basis order; a basis
    # kept whole is reused, so set-up does not validate and derive it again
    if not np.all(keep):
        indices = tuple(idx for idx, kept in zip(basis.indices, keep) if kept)
        basis = BasisSet(basis.dimension, basis.truncation, indices)
        k_mat = k_mat[np.ix_(keep, keep)]
    return SpectralKernel(basis, k_mat)


def gaussian_spectral(spec: GaussianKernelSpec, r: int) -> SpectralKernel:
    """Diagonal coefficient matrix of the periodic Gaussian of ``spec``.

    Uses ``basis_1d(r)`` or ``basis_2d(r)`` by ``spec.dimension`` = d.
    Entry k equals mu^d * exp(-sum_e (pi * sigma * n_e)^2 / 2), with n_e
    the frequency of function k along axis e: the product of the 1d
    factors, so the sine and cosine of one frequency share an eigenvalue.
    """
    b = basis_1d(r) if spec.dimension == 1 else basis_2d(r)
    with np.errstate(over="ignore", invalid="ignore"):  # inf exponent: eigenvalue 0
        # frequency 0 gets exponent 0, also where pi * sigma is inf (inf * 0 is NaN)
        scaled = np.where(b.frequencies > 0, math.pi * spec.sigma * b.frequencies, 0)
        exponent = np.sum(scaled**2, axis=1)
    eig = spec.mu**spec.dimension * np.exp(-0.5 * exponent)
    # subnormal eigenvalues lose significand bits and their reciprocals
    # overflow; drop those frequencies like any degenerate term
    keep = eig >= np.finfo(float).tiny
    if not np.any(keep):
        raise ValueError("every eigenvalue underflowed; truncation too large")
    return _kept(b, np.diag(eig), keep)


def kernel_eval_direct(spec: GaussianKernelSpec, x, y):
    """Pointwise periodic Gaussian value; x, y broadcastable arrays.

    For dimension 2 the inputs carry coordinates in the last axis and the
    value is the product of per-axis factors.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if spec.dimension == 1:
        return _gauss_axis(spec, x - y)
    diff = x - y
    if diff.shape[-1] != 2:
        raise ValueError("2d kernel requires coordinate pairs in the last axis")
    return _gauss_axis(spec, diff[..., 0]) * _gauss_axis(spec, diff[..., 1])


def _gauss_axis(spec: GaussianKernelSpec, t: np.ndarray) -> np.ndarray:
    # Sum of the images frac(t) - k, k = -m .. m + 1 with m = floor(5 sigma):
    # every image within 5 sigma of [0, 1), where frac(t) lies. One left out
    # is below exp(-50) ~ 2e-22 of the peak, far under half an ulp (2^-54 ~
    # 5.6e-17 of a value or more), so wider windows give the same doubles
    # but at rare points. 4.3 sigma (exp(-37) ~ 8.7e-17) is too narrow: it
    # changed the last bit of 1-2% of values at sigma = 0.2325 and 0.4651.
    s = spec.sigma / 2.0
    frac = np.floor(t, out=np.empty_like(t))
    np.subtract(t, frac, out=frac)
    scale = -(2.0 * s * s)
    m = int(5.0 * spec.sigma)
    total = np.empty_like(frac)
    image = np.empty_like(frac)
    for k in range(-m, m + 2):
        # exp(-((frac - k) ** 2) / (2 s^2)) in place, bit-identical to that
        # expression: dividing by -(2 s^2) rounds like negating first
        out = total if k == -m else image
        np.subtract(frac, k, out=out)
        np.square(out, out=out)
        np.divide(out, scale, out=out)
        np.exp(out, out=out)
        if k > -m:
            total += image
    np.multiply(total, spec.mu / math.sqrt(2.0 * math.pi * s * s), out=total)
    # a scalar for a scalar t; an array as itself, not a view, so numpy can
    # reuse it for a temporary (a view cost a lib-2d-dense build 18000 page faults)
    return total if total.ndim else total[()]


# Point pairs per kernel call: 512 KB per float array of a block, which
# stays in a 2 MiB L2. At g = 40 in 2d, 2^14 and 2^15 pairs build a few
# percent faster (min 81 ms each against 84 ms, 2-CPU host) but change the
# last bits of 769 of the 784 coefficients at r = 8, and 2^17 is slower
# (96 ms): kept at 2^16 until a change that moves K anyway.
_BLOCK_PAIRS = 1 << 16


def fourier_coefficients(kernel, basis: BasisSet, num_points: int) -> np.ndarray:
    """Coefficient matrix of a continuous periodic kernel by quadrature.

    Uses the tensor trapezoid rule on the uniform periodic grid of g^d
    points, g = ``num_points`` per axis (a plain grid average), which is
    spectrally accurate for smooth periodic kernels: the result is
    Phi^T K Phi / g^(2d), with Phi the (g^d, size) basis values and K the
    kernel at every pair of grid points. ``kernel(x, y)`` is called on
    blocks of grid rows, with x of shape (rows, 1) and y of shape (1, g)
    in 1d, and x of shape (rows, 1, 2) and y of shape (1, g^2, 2) in 2d
    (coordinate pairs in the last axis); it must return (rows, g^d) finite
    values, or ValueError is raised. x and y are read-only views of the
    grid, coordinate-major in 2d (the coordinate axis has the largest
    stride); a kernel that needs C order or wants to write into them
    calls ``np.ascontiguousarray`` or ``.copy()``. A block holds at most
    2^16 pairs, so the kernel values take O(block) memory rather than
    O(g^(2d)).
    """
    num_points = _check_int("num_points", num_points)
    if num_points < 4 * basis.truncation:
        raise ValueError(
            f"grid too coarse: need at least {4 * basis.truncation} points per "
            f"axis, got {num_points}"
        )
    axis = np.arange(num_points) / num_points
    grids = np.meshgrid(*(axis,) * basis.dimension, indexing="ij")
    # (g^d, d) view of (d, g^d) memory: each coordinate contiguous
    pts = np.stack(grids).reshape(basis.dimension, -1).T
    pts.flags.writeable = False  # the kernel gets views of it
    phi = eval_all(basis, pts)  # (g^d, size)
    if basis.dimension == 1:
        pts = pts[:, 0]
    n = pts.shape[0]
    rows = max(1, _BLOCK_PAIRS // n)
    kphi = np.empty_like(phi)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        kvals = np.asarray(kernel(pts[block, None], pts[None]), dtype=float)
        _check_shape("kernel values", kvals, (min(rows, n - start), n))
        if not np.all(np.isfinite(kvals)):
            raise ValueError("kernel values must be finite")
        np.matmul(kvals, phi, out=kphi[block])
    return phi.T @ kphi / n**2


def fejer_average(coefficients: np.ndarray, r: int, basis: BasisSet) -> np.ndarray:
    """Cesaro-averaged coefficient matrix with per-frequency weights.

    Each entry is damped by w_i * w_j where w = prod_axis(1 - n/(r+1)) and n
    is the per-axis frequency of function i of ``basis``, whose order the
    rows and columns follow.
    """
    r = _check_int("r", r)
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got {c.shape}")
    if basis.size != c.shape[0]:
        raise ValueError("coefficient matrix does not match basis size")
    if np.any(basis.frequencies > r):
        raise ValueError(f"basis contains frequencies above {r}")
    w = np.prod(1.0 - basis.frequencies / (r + 1.0), axis=1)
    return w[:, None] * c * w[None, :]


def psd_check(coefficients: np.ndarray) -> float:
    """Smallest eigenvalue of a finite coefficient matrix symmetric within 1e-12."""
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.size == 0:
        raise ValueError(f"matrix must be square and non-empty, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("matrix must be finite")
    asym = float(np.max(np.abs(c - c.T)))
    if asym > 1e-12:
        raise ValueError(f"matrix is not symmetric (asymmetry {asym:.3e})")
    return float(np.min(np.linalg.eigvalsh(_symmetric_part(c))))


def translation_invariant_blocks(eta_cos, eta_sin) -> SpectralKernel:
    """Kernel built from per-frequency moments of a displacement profile.

    ``eta_cos[n]`` and ``eta_sin[n]`` are the cosine/sine moments of the
    profile at integer frequency n (n = 0 is the mean; its sine moment must
    vanish). Frequency n > 0 contributes the scaled rotation block
    [[c, s], [-s, c]] on its cosine/sine pair; an even profile leaves K
    diagonal, so J is its reciprocal diagonal. Frequencies whose block
    determinant falls below 1e-14 are dropped from the basis; a moment that
    is not finite raises ValueError.
    """
    c = np.asarray(eta_cos, dtype=float)
    s = np.asarray(eta_sin, dtype=float)
    if c.shape != s.shape or c.ndim != 1 or c.size < 1:
        raise ValueError("moment arrays must be equal-length 1d vectors")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(s))):
        raise ValueError("moments must be finite")
    if s[0] != 0.0:
        raise ValueError("sine moment at frequency 0 must be zero")

    keep = c**2 + s**2 >= DEGENERATE_DET
    if not np.any(keep):
        raise ValueError("all frequencies are degenerate; basis would be empty")

    b = basis_1d(2 * int(np.flatnonzero(keep)[-1]) + 1)
    n = b.frequencies[:, 0]
    k_mat = np.diag(c[n])
    sine = np.arange(1, b.size, 2)  # row of sqrt(2) sin; its cosine is next
    k_mat[sine, sine + 1] = s[n[sine]]
    k_mat[sine + 1, sine] = -s[n[sine]]
    return _kept(b, k_mat, keep[n])


def spectral_from_dense(
    coefficients: np.ndarray, basis: BasisSet, eps: float | None = None
) -> SpectralKernel:
    """Kernel from a symmetric coefficient matrix, shifted by eps * Id.

    With eps=None a shift of 1e-6 is applied automatically when the
    smallest eigenvalue drops below 1e-10; an explicit eps (including 0) is
    honored, with a warning when it leaves the matrix near-singular. The
    matrix checks and the smallest eigenvalue are :func:`psd_check`'s; an
    eps that is negative, NaN or infinite raises ValueError.
    """
    if eps is not None:
        eps = _check_real("eps", eps)
    c = np.asarray(coefficients, dtype=float)
    if c.shape != (basis.size, basis.size):
        raise ValueError(
            f"matrix shape {c.shape} does not match basis size {basis.size}"
        )
    min_eig = psd_check(c)
    c = _symmetric_part(c)
    if eps is None:
        eps = AUTO_EPS if min_eig < AUTO_EPS_TRIGGER else 0.0
    elif min_eig + eps < AUTO_EPS_TRIGGER:
        warnings.warn(
            f"matrix is near-singular (min eigenvalue {min_eig:.3e}) "
            f"and eps={eps} leaves it so",
            RuntimeWarning,
            stacklevel=2,
        )
    return SpectralKernel(basis, c + eps * np.eye(basis.size), eps=eps)
