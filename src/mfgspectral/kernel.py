"""Spectral coefficient matrices of interaction kernels on the torus.

A kernel K(x, y) expanded over the trigonometric basis is represented by
its dense coefficient matrix K together with the inverse J = K^-1 used by
the solver. Translation-invariant kernels (periodic Gaussians, profiles
with odd part) fill K with a diagonal or 2x2-block pattern and get J in
closed form; general kernels obtained by quadrature get J by a refined
LAPACK inverse, with optional eps*I regularization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, basis_1d, basis_2d, eval_all

DEGENERATE_DET = 1e-14
AUTO_EPS = 1e-6
AUTO_EPS_TRIGGER = 1e-10


@dataclass(frozen=True)
class GaussianKernelSpec:
    """Periodic Gaussian interaction kernel parameters.

    sigma controls the spread, mu the total interaction weight; the
    d-dimensional kernel is the product of identical 1d factors.
    """

    sigma: float
    mu: float
    dimension: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")


@dataclass(frozen=True, eq=False)
class SpectralKernel:
    """Coefficient matrix and inverse of a kernel in a trigonometric basis.

    ``k_mat`` and ``j_mat`` are dense (size, size) arrays with
    ``j_mat = k_mat^-1``; ``eps`` records the total identity shift
    applied to ``k_mat``.
    """

    basis: BasisSet
    k_mat: np.ndarray
    j_mat: np.ndarray
    eps: float = 0.0

    def __post_init__(self):
        for name in ("k_mat", "j_mat"):
            mat = np.asarray(getattr(self, name), dtype=float)
            if mat.shape != (self.size, self.size):
                raise ValueError(
                    f"{name} shape {mat.shape} does not match basis size {self.size}"
                )
            object.__setattr__(self, name, mat)

    @property
    def size(self) -> int:
        return self.basis.size

    def k_matrix(self) -> np.ndarray:
        """Copy of the coefficient matrix."""
        return self.k_mat.copy()

    def j_matrix(self) -> np.ndarray:
        """Copy of the inverse coefficient matrix."""
        return self.j_mat.copy()

    def apply_k(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product K @ v; v may carry trailing axes."""
        return np.tensordot(self.k_mat, v, axes=(1, 0))

    def apply_j(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product J @ v; v may carry trailing axes."""
        return np.tensordot(self.j_mat, v, axes=(1, 0))

    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the symmetric part of K, ascending."""
        return np.linalg.eigvalsh(0.5 * (self.k_mat + self.k_mat.T))

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the symmetric part of K."""
        return float(self.eigenvalues()[0])


def _diagonal_kernel(basis: BasisSet, eig: np.ndarray) -> SpectralKernel:
    # subnormal eigenvalues lose significand bits and their reciprocals
    # overflow; drop those frequencies like any degenerate term
    keep = eig >= np.finfo(float).tiny
    if not np.any(keep):
        raise ValueError("every eigenvalue underflowed; truncation too large")
    if not np.all(keep):
        basis = BasisSet(
            dimension=basis.dimension,
            truncation=basis.truncation,
            indices=tuple(
                idx for idx, kept in zip(basis.indices, keep) if kept
            ),
        )
        eig = eig[keep]
    return SpectralKernel(basis, np.diag(eig), np.diag(1.0 / eig))


def gaussian_spectral_1d(spec: GaussianKernelSpec, r: int) -> SpectralKernel:
    """Diagonal coefficient matrix of the 1d periodic Gaussian.

    Entry k equals mu * exp(-((pi * sigma * n)**2) / 2), n the frequency of
    function k; the sine and cosine of one frequency share an eigenvalue.
    """
    if spec.dimension != 1:
        raise ValueError("1d constructor requires a 1d kernel spec")
    b = basis_1d(r)
    eig = spec.mu * np.exp(-0.5 * (math.pi * spec.sigma * b.frequencies[:, 0]) ** 2)
    return _diagonal_kernel(b, eig)


def gaussian_spectral_2d(spec: GaussianKernelSpec, r: int) -> SpectralKernel:
    """Diagonal coefficient matrix of the 2d periodic Gaussian.

    Entries follow mu^2 * exp(-pi^2 sigma^2 (n^2 + n'^2) / 2), with (n, n')
    the per-axis frequencies, over the lexicographic tensor index list.
    """
    if spec.dimension != 2:
        raise ValueError("2d constructor requires a 2d kernel spec")
    b = basis_2d(r)
    n2 = np.sum(b.frequencies**2, axis=1)
    eig = spec.mu**2 * np.exp(-0.5 * math.pi**2 * spec.sigma**2 * n2)
    return _diagonal_kernel(b, eig)


def _image_count(sigma: float) -> int:
    # guarantees a relative periodization tail below double precision
    return max(3, int(math.ceil(1.0 + 4.3 * sigma)))


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
    s = spec.sigma / 2.0
    frac = t - np.floor(t)
    total = np.zeros_like(frac)
    m = _image_count(spec.sigma)
    for k in range(-m, m + 1):
        total += np.exp(-((frac - k) ** 2) / (2.0 * s * s))
    return spec.mu / math.sqrt(2.0 * math.pi * s * s) * total


def fourier_coefficients(kernel, basis: BasisSet, num_points: int) -> np.ndarray:
    """Coefficient matrix of a continuous periodic kernel by quadrature.

    Uses the tensor trapezoid rule on a uniform periodic grid (a plain grid
    average), which is spectrally accurate for smooth periodic kernels.
    ``kernel`` must accept broadcast numpy arrays: scalars for dimension 1,
    coordinate pairs in the last axis for dimension 2.
    """
    if num_points < 4 * basis.truncation:
        raise ValueError(
            f"grid too coarse: need at least {4 * basis.truncation} points per "
            f"axis, got {num_points}"
        )
    g = num_points
    if basis.dimension == 1:
        pts = np.arange(g) / g
        phi = eval_all(basis, pts)  # (g, m)
        kg = np.asarray(kernel(pts[:, None], pts[None, :]), dtype=float)
        return phi.T @ kg @ phi / g**2
    axis = np.arange(g) / g
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])  # (g*g, 2)
    phi = eval_all(basis, pts)  # (g*g, m)
    m = basis.size
    out = np.zeros((m, m))
    chunk = max(1, int(2**22 // (pts.shape[0] + 1)))
    for start in range(0, pts.shape[0], chunk):
        block = pts[start : start + chunk]
        kvals = np.asarray(
            kernel(block[:, None, :], pts[None, :, :]), dtype=float
        )
        out += phi[start : start + chunk].T @ (kvals @ phi)
    return out / g**4


def fejer_average(
    coefficients: np.ndarray, r: int, basis: BasisSet | None = None
) -> np.ndarray:
    """Cesaro-averaged coefficient matrix with per-frequency weights.

    Each entry is damped by w_i * w_j where w = prod_axis(1 - n/(r+1)) and n
    is the per-axis frequency of the basis function. Without an explicit
    basis the rows are assumed to follow the standard 1d ordering.
    """
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got {c.shape}")
    if basis is None:
        basis = basis_1d(c.shape[0])
    if basis.size != c.shape[0]:
        raise ValueError("coefficient matrix does not match basis size")
    if np.any(basis.frequencies > r):
        raise ValueError(f"basis contains frequencies above {r}")
    w = np.prod(1.0 - basis.frequencies / (r + 1.0), axis=1)
    return w[:, None] * c * w[None, :]


def psd_check(coefficients: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric coefficient matrix."""
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"matrix must be square, got {c.shape}")
    asym = float(np.max(np.abs(c - c.T))) if c.size else 0.0
    if asym > 1e-12:
        raise ValueError(f"matrix is not symmetric (asymmetry {asym:.3e})")
    return float(np.min(np.linalg.eigvalsh(0.5 * (c + c.T))))


def translation_invariant_blocks(eta_cos, eta_sin) -> SpectralKernel:
    """Kernel built from per-frequency moments of a displacement profile.

    ``eta_cos[n]`` and ``eta_sin[n]`` are the cosine/sine moments of the
    profile at integer frequency n (n = 0 is the mean; its sine moment must
    vanish). Frequency n > 0 contributes the scaled rotation block
    [[c, s], [-s, c]] on its cosine/sine pair, and its inverse
    [[c, -s], [s, c]] / (c^2 + s^2) to J; an even profile leaves K
    diagonal. Frequencies whose block determinant falls below 1e-14 are
    dropped from the basis.
    """
    c = np.asarray(eta_cos, dtype=float)
    s = np.asarray(eta_sin, dtype=float)
    if c.shape != s.shape or c.ndim != 1 or c.size < 1:
        raise ValueError("moment arrays must be equal-length 1d vectors")
    if s[0] != 0.0:
        raise ValueError("sine moment at frequency 0 must be zero")

    kept = [n for n in range(c.size) if c[n] ** 2 + s[n] ** 2 >= DEGENERATE_DET]
    if not kept:
        raise ValueError("all frequencies are degenerate; basis would be empty")

    indices: list[int] = []
    for n in kept:
        indices.extend((1,) if n == 0 else (2 * n, 2 * n + 1))
    b = BasisSet(dimension=1, truncation=max(indices), indices=tuple(indices))

    k_mat = np.zeros((b.size, b.size))
    j_mat = np.zeros((b.size, b.size))
    pos = 0
    for n in kept:
        if n == 0:
            k_mat[0, 0], j_mat[0, 0] = c[0], 1.0 / c[0]
            pos = 1
            continue
        det = c[n] ** 2 + s[n] ** 2
        k_mat[pos : pos + 2, pos : pos + 2] = [[c[n], s[n]], [-s[n], c[n]]]
        j_mat[pos : pos + 2, pos : pos + 2] = (
            np.array([[c[n], -s[n]], [s[n], c[n]]]) / det
        )
        pos += 2
    return SpectralKernel(b, k_mat, j_mat)


def _dense_inverse(k_mat: np.ndarray) -> np.ndarray:
    j = np.linalg.inv(k_mat)
    # one Newton refinement step tightens K @ J toward the identity
    return j + j @ (np.eye(k_mat.shape[0]) - k_mat @ j)


def spectral_from_dense(
    coefficients: np.ndarray, basis: BasisSet, eps: float | None = None
) -> SpectralKernel:
    """Kernel from a symmetric coefficient matrix, inverted numerically.

    With eps=None a shift of 1e-6 is applied automatically when the
    smallest eigenvalue drops below 1e-10; an explicit eps (including 0) is
    honored, with a warning when it leaves the matrix near-singular.
    """
    c = np.asarray(coefficients, dtype=float)
    if c.shape != (basis.size, basis.size):
        raise ValueError(
            f"coefficient matrix shape {c.shape} does not match basis size "
            f"{basis.size}"
        )
    asym = float(np.max(np.abs(c - c.T)))
    if asym > 1e-10:
        raise ValueError(f"dense kernels must be symmetric (asymmetry {asym:.3e})")
    c = 0.5 * (c + c.T)
    min_eig = float(np.min(np.linalg.eigvalsh(c)))
    if eps is None:
        eps = AUTO_EPS if min_eig < AUTO_EPS_TRIGGER else 0.0
    elif min_eig + eps < AUTO_EPS_TRIGGER:
        warnings.warn(
            f"coefficient matrix is near-singular (min eigenvalue {min_eig:.3e}) "
            f"and eps={eps} leaves it so",
            RuntimeWarning,
            stacklevel=2,
        )
    k_mat = c + eps * np.eye(basis.size)
    try:
        j_mat = _dense_inverse(k_mat)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"coefficient matrix is singular: {exc}") from exc
    return SpectralKernel(basis, k_mat, j_mat, eps=float(eps))


def regularize(kernel: SpectralKernel, eps: float) -> SpectralKernel:
    """Shift the coefficient matrix by eps * Id and rebuild the inverse."""
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if eps == 0.0:
        return kernel
    k_mat = kernel.k_mat + eps * np.eye(kernel.size)
    return SpectralKernel(
        kernel.basis, k_mat, _dense_inverse(k_mat), eps=kernel.eps + eps
    )
