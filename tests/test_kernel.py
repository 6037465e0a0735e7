import tracemalloc
import warnings

import numpy as np
import pytest

from mfgspectral.basis import basis_1d, basis_2d, eval_all
from mfgspectral.kernel import (
    GaussianKernelSpec,
    SpectralKernel,
    fejer_average,
    fourier_coefficients,
    gaussian_spectral,
    kernel_eval_direct,
    psd_check,
    spectral_from_dense,
    translation_invariant_blocks,
)
from mfgspectral.kernel import _gauss_axis


def frobenius_identity_gap(kernel):
    prod = kernel.k_mat @ kernel.j_mat
    return np.linalg.norm(prod - np.eye(kernel.size))


class TestGaussianSpectral:
    def test_1d_entries(self):
        spec = GaussianKernelSpec(sigma=0.2, mu=0.5)
        k = np.diag(gaussian_spectral(spec, 3).k_mat)
        assert k[0] == pytest.approx(0.5, abs=0)
        # mu * exp(-(0.2*pi)^2 / 2), frozen from direct evaluation
        assert k[1] == pytest.approx(0.41043435870776995, rel=1e-14)
        assert k[2] == k[1]

    def test_1d_inverse_and_form(self):
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 8)
        k, j = np.diag(ker.k_mat), np.diag(ker.j_mat)
        np.testing.assert_array_equal(ker.k_mat, np.diag(k))
        np.testing.assert_array_equal(ker.j_mat, np.diag(j))
        np.testing.assert_allclose(j, 1.0 / k, rtol=1e-15)
        assert frobenius_identity_gap(ker) < 1e-10

    def test_1d_monotone_decay(self):
        ker = gaussian_spectral(GaussianKernelSpec(0.3, 1.2), 9)
        assert np.all(np.diff(np.diag(ker.k_mat)) <= 1e-18)

    def test_2d_entries(self):
        ker = gaussian_spectral(GaussianKernelSpec(0.1, 0.5, dimension=2), 8)
        assert ker.size == 28
        assert ker.k_mat[0, 0] == pytest.approx(0.25, abs=0)
        ker1 = gaussian_spectral(GaussianKernelSpec(1.0, 0.5, dimension=2), 8)
        pos = ker1.basis.indices.index((1, 2))
        # mu^2 * exp(-pi^2/2), frozen from direct evaluation
        assert ker1.k_mat[pos, pos] == pytest.approx(0.001797970838956592, rel=1e-13)

    def test_underflowed_frequencies_dropped(self):
        # at sigma=1, frequencies beyond ~26 underflow to exactly zero and
        # must leave the basis instead of producing infinite inverses
        ker = gaussian_spectral(GaussianKernelSpec(1.0, 0.5), 60)
        assert ker.size < 60
        assert np.all(np.diag(ker.k_mat) > 0)
        assert np.all(np.isfinite(ker.j_mat))
        assert frobenius_identity_gap(ker) < 1e-10
        assert ker.basis.indices[0] == 1

    @pytest.mark.parametrize(
        "dimension, sigma",
        [(1, 1e300), (2, 1e300), (1, 5.8e307), (2, 5.8e307), (1, 1.7e308),
         (2, 1.7e308)],
        ids=["1", "2", "1-5.8e307", "2-5.8e307", "1-1.7e308", "2-1.7e308"],
    )
    def test_huge_sigma_keeps_only_the_constant_silently(self, dimension, sigma):
        # (pi sigma n)^2 overflows to inf for n >= 1, so those eigenvalues are
        # exactly 0 and dropped; the overflow is intended and not warned of.
        # From about 5.7e307 pi sigma itself is inf, and frequency 0 must
        # still get exponent 0 (not inf * 0 = NaN) to keep mu^d
        ker = gaussian_spectral(GaussianKernelSpec(sigma, 0.5, dimension), 4)
        assert ker.basis.indices == ((1,) if dimension == 1 else ((1, 1),))
        np.testing.assert_array_equal(ker.k_mat, [[0.5**dimension]])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="^dimension must be 1 or 2, got 3$"):
            GaussianKernelSpec(0.2, 0.5, dimension=3)
        with pytest.raises(ValueError):
            GaussianKernelSpec(sigma=-0.1, mu=0.5)
        with pytest.raises(ValueError):
            GaussianKernelSpec(sigma=0.1, mu=0.0)
        with pytest.raises(ValueError):
            gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 0)

    @pytest.mark.parametrize(
        "sigma, mu",
        [(np.nan, 0.5), (np.inf, 0.5), (0.2, np.nan), (0.2, np.inf), (np.nan, np.inf)],
    )
    def test_non_finite_parameters(self, sigma, mu):
        with pytest.raises(ValueError, match="finite"):
            GaussianKernelSpec(sigma=sigma, mu=mu)

    @pytest.mark.parametrize(
        "value, message",
        [
            (10**400, "sigma is too large for a float"),
            ("0.2", "sigma must be a real number, got '0.2'"),
            (True, "sigma must be a real number, got True"),
            (None, "sigma must be a real number, got None"),
        ],
    )
    def test_non_real_sigma_rejected(self, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GaussianKernelSpec(sigma=value, mu=0.5)
        with pytest.raises(ValueError, match=f"^{message.replace('sigma', 'mu')}$"):
            GaussianKernelSpec(sigma=0.2, mu=value)

    def test_total_weight_overflow_rejected(self):
        # mu^2 = 1e400 is past the float range; in 1d the same mu is usable
        message = r"^mu = 1e\+200 overflows a float in mu\^2$"
        with pytest.raises(ValueError, match=message):
            GaussianKernelSpec(sigma=0.1, mu=1e200, dimension=2)
        ker = gaussian_spectral(GaussianKernelSpec(sigma=0.1, mu=1e200), 3)
        assert ker.k_mat[0, 0] == 1e200

    def test_fields_stored_as_floats(self):
        spec = GaussianKernelSpec(sigma=np.float32(0.25), mu=1)
        assert type(spec.sigma) is float and spec.sigma == 0.25
        assert type(spec.mu) is float and spec.mu == 1.0


class TestDirectEvaluation:
    def test_peak_value(self):
        spec = GaussianKernelSpec(sigma=0.2, mu=0.5)
        # mu / sqrt(2 pi (sigma/2)^2) * (image sum at 0), frozen
        assert kernel_eval_direct(spec, 0.3, 0.3) == pytest.approx(
            1.9947114020071635, rel=1e-14
        )

    def test_symmetry_and_periodicity(self):
        rng = np.random.default_rng(7)
        spec = GaussianKernelSpec(sigma=0.35, mu=0.8)
        x, y = rng.uniform(0, 1, size=(2, 100))
        np.testing.assert_allclose(
            kernel_eval_direct(spec, x, y), kernel_eval_direct(spec, y, x), rtol=1e-14
        )
        np.testing.assert_allclose(
            kernel_eval_direct(spec, x + 1.0, y),
            kernel_eval_direct(spec, x, y),
            rtol=1e-12,
        )

    def test_2d_is_product_of_axes(self):
        rng = np.random.default_rng(8)
        spec2 = GaussianKernelSpec(sigma=0.4, mu=0.7, dimension=2)
        spec1 = GaussianKernelSpec(sigma=0.4, mu=0.7)
        x = rng.uniform(0, 1, size=(20, 2))
        y = rng.uniform(0, 1, size=(20, 2))
        expect = kernel_eval_direct(spec1, x[:, 0], y[:, 0]) * kernel_eval_direct(
            spec1, x[:, 1], y[:, 1]
        )
        np.testing.assert_allclose(kernel_eval_direct(spec2, x, y), expect, rtol=1e-13)

    def test_2d_needs_coordinate_pairs(self):
        spec = GaussianKernelSpec(sigma=0.4, mu=0.7, dimension=2)
        message = "^2d kernel requires coordinate pairs in the last axis$"
        with pytest.raises(ValueError, match=message):
            kernel_eval_direct(spec, np.zeros(5), np.zeros(5))

    @pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0])
    def test_truncated_expansion_matches_direct(self, sigma):
        # eigenfunction expansion with 40 functions against the image sum
        spec = GaussianKernelSpec(sigma=sigma, mu=0.5)
        ker = gaussian_spectral(spec, 40)
        grid = np.arange(64) / 64.0
        vals = eval_all(ker.basis, grid)
        approx = vals @ ker.k_mat @ vals.T
        direct = kernel_eval_direct(spec, grid[:, None], grid[None, :])
        assert np.max(np.abs(approx - direct)) < 1e-8


class TestFourierCoefficients:
    def test_constant_kernel(self):
        b = basis_1d(3)
        coeffs = fourier_coefficients(
            lambda x, y: np.ones(np.broadcast(x, y).shape), b, 64
        )
        expect = np.zeros((3, 3))
        expect[0, 0] = 1.0
        np.testing.assert_allclose(coeffs, expect, atol=1e-12)

    def test_cosine_difference_kernel(self):
        b = basis_1d(5)
        coeffs = fourier_coefficients(
            lambda x, y: 2.0 * np.cos(2 * np.pi * (x - y)), b, 64
        )
        expect = np.zeros((5, 5))
        expect[1, 1] = 1.0
        expect[2, 2] = 1.0
        np.testing.assert_allclose(coeffs, expect, atol=1e-12)

    def test_matches_analytic_gaussian(self):
        spec = GaussianKernelSpec(sigma=0.2, mu=0.5)
        ker = gaussian_spectral(spec, 8)
        coeffs = fourier_coefficients(
            lambda x, y: kernel_eval_direct(spec, x, y), ker.basis, 512
        )
        diag_gap = np.max(np.abs(np.diag(coeffs) - np.diag(ker.k_mat)))
        off = coeffs - np.diag(np.diag(coeffs))
        assert diag_gap < 1e-8
        assert np.max(np.abs(off)) < 1e-8

    def test_coarse_grid_rejected(self):
        b = basis_1d(8)
        with pytest.raises(ValueError):
            fourier_coefficients(lambda x, y: x * 0 + 1.0, b, 31)

    def test_2d_quadrature_against_analytic(self):
        spec = GaussianKernelSpec(sigma=0.5, mu=0.8, dimension=2)
        ker = gaussian_spectral(spec, 4)
        coeffs = fourier_coefficients(
            lambda x, y: kernel_eval_direct(spec, x, y), ker.basis, 16
        )
        np.testing.assert_allclose(coeffs, ker.k_mat, atol=1e-8)

    @pytest.mark.parametrize(
        "dimension, r, g", [(1, 17, 512), (1, 9, 37), (2, 8, 40), (2, 8, 37)]
    )
    def test_blocks_match_full_broadcast(self, dimension, r, g):
        # g = 37 in 2d: 1369 points, not a multiple of the block rows
        kern = sheared_gaussian(0.3, 0.6) if dimension == 2 else asymmetric_1d
        b = basis_1d(r) if dimension == 1 else basis_2d(r)
        axis = np.arange(g) / g
        if dimension == 1:
            pts = axis
        else:
            pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        phi = eval_all(b, pts)
        full = kern(pts[:, None], pts[None])
        expect = phi.T @ full @ phi / g ** (2 * dimension)
        np.testing.assert_allclose(
            fourier_coefficients(kern, b, g), expect, rtol=0, atol=1e-14
        )

    def test_2d_memory_is_one_block(self):
        b = basis_2d(8)
        kern = sheared_gaussian(0.3, 0.6)
        fourier_coefficients(kern, b, 40)
        tracemalloc.start()
        try:
            fourier_coefficients(kern, b, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one full-broadcast pass over the 1600 x 1600 pairs peaks at 157 MiB
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_wrong_kernel_shape_rejected(self, dimension):
        b = basis_1d(3) if dimension == 1 else basis_2d(2)
        g = 16 if dimension == 1 else 8
        with pytest.raises(ValueError, match=rf"\(\d+, {g**dimension}\)"):
            fourier_coefficients(lambda x, y: 1.0, b, g)
        with pytest.raises(ValueError, match="shape"):
            fourier_coefficients(lambda x, y: (x - y)[..., :1], b, g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_kernel_rejected(self, bad):
        def kern(x, y):
            out = np.ones(np.broadcast(x, y).shape)
            out[0, 3] = bad
            return out

        with pytest.raises(ValueError, match="finite"):
            fourier_coefficients(kern, basis_1d(3), 16)


def asymmetric_1d(x, y):
    # smooth, periodic, not a function of x - y alone
    return np.exp(np.cos(2 * np.pi * x) + 0.5 * np.sin(2 * np.pi * (x - 2 * y)))


def sheared_gaussian(sigma, mu, shear=1, axis=None):
    # g((x1 - y1) + shear (x2 - y2)) g(x2 - y2): periodic, PSD and not
    # separable; g is kernel_eval_direct's 1d Gaussian unless axis is given
    spec = GaussianKernelSpec(sigma=sigma, mu=mu)
    g = axis or (lambda t: kernel_eval_direct(spec, t, 0.0))

    def kern(x, y):
        d = x - y
        return g(d[..., 0] + shear * d[..., 1]) * g(d[..., 1])

    return kern


def wide_image_sum(sigma, mu, t):
    # the periodic Gaussian written out over 2 max(3, ceil(1 + 4.3 sigma)) + 1
    # images, which hold every image _gauss_axis sums for sigma <= 1.5
    s = sigma / 2.0
    frac = t - np.floor(t)
    m = max(3, int(np.ceil(1.0 + 4.3 * sigma)))
    total = np.zeros_like(frac)
    for k in range(-m, m + 1):
        total += np.exp(-((frac - k) ** 2) / (2.0 * s * s))
    return mu / np.sqrt(2.0 * np.pi * s * s) * total


def window_points():
    # 110006 points: frac(t) spread over [0, 1), just above 0, just below 1
    # and near 0.5, and |t| up to 1e9
    rng = np.random.default_rng(31)
    whole = rng.integers(-50, 50, size=(3, 10000))
    near = rng.uniform(0, 1e-6, size=(3, 10000))
    return np.concatenate(
        [
            rng.uniform(-3, 3, 60000),
            rng.uniform(-1e9, 1e9, 20000),
            whole[0] + near[0],
            whole[1] - near[1],
            whole[2] + 0.5 + (near[2] - 5e-7),
            [0.0, 0.5, 1.0, -1.0, 1e9, -1e9],
        ]
    )


class TestGaussAxis:
    @pytest.mark.parametrize("sigma", [0.05, 0.3, 1.7])
    def test_bit_identical_to_written_out_sum(self, sigma):
        spec = GaussianKernelSpec(sigma=sigma, mu=0.7)
        rng = np.random.default_rng(23)
        t = np.concatenate(
            [rng.uniform(-3, 3, 500), rng.uniform(-1e6, 1e6, 97), [0.0, -0.5, 1e9]]
        ).reshape(3, -1, 4)
        s = sigma / 2.0
        frac = t - np.floor(t)
        m = max(3, int(np.ceil(1.0 + 4.3 * sigma)))
        total = np.zeros_like(frac)
        for k in range(-m, m + 1):
            total += np.exp(-((frac - k) ** 2) / (2.0 * s * s))
        expect = 0.7 / np.sqrt(2.0 * np.pi * s * s) * total
        np.testing.assert_array_equal(_gauss_axis(spec, t), expect)
        np.testing.assert_array_equal(_gauss_axis(spec, t[:, 1::3, ::2]), expect[:, 1::3, ::2])

    # 0.1999 | 0.2 and 0.3999 | 0.4 straddle steps of the 5 sigma window,
    # 0.2325 | 0.2326 and 0.4651 | 0.4652 those of a 4.3 sigma one
    @pytest.mark.parametrize(
        "sigma",
        [0.01, 0.1, 0.1999, 0.2, 0.2325, 0.2326, 0.3, 0.3999, 0.4, 0.4651, 0.4652, 1.0],
    )
    def test_window_bit_identical_to_wide_sum(self, sigma):
        t = window_points()
        spec = GaussianKernelSpec(sigma=sigma, mu=0.7)
        np.testing.assert_array_equal(_gauss_axis(spec, t), wide_image_sum(sigma, 0.7, t))

    @pytest.mark.parametrize("sigma", [0.987, 1.7, 2.5, 4.0])
    def test_window_within_rounding_of_wide_sum(self, sigma):
        # a different set or order of negligible images moves the last bit
        # of rare values; for sigma > 1.5 the window is the wider one
        t = window_points()
        spec = GaussianKernelSpec(sigma=sigma, mu=0.7)
        np.testing.assert_allclose(
            _gauss_axis(spec, t), wide_image_sum(sigma, 0.7, t), rtol=4.5e-16, atol=0
        )

    def test_scalar_for_scalar_and_owned_array_otherwise(self):
        # an owned result lets numpy reuse it for the caller's temporaries
        spec = GaussianKernelSpec(sigma=0.3, mu=0.7)
        assert type(kernel_eval_direct(spec, 0.3, 0.1)) is np.float64
        assert kernel_eval_direct(spec, np.linspace(0, 1, 5), 0.1).base is None

    @pytest.mark.parametrize("sigma, shear", [(0.2, 1), (0.2325, -1), (0.3999, 1)])
    def test_sheared_coefficients_bit_identical_to_wide_sum(self, sigma, shear):
        # the dense 2d quadrature of the benchmark's sheared kernel
        b = basis_2d(8)
        wide = sheared_gaussian(
            sigma, 0.6, shear, axis=lambda t: wide_image_sum(sigma, 0.6, t)
        )
        np.testing.assert_array_equal(
            fourier_coefficients(sheared_gaussian(sigma, 0.6, shear), b, 32),
            fourier_coefficients(wide, b, 32),
        )


class TestFejerAverage:
    def test_weights_1d(self):
        c = np.ones((5, 5))
        out = fejer_average(c, 2, basis_1d(5))
        # frequencies along the standard ordering: 0, 1, 1, 2, 2
        assert out[0, 0] == pytest.approx(1.0)
        assert out[3, 0] == pytest.approx(1.0 / 3.0)
        assert out[3, 3] == pytest.approx(1.0 / 9.0)

    def test_psd_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = rng.normal(size=(7, 7))
            c = g.T @ g
            out = fejer_average(c, 3, basis_1d(7))
            assert psd_check(out) >= -1e-10

    def test_2d_basis_weights(self):
        b = basis_2d(4)
        c = np.eye(b.size)
        out = fejer_average(c, 2, basis=b)
        pos = b.indices.index((2, 2))
        # per-axis frequencies (1, 1): weight (1 - 1/3)^2 per side
        assert out[pos, pos] == pytest.approx((2.0 / 3.0) ** 4)

    def test_frequency_above_range_rejected(self):
        c = np.eye(5)
        with pytest.raises(ValueError):
            fejer_average(c, 1, basis_1d(5))

    def test_matrix_shape_checked(self):
        message = r"^coefficient matrix must be square, got \(5, 4\)$"
        with pytest.raises(ValueError, match=message):
            fejer_average(np.ones((5, 4)), 3, basis_1d(5))
        message = "^coefficient matrix does not match basis size$"
        with pytest.raises(ValueError, match=message):
            fejer_average(np.eye(4), 3, basis_1d(5))


class TestPsdCheck:
    def test_identity(self):
        assert psd_check(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert psd_check(np.diag([1.0, -0.1])) == pytest.approx(-0.1)

    def test_gaussian_diagonal(self):
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 8)
        assert psd_check(ker.k_mat) == pytest.approx(np.min(np.diag(ker.k_mat)))

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            psd_check(m)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match=r"square and non-empty, got \(0, 0\)"):
            psd_check(np.zeros((0, 0)))


class TestTranslationInvariantBlocks:
    def test_even_profile_is_diagonal(self):
        ker = translation_invariant_blocks([1.0, 0.5, 0.25], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(ker.k_mat, np.diag(np.diag(ker.k_mat)))
        np.testing.assert_allclose(np.diag(ker.k_mat), [1.0, 0.5, 0.5, 0.25, 0.25])
        assert ker.basis.indices == (1, 2, 3, 4, 5)

    def test_block_inverse(self):
        ker = translation_invariant_blocks([1.0, 0.3], [0.0, 0.4])
        # nonzeros only inside the 1x1 and 2x2 diagonal blocks
        outside = np.ones((3, 3), dtype=bool)
        outside[0, 0] = False
        outside[1:3, 1:3] = False
        assert np.all(ker.k_mat[outside] == 0.0)
        assert np.all(ker.j_mat[outside] == 0.0)
        blk = ker.k_mat[1:3, 1:3]
        np.testing.assert_allclose(blk, [[0.3, 0.4], [-0.4, 0.3]])
        np.testing.assert_allclose(
            ker.j_mat[1:3, 1:3], np.array([[0.3, -0.4], [0.4, 0.3]]) / 0.25
        )
        assert frobenius_identity_gap(ker) < 1e-10

    def test_degenerate_frequency_dropped(self):
        ker = translation_invariant_blocks([1.0, 0.0, 0.5], [0.0, 0.0, 0.0])
        assert ker.basis.indices == (1, 4, 5)
        np.testing.assert_allclose(np.diag(ker.k_mat), [1.0, 0.5, 0.5])

    def test_all_degenerate_rejected(self):
        with pytest.raises(ValueError):
            translation_invariant_blocks([0.0, 0.0], [0.0, 0.0])

    def test_unequal_moment_lengths_rejected(self):
        message = "^moment arrays must be equal-length 1d vectors$"
        with pytest.raises(ValueError, match=message):
            translation_invariant_blocks([1.0, 0.5], [0.0])

    def test_nonzero_sine_moment_at_zero_rejected(self):
        with pytest.raises(ValueError):
            translation_invariant_blocks([1.0, 0.5], [0.1, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["cos", "sin"])
    def test_non_finite_moment_rejected(self, which, bad):
        # unchecked, a NaN moment drops its frequency and an infinite one
        # puts NaN into J
        moments = {"cos": [1.0, 0.5], "sin": [0.0, 0.2]}
        moments[which][1] = bad
        with pytest.raises(ValueError, match="^moments must be finite$"):
            translation_invariant_blocks(moments["cos"], moments["sin"])

    def test_matches_quadrature_of_displacement_kernel(self):
        # profile with known moments: c0 + 2 c1 cos + 2 s1 sin
        c0, c1, s1 = 0.9, 0.3, 0.2

        def kernel(x, y):
            t = x - y
            return (
                c0
                + 2 * c1 * np.cos(2 * np.pi * t)
                + 2 * s1 * np.sin(2 * np.pi * t)
            )

        ker = translation_invariant_blocks([c0, c1], [0.0, s1])
        coeffs = fourier_coefficients(kernel, basis_1d(3), 32)
        np.testing.assert_allclose(ker.k_mat, coeffs, atol=1e-12)


class TestRegularize:
    """The eps * Id shift, which spectral_from_dense alone applies."""

    def test_diagonal_shift(self):
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)
        out = spectral_from_dense(ker.k_mat, ker.basis, eps=1e-3)
        np.testing.assert_allclose(np.diag(out.k_mat), np.diag(ker.k_mat) + 1e-3)
        assert out.eps == pytest.approx(1e-3)
        assert frobenius_identity_gap(out) < 1e-10

    def test_dense_min_eigenvalue_shifted(self):
        rng = np.random.default_rng(10)
        g = rng.normal(size=(6, 4))
        singular = g @ g.T  # rank 4, PSD-singular
        ker = spectral_from_dense(singular, basis_1d(6), eps=1e-6)
        assert ker.eigenvalues()[0] >= 1e-6 - 1e-12
        # inverse accuracy for a cond ~ 1e7 matrix is limited by cond * ulp
        cond = np.linalg.cond(ker.k_mat)
        assert frobenius_identity_gap(ker) < 100 * cond * np.finfo(float).eps

    def test_negative_eps_rejected(self):
        ker = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)
        with pytest.raises(ValueError, match="^eps must be nonnegative and finite"):
            spectral_from_dense(ker.k_mat, ker.basis, eps=-1e-6)

    @pytest.mark.parametrize(
        "eps, message",
        [
            # unchecked, -0.5 turns K = I into 0.5 I; NaN and inf put NaN into J
            (-0.5, "eps must be nonnegative and finite, got -0.5"),
            (np.nan, "eps must be nonnegative and finite, got nan"),
            (np.inf, "eps must be nonnegative and finite, got inf"),
            (10**400, "eps is too large for a float"),
            (True, "eps must be a real number, got True"),
        ],
    )
    def test_bad_eps_rejected(self, eps, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            spectral_from_dense(np.eye(2), basis_1d(2), eps=eps)


class TestDenseConstruction:
    def test_auto_policy_applies_shift(self):
        ker = spectral_from_dense(np.diag([1e-12, 1.0]), basis_1d(2))
        assert ker.eps == pytest.approx(1e-6)
        assert ker.eigenvalues()[0] > 0

    def test_auto_policy_skips_well_conditioned(self):
        ker = spectral_from_dense(np.diag([0.5, 1.0]), basis_1d(2))
        assert ker.eps == 0.0

    def test_explicit_zero_eps_on_singular_warns_then_fails(self):
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError):
                spectral_from_dense(np.diag([0.0, 1.0]), basis_1d(2), eps=0.0)

    def test_example_shift(self):
        ker = spectral_from_dense(np.diag([0.0, 1.0]), basis_1d(2), eps=1e-6)
        np.testing.assert_allclose(
            np.diag(ker.k_mat), [1e-6, 1.0 + 1e-6], rtol=1e-12
        )
        assert frobenius_identity_gap(ker) < 1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            spectral_from_dense(np.array([[1.0, 0.2], [0.0, 1.0]]), basis_1d(2))

    def test_symmetry_tolerance_is_psd_checks(self):
        # one tolerance, psd_check's 1e-12, for every coefficient matrix
        c = np.eye(2)
        c[0, 1] = 1e-11
        with pytest.raises(ValueError, match="^matrix is not symmetric"):
            psd_check(c)
        with pytest.raises(ValueError, match="^matrix is not symmetric"):
            spectral_from_dense(c, basis_1d(2))
        c[0, 1] = 1e-13
        ker = spectral_from_dense(c, basis_1d(2))
        np.testing.assert_array_equal(ker.k_mat, 0.5 * (c + c.T))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        c = np.eye(3)
        c[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            spectral_from_dense(c, basis_1d(3))

    def test_entries_near_float_max_do_not_overflow(self):
        # the symmetric part halves each term before the sum: 1e308 + 1e308
        # would overflow to inf and leave J all NaN
        c = np.diag([1e308, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ker = spectral_from_dense(c, basis_1d(2))
            np.testing.assert_array_equal(ker.k_mat, c)
            np.testing.assert_array_equal(ker.j_mat, np.diag([1e-308, 1.0]))
            np.testing.assert_array_equal(ker.eigenvalues(), [1.0, 1e308])
            assert psd_check(c) == 1.0


def lib_2d_dense_matrix():
    # the library benchmark's kernel: Fejer average of the quadrature
    # matrix of a sheared Gaussian, r = 8 on a 40 x 40 grid
    b = basis_2d(8)
    return fejer_average(fourier_coefficients(sheared_gaussian(0.3, 0.6), b, 40), 8, b), b


class TestDerivedInverse:
    """SpectralKernel forms J = K^-1 from K, by one of two rules."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 8),
            lambda: gaussian_spectral(GaussianKernelSpec(0.1, 0.5, dimension=2), 8),
            lambda: spectral_from_dense(
                gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 8).k_mat,
                basis_1d(8), eps=1e-3,
            ),
            lambda: spectral_from_dense(*lib_2d_dense_matrix()),
            lambda: translation_invariant_blocks([1.0, 0.5, 0.25], [0.0, 0.0, 0.0]),
            lambda: translation_invariant_blocks([1.0, 0.3, 0.1], [0.0, 0.4, -0.05]),
        ],
        ids=["gaussian-1d", "gaussian-2d", "gaussian-eps", "lib-2d-dense",
             "even-profile", "odd-profile"],
    )
    def test_inverse_of_every_constructor(self, build):
        assert frobenius_identity_gap(build()) < 1e-10

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SpectralKernel(basis_1d(3), np.diag([0.5, -0.3, 7.0])),
            lambda: gaussian_spectral(GaussianKernelSpec(0.2, 0.5, dimension=2), 6),
            lambda: spectral_from_dense(np.diag([0.2, 0.7, 3.0]), basis_1d(3), eps=1e-3),
            lambda: translation_invariant_blocks([1.0, 0.3, 0.7], [0.0, 0.0, 0.0]),
        ],
        ids=["direct", "gaussian", "shifted", "even-profile"],
    )
    def test_diagonal_k_gets_reciprocal_diagonal(self, build):
        ker = build()
        diagonal = np.diag(ker.k_mat)
        np.testing.assert_array_equal(ker.k_mat, np.diag(diagonal))
        np.testing.assert_array_equal(ker.j_mat, np.diag(1.0 / diagonal))

    @pytest.mark.parametrize(
        "k_mat",
        [
            np.diag([0.5, 0.0, 2.0]),
            np.ones((3, 3)),
            [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]],
        ],
        ids=["zero-diagonal-entry", "rank-1", "rank-2"],
    )
    def test_singular_k_rejected_without_warning(self, k_mat):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^matrix is singular: "):
                SpectralKernel(basis_1d(3), k_mat)

    def test_j_is_not_an_input(self):
        with pytest.raises(TypeError, match="j_mat"):
            SpectralKernel(basis_1d(2), np.eye(2), j_mat=np.eye(2))


class TestIntegerCounts:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 2.0),
             "r must be an integer, got 2.0"),
            (lambda: GaussianKernelSpec(0.2, 0.5, dimension=1.0),
             "dimension must be an integer, got 1.0"),
            (lambda: GaussianKernelSpec(0.2, 0.5, dimension=True),
             "dimension must be an integer, got True"),
            (lambda: fourier_coefficients(lambda x, y: 0 * (x - y), basis_1d(3), 40.0),
             "num_points must be an integer, got 40.0"),
            (lambda: fejer_average(np.eye(5), 2.5, basis_1d(5)),
             "r must be an integer, got 2.5"),
        ],
        ids=["gaussian_spectral", "spec-dimension", "spec-dimension-bool",
             "fourier_coefficients", "fejer_average"],
    )
    def test_counts_must_be_integers(self, make, message):
        # fejer_average with r = 2.5 returned other weights (0.510 against
        # 0.444 at r = 2), a float num_points was accepted
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_counts_accept_numpy_integers(self):
        spec = GaussianKernelSpec(0.2, 0.5, dimension=np.int64(2))
        assert gaussian_spectral(spec, np.int32(4)).size == 6
        b = basis_1d(5)
        np.testing.assert_array_equal(
            fejer_average(np.eye(5), np.int64(2), b), fejer_average(np.eye(5), 2, b)
        )
        np.testing.assert_array_equal(
            fourier_coefficients(lambda x, y: 0 * (x - y), b, np.int64(20)),
            np.zeros((5, 5)),
        )


class TestApplyOperators:
    def test_matrix_shape_checked(self):
        message = r"^k_mat shape \(3, 3\) does not match basis size 2$"
        with pytest.raises(ValueError, match=message):
            SpectralKernel(basis_1d(2), np.eye(3))

    def test_apply_matches_matrices(self):
        rng = np.random.default_rng(11)
        kernels = [
            gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 6),
            gaussian_spectral(GaussianKernelSpec(0.3, 0.5, dimension=2), 4),
            translation_invariant_blocks([1.0, 0.3, 0.1], [0.0, 0.4, -0.05]),
            spectral_from_dense(
                np.eye(4) + 0.1 * np.ones((4, 4)), basis_1d(4)
            ),
        ]
        for ker in kernels:
            for shape in [(ker.size,), (ker.size, 3)]:
                v = rng.normal(size=shape)
                np.testing.assert_array_equal(ker.apply_k(v), ker.k_mat @ v)
                np.testing.assert_array_equal(ker.apply_j(v), ker.j_mat @ v)
            v = rng.normal(size=(ker.size, 2, 3))
            np.testing.assert_allclose(
                ker.apply_k(v), np.einsum("ij,jkl->ikl", ker.k_mat, v), atol=1e-12
            )
