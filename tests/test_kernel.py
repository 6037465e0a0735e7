import numpy as np
import pytest

from mfgspectral.basis import basis_1d, basis_2d, eval_all
from mfgspectral.kernel import (
    GaussianKernelSpec,
    fejer_average,
    fourier_coefficients,
    gaussian_spectral_1d,
    gaussian_spectral_2d,
    kernel_eval_direct,
    psd_check,
    regularize,
    spectral_from_dense,
    translation_invariant_blocks,
)


def frobenius_identity_gap(kernel):
    prod = kernel.k_matrix() @ kernel.j_matrix()
    return np.linalg.norm(prod - np.eye(kernel.size))


class TestGaussianSpectral:
    def test_1d_entries(self):
        spec = GaussianKernelSpec(sigma=0.2, mu=0.5)
        k = np.diag(gaussian_spectral_1d(spec, 3).k_mat)
        assert k[0] == pytest.approx(0.5, abs=0)
        # mu * exp(-(0.2*pi)^2 / 2), frozen from direct evaluation
        assert k[1] == pytest.approx(0.41043435870776995, rel=1e-14)
        assert k[2] == k[1]

    def test_1d_inverse_and_form(self):
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 8)
        k, j = np.diag(ker.k_mat), np.diag(ker.j_mat)
        np.testing.assert_array_equal(ker.k_mat, np.diag(k))
        np.testing.assert_array_equal(ker.j_mat, np.diag(j))
        np.testing.assert_allclose(j, 1.0 / k, rtol=1e-15)
        assert frobenius_identity_gap(ker) < 1e-10

    def test_1d_monotone_decay(self):
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.3, 1.2), 9)
        assert np.all(np.diff(np.diag(ker.k_mat)) <= 1e-18)

    def test_2d_entries(self):
        ker = gaussian_spectral_2d(GaussianKernelSpec(0.1, 0.5, dimension=2), 8)
        assert ker.size == 28
        assert ker.k_mat[0, 0] == pytest.approx(0.25, abs=0)
        ker1 = gaussian_spectral_2d(GaussianKernelSpec(1.0, 0.5, dimension=2), 8)
        pos = ker1.basis.position((1, 2))
        # mu^2 * exp(-pi^2/2), frozen from direct evaluation
        assert ker1.k_mat[pos, pos] == pytest.approx(0.001797970838956592, rel=1e-13)

    def test_underflowed_frequencies_dropped(self):
        # at sigma=1, frequencies beyond ~26 underflow to exactly zero and
        # must leave the basis instead of producing infinite inverses
        ker = gaussian_spectral_1d(GaussianKernelSpec(1.0, 0.5), 60)
        assert ker.size < 60
        assert np.all(np.diag(ker.k_mat) > 0)
        assert np.all(np.isfinite(ker.j_mat))
        assert frobenius_identity_gap(ker) < 1e-10
        assert ker.basis.indices[0] == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussianKernelSpec(sigma=-0.1, mu=0.5)
        with pytest.raises(ValueError):
            GaussianKernelSpec(sigma=0.1, mu=0.0)
        with pytest.raises(ValueError):
            gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 0)
        with pytest.raises(ValueError):
            gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5, dimension=2), 4)

    @pytest.mark.parametrize(
        "sigma, mu",
        [(np.nan, 0.5), (np.inf, 0.5), (0.2, np.nan), (0.2, np.inf), (np.nan, np.inf)],
    )
    def test_non_finite_parameters(self, sigma, mu):
        with pytest.raises(ValueError, match="finite"):
            GaussianKernelSpec(sigma=sigma, mu=mu)


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

    @pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0])
    def test_truncated_expansion_matches_direct(self, sigma):
        # eigenfunction expansion with 40 functions against the image sum
        spec = GaussianKernelSpec(sigma=sigma, mu=0.5)
        ker = gaussian_spectral_1d(spec, 40)
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
        ker = gaussian_spectral_1d(spec, 8)
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
        ker = gaussian_spectral_2d(spec, 4)
        coeffs = fourier_coefficients(
            lambda x, y: kernel_eval_direct(spec, x, y), ker.basis, 16
        )
        np.testing.assert_allclose(coeffs, ker.k_mat, atol=1e-8)


class TestFejerAverage:
    def test_weights_1d(self):
        c = np.ones((5, 5))
        out = fejer_average(c, 2)
        # frequencies along the standard ordering: 0, 1, 1, 2, 2
        assert out[0, 0] == pytest.approx(1.0)
        assert out[3, 0] == pytest.approx(1.0 / 3.0)
        assert out[3, 3] == pytest.approx(1.0 / 9.0)

    def test_psd_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = rng.normal(size=(7, 7))
            c = g.T @ g
            out = fejer_average(c, 3)
            assert psd_check(out) >= -1e-10

    def test_2d_basis_weights(self):
        b = basis_2d(4)
        c = np.eye(b.size)
        out = fejer_average(c, 2, basis=b)
        pos = b.position((2, 2))
        # per-axis frequencies (1, 1): weight (1 - 1/3)^2 per side
        assert out[pos, pos] == pytest.approx((2.0 / 3.0) ** 4)

    def test_frequency_above_range_rejected(self):
        c = np.eye(5)
        with pytest.raises(ValueError):
            fejer_average(c, 1)


class TestPsdCheck:
    def test_identity(self):
        assert psd_check(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert psd_check(np.diag([1.0, -0.1])) == pytest.approx(-0.1)

    def test_gaussian_diagonal(self):
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 8)
        assert psd_check(ker.k_matrix()) == pytest.approx(np.min(np.diag(ker.k_mat)))

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            psd_check(m)


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

    def test_nonzero_sine_moment_at_zero_rejected(self):
        with pytest.raises(ValueError):
            translation_invariant_blocks([1.0, 0.5], [0.1, 0.0])

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
        np.testing.assert_allclose(ker.k_matrix(), coeffs, atol=1e-12)


class TestRegularize:
    def test_zero_eps_is_identity(self):
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 4)
        assert regularize(ker, 0.0) is ker

    def test_diagonal_shift(self):
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 4)
        out = regularize(ker, 1e-3)
        np.testing.assert_allclose(np.diag(out.k_mat), np.diag(ker.k_mat) + 1e-3)
        assert out.eps == pytest.approx(1e-3)
        assert frobenius_identity_gap(out) < 1e-10

    def test_block_shift(self):
        ker = translation_invariant_blocks([1.0, 0.3], [0.0, 0.4])
        out = regularize(ker, 0.5)
        np.testing.assert_allclose(out.k_mat[1:3, 1:3], [[0.8, 0.4], [-0.4, 0.8]])
        assert frobenius_identity_gap(out) < 1e-10

    def test_dense_min_eigenvalue_shifted(self):
        rng = np.random.default_rng(10)
        g = rng.normal(size=(6, 4))
        singular = g @ g.T  # rank 4, PSD-singular
        ker = spectral_from_dense(singular, basis_1d(6), eps=1e-6)
        assert ker.min_eigenvalue() >= 1e-6 - 1e-12
        # inverse accuracy for a cond ~ 1e7 matrix is limited by cond * ulp
        cond = np.linalg.cond(ker.k_mat)
        assert frobenius_identity_gap(ker) < 100 * cond * np.finfo(float).eps

    def test_negative_eps_rejected(self):
        ker = gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 4)
        with pytest.raises(ValueError):
            regularize(ker, -1e-6)


class TestDenseConstruction:
    def test_auto_policy_applies_shift(self):
        ker = spectral_from_dense(np.diag([1e-12, 1.0]), basis_1d(2))
        assert ker.eps == pytest.approx(1e-6)
        assert ker.min_eigenvalue() > 0

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


class TestApplyOperators:
    def test_apply_matches_matrices(self):
        rng = np.random.default_rng(11)
        kernels = [
            gaussian_spectral_1d(GaussianKernelSpec(0.2, 0.5), 6),
            translation_invariant_blocks([1.0, 0.3, 0.1], [0.0, 0.4, -0.05]),
            spectral_from_dense(
                np.eye(4) + 0.1 * np.ones((4, 4)), basis_1d(4)
            ),
        ]
        for ker in kernels:
            v = rng.normal(size=(ker.size, 3))
            np.testing.assert_allclose(ker.apply_k(v), ker.k_matrix() @ v, atol=1e-12)
            np.testing.assert_allclose(ker.apply_j(v), ker.j_matrix() @ v, atol=1e-12)
