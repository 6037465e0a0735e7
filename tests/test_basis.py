import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mfgspectral.basis import (
    BasisSet,
    SliceTables,
    _axis_tables,
    basis_1d,
    basis_2d,
    eval_all,
    grad_all,
    hessian_bounds,
    tensor_indices,
)

SQRT2 = math.sqrt(2.0)


def closed_form(idx, pts):
    """Values and gradients of one basis function, written out per axis.

    Axis factor k is 1, sqrt(2) sin(2 pi n t) (k even) or sqrt(2) cos(2 pi n t)
    (k odd > 1) with n = k // 2; returns (n_points,) values and
    (n_points, d) gradients of the product over axes.
    """
    ks = np.atleast_1d(idx)
    vals, ders = [], []
    for k, t in zip(ks, pts.T):
        w = 2.0 * np.pi * (k // 2)
        if k == 1:
            vals.append(np.ones_like(t))
            ders.append(np.zeros_like(t))
        elif k % 2 == 0:
            vals.append(SQRT2 * np.sin(w * t))
            ders.append(SQRT2 * w * np.cos(w * t))
        else:
            vals.append(SQRT2 * np.cos(w * t))
            ders.append(-SQRT2 * w * np.sin(w * t))
    grad = [np.prod([ders[e] if e == i else vals[e] for e in range(len(ks))], axis=0)
            for i in range(len(ks))]
    return np.prod(vals, axis=0), np.stack(grad, axis=-1)


def value(b, idx, pts):
    """Values of basis function ``idx`` at (n, d) points, read from eval_all."""
    return eval_all(b, pts)[:, b.indices.index(idx)]


def gradient(b, idx, pts):
    """Gradients of basis function ``idx`` at (n, d) points, from grad_all."""
    return grad_all(b, pts)[:, b.indices.index(idx)]


def test_eval_constant():
    b = basis_1d(3)
    assert value(b, 1, [[0.37]])[0] == 1.0


def test_eval_first_sine_cosine():
    b = basis_1d(3)
    # sqrt(2) sin(2 pi x) at x = 1/4 and sqrt(2) cos(2 pi x) at x = 1/2
    assert value(b, 2, [[0.25]])[0] == pytest.approx(1.4142135623730951, abs=1e-14)
    assert value(b, 3, [[0.5]])[0] == pytest.approx(-1.4142135623730951, abs=1e-14)


def test_grad_values():
    b = basis_1d(3)
    assert gradient(b, 1, [[0.123]])[0] == pytest.approx([0.0])
    assert gradient(b, 2, [[0.0]])[0, 0] == pytest.approx(8.885765876316732, abs=1e-12)
    assert gradient(b, 3, [[0.25]])[0, 0] == pytest.approx(
        -8.885765876316732, abs=1e-12
    )


def test_tensor_indices_small():
    assert tensor_indices(2) == [(1, 1)]
    assert tensor_indices(3) == [(1, 1), (1, 2), (2, 1)]


def test_tensor_indices_count_and_order():
    idx = tensor_indices(8)
    assert len(idx) == 28
    assert idx == sorted(idx)
    assert len(set(idx)) == len(idx)
    assert all(k + kp <= 8 for k, kp in idx)


def test_tensor_indices_rejects_small_r():
    with pytest.raises(ValueError):
        tensor_indices(1)


def test_invalid_index_raises():
    # a basis may not list a per-axis index above its truncation
    with pytest.raises(ValueError, match="invalid basis index 8"):
        BasisSet(dimension=1, truncation=1, indices=(1, 8))
    with pytest.raises(ValueError, match=r"invalid basis index \(1, 7\)"):
        BasisSet(dimension=2, truncation=6, indices=((1, 1), (1, 7)))


def test_point_shape_checked():
    with pytest.raises(ValueError):
        eval_all(basis_1d(3), [[0.1, 0.2]])  # a 2d point in 1d
    with pytest.raises(ValueError):
        eval_all(basis_2d(3), [0.5])  # a 1d point in 2d
    with pytest.raises(ValueError):
        eval_all(basis_2d(3), [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        eval_all(basis_2d(3), [[[0.1, 0.2]]])
    with pytest.raises(ValueError):
        grad_all(basis_2d(3), [[[0.1, 0.2]]])
    with pytest.raises(ValueError):
        grad_all(basis_1d(3), [[[0.1]]])


def test_periodicity():
    rng = np.random.default_rng(0)
    b = basis_1d(8)
    xs = rng.uniform(-2, 2, size=(50, 1))
    np.testing.assert_allclose(
        eval_all(b, xs + 1.0), eval_all(b, xs), rtol=0, atol=1e-12
    )
    b2 = basis_2d(5)
    pts = rng.uniform(-2, 2, size=(20, 2))
    v = eval_all(b2, pts)
    for shift in ([1.0, 0.0], [0.0, 1.0]):
        np.testing.assert_allclose(eval_all(b2, pts + shift), v, rtol=0, atol=1e-12)


def test_orthonormality_quadrature():
    # periodic trapezoid rule on a uniform grid = plain grid average
    b = basis_1d(8)
    grid = np.arange(2048) / 2048.0
    vals = eval_all(b, grid)
    gram = vals.T @ vals / 2048.0
    assert np.max(np.abs(gram - np.eye(8))) < 1e-10


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    b = basis_1d(8)
    xs = rng.uniform(0, 1, size=(100, 1))
    fd = (eval_all(b, xs + h) - eval_all(b, xs - h)) / (2 * h)  # (100, 8)
    g = grad_all(b, xs)[:, :, 0]
    big = np.abs(fd) > 1e-3
    assert np.all(np.abs(g - fd)[big] / np.abs(fd[big]) < 1e-7)
    assert np.all(np.abs(g - fd)[~big] < 1e-6)


def test_gradient_matches_finite_differences_2d():
    rng = np.random.default_rng(2)
    h = 1e-6
    b = basis_2d(5)
    for p in rng.uniform(0, 1, size=(40, 2)):
        g = grad_all(b, p[None, :])[0]
        for j, idx in enumerate(b.indices):
            for axis in range(2):
                e = np.zeros(2)
                e[axis] = h
                plus = closed_form(idx, (p + e)[None, :])[0][0]
                minus = closed_form(idx, (p - e)[None, :])[0][0]
                fd = (plus - minus) / (2 * h)
                scale = max(abs(fd), 1e-3)
                assert abs(g[j, axis] - fd) / scale < 1e-6


def test_2d_values_are_products():
    b1 = basis_1d(6)
    b2 = basis_2d(6)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, size=(20, 2))
    for k, kp in b2.indices:
        expect = value(b1, k, pts[:, :1]) * value(b1, kp, pts[:, 1:])
        np.testing.assert_allclose(value(b2, (k, kp), pts), expect, rtol=0, atol=1e-13)


def test_eval_all_matches_pointwise():
    b = basis_2d(5)
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 1, size=(11, 2))
    mat = eval_all(b, pts)
    for i, p in enumerate(pts):
        for j, idx in enumerate(b.indices):
            expect = closed_form(idx, p[None, :])[0][0]
            assert mat[i, j] == pytest.approx(expect, abs=1e-13)


@pytest.mark.parametrize(
    "b, count",
    [
        (basis_1d(1), 11),  # the constant alone: no frequency at all
        (basis_2d(2), 11),  # only (1, 1)
        (basis_1d(4), 11),  # top function a sine whose cosine is absent
        (basis_1d(5), 11),
        (BasisSet(dimension=1, truncation=5, indices=(1, 4, 5)), 11),
        (BasisSet(dimension=2, truncation=5, indices=((3, 1), (1, 1), (2, 3), (1, 4))),
         11),
        (basis_2d(5), 2500),  # more points than one evaluation block
        (basis_1d(16), 2500),  # frequency 8: the angle-addition recurrence is deepest
    ],
    ids=["1d-r1", "2d-r2", "1d-r4", "1d-r5", "1d-subset", "2d-subset", "2d-r5-many",
         "1d-r16-many"],
)
def test_eval_and_grad_all_match_closed_form(b, count):
    pts = np.random.default_rng(7).uniform(-1, 2, size=(count, b.dimension))
    vals, grads = eval_all(b, pts), grad_all(b, pts)
    assert vals.shape == (count, b.size) and grads.shape == (count, b.size, b.dimension)
    for j, idx in enumerate(b.indices):
        expect_vals, expect_grads = closed_form(idx, pts)
        np.testing.assert_allclose(vals[:, j], expect_vals, rtol=0, atol=1e-13)
        np.testing.assert_allclose(grads[:, j], expect_grads, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "b, q, n",
    [
        (basis_1d(1), 11, 3),
        (basis_2d(2), 11, 3),
        (basis_1d(4), 11, 3),
        (basis_1d(5), 11, 3),
        (BasisSet(dimension=1, truncation=5, indices=(1, 4, 5)), 11, 3),
        (BasisSet(dimension=2, truncation=5, indices=((3, 1), (1, 1), (2, 3), (1, 4))),
         11, 3),
        (basis_2d(5), 125, 20),
        (basis_2d(8), 400, 20),  # the paper-2d shapes
        (basis_1d(5), 1, 3),  # one particle: the 1d contraction runs as for
        (basis_2d(5), 1, 3),  # any Q; the 2d matmul gets it twice (gemm, not gemv)
        (basis_1d(5), 11, 1),  # one slice
        (basis_2d(5), 11, 1),
        # per-axis tops 0 and 3 (then 3 and 1): the shorter axis' padded
        # table rows must not reach the results
        (BasisSet(dimension=2, truncation=7, indices=((1, 1), (1, 7))), 11, 3),
        (BasisSet(dimension=2, truncation=7, indices=((7, 1), (2, 3), (1, 1))), 11, 3),
    ],
    ids=["1d-r1", "2d-r2", "1d-r4", "1d-r5", "1d-subset", "2d-subset", "2d-r5-many",
         "2d-r8-paper", "1d-q1", "2d-q1", "1d-n1", "2d-n1", "2d-tops-0-3",
         "2d-tops-3-1"],
)
def test_slice_contractions_match_point_tables(b, q, n):
    # the contractions written out with the full (Q*N, size[, d]) tables
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 2, size=(q, n, b.dimension))
    weights = rng.uniform(size=q)
    weights /= weights.sum()  # a particle measure
    coeffs = rng.normal(size=(b.size, n))
    flat = pts.reshape(q * n, b.dimension)
    vals = eval_all(b, flat).reshape(q, n, b.size)
    grads = grad_all(b, flat).reshape(q, n, b.size, b.dimension)
    tables = SliceTables(b, pts)
    np.testing.assert_allclose(
        tables.moments(weights), np.einsum("a,aik->ki", weights, vals),
        rtol=0, atol=1e-13,
    )
    np.testing.assert_allclose(
        tables.field_gradient(coeffs), np.einsum("qikd,ki->qid", grads, coeffs),
        rtol=0, atol=1e-12,
    )


@pytest.mark.parametrize(
    "b",
    [basis_1d(1), basis_1d(8), basis_1d(16),
     basis_2d(2), basis_2d(4), basis_2d(8), basis_2d(16)],
    ids=["1d-r1", "1d-r8", "1d-r16", "2d-r2", "2d-r4", "2d-r8", "2d-r16"],
)
@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 9, 17, 63])
def test_field_gradient_does_not_depend_on_the_batch(b, size):
    # bit for bit: a particle's gradient rows are the same in a sub-batch of
    # any size, a lone particle included, as in the whole 64-particle batch
    rng = np.random.default_rng(24)
    pts = rng.uniform(-1, 2, size=(64, 7, b.dimension))
    coeffs = rng.normal(size=(b.size, 7))
    full = SliceTables(b, pts).field_gradient(coeffs)
    for start in (0, 64 - size):
        batch = slice(start, start + size)
        np.testing.assert_array_equal(
            SliceTables(b, pts[batch]).field_gradient(coeffs), full[batch]
        )


def test_slice_contractions_check_point_shape():
    with pytest.raises(ValueError):
        SliceTables(basis_2d(3), np.zeros((4, 2, 1)))
    with pytest.raises(ValueError):
        SliceTables(basis_1d(3), np.zeros((4, 2)))


@pytest.mark.parametrize(
    "b",
    [
        basis_1d(6),
        basis_2d(6),
        BasisSet(dimension=1, truncation=5, indices=(1, 4, 5)),
        BasisSet(dimension=2, truncation=5, indices=((3, 1), (1, 1), (2, 3), (1, 4))),
    ],
    ids=["1d", "2d", "1d-subset", "2d-subset"],
)
def test_shared_tables_match_fresh_contractions(b):
    # one table set read twice, then rebuilt in place, gives bit for bit
    # what fresh tables give at the same points
    rng = np.random.default_rng(9)

    def check(tables, pts):
        weights = rng.uniform(size=pts.shape[0])
        coeffs = rng.normal(size=(b.size, pts.shape[1]))
        fresh = SliceTables(b, pts)
        for _ in range(2):
            np.testing.assert_array_equal(
                tables.moments(weights), fresh.moments(weights)
            )
            np.testing.assert_array_equal(
                tables.field_gradient(coeffs), fresh.field_gradient(coeffs)
            )

    pts = rng.uniform(-1, 2, size=(7, 4, b.dimension))
    tables = SliceTables(b, pts)
    check(tables, pts)
    before = tables._axes
    pts = rng.uniform(-1, 2, size=(7, 4, b.dimension))
    tables.rebuild(pts)
    assert tables._axes is before  # refilled in place
    check(tables, pts)
    # the shape is fixed: other slice or particle counts, or another dimension
    for shape in [(5, 9, b.dimension), (7, 4, 3 - b.dimension), (7, 4)]:
        with pytest.raises(ValueError):
            tables.rebuild(np.zeros(shape))
    check(tables, pts)  # a refused rebuild leaves the tables as they were


@pytest.mark.parametrize("b", [basis_1d(6), basis_2d(6)], ids=["1d", "2d"])
def test_slice_tables_do_not_depend_on_point_layout(b):
    # C-order points and a (Q, N, d) view of (d, N, Q) memory, as the solve
    # passes them, give the same contractions bit for bit
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1, 2, size=(13, 5, b.dimension))
    slice_major = np.ascontiguousarray(pts.transpose(2, 1, 0)).transpose(2, 1, 0)
    assert not slice_major.flags.c_contiguous
    weights = rng.uniform(size=13)
    coeffs = rng.normal(size=(b.size, 5))
    c_order, sliced = SliceTables(b, pts), SliceTables(b, slice_major)
    np.testing.assert_array_equal(c_order.moments(weights), sliced.moments(weights))
    np.testing.assert_array_equal(
        c_order.field_gradient(coeffs), sliced.field_gradient(coeffs)
    )


@pytest.mark.parametrize(
    "b, q", [(basis_1d(8), 50), (basis_2d(8), 400)], ids=["1d-paper", "2d-paper"]
)
def test_contractions_make_no_table_sized_temporaries(b, q):
    # once the work array exists, a call allocates little beyond its result
    rng = np.random.default_rng(13)
    n = 20
    tables = SliceTables(b, rng.uniform(-1, 2, size=(q, n, b.dimension)))
    weights = rng.uniform(size=q)
    coeffs = rng.normal(size=(b.size, n))
    tables.field_gradient(coeffs)
    tables.moments(weights)
    tracemalloc.start()
    try:
        tables.moments(weights)
        moments_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        tables.field_gradient(coeffs)
        gradient_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the per-slice (N, rows, rows) products and the (size, N) result take
    # 12.3 KB in 2d; weighting the tables must add no numpy-buffer-sized
    # (64 KiB) temporary
    assert moments_peak < 20 * 1024
    assert gradient_peak < 2 * (q * n * b.dimension * 8)


def reference_rows(t, top):
    # rows 1, sqrt(2) sin and sqrt(2) cos of frequencies 1..top, at the
    # exactly reduced argument, so the reference carries no rounding of t m
    r = t - np.rint(t)
    rows = [np.ones_like(t)]
    for m in range(1, top + 1):
        rows += [SQRT2 * np.sin(2 * np.pi * m * r), SQRT2 * np.cos(2 * np.pi * m * r)]
    return np.array(rows)


def row_tolerance(top):
    # frequency m carries m steps of the angle-addition recurrence
    return np.array([1e-15] + [m * 1e-15 for m in range(1, top + 1) for _ in "sc"])


@pytest.mark.parametrize("top", [1, 4])
def test_axis_tables_match_closed_form(top):
    t = np.random.default_rng(7).uniform(-3.0, 3.0, 100_000)
    error = np.max(np.abs(_axis_tables(t, top) - reference_rows(t, top)), axis=1)
    assert error[1:3].max() <= 1e-15  # the half-angle sin and cos themselves
    assert np.all(error <= row_tolerance(top))


def test_axis_tables_edge_points():
    half = np.nextafter(0.5, 0.0)
    t = np.array([0.0, 0.25, -0.25, 0.5, -0.5, half, 1e3 + 0.37])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # tan(+-pi/2) must not warn
        table = _axis_tables(t, 4)
    assert np.all(np.isfinite(table))
    np.testing.assert_array_equal(table[:, 0], [1.0] + [0.0, SQRT2] * 4)
    error = np.max(np.abs(table - reference_rows(t, 4)), axis=1)
    assert np.all(error <= row_tolerance(4))


@pytest.mark.parametrize("shift", [1.0, -3.0, 1000.0])
def test_axis_tables_are_periodic_bit_for_bit(shift):
    rng = np.random.default_rng(11)
    near_half = 0.5 - 2.0**-40
    t = np.concatenate([[0.0, 0.25, -0.25, near_half, -near_half],
                        rng.uniform(-0.5, 0.5, 1000)])
    t = (t + shift) - shift  # exactly representable after the shift too
    np.testing.assert_array_equal(_axis_tables(t, 4), _axis_tables(t + shift, 4))
    # rint rounds ties to even, so an odd shift moves the reduced argument
    # of a half-integer between +1/2 and -1/2, and the sines there, m 1.7e-16
    # at frequency m, change sign
    ties = np.array([0.5, -0.5])
    error = np.abs(_axis_tables(ties, 4) - _axis_tables(ties + shift, 4))
    assert np.all(error <= row_tolerance(4)[:, None])


def test_hessian_bounds_match_product_formula():
    def sup(k):
        return 1.0 if k == 1 else SQRT2

    b2 = basis_2d(6)
    expect = [
        (2.0 * math.pi) ** 2 * ((k // 2) ** 2 + (kp // 2) ** 2) * sup(k) * sup(kp)
        for k, kp in b2.indices
    ]
    np.testing.assert_allclose(hessian_bounds(b2), expect, rtol=1e-14, atol=0)
    # in 1d the exact sup of |phi_k''|
    b1 = basis_1d(9)
    t = np.linspace(0.0, 1.0, 4001)
    h = 1e-4
    second = (eval_all(b1, t + h) - 2.0 * eval_all(b1, t) + eval_all(b1, t - h)) / h**2
    np.testing.assert_allclose(hessian_bounds(b1), np.abs(second).max(axis=0), rtol=1e-4)


def test_frequencies_are_half_indices():
    b1 = basis_1d(6)
    assert b1.frequencies.tolist() == [[k // 2] for k in b1.indices]
    b2 = BasisSet(dimension=2, truncation=6, indices=((1, 1), (4, 1), (2, 5)))
    assert b2.frequencies.tolist() == [[k // 2, kp // 2] for k, kp in b2.indices]
    with pytest.raises(ValueError):
        b2.frequencies[0, 0] = 3


def test_basis_subset_allowed():
    b = BasisSet(dimension=1, truncation=5, indices=(1, 4, 5))
    assert b.size == 3
    assert value(b, 4, [[0.125]])[0] == pytest.approx(SQRT2 * math.sin(math.pi / 2))


def test_basisset_validation():
    with pytest.raises(ValueError):
        BasisSet(dimension=3, truncation=2, indices=(1,))
    with pytest.raises(ValueError):
        BasisSet(dimension=1, truncation=2, indices=())
    with pytest.raises(ValueError):
        BasisSet(dimension=1, truncation=2, indices=(0,))
    with pytest.raises(ValueError, match="distinct"):
        BasisSet(dimension=1, truncation=3, indices=(1, 2, 2))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: basis_1d(2.0), "r must be an integer, got 2.0"),
        (lambda: basis_1d(True), "r must be an integer, got True"),
        (lambda: basis_2d(3.0), "r must be an integer, got 3.0"),
        (lambda: tensor_indices(3.0), "r must be an integer, got 3.0"),
        (lambda: BasisSet(dimension=True, truncation=2, indices=(1, 2)),
         "dimension must be an integer, got True"),
        (lambda: BasisSet(dimension=1, truncation=2.0, indices=(1, 2)),
         "truncation must be an integer, got 2.0"),
    ],
    ids=["basis_1d", "basis_1d-bool", "basis_2d", "tensor_indices",
         "BasisSet-dimension", "BasisSet-truncation"],
)
def test_counts_must_be_integers(make, message):
    # a float count raised TypeError from range(); a bool passed as 1
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_counts_accept_numpy_integers():
    assert basis_1d(np.int64(3)).size == 3
    assert basis_2d(np.int32(3)).size == 3
