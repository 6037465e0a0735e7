import tracemalloc

import numpy as np
import pytest

from mfgspectral.postprocess import (
    GRID_MATCH_TOL,
    DensitySnapshot,
    _wrapped_distance,
    density_histogram,
    format_float,
    straightness_metric,
    symmetry_defect,
    write_density_csv,
    write_metrics_json,
    write_trajectories_csv,
)
from mfgspectral.problem import DiscreteMeasure, discretize_measure


def measure_from(points, weights):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return DiscreteMeasure(points=pts, weights=np.asarray(weights, dtype=float))


class TestDensityHistogram:
    @pytest.mark.parametrize(
        "time_index, bins, message",
        [
            (0, 2.5, "bins must be an integer, got 2.5"),
            (0, True, "bins must be an integer, got True"),
            (1.0, 4, "time_index must be an integer, got 1.0"),
            (True, 4, "time_index must be an integer, got True"),
        ],
        ids=["bins-float", "bins-bool", "time_index-float", "time_index-bool"],
    )
    def test_counts_must_be_integers(self, time_index, bins, message):
        # a float bins raised TypeError, a float time_index IndexError
        m = measure_from([0.31], [1.0])
        x = np.array([[[0.31], [0.62]]])
        with pytest.raises(ValueError, match=f"^{message}$"):
            density_histogram(x, m, time_index, bins)

    def test_counts_accept_numpy_integers(self):
        m = measure_from([0.31], [1.0])
        x = np.array([[[0.31], [0.62]]])
        snap = density_histogram(x, m, np.int64(1), np.int32(4))
        assert snap.values[2] == pytest.approx(4.0)

    def test_single_particle(self):
        m = measure_from([0.31], [1.0])
        x = np.array([[[0.31], [0.62]]])
        snap = density_histogram(x, m, 1, 4)
        assert snap.values[2] == pytest.approx(4.0)
        assert np.count_nonzero(snap.values) == 1

    def test_uniform_particles_flat(self):
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 8, 1)
        # grid 1/9 .. 8/9 is NOT bin-aligned for B=8; use stationary x and B=3
        x = np.repeat(m.points[:, None, :], 2, axis=1)
        snap = density_histogram(x, m, 0, 4)
        assert snap.mass() == pytest.approx(1.0, abs=1e-12)

    def test_two_particle_values(self):
        m = measure_from([0.1, 0.9], [0.3, 0.7])
        x = m.points[:, None, :]
        snap = density_histogram(x, m, 0, 2)
        np.testing.assert_allclose(snap.values, [0.6, 1.4])

    def test_wrapping_and_mass(self):
        rng = np.random.default_rng(24)
        m = measure_from(rng.uniform(0, 1, 20), np.full(20, 0.05))
        x = m.points[:, None, :] + rng.normal(scale=2.0, size=(20, 3, 1))
        x[:, 0, :] = m.points
        for i in range(3):
            snap = density_histogram(x, m, i, 7)
            assert snap.mass() == pytest.approx(1.0, abs=1e-9)
            assert np.all(snap.values >= 0)

    def test_2d_mass_and_shape(self):
        m = discretize_measure(
            lambda p: 1.0 + 0.5 * np.sin(2 * np.pi * p[:, 0]), 5, 2
        )
        x = np.repeat(m.points[:, None, :], 2, axis=1)
        snap = density_histogram(x, m, 1, 6)
        assert snap.values.shape == (6, 6)
        assert snap.mass() == pytest.approx(1.0, abs=1e-12)

    def test_reflection_equivariance(self):
        rng = np.random.default_rng(25)
        m = discretize_measure(lambda p: np.ones(p.shape[0]), 9, 1)
        x = np.repeat(m.points[:, None, :], 3, axis=1)
        x[:, 1:, :] += rng.normal(scale=0.3, size=(9, 2, 1))
        reflected = 1.0 - x
        reflected[:, 0, :] = np.mod(reflected[:, 0, :], 1.0)
        m_ref = DiscreteMeasure(
            points=np.mod(1.0 - m.points, 1.0), weights=m.weights
        )
        b = 10
        snap = density_histogram(x, m, 2, b)
        snap_ref = density_histogram(reflected, m_ref, 2, b)
        np.testing.assert_allclose(snap_ref.values, snap.values[::-1], atol=1e-12)

    def test_invalid_bins(self):
        m = measure_from([0.5], [1.0])
        x = m.points[:, None, :]
        with pytest.raises(ValueError):
            density_histogram(x, m, 0, 1)

    @pytest.mark.parametrize("time_index", [-1, 3])
    def test_time_index_out_of_range(self, time_index):
        m = measure_from([0.5], [1.0])
        x = np.full((1, 3, 1), 0.5)
        with pytest.raises(ValueError, match="time_index"):
            density_histogram(x, m, time_index, 4)


class TestStraightness:
    def test_linear_trajectory(self):
        times = np.linspace(0, 1, 6)
        x = (0.2 + 0.5 * times)[None, :, None]
        per, worst = straightness_metric(x)
        assert worst == pytest.approx(0.0, abs=1e-15)

    def test_parabola_midpoint(self):
        times = np.linspace(0, 1, 3)
        x = (times * (1 - times))[None, :, None]
        per, worst = straightness_metric(x)
        assert worst == pytest.approx(0.25, abs=1e-15)

    def test_stationary(self):
        x = np.full((3, 5, 1), 0.4)
        _, worst = straightness_metric(x)
        assert worst == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(4, 6, 1))
        _, base = straightness_metric(x)
        shifted = x.copy()
        shifted[2] += 17.3
        _, moved = straightness_metric(shifted)
        assert moved == pytest.approx(base, rel=1e-12)

    def test_one_step_is_exact_zero(self):
        # the chord of a single step is the trajectory itself
        x = np.random.default_rng(3).normal(size=(3, 2, 2))
        per, worst = straightness_metric(x)
        assert np.array_equal(per, np.zeros(3)) and worst == 0.0

    def test_single_slice_raises(self):
        with pytest.raises(ValueError, match="at least 1 time step"):
            straightness_metric(np.zeros((2, 1, 1)))


class TestSymmetryDefect:
    def test_mirror_symmetric_trajectories(self):
        m = discretize_measure(
            lambda p: 1.0 + np.sin(np.pi * p[:, 0]) ** 2, 7, 1
        )
        x = np.repeat(m.points[:, None, :], 4, axis=1)
        # drift that commutes with the reflection: odd displacement field
        drift = 0.1 * np.sin(2 * np.pi * m.points[:, 0])[:, None]
        x[:, 2, 0] += drift[:, 0]
        x[:, 3, 0] += 2 * drift[:, 0]
        assert symmetry_defect(x, m) < 1e-12

    def test_center_particle(self):
        m = measure_from([0.5], [1.0])
        x = np.full((1, 3, 1), 0.5)
        assert symmetry_defect(x, m) == 0.0

    def test_defect_from_slices(self):
        # symmetric grid {1/3, 2/3}; slice 1 moves to {0.3, 0.6}
        m = measure_from([1.0 / 3.0, 2.0 / 3.0], [0.5, 0.5])
        x = np.repeat(m.points[:, None, :], 2, axis=1)
        x[0, 1, 0] = 0.3
        x[1, 1, 0] = 0.6
        assert symmetry_defect(x, m) == pytest.approx(0.1, abs=1e-12)

    def test_asymmetric_grid_rejected(self):
        m = measure_from([0.3, 0.6], [0.5, 0.5])
        x = np.repeat(m.points[:, None, :], 2, axis=1)
        with pytest.raises(ValueError):
            symmetry_defect(x, m)

    def test_2d_partner_is_point_reflection(self):
        # weights symmetric under (a, b) -> (1 - a, 1 - b) but not uniform
        m = discretize_measure(
            lambda p: 1.0 + 0.5 * np.cos(2 * np.pi * (p[:, 0] + p[:, 1])), 3, 2
        )
        assert np.ptp(m.weights) > 0.1
        x = np.repeat(m.points[:, None, :], 3, axis=1)
        # odd drift: v(1 - p) = -v(p), so every slice stays symmetric
        drift = 0.05 * np.sin(2 * np.pi * (m.points[:, 0] + m.points[:, 1]))
        x[:, 1:, :] += drift[:, None, None]
        assert symmetry_defect(x, m) < 1e-12
        # particle 0 sits at (1/4, 1/4); its partner (3/4, 3/4) stays put
        x[0, 1, :] += [0.03, -0.04]
        assert symmetry_defect(x, m) == pytest.approx(0.05, abs=1e-12)

    def test_set_symmetric_slice_without_partner_symmetry(self):
        # the slice {0.4, 0.2, 0.6, 0.8} equals its reflection as a set, but
        # particle 0 (grid 0.2) sits at 0.4 while its partner (grid 0.8) sits
        # at 0.8, whose reflection is 0.2
        m = measure_from([0.2, 0.4, 0.6, 0.8], [0.25] * 4)
        x = np.repeat(m.points[:, None, :], 2, axis=1)
        x[:, 1, 0] = [0.4, 0.2, 0.6, 0.8]
        assert symmetry_defect(x, m) == pytest.approx(0.2, abs=1e-12)

    def test_particle_count_mismatch_rejected(self):
        m = measure_from([1.0 / 3.0, 2.0 / 3.0], [0.5, 0.5])
        x = np.full((3, 2, 1), 0.5)
        with pytest.raises(ValueError, match="particles"):
            symmetry_defect(x, m)

    def test_asymmetric_weights_show_up_as_defect(self):
        # point set is mirror symmetric but the weights are not: each
        # particle can only match its own reflection, at distance 1/3
        m = measure_from([1.0 / 3.0, 2.0 / 3.0], [0.25, 0.75])
        x = np.repeat(m.points[:, None, :], 2, axis=1)
        assert symmetry_defect(x, m) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_discretize_measure_lists_mirror_at_reversed_index(self):
        # the listing rule symmetry_defect pairs by: 1 - p_i is p_(Q^d - 1 - i)
        uniform = lambda p: np.ones(p.shape[0])
        grids = [(q, 1) for q in range(1, 31)] + [(q, 2) for q in range(1, 13)]
        for q, d in grids:
            pts = discretize_measure(uniform, q, d).points
            gap = _wrapped_distance(pts, np.mod(1.0 - pts[::-1], 1.0))
            assert gap.max() <= GRID_MATCH_TOL, (q, d)

    def test_symmetric_grid_in_another_order_rejected(self):
        # {0.25, 0.5, 0.75} is mirror symmetric as a set, but 0.25's mirror
        # is not listed at index Q - 1 - 0
        m = measure_from([0.25, 0.75, 0.5], [1.0 / 3.0] * 3)
        x = np.repeat(m.points[:, None, :], 2, axis=1)
        with pytest.raises(ValueError, match="at i and Q - 1 - i"):
            symmetry_defect(x, m)

    def test_memory_stays_linear_in_particles(self):
        # paper-2d-a shape (Q = 400, N = 20): memory linear in Q; one
        # (Q, Q, 2) table of point pairs alone would take 2.6 MB
        m = discretize_measure(
            lambda p: 1.0 + 0.5 * np.cos(2 * np.pi * (p[:, 0] + p[:, 1])), 20, 2
        )
        rng = np.random.default_rng(3)
        x = np.repeat(m.points[:, None, :], 21, axis=1)
        x += rng.normal(scale=0.01, size=x.shape)
        tracemalloc.start()
        try:
            symmetry_defect(x, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6

    def test_wrapped_distance_matches_remainder_form_bit_for_bit(self):
        # fmod of the nonnegative |p - q| is the floored remainder % 1.0
        rng = np.random.default_rng(0)
        p = rng.uniform(-30.0, 30.0, size=(1000, 2))
        q = rng.uniform(-30.0, 30.0, size=(1000, 2))
        edges = np.array(
            [0.0, -0.0, 5e-324, 1e-17, 0.5, 1.0, -1.0, 2.5, 1e6 + 0.25, 2.0**52]
        )
        p = np.concatenate([p, np.stack([edges, edges[::-1]], axis=1)])
        q = np.concatenate([q, np.stack([-edges, edges], axis=1)])
        delta = np.abs(p - q) % 1.0
        delta = np.minimum(delta, 1.0 - delta)
        reference = np.sqrt(np.sum(delta**2, axis=-1))
        np.testing.assert_array_equal(
            _wrapped_distance(p, q).view(np.uint64), reference.view(np.uint64)
        )


class TestWriters:
    def test_trajectories_csv(self, tmp_path):
        # two particles, two steps in 2d: time-major, 1-based ids, 17 digits
        x = np.array([
            [[0.1, 0.9], [0.2, 1.25], [-0.5, 1.5]],
            [[0.5, 0.5], [0.5, 0.75], [0.5, 1.0]],
        ])
        path = tmp_path / "traj.csv"
        write_trajectories_csv(path, x)
        assert path.read_text() == (
            "t,particle,x1,x2\n"
            "0,1,0.10000000000000001,0.90000000000000002\n"
            "0,2,0.5,0.5\n"
            "0.5,1,0.20000000000000001,1.25\n"
            "0.5,2,0.5,0.75\n"
            "1,1,-0.5,1.5\n"
            "1,2,0.5,1\n"
        )

    def test_density_csv_1d(self, tmp_path):
        snap = DensitySnapshot(time_index=0, bins=2, values=np.array([0.6, 1.4]))
        path = tmp_path / "density.csv"
        write_density_csv(path, snap)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_center,density"
        assert lines[1].split(",") == ["0.25", "0.59999999999999998"]

    def test_density_csv_2d(self, tmp_path):
        snap = DensitySnapshot(
            time_index=1, bins=2, values=np.arange(4.0).reshape(2, 2)
        )
        path = tmp_path / "density2d.csv"
        write_density_csv(path, snap)
        # x1 varies slowest: row i of the array is the bin x1 = centers[i]
        assert path.read_text() == (
            "x1_center,x2_center,density\n"
            "0.25,0.25,0\n"
            "0.25,0.75,1\n"
            "0.75,0.25,2\n"
            "0.75,0.75,3\n"
        )

    def test_csv_bytes_match_format_float(self, tmp_path):
        # the one-pass writer and the per-value reference agree on every
        # edge of the float range
        values = np.array(
            [-0.0, 5e-324, 1e-300, 1.0 / 3.0, 2.0**60, 1e16, np.inf, -np.inf, np.nan]
        )
        x = np.stack([values, values[::-1]], axis=1)[:, None, :].repeat(2, axis=1)
        path = tmp_path / "traj.csv"
        write_trajectories_csv(path, x)
        q = len(values)
        lines = ["t,particle,x1,x2"] + [
            ",".join(map(format_float, (t, i + 1.0, *x[i, n])))
            for n, t in enumerate((0.0, 1.0))
            for i in range(q)
        ]
        assert path.read_text() == "\n".join(lines) + "\n"
        snap = DensitySnapshot(time_index=0, bins=q, values=values)
        write_density_csv(path, snap)
        centers = snap.bin_centers()
        lines = ["bin_center,density"] + [
            f"{format_float(c)},{format_float(v)}" for c, v in zip(centers, values)
        ]
        assert path.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "writer", ["trajectories-1d", "trajectories-2d", "density-1d", "density-2d"]
    )
    def test_csv_bytes_match_per_value_join(self, tmp_path, writer):
        # every writer shape: the fixed columns' text and the values, each
        # formatted on its own and joined row by row
        rng = np.random.default_rng(17)
        path = tmp_path / "out.csv"
        if writer.startswith("trajectories"):
            d = int(writer[-2])
            x = rng.normal(scale=3.0, size=(7, 5, d))
            x[0, 1] = -0.0
            x[3, 2, -1] = 1e-310
            write_trajectories_csv(path, x)
            header = "t,particle," + ",".join(f"x{j + 1}" for j in range(d))
            rows = [
                (n / 4, i + 1, *x[i, n]) for n in range(5) for i in range(7)
            ]
        else:
            d = int(writer[-2])
            values = rng.uniform(size=(6,) * d)
            snap = DensitySnapshot(time_index=0, bins=6, values=values)
            write_density_csv(path, snap)
            header = "bin_center,density" if d == 1 else "x1_center,x2_center,density"
            centers = snap.bin_centers()
            rows = [
                (*(centers[i] for i in index), values[index])
                for index in np.ndindex(values.shape)
            ]
        lines = [header] + [",".join(format_float(v) for v in row) for row in rows]
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_metrics_json_round_trip(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        write_metrics_json(path, {"b": 1.5, "a": 2})
        data = json.loads(path.read_text())
        assert data == {"a": 2, "b": 1.5}
        # keys are sorted for byte determinism
        assert path.read_text().index('"a"') < path.read_text().index('"b"')
