"""Turn converged particle trajectories into reportable artifacts.

Density snapshots are mass-preserving histograms on the wrapped torus;
trajectory metrics (straightness, mirror-symmetry defect) work on the
unwrapped coordinates. The symmetry defect compares particle i with the
reflection under x -> 1 - x of its partner: particle Q - 1 - i, which the
grid must list at i's mirror point, when the weights agree, else i itself.
CSV/JSON writers use fixed column order and 17-significant-digit floats
so identical runs produce identical bytes. The columns that take few
distinct values (times and particle ids, bin centres) are formatted once
per distinct value, as literal text in the file's %-format string, so the
one %-format pass fills only the coordinates or densities.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .basis import _check_int, _check_shape
from .problem import DiscreteMeasure

GRID_MATCH_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DensitySnapshot:
    """One time slice of the particle density on a uniform bin grid.

    ``time_index`` and ``bins`` are stored as Python ints.
    """

    time_index: int
    bins: int
    values: np.ndarray  # (bins,) * d

    def __post_init__(self):
        for name in ("time_index", "bins"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name)))

    @property
    def dimension(self) -> int:
        return self.values.ndim

    def bin_centers(self) -> np.ndarray:
        return (np.arange(self.bins) + 0.5) / self.bins

    def mass(self) -> float:
        return float(self.values.sum() / self.bins**self.dimension)


def density_histogram(
    x: np.ndarray, measure: DiscreteMeasure, time_index: int, bins: int
) -> DensitySnapshot:
    """Weighted histogram of the wrapped particle positions at one slice.

    ``x`` holds (Q, slices, d) paths of the measure's Q particles in its
    d dimensions, or ValueError is raised.
    """
    time_index = _check_int("time_index", time_index)
    bins = _check_int("bins", bins)
    _check_paths(x, measure)
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    if not 0 <= time_index < x.shape[1]:
        raise ValueError(f"time_index {time_index} is outside 0..{x.shape[1] - 1}")
    pos = np.mod(x[:, time_index, :], 1.0)
    idx = np.minimum((pos * bins).astype(np.int64), bins - 1)
    d = pos.shape[1]
    values = np.zeros((bins,) * d)
    np.add.at(values, tuple(idx.T), measure.weights)
    values *= float(bins) ** d  # divide by bin volume
    return DensitySnapshot(time_index=time_index, bins=bins, values=values)


def _check_paths(x: np.ndarray, measure: DiscreteMeasure) -> None:
    # (Q, slices, d) paths of the measure's particles, any number of slices
    slices = x.shape[1] if x.ndim > 1 else 1
    _check_shape("x", x, (measure.count, slices, measure.dimension))


def straightness_metric(x: np.ndarray):
    """Chord deviation per particle and its maximum.

    For each particle the chord runs from its first to its last position;
    the metric is the largest Euclidean gap to that chord over time, so
    exactly 0 for one time step.
    """
    n = x.shape[1] - 1
    if n < 1:
        raise ValueError("straightness needs at least 1 time step")
    s = np.arange(n + 1) / n
    chord = (1.0 - s)[None, :, None] * x[:, :1, :] + s[None, :, None] * x[:, -1:, :]
    gaps = np.sqrt(np.sum((x - chord) ** 2, axis=2))
    per_particle = gaps.max(axis=1)
    return per_particle, float(per_particle.max())


def _wrapped_distance(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # torus distance over the last axis, broadcasting the others
    delta = np.fmod(np.abs(p - q), 1.0)
    delta = np.minimum(delta, 1.0 - delta)
    return np.sqrt(np.sum(delta**2, axis=-1))


def symmetry_defect(x: np.ndarray, measure: DiscreteMeasure) -> float:
    """Worst torus distance of a particle to its partner's mirror image.

    The grid must list mirror pairs at i and Q - 1 - i, as discretize_measure
    does: points[Q - 1 - i] within GRID_MATCH_TOL of 1 - points[i] (mod 1),
    else ValueError. Particle i's partner j is Q - 1 - i if the weights
    agree within GRID_MATCH_TOL, else i itself; the defect is the maximum
    over i and slices t of the distance from x[i, t] to 1 - x[j, t].
    """
    if x.shape[0] != measure.count:
        raise ValueError(f"x has {x.shape[0]} particles, the measure {measure.count}")
    _check_paths(x, measure)
    points, weights = measure.points, measure.weights
    own, mirror = np.arange(measure.count), np.arange(measure.count)[::-1]
    grid_gap = _wrapped_distance(points, np.mod(1.0 - points[mirror], 1.0))
    if np.any(grid_gap > GRID_MATCH_TOL):
        raise ValueError("grid must list mirror pairs (x -> 1 - x) at i and Q - 1 - i")
    w_tol = GRID_MATCH_TOL * max(float(weights.max()), 1.0)
    partner = np.where(np.abs(weights - weights[mirror]) <= w_tol, mirror, own)
    pos = np.mod(x, 1.0)
    return float(_wrapped_distance(pos, np.mod(1.0 - pos[partner], 1.0)).max())


def format_float(v: float) -> str:
    """One CSV value; ``_write_csv`` writes the same bytes in one pass."""
    return f"{v:.17g}"


def _write_csv(path, header: str, columns: list, values: np.ndarray) -> None:
    # one "\n"-led row per combination of the fixed columns' values, the
    # first column slowest, as literal text joined once per outer prefix;
    # then one field per value of the last axis, filled in one %-format
    *outer, last = [[format_float(v) for v in column] for column in columns]
    fields = ",%.17g" * values.shape[-1]  # "%.17g" % v == format_float(v)
    cells = ["", *[text + fields for text in last]]
    seps = ["\n" + ",".join((*prefix, "")) for prefix in itertools.product(*outer)]
    rows = "".join([sep.join(cells) for sep in seps])
    with open(path, "w") as fh:
        fh.write(header + rows % tuple(values.ravel().tolist()) + "\n")


def write_trajectories_csv(path, x: np.ndarray) -> None:
    """Time-major rows of unwrapped coordinates; particle ids are 1-based."""
    q, n_plus_1, d = x.shape
    t = (np.arange(n_plus_1) / (n_plus_1 - 1)).tolist()
    header = "t,particle," + ",".join(f"x{j + 1}" for j in range(d))
    _write_csv(path, header, [t, range(1, q + 1)], x.transpose(1, 0, 2))


def write_density_csv(path, snapshot: DensitySnapshot) -> None:
    """Rows of bin centres and density, first axis slowest (``ij`` order)."""
    d = snapshot.dimension
    header = "bin_center,density" if d == 1 else "x1_center,x2_center,density"
    centers = snapshot.bin_centers().tolist()
    _write_csv(path, header, [centers] * d, snapshot.values[..., None])


def write_metrics_json(path, metrics: dict) -> None:
    with open(path, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
