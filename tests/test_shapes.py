"""The shape rule: a public function given an array of the wrong shape
raises a ValueError naming the argument, where numpy would broadcast or
reshape it into a wrong answer. Every exact-shape message comes from
``mfgspectral.basis._check_shape``: ``"{name} must have shape {shape}, got
{array.shape}"``, with the shape the caller passed."""

import re

import numpy as np
import pytest

from mfgspectral.basis import SliceTables, basis_2d, eval_all, grad_all
from mfgspectral.kernel import GaussianKernelSpec, gaussian_spectral
from mfgspectral.pdhg import step_a, step_x
from mfgspectral.postprocess import density_histogram, symmetry_defect
from mfgspectral.problem import MFGProblem, action, action_gradient, discretize_measure

N = 3
KERNEL = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 4)  # size 4


def _uniform(p):
    return np.ones(len(p))


def _zero(p):
    return np.zeros(len(p))


PROBLEM = MFGProblem(KERNEL, _uniform, _zero, np.zeros_like, num_steps=N)
MEASURE = discretize_measure(_uniform, 5, 1)
PATHS = np.repeat(MEASURE.points[:, None, :], N + 1, axis=1)  # (5, 4, 1)


def _raises(message, call):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "a_shape, q_shape, message",
    [
        ((4, 1), (4, N), "q must have shape (4, 1), got (4, 3)"),
        ((4, N), (4, 1), "q must have shape (4, 3), got (4, 1)"),
        ((3, N), (3, N), "coefficient path must have shape (4, 3), got (3, 3)"),
    ],
    ids=["a-column", "q-column", "a-size"],
)
def test_step_a_checks_both_paths(a_shape, q_shape, message):
    # a (size, 1) column or q (size, 1) column broadcast to (size, N) paths
    a, q = np.zeros(a_shape), np.zeros(q_shape)
    _raises(message, lambda: step_a(a, q, KERNEL, 0.1, 1.0))


COLUMN = "coefficient path must have shape (4, 3), got (4, 1)"


@pytest.mark.parametrize(
    "call",
    [
        lambda a: action(PATHS, a, PROBLEM),
        lambda a: SliceTables(KERNEL.basis, PATHS[:, 1:]).field_gradient(a),
        lambda a: action_gradient(PATHS, a, PROBLEM),
        lambda a: step_x(PATHS, a, PROBLEM, MEASURE, 1.0),
    ],
    ids=["action", "field_gradient", "action_gradient", "step_x"],
)
def test_coefficient_column_is_not_broadcast_over_slices(call):
    # one (size, 1) column was read as the coefficients of every slice
    _raises(COLUMN, lambda: call(np.zeros((4, 1))))


@pytest.mark.parametrize("name", ["apply_k", "apply_j"])
def test_apply_checks_the_leading_axis(name):
    # v of shape (2, 4) at size 4 was reshaped to (4, 2), mixing its rows
    apply = getattr(KERNEL, name)
    _raises("v must have shape (4, 4), got (2, 4)", lambda: apply(np.ones((2, 4))))
    _raises("v must have shape (4,), got (3,)", lambda: apply(np.ones(3)))


@pytest.mark.parametrize(
    "call",
    [
        lambda x, m: density_histogram(x, m, 0, 4),
        lambda x, m: symmetry_defect(x, m),
    ],
    ids=["density_histogram", "symmetry_defect"],
)
@pytest.mark.parametrize("dimension", [1, 2])
def test_paths_must_match_the_measure_dimension(call, dimension):
    # paths with 2 coordinates on a 1d measure gave a (4, 4) histogram and a
    # symmetry defect of about 1e-16
    m = discretize_measure(_uniform, 3, dimension)
    x = np.full((m.count, 2, 3 - dimension), 0.5)
    expect = (m.count, 2, dimension)
    _raises(f"x must have shape {expect}, got {x.shape}", lambda: call(x, m))
    flat = x[..., 0]  # (Q, 2) positions without a coordinate axis
    _raises(f"x must have shape {expect}, got {flat.shape}", lambda: call(flat, m))


@pytest.mark.parametrize("table", [eval_all, grad_all])
def test_point_error_names_the_shape_passed(table):
    # the message showed (1, 3), the array after a 1d input was made one point
    _raises("points must have shape (n, 2), got (3,)",
            lambda: table(basis_2d(3), [0.1, 0.2, 0.3]))
