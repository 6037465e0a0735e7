"""The argument rules: every real parameter and count of the package is
checked by one rule in ``mfgspectral.basis``, so each entry point rejects
the same bad values with a ValueError naming the parameter."""

import dataclasses
import json
import math

import numpy as np
import pytest

from mfgspectral.basis import BasisSet, basis_1d, basis_2d
from mfgspectral.kernel import (
    GaussianKernelSpec,
    gaussian_spectral,
    psd_check,
    spectral_from_dense,
)
from mfgspectral.pdhg import SolverConfig, prox_a_operator, prox_x_operator
from mfgspectral.postprocess import DensitySnapshot, density_histogram
from mfgspectral.problem import MFGProblem, discretize_measure

KERNEL = gaussian_spectral(GaussianKernelSpec(0.2, 0.5), 3)


def _cost(p):
    return np.zeros(len(p))


def _problem(**kwargs):
    return MFGProblem(KERNEL, _cost, _cost, np.zeros_like, **{"num_steps": 4, **kwargs})


# each real parameter: a call that passes it, and whether it must be positive
# (else nonnegative)
REALS = {
    "sigma": (lambda v: GaussianKernelSpec(sigma=v, mu=0.5), True),
    "mu": (lambda v: GaussianKernelSpec(sigma=0.2, mu=v), True),
    "eps": (lambda v: spectral_from_dense(np.eye(3), basis_1d(3), eps=v), False),
    "lam": (lambda v: SolverConfig(lam=v, omega=1.0), True),
    "omega": (lambda v: SolverConfig(lam=1.0, omega=v), True),
    "tol": (lambda v: SolverConfig(lam=1.0, omega=1.0, tol=v), False),
    "terminal_curvature": (lambda v: _problem(terminal_curvature=v), False),
    "lam_dt": (lambda v: prox_a_operator(KERNEL, v), False),
    "dt": (lambda v: prox_x_operator(4, v, 0.1), True),
    "step": (lambda v: prox_x_operator(4, 0.25, v), False),
    "curvature": (lambda v: prox_x_operator(4, 0.25, 0.1, v), False),
}
BAD_REALS = [True, "0.5", math.nan, math.inf, -math.inf, -0.25, 10**400]


@pytest.mark.parametrize("value", BAD_REALS,
                         ids=["bool", "str", "nan", "inf", "-inf", "negative", "1e400"])
@pytest.mark.parametrize("name", sorted(REALS))
def test_bad_real_parameter_rejected(name, value):
    # a bool was a step of 1, a str a TypeError and 10**400 an OverflowError
    # in the prox factories, and dt was not checked at all
    make, _ = REALS[name]
    with pytest.raises(ValueError, match=f"^{name} "):
        make(value)


@pytest.mark.parametrize("name", sorted(REALS))
def test_zero_real_parameter(name):
    make, positive = REALS[name]
    if positive:
        with pytest.raises(ValueError,
                           match=f"^{name} must be positive and finite, got 0.0$"):
            make(0)
    else:
        make(0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 0.25, 0.1), "num_steps must be positive, got 0"),
        ((2.0, 0.25, 0.1), "num_steps must be an integer, got 2.0"),
        ((True, 0.25, 0.1), "num_steps must be an integer, got True"),
        ((4, 0, 0.1), "dt must be positive and finite, got 0.0"),
        ((4, -0.25, 0.1), "dt must be positive and finite, got -0.25"),
        ((4, math.nan, 0.1), "dt must be positive and finite, got nan"),
    ],
    ids=["steps-0", "steps-float", "steps-bool", "dt-0", "dt-negative", "dt-nan"],
)
def test_prox_x_operator_checks_its_grid(args, message):
    # num_steps 0 was an IndexError, dt 0 a ZeroDivisionError, and a negative
    # or NaN dt returned a matrix
    with pytest.raises(ValueError, match=f"^{message}$"):
        prox_x_operator(*args)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_psd_check_rejects_non_finite(bad):
    # NaN came back as the smallest eigenvalue and inf read as definite
    with pytest.raises(ValueError, match="^matrix must be finite$"):
        psd_check([[bad]])
    with pytest.raises(ValueError, match="^matrix must be finite$"):
        psd_check([[1.0, bad], [bad, 1.0]])


def test_counts_stored_as_ints():
    cfg = SolverConfig(lam=1, omega=1, max_iter=np.int64(3), record_every=np.int32(2))
    spec = GaussianKernelSpec(0.2, 0.5, dimension=np.int64(2))
    counts = (cfg.max_iter, cfg.record_every, _problem(num_steps=np.int64(4)).num_steps,
              spec.dimension)
    assert [type(c) for c in counts] == [int] * 4
    assert counts == (3, 2, 4, 2)


def test_solver_config_serializes_with_numpy_counts():
    cfg = SolverConfig(lam=1, omega=1, max_iter=np.int64(3))
    assert json.loads(json.dumps(dataclasses.asdict(cfg)))["max_iter"] == 3


def test_basis_counts_stored_as_ints():
    # the dimension, truncation and indices were stored as passed, numpy
    # integers included
    b1 = basis_1d(np.int64(3))
    b2 = BasisSet(np.int64(2), np.int32(3), ((np.int64(1), np.int32(2)), (2, 1)))
    assert [type(v) for v in (b1.dimension, b1.truncation, *b1.indices)] == [int] * 5
    assert [type(v) for v in (b2.dimension, b2.truncation)] == [int] * 2
    assert b2.indices == ((1, 2), (2, 1))
    assert {type(k) for pair in b2.indices for k in pair} == {int}
    assert all(type(pair) is tuple for pair in b2.indices)


def test_basis_serializes_with_numpy_counts():
    record = json.loads(json.dumps(dataclasses.asdict(basis_2d(np.int64(3)))))
    assert record == {
        "dimension": 2, "truncation": 3, "indices": [[1, 1], [1, 2], [2, 1]]
    }


def test_density_snapshot_counts_stored_as_ints():
    m = discretize_measure(lambda p: np.ones(len(p)), 2, 1)
    x = np.repeat(m.points[:, None, :], 3, axis=1)
    snaps = (
        density_histogram(x, m, np.int64(1), np.int32(4)),
        DensitySnapshot(time_index=np.int64(0), bins=np.int32(2), values=np.ones(2)),
    )
    for snap in snaps:
        assert [type(snap.time_index), type(snap.bins)] == [int, int]


DIMENSION_USERS = {
    "BasisSet": lambda d: BasisSet(d, 2, (1,)),
    "GaussianKernelSpec": lambda d: GaussianKernelSpec(0.2, 0.5, dimension=d),
    "discretize_measure": lambda d: discretize_measure(lambda p: np.ones(len(p)), 3, d),
}


@pytest.mark.parametrize(
    "value, message",
    [
        (3, "dimension must be 1 or 2, got 3"),
        (np.int64(0), "dimension must be 1 or 2, got 0"),
        (True, "dimension must be an integer, got True"),
        (1.0, "dimension must be an integer, got 1.0"),
    ],
    ids=["three", "numpy-zero", "bool", "float"],
)
@pytest.mark.parametrize("user", sorted(DIMENSION_USERS))
def test_one_dimension_rule(user, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DIMENSION_USERS[user](value)
