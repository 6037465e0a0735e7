"""Particle-based solver for first-order nonlocal mean-field games with
spectral (trigonometric) interaction kernels and a primal-dual hybrid
gradient iteration on the discretized saddle-point problem."""

from .basis import (
    BasisSet,
    basis_1d,
    basis_2d,
    tensor_indices,
)
from .kernel import (
    GaussianKernelSpec,
    SpectralKernel,
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
from .pdhg import (
    SolverConfig,
    SolverResult,
    check_steps,
    fixed_point_residual,
    solve,
    step_a,
    step_size_bound,
    step_x,
    step_z,
)
from .problem import (
    DiscreteMeasure,
    DivergenceError,
    MFGProblem,
    action,
    action_gradient,
    best_response,
    discrete_G,
    discretize_measure,
    moment_vector,
    saddle_value,
)
from .postprocess import (
    DensitySnapshot,
    density_histogram,
    straightness_metric,
    symmetry_defect,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSet",
    "DensitySnapshot",
    "DiscreteMeasure",
    "DivergenceError",
    "GaussianKernelSpec",
    "MFGProblem",
    "SolverConfig",
    "SolverResult",
    "SpectralKernel",
    "action",
    "action_gradient",
    "basis_1d",
    "basis_2d",
    "best_response",
    "check_steps",
    "density_histogram",
    "discrete_G",
    "discretize_measure",
    "fejer_average",
    "fixed_point_residual",
    "fourier_coefficients",
    "gaussian_spectral_1d",
    "gaussian_spectral_2d",
    "kernel_eval_direct",
    "moment_vector",
    "psd_check",
    "regularize",
    "saddle_value",
    "solve",
    "spectral_from_dense",
    "step_a",
    "step_size_bound",
    "step_x",
    "step_z",
    "straightness_metric",
    "symmetry_defect",
    "tensor_indices",
    "translation_invariant_blocks",
]
