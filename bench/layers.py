"""Which library functions the benchmark times, and under which span name.

A function is patched in every module namespace that calls it, because
the package imports names with ``from .module import name``; patching only
the defining module would miss those call sites. Work functions compute
counts from array shapes and file sizes, so the counts repeat exactly.
"""

from __future__ import annotations

import os

from mfgspectral import basis, cli, kernel, pdhg, postprocess, problem


def _keep(args, kwargs, out):
    return out


def _points_bytes(args, kwargs, out):
    return (out.shape[0], out.nbytes)


def _step_x_flops(args, kwargs, out):
    # the coupling einsum "qikd,ki->qid": one multiply and one add per term
    x, a_new = args[0], args[1]
    q, n_plus_1, d = x.shape
    return 2 * q * (n_plus_1 - 1) * a_new.shape[0] * d


def _kernel_evals(args, kwargs, out):
    basis_set, num_points = args[1], args[2]
    return num_points ** (2 * basis_set.dimension)


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


# Phase boundaries every run needs: what cli.main spends in set-up and in
# the solve, and the solver result for the correctness gate.
COARSE = [
    ("cli.validate_config", cli, "validate_config", None),
    ("cli.build_problem", cli, "build_problem", None),
    ("pdhg.solve", cli, "solve", _keep),
    ("pdhg.solve", pdhg, "solve", _keep),
]

LAYERS = [
    ("basis.grad_all", basis, "grad_all", _points_bytes),
    ("basis.grad_all", problem, "grad_all", _points_bytes),
    ("basis.grad_all", pdhg, "grad_all", _points_bytes),
    ("basis.grad_all", cli, "grad_all", _points_bytes),
    ("basis.eval_all", basis, "eval_all", _points_bytes),
    ("basis.eval_all", problem, "eval_all", _points_bytes),
    ("basis.eval_all", kernel, "eval_all", _points_bytes),
    ("basis.eval_all", cli, "eval_all", _points_bytes),
    ("pdhg.step_a", pdhg, "step_a", None),
    ("pdhg.step_x", pdhg, "step_x", _step_x_flops),
    ("pdhg.step_z", pdhg, "step_z", None),
    ("pdhg.fixed_point_residual", pdhg, "fixed_point_residual", None),
    ("pdhg.fixed_point_residual", cli, "fixed_point_residual", None),
    ("problem.moment_vector", problem, "moment_vector", None),
    ("problem.moment_vector", pdhg, "moment_vector", None),
    ("problem.saddle_value", problem, "saddle_value", None),
    ("problem.saddle_value", pdhg, "saddle_value", None),
    ("problem.saddle_value", cli, "saddle_value", None),
    ("problem.discretize_measure", problem, "discretize_measure", None),
    ("problem.discretize_measure", cli, "discretize_measure", None),
    ("kernel.fourier_coefficients", kernel, "fourier_coefficients", _kernel_evals),
    ("kernel.build", cli, "build_kernel", None),
    ("kernel.apply_k", kernel.SpectralKernel, "apply_k", None),
    ("kernel.apply_j", kernel.SpectralKernel, "apply_j", None),
    ("postprocess.symmetry_defect", postprocess, "symmetry_defect", None),
    ("postprocess.symmetry_defect", cli, "symmetry_defect", None),
    ("postprocess.straightness_metric", postprocess, "straightness_metric", None),
    ("postprocess.straightness_metric", cli, "straightness_metric", None),
    ("postprocess.write_trajectories_csv", postprocess, "write_trajectories_csv", _file_bytes),
    ("postprocess.write_trajectories_csv", cli, "write_trajectories_csv", _file_bytes),
    ("postprocess.density", postprocess, "density_histogram", None),
    ("postprocess.density", cli, "density_histogram", None),
    ("postprocess.density", postprocess, "write_density_csv", _file_bytes),
    ("postprocess.density", cli, "write_density_csv", _file_bytes),
    ("postprocess.write_metrics_json", postprocess, "write_metrics_json", None),
    ("postprocess.write_metrics_json", cli, "write_metrics_json", None),
]


def install(tracer, traced):
    """Patch the phase boundaries, and every layer when ``traced``."""
    for name, owner, attr, work in COARSE + (LAYERS if traced else []):
        tracer.patch(owner, attr, name, work)
    if traced:
        # solve() builds the prox closure once; time each application of it
        tracer.patch_factory(pdhg, "prox_a_operator", "kernel.prox_apply")
