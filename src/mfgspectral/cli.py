"""Configuration-driven entry point.

Subcommands: ``solve`` runs an experiment and exports trajectories,
densities, diagnostics and metrics; ``kernel-info`` prints the spectral
data of the configured kernel as JSON; ``presets`` lists the built-in
experiment configurations. A config argument is either the name of a
built-in preset or a path to a JSON file with the same structure. Runs
are deterministic: identical configs produce byte-identical artifacts.

Exit codes: 0 success, 1 configuration error, 2 solver divergence. The
``status`` field of ``metrics.json`` reads ``converged``, ``max_iter`` or,
after a divergence, ``diverged``.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import (
    basis_1d,
    basis_2d,
    eval_all,
    field_gradient,
    grad_all,  # noqa: F401  (traced in this namespace by bench/layers.py)
)
from .kernel import (
    GaussianKernelSpec,
    SpectralKernel,
    gaussian_spectral_1d,
    gaussian_spectral_2d,
    regularize,
    spectral_from_dense,
)
from .pdhg import (
    SolverConfig,
    check_steps,
    fixed_point_residual,
    solve,
    step_size_bound,
)
from .problem import (
    DivergenceError,
    MFGProblem,
    discretize_measure,
    saddle_value,
)
from .postprocess import (
    density_histogram,
    straightness_metric,
    symmetry_defect,
    write_density_csv,
    write_metrics_json,
    write_trajectories_csv,
)


class ConfigError(Exception):
    """Invalid experiment configuration; message names the field."""


# ---------------------------------------------------------------------------
# built-in initial densities and terminal costs


def _density_1d(p):
    return 1.0 / 6.0 + 5.0 / 3.0 * np.sin(np.pi * p[:, 0]) ** 2


def _terminal_1d(p):
    return 1.0 + np.sin(4.0 * np.pi * p[:, 0] + 0.5 * np.pi)


def _terminal_grad_1d(p):
    return (4.0 * np.pi * np.cos(4.0 * np.pi * p[:, 0] + 0.5 * np.pi))[:, None]


def _density_2d(p):
    x1, x2 = p[:, 0], p[:, 1]
    return (
        1.0
        + 0.5 * np.cos(np.pi + 2.0 * np.pi * (x1 - x2))
        + 0.5 * np.sin(0.5 * np.pi + 2.0 * np.pi * (x1 + x2))
    )


def _terminal_2d(p):
    x1, x2 = p[:, 0], p[:, 1]
    return 1.5 + 0.5 * (np.cos(6.0 * np.pi * x1) + np.cos(2.0 * np.pi * x2))


def _terminal_grad_2d(p):
    x1, x2 = p[:, 0], p[:, 1]
    out = np.empty_like(p)
    out[:, 0] = -3.0 * np.pi * np.sin(6.0 * np.pi * x1)
    out[:, 1] = -np.pi * np.sin(2.0 * np.pi * x2)
    return out


DENSITY_PRESETS = {
    "paper-1d": (_density_1d, 1),
    "paper-2d": (_density_2d, 2),
}

TERMINAL_PRESETS = {
    "paper-1d": (_terminal_1d, _terminal_grad_1d, 1),
    "paper-2d": (_terminal_2d, _terminal_grad_2d, 2),
}


def _preset_1d(sigma, mu):
    return {
        "dimension": 1,
        "kernel": {"type": "gaussian", "sigma": sigma, "mu": mu},
        "r": 8,
        "N": 20,
        "Q": 50,
        "solver": {
            "lambda": 3.0,
            "omega": 0.5,
            "theta": 1.0,
            "max_iter": 20000,
            "tol": 1e-8,
            "record_every": 50,
        },
        "M": {"preset": "paper-1d"},
        "U": {"preset": "paper-1d"},
        "output_dir": "out",
        "bins": 100,
        "density_slices": [0, 10, 20],
    }


def _preset_2d(sigma, mu):
    return {
        "dimension": 2,
        "kernel": {"type": "gaussian", "sigma": sigma, "mu": mu},
        "r": 8,
        "N": 20,
        "Q": 20,
        "solver": {
            "lambda": 1.0,
            "omega": 0.5,
            "theta": 1.0,
            "max_iter": 50000,
            "tol": 1e-5,
            "record_every": 100,
        },
        "M": {"preset": "paper-2d"},
        "U": {"preset": "paper-2d"},
        "output_dir": "out",
        "bins": 50,
        "density_slices": [0, 10, 20],
    }


PRESETS = {
    "paper-1d-a": _preset_1d(0.2, 0.5),
    "paper-1d-b": _preset_1d(0.2, 1.5),
    "paper-1d-c": _preset_1d(0.8, 0.5),
    "paper-2d-a": _preset_2d(0.1, 0.75),
    "paper-2d-b": _preset_2d(0.1, 0.5),
    "paper-2d-c": _preset_2d(1.0, 0.5),
}


# ---------------------------------------------------------------------------
# configuration parsing


@dataclass(frozen=True)
class ExperimentConfig:
    dimension: int
    kernel_type: str
    sigma: float | None
    mu: float | None
    kernel_matrix: np.ndarray | None
    eps: float | None
    r: int
    N: int
    Q: int
    solver: SolverConfig
    density_fn: Callable
    terminal_fn: Callable
    terminal_grad_fn: Callable
    output_dir: str
    bins: int
    density_slices: tuple


def _expect(condition, path, message):
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _get_number(section, key, path, positive=False, allow_missing=False, default=None):
    if key not in section:
        if allow_missing:
            return default
        raise ConfigError(f"{path}.{key}: missing required field")
    value = section[key]
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{path}.{key}", "must be a number")
    if positive:
        _expect(math.isfinite(value) and value > 0, f"{path}.{key}",
                "must be positive and finite")
    return float(value)


def _get_int(section, key, path, minimum=None, allow_missing=False, default=None):
    if key not in section:
        if allow_missing:
            return default
        raise ConfigError(f"{path}.{key}: missing required field")
    value = section[key]
    _expect(isinstance(value, int) and not isinstance(value, bool),
            f"{path}.{key}", "must be an integer")
    if minimum is not None:
        _expect(value >= minimum, f"{path}.{key}", f"must be at least {minimum}")
    return int(value)


def _infer_2d_truncation(size, path):
    # size = q (q - 1) / 2 for the tensor index list of truncation q
    q = int(round((1.0 + math.sqrt(1.0 + 8.0 * size)) / 2.0))
    _expect(q >= 2 and q * (q - 1) // 2 == size, path,
            f"length {size} is not a valid 2d coefficient count q(q-1)/2")
    return q


def _function_from_coefficients(coeffs, dimension, path):
    _expect(
        isinstance(coeffs, list) and len(coeffs) >= 1
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in coeffs),
        path, "must be a non-empty list of numbers",
    )
    vec = np.asarray(coeffs, dtype=float)
    _expect(np.all(np.isfinite(vec)), path, "entries must be finite")
    if dimension == 1:
        b = basis_1d(len(vec))
    else:
        b = basis_2d(_infer_2d_truncation(len(vec), path))

    def value(p):
        return eval_all(b, p) @ vec

    def gradient(p):
        # each point is its own one-point slice
        pts = np.asarray(p, dtype=float)[:, None, :]
        return field_gradient(b, pts, vec[:, None])[:, 0]

    return value, gradient


def _resolve_density(section, dimension, path):
    _expect(isinstance(section, dict), path, "must be an object")
    if "preset" in section:
        name = section["preset"]
        _expect(name in DENSITY_PRESETS, f"{path}.preset",
                f"unknown preset {name!r}; available: {sorted(DENSITY_PRESETS)}")
        fn, dim = DENSITY_PRESETS[name]
        _expect(dim == dimension, f"{path}.preset",
                f"preset {name!r} is {dim}-dimensional")
        return fn
    if "coefficients" in section:
        fn, _ = _function_from_coefficients(
            section["coefficients"], dimension, f"{path}.coefficients"
        )
        return fn
    raise ConfigError(f"{path}: needs either 'preset' or 'coefficients'")


def _resolve_terminal(section, dimension, path):
    _expect(isinstance(section, dict), path, "must be an object")
    if "preset" in section:
        name = section["preset"]
        _expect(name in TERMINAL_PRESETS, f"{path}.preset",
                f"unknown preset {name!r}; available: {sorted(TERMINAL_PRESETS)}")
        fn, grad, dim = TERMINAL_PRESETS[name]
        _expect(dim == dimension, f"{path}.preset",
                f"preset {name!r} is {dim}-dimensional")
        return fn, grad
    if "coefficients" in section:
        return _function_from_coefficients(
            section["coefficients"], dimension, f"{path}.coefficients"
        )
    raise ConfigError(f"{path}: needs either 'preset' or 'coefficients'")


def validate_config(raw: dict) -> ExperimentConfig:
    _expect(isinstance(raw, dict), "config", "must be a JSON object")
    dimension = _get_int(raw, "dimension", "config", minimum=1)
    _expect(dimension in (1, 2), "config.dimension", "must be 1 or 2")

    kernel_section = raw.get("kernel")
    _expect(isinstance(kernel_section, dict), "config.kernel", "must be an object")
    ktype = kernel_section.get("type")
    _expect(ktype in ("gaussian", "custom-coefficients"), "config.kernel.type",
            "must be 'gaussian' or 'custom-coefficients'")

    r = _get_int(raw, "r", "config", minimum=1)
    if dimension == 2:
        _expect(r >= 2, "config.r", "must be at least 2 in dimension 2")
    n_steps = _get_int(raw, "N", "config", minimum=1)
    q = _get_int(raw, "Q", "config", minimum=1)

    sigma = mu = None
    matrix = None
    eps = None
    if "eps" in kernel_section:
        eps = _get_number(kernel_section, "eps", "config.kernel")
        _expect(math.isfinite(eps) and eps >= 0, "config.kernel.eps",
                "must be finite and nonnegative")
    if ktype == "gaussian":
        sigma = _get_number(kernel_section, "sigma", "config.kernel", positive=True)
        mu = _get_number(kernel_section, "mu", "config.kernel", positive=True)
    else:
        entries = kernel_section.get("matrix")
        _expect(isinstance(entries, list) and entries, "config.kernel.matrix",
                "must be a non-empty nested list")
        try:
            matrix = np.asarray(entries, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config.kernel.matrix: not numeric ({exc})") from exc
        size = basis_1d(r).size if dimension == 1 else basis_2d(r).size
        _expect(matrix.shape == (size, size), "config.kernel.matrix",
                f"must be {size}x{size} for r={r} in dimension {dimension}")
        _expect(np.all(np.isfinite(matrix)), "config.kernel.matrix",
                "entries must be finite")

    solver_section = raw.get("solver")
    _expect(isinstance(solver_section, dict), "config.solver", "must be an object")
    try:
        solver = SolverConfig(
            lam=_get_number(solver_section, "lambda", "config.solver", positive=True),
            omega=_get_number(solver_section, "omega", "config.solver", positive=True),
            theta=_get_number(solver_section, "theta", "config.solver",
                              allow_missing=True, default=1.0),
            max_iter=_get_int(solver_section, "max_iter", "config.solver",
                              minimum=0, allow_missing=True, default=20000),
            tol=_get_number(solver_section, "tol", "config.solver",
                            allow_missing=True, default=1e-8),
            record_every=_get_int(solver_section, "record_every", "config.solver",
                                  minimum=1, allow_missing=True, default=50),
        )
    except ValueError as exc:
        raise ConfigError(f"config.solver: {exc}") from exc

    density_fn = _resolve_density(raw.get("M", {}), dimension, "config.M")
    terminal_fn, terminal_grad_fn = _resolve_terminal(
        raw.get("U", {}), dimension, "config.U"
    )

    output_dir = raw.get("output_dir", "out")
    _expect(isinstance(output_dir, str) and output_dir, "config.output_dir",
            "must be a non-empty string")
    bins = _get_int(raw, "bins", "config", minimum=2, allow_missing=True,
                    default=100 if dimension == 1 else 50)
    slices = raw.get("density_slices", [0, n_steps // 2, n_steps])
    _expect(isinstance(slices, list) and slices
            and all(isinstance(i, int) and not isinstance(i, bool) for i in slices),
            "config.density_slices", "must be a non-empty list of integers")
    _expect(all(0 <= i <= n_steps for i in slices), "config.density_slices",
            f"entries must lie in [0, {n_steps}]")

    return ExperimentConfig(
        dimension=dimension,
        kernel_type=ktype,
        sigma=sigma,
        mu=mu,
        kernel_matrix=matrix,
        eps=eps,
        r=r,
        N=n_steps,
        Q=q,
        solver=solver,
        density_fn=density_fn,
        terminal_fn=terminal_fn,
        terminal_grad_fn=terminal_grad_fn,
        output_dir=output_dir,
        bins=bins,
        density_slices=tuple(slices),
    )


def load_config_source(source: str) -> dict:
    """Resolve a preset name or read a JSON config file."""
    if source in PRESETS:
        return copy.deepcopy(PRESETS[source])
    if not os.path.exists(source):
        raise ConfigError(
            f"config: {source!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
            "nor an existing file"
        )
    try:
        with open(source, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {source}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {source}: {exc}") from exc


# ---------------------------------------------------------------------------
# building and running


def build_kernel(cfg: ExperimentConfig) -> SpectralKernel:
    if cfg.kernel_type == "gaussian":
        spec = GaussianKernelSpec(sigma=cfg.sigma, mu=cfg.mu, dimension=cfg.dimension)
        spectral = gaussian_spectral_1d if cfg.dimension == 1 else gaussian_spectral_2d
        try:
            ker = spectral(spec, cfg.r)
        except ValueError as exc:
            raise ConfigError(f"config.kernel: {exc}") from exc
        if cfg.eps:
            ker = regularize(ker, cfg.eps)
        return ker
    b = basis_1d(cfg.r) if cfg.dimension == 1 else basis_2d(cfg.r)
    try:
        return spectral_from_dense(cfg.kernel_matrix, b, eps=cfg.eps)
    except ValueError as exc:
        raise ConfigError(f"config.kernel.matrix: {exc}") from exc


def build_problem(cfg: ExperimentConfig):
    kernel = build_kernel(cfg)
    try:
        measure = discretize_measure(cfg.density_fn, cfg.Q, cfg.dimension)
    except ValueError as exc:
        raise ConfigError(f"config.M: {exc}") from exc
    problem = MFGProblem(
        kernel=kernel,
        initial_density=cfg.density_fn,
        terminal_cost=cfg.terminal_fn,
        terminal_grad=cfg.terminal_grad_fn,
        num_steps=cfg.N,
    )
    return problem, measure


def kernel_info(cfg: ExperimentConfig) -> dict:
    problem, measure = build_problem(cfg)
    kernel = problem.kernel
    a_squared = step_size_bound(measure, kernel.basis, problem.dt)
    eigenvalues = kernel.eigenvalues()
    return {
        "dimension": cfg.dimension,
        "basis_size": kernel.size,
        "epsilon": kernel.eps,
        "eigenvalues": eigenvalues.tolist(),
        "min_eigenvalue": float(eigenvalues[0]),
        "a_squared": a_squared,
        "omega_lambda": cfg.solver.omega * cfg.solver.lam,
        "omega_lambda_limit": (1.0 / a_squared) if a_squared > 0 else None,
        "step_bound_ok": check_steps(cfg.solver, a_squared),
    }


def run(cfg: ExperimentConfig) -> int:
    problem, measure = build_problem(cfg)
    a_squared = step_size_bound(measure, problem.basis, problem.dt)
    if not check_steps(cfg.solver, a_squared):
        print(
            f"warning: omega*lambda = {cfg.solver.omega * cfg.solver.lam:.6g} "
            f"exceeds 1/A^2 = {1.0 / a_squared:.6g}; the iteration may diverge",
            file=sys.stderr,
        )
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"config.output_dir: cannot create {cfg.output_dir} ({exc.strerror})"
        ) from exc
    diagnostics_path = os.path.join(cfg.output_dir, "diagnostics.jsonl")
    metrics_path = os.path.join(cfg.output_dir, "metrics.json")
    try:
        result = solve(problem, measure, cfg.solver, diagnostics_path=diagnostics_path)
    except DivergenceError as exc:
        metrics = {
            "status": "diverged",
            "iterations": exc.iteration,
            "converged": False,
            "last_record": exc.diagnostics[-1] if exc.diagnostics else None,
            "a_squared": a_squared,
            "step_bound_ok": check_steps(cfg.solver, a_squared),
        }
        write_metrics_json(metrics_path, metrics)
        raise

    write_trajectories_csv(os.path.join(cfg.output_dir, "trajectories.csv"), result.x)
    for i in cfg.density_slices:
        snap = density_histogram(result.x, measure, i, cfg.bins)
        write_density_csv(
            os.path.join(cfg.output_dir, f"density_t{i}.csv"), snap
        )

    # a single-step trajectory coincides with its chord
    straightness = straightness_metric(result.x)[1] if cfg.N >= 2 else 0.0
    try:
        defect = symmetry_defect(result.x, measure)
    except ValueError:
        defect = None
    metrics = {
        "status": "converged" if result.converged else "max_iter",
        "iterations": result.iterations,
        "converged": result.converged,
        "fixed_point_residual": fixed_point_residual(
            result.a, result.x, problem.kernel, measure
        ),
        "final_saddle_value": saddle_value(result.a, result.x, problem, measure),
        "straightness_max": straightness,
        "symmetry_defect": defect,
        "a_squared": a_squared,
        "step_bound_ok": check_steps(cfg.solver, a_squared),
    }
    write_metrics_json(metrics_path, metrics)
    if not result.converged:
        print(
            f"warning: stopped at max_iter = {cfg.solver.max_iter} before the "
            f"step norms reached tol = {cfg.solver.tol:g}; the result is not "
            "converged",
            file=sys.stderr,
        )
    print(
        f"solved in {result.iterations} iterations "
        f"(converged={result.converged}); artifacts in {cfg.output_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# command line


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfgspectral",
        description="Particle solver for nonlocal mean-field games with "
        "spectral interaction kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run an experiment and export artifacts")
    p_solve.add_argument("config", help="preset name or JSON config path")
    p_solve.add_argument("--output-dir", help="override the output directory")
    p_solve.add_argument("--max-iter", type=int, help="override solver.max_iter")
    p_solve.add_argument("--tol", type=float, help="override solver.tol")
    p_solve.add_argument(
        "--density-slices",
        help="comma-separated time indices for density snapshots, e.g. 0,10,20",
    )

    p_info = sub.add_parser("kernel-info", help="print kernel spectral data as JSON")
    p_info.add_argument("config", help="preset name or JSON config path")

    sub.add_parser("presets", help="list built-in experiment presets")
    return parser


def _apply_overrides(raw: dict, args) -> dict:
    if getattr(args, "output_dir", None):
        raw["output_dir"] = args.output_dir
    if getattr(args, "max_iter", None) is not None:
        raw.setdefault("solver", {})["max_iter"] = args.max_iter
    if getattr(args, "tol", None) is not None:
        raw.setdefault("solver", {})["tol"] = args.tol
    if getattr(args, "density_slices", None):
        try:
            raw["density_slices"] = [
                int(v) for v in args.density_slices.split(",") if v != ""
            ]
        except ValueError as exc:
            raise ConfigError(f"--density-slices: {exc}") from exc
    return raw


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            for name in sorted(PRESETS):
                k = PRESETS[name]["kernel"]
                print(
                    f"{name}: dimension={PRESETS[name]['dimension']} "
                    f"sigma={k['sigma']} mu={k['mu']}"
                )
            return 0
        raw = _apply_overrides(load_config_source(args.config), args)
        cfg = validate_config(raw)
        if args.command == "kernel-info":
            print(json.dumps(kernel_info(cfg), indent=2, sort_keys=True))
            return 0
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
