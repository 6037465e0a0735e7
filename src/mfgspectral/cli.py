"""Configuration-driven entry point.

Subcommands: ``solve`` runs an experiment and exports trajectories,
densities, diagnostics and metrics; ``kernel-info`` prints the spectral
data of the configured kernel as JSON; ``presets`` lists the built-in
experiment configurations. A config argument is either the name of a
built-in preset or a path to a JSON file with the same structure. Runs
are deterministic: identical configs produce byte-identical artifacts.

Exit codes: 0 success, 1 configuration error (any failed write in the
output directory, a full disk included, among them) or a failed print to
standard output, 2 solver divergence. The ``status`` field of
``metrics.json`` reads ``converged``, ``max_iter`` or, after a divergence,
``diverged``; the artifacts of an earlier run in the same directory are
removed before the solve starts, ``metrics.json`` first.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .basis import (
    SliceTables,
    basis_1d,
    basis_2d,
    eval_all,
    grad_all,  # noqa: F401  (traced in this namespace by bench/layers.py)
    hessian_bounds,
)
from .kernel import (
    GaussianKernelSpec,
    SpectralKernel,
    gaussian_spectral,
    spectral_from_dense,
)
from .pdhg import SolverConfig, fixed_point_residual, solve
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

# each terminal cost with its gradient and the spectral-norm bound of its
# Hessian: (4 pi)^2 for paper-1d, 0.5 (6 pi)^2 for paper-2d
TERMINAL_PRESETS = {
    "paper-1d": (_terminal_1d, _terminal_grad_1d, 16.0 * np.pi**2, 1),
    "paper-2d": (_terminal_2d, _terminal_grad_2d, 18.0 * np.pi**2, 2),
}


# what the paper's 1d and 2d studies do not share
_STUDIES = {
    1: {"Q": 50, "lambda": 3.0, "max_iter": 20000, "tol": 1e-8,
        "record_every": 50, "bins": 100},
    2: {"Q": 20, "lambda": 1.0, "max_iter": 50000, "tol": 1e-5,
        "record_every": 100, "bins": 50},
}


def _preset(dimension, sigma, mu, omega, momentum):
    study = _STUDIES[dimension]
    return {
        "dimension": dimension,
        "kernel": {"type": "gaussian", "sigma": sigma, "mu": mu},
        "r": 8,
        "N": 20,
        "Q": study["Q"],
        "solver": {
            "lambda": study["lambda"],
            "omega": omega,
            "theta": 1.0,
            "max_iter": study["max_iter"],
            "tol": study["tol"],
            "record_every": study["record_every"],
            "momentum": momentum,
        },
        "M": {"preset": f"paper-{dimension}d"},
        "U": {"preset": f"paper-{dimension}d"},
        "output_dir": "out",
        "bins": study["bins"],
        "density_slices": [0, 10, 20],
    }


# (omega, momentum) as tools/pick_steps.py picks and checks them
PRESETS = {
    "paper-1d-a": _preset(1, 0.2, 0.5, 20.0, 0.7),
    "paper-1d-b": _preset(1, 0.2, 1.5, 10.0, 0.7),
    "paper-1d-c": _preset(1, 0.8, 0.5, 5.0, 0.7),
    "paper-2d-a": _preset(2, 0.1, 0.75, 160.0, 0.5),
    "paper-2d-b": _preset(2, 0.1, 0.5, 320.0, 0.6),
    "paper-2d-c": _preset(2, 1.0, 0.5, 40.0, 0.7),
}


# ---------------------------------------------------------------------------
# configuration parsing


@dataclass(frozen=True)
class ExperimentConfig:
    dimension: int
    kernel: GaussianKernelSpec | np.ndarray  # or a custom coefficient matrix
    eps: float | None
    r: int
    N: int
    Q: int
    solver: SolverConfig
    density_fn: Callable
    terminal_fn: Callable
    terminal_grad_fn: Callable
    terminal_curvature: float
    output_dir: str
    bins: int
    density_slices: tuple


# JSON key of the solver section -> SolverConfig field: each field's name,
# but "lambda" for lam
_SOLVER_KEYS = {
    "lambda" if f.name == "lam" else f.name: f.name for f in fields(SolverConfig)
}


def _expect(condition, path, message):
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _is_number(value):
    # a JSON number: true and false are not numbers
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _get_number(section, key, path):
    # the JSON number itself: the library turns it into a float and checks it
    _expect(key in section, f"{path}.{key}", "missing required field")
    value = section[key]
    _expect(_is_number(value), f"{path}.{key}", "must be a number")
    return value


def _floats(entries, path):
    # a checked JSON list, or list of lists, of numbers as a float array
    try:
        return np.asarray(entries, dtype=float)
    except ValueError as exc:  # rows of unequal length
        raise ConfigError(f"{path}: not a matrix ({exc})") from exc
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{path}: too large for a float") from None


def _get_int(section, key, path, minimum):
    _expect(key in section, f"{path}.{key}", "missing required field")
    value = section[key]
    _expect(isinstance(value, int) and not isinstance(value, bool),
            f"{path}.{key}", "must be an integer")
    _expect(value >= minimum, f"{path}.{key}", f"must be at least {minimum}")
    return int(value)


def _infer_2d_truncation(size, path):
    # size = q (q - 1) / 2 for the tensor index list of truncation q
    q = int(round((1.0 + math.sqrt(1.0 + 8.0 * size)) / 2.0))
    _expect(q >= 2 and q * (q - 1) // 2 == size, path,
            f"length {size} is not a valid 2d coefficient count q(q-1)/2")
    return q


def _coefficient_basis(coeffs, dimension, path):
    # the basis a checked coefficient list expands in, with its vector
    _expect(
        isinstance(coeffs, list) and len(coeffs) >= 1
        and all(_is_number(v) for v in coeffs),
        path, "must be a non-empty list of numbers",
    )
    vec = _floats(coeffs, path)
    _expect(np.all(np.isfinite(vec)), path, "entries must be finite")
    if dimension == 1:
        return basis_1d(len(vec)), vec
    return basis_2d(_infer_2d_truncation(len(vec), path)), vec


def _density_from_coefficients(b, vec):
    return (lambda p: eval_all(b, p) @ vec,)


def _terminal_from_coefficients(b, vec):
    # value, gradient and Hessian bound, as a TERMINAL_PRESETS row gives them
    def value(p):
        return eval_all(b, p) @ vec

    def gradient(p):
        # all points in one slice, of one coefficient column
        pts = np.asarray(p, dtype=float)[:, None, :]
        return SliceTables(b, pts).field_gradient(vec[:, None])[:, 0]

    return value, gradient, float(np.abs(vec) @ hessian_bounds(b))


def _resolve_function(section, dimension, path, presets, from_coefficients):
    # the functions of a preset entry (all but its trailing dimension), or
    # those from_coefficients builds of a coefficient list
    _expect(isinstance(section, dict), path, "must be an object")
    if "preset" in section:
        name = section["preset"]
        _expect(name in presets, f"{path}.preset",
                f"unknown preset {name!r}; available: {sorted(presets)}")
        *functions, dim = presets[name]
        _expect(dim == dimension, f"{path}.preset",
                f"preset {name!r} is {dim}-dimensional")
        return functions
    if "coefficients" in section:
        return from_coefficients(*_coefficient_basis(
            section["coefficients"], dimension, f"{path}.coefficients"
        ))
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

    eps = None
    if "eps" in kernel_section:
        eps = _get_number(kernel_section, "eps", "config.kernel")
    if ktype == "gaussian":
        try:  # GaussianKernelSpec owns the checks of sigma and mu
            kernel = GaussianKernelSpec(
                sigma=_get_number(kernel_section, "sigma", "config.kernel"),
                mu=_get_number(kernel_section, "mu", "config.kernel"),
                dimension=dimension,
            )
        except ValueError as exc:
            raise ConfigError(f"config.kernel: {exc}") from exc
    else:
        entries = kernel_section.get("matrix")
        _expect(isinstance(entries, list) and entries
                and all(isinstance(row, list) for row in entries),
                "config.kernel.matrix", "must be a non-empty nested list")
        _expect(all(_is_number(v) for row in entries for v in row),
                "config.kernel.matrix", "entries must be numbers")
        kernel = _floats(entries, "config.kernel.matrix")

    solver_section = raw.get("solver")
    _expect(isinstance(solver_section, dict), "config.solver", "must be an object")
    for key in ("lambda", "omega"):
        _expect(key in solver_section, f"config.solver.{key}", "missing required field")
    try:  # SolverConfig owns the defaults and the checks of its fields
        solver = SolverConfig(**{
            field: solver_section[key]
            for key, field in _SOLVER_KEYS.items()
            if key in solver_section
        })
    except ValueError as exc:
        raise ConfigError(f"config.solver: {exc}") from exc

    (density_fn,) = _resolve_function(
        raw.get("M", {}), dimension, "config.M", DENSITY_PRESETS,
        _density_from_coefficients,
    )
    terminal_fn, terminal_grad_fn, terminal_curvature = _resolve_function(
        raw.get("U", {}), dimension, "config.U", TERMINAL_PRESETS,
        _terminal_from_coefficients,
    )

    output_dir = raw.get("output_dir", "out")
    _expect(isinstance(output_dir, str) and output_dir, "config.output_dir",
            "must be a non-empty string")
    bins = (_get_int(raw, "bins", "config", minimum=2) if "bins" in raw
            else 100 if dimension == 1 else 50)
    slices = raw.get("density_slices", [0, n_steps // 2, n_steps])
    _expect(isinstance(slices, list) and slices
            and all(isinstance(i, int) and not isinstance(i, bool) for i in slices),
            "config.density_slices", "must be a non-empty list of integers")
    _expect(all(0 <= i <= n_steps for i in slices), "config.density_slices",
            f"entries must lie in [0, {n_steps}]")

    return ExperimentConfig(
        dimension=dimension,
        kernel=kernel,
        eps=eps,
        r=r,
        N=n_steps,
        Q=q,
        solver=solver,
        density_fn=density_fn,
        terminal_fn=terminal_fn,
        terminal_grad_fn=terminal_grad_fn,
        terminal_curvature=terminal_curvature,
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {source}: {exc}") from exc
    except ValueError as exc:  # also an integer past Python's digit limit
        raise ConfigError(f"config: invalid JSON in {source}: {exc}") from exc


# ---------------------------------------------------------------------------
# building and running


def build_kernel(cfg: ExperimentConfig) -> SpectralKernel:
    try:  # the kernel module owns the checks of the matrix and of eps
        if isinstance(cfg.kernel, GaussianKernelSpec):
            ker = gaussian_spectral(cfg.kernel, cfg.r)
            if not cfg.eps:  # eps shifts a Gaussian only when it is nonzero
                return ker
            matrix, basis = ker.k_mat, ker.basis
        else:
            matrix = cfg.kernel
            basis = basis_1d(cfg.r) if cfg.dimension == 1 else basis_2d(cfg.r)
        return spectral_from_dense(matrix, basis, eps=cfg.eps)
    except ValueError as exc:
        raise ConfigError(f"config.kernel: {exc}") from exc


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
        terminal_curvature=cfg.terminal_curvature,
    )
    return problem, measure


def kernel_info(cfg: ExperimentConfig) -> dict:
    # the whole problem is built, so kernel-info rejects the configs solve does
    kernel = build_problem(cfg)[0].kernel
    eigenvalues = kernel.eigenvalues()
    return {
        "dimension": cfg.dimension,
        "basis_size": kernel.size,
        "epsilon": kernel.eps,
        "eigenvalues": eigenvalues.tolist(),
        "min_eigenvalue": float(eigenvalues[0]),
    }


# records over which a residual that does not halve its best reads as a
# cycle: paper-1d-b cycling at omega 40 dips 1% below its best in 10
# records, while paper-1d-a at omega 1/2 and momentum 0, which converges
# in 6397 iterations, falls 2.4x
_STALL_RECORDS = 10


def _max_iter_warning(solver: SolverConfig, records) -> str:
    # what the records saw: the last residual, and whether the last
    # _STALL_RECORDS of them failed to halve the best residual before them
    text = (
        f"warning: stopped at max_iter = {solver.max_iter} before the step "
        f"norms reached tol = {solver.tol:g}; the result is not converged"
    )
    residuals = [record["residual"] for record in records]
    if residuals:
        text += f" (last residual {residuals[-1]:.3e})"
    if (len(residuals) > _STALL_RECORDS
            and min(residuals[-_STALL_RECORDS:])
            >= 0.5 * min(residuals[:-_STALL_RECORDS])):
        text += ("; residual is not falling: the iteration looks cycling; "
                 "try a smaller omega")
    return text


def run(cfg: ExperimentConfig) -> str:
    problem, measure = build_problem(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    # an earlier run's artifacts go, its record first, so none sits beside this run's
    earlier = sorted(os.listdir(cfg.output_dir), key=lambda n: (n != "metrics.json", n))
    for name in earlier:
        if re.fullmatch(r"(metrics\.json|diagnostics\.jsonl|trajectories\.csv"
                        r"|density_t[0-9]+\.csv)", name):
            os.remove(os.path.join(cfg.output_dir, name))
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
            "terminal_curvature": problem.terminal_curvature,
        }
        write_metrics_json(metrics_path, metrics)
        raise

    write_trajectories_csv(os.path.join(cfg.output_dir, "trajectories.csv"), result.x)
    for i in cfg.density_slices:
        snap = density_histogram(result.x, measure, i, cfg.bins)
        write_density_csv(
            os.path.join(cfg.output_dir, f"density_t{i}.csv"), snap
        )

    metrics = {
        "status": "converged" if result.converged else "max_iter",
        "iterations": result.iterations,
        "converged": result.converged,
        "fixed_point_residual": fixed_point_residual(
            result.a, result.x, problem.kernel, measure
        ),
        "final_saddle_value": saddle_value(result.a, result.x, problem, measure),
        "straightness_max": straightness_metric(result.x)[1],
        "symmetry_defect": symmetry_defect(result.x, measure),
        "terminal_curvature": problem.terminal_curvature,
    }
    write_metrics_json(metrics_path, metrics)
    if not result.converged:
        print(_max_iter_warning(cfg.solver, result.diagnostics), file=sys.stderr)
    return (
        f"solved in {result.iterations} iterations "
        f"(converged={result.converged}); artifacts in {cfg.output_dir}"
    )


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
    # a config or solver section that is no object fails as in validate_config;
    # a given flag is copied as it is, and validate_config checks it as its key
    _expect(isinstance(raw, dict), "config", "must be a JSON object")
    if getattr(args, "output_dir", None) is not None:
        raw["output_dir"] = args.output_dir
    for key in ("max_iter", "tol"):
        value = getattr(args, key, None)
        if value is not None:
            section = raw.setdefault("solver", {})
            _expect(isinstance(section, dict), "config.solver", "must be an object")
            section[key] = value
    slices = getattr(args, "density_slices", None)
    if slices is not None:  # "" is the empty list; an empty entry fails int()
        entries = slices.split(",") if slices else []
        try:
            raw["density_slices"] = [int(v) for v in entries]
        except ValueError as exc:
            raise ConfigError(f"--density-slices: {exc}") from exc
    return raw


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # the work: an OSError here is the output directory's
        if args.command == "presets":
            text = "\n".join(
                f"{name}: dimension={p['dimension']} "
                f"sigma={p['kernel']['sigma']} mu={p['kernel']['mu']}"
                for name, p in sorted(PRESETS.items())
            )
        else:
            raw = _apply_overrides(load_config_source(args.config), args)
            cfg = validate_config(raw)
            if args.command == "kernel-info":
                text = json.dumps(kernel_info(cfg), indent=2, sort_keys=True)
            else:
                text = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a full disk names no file
        print(f"config error: config.output_dir: cannot create "
              f"{exc.filename or cfg.output_dir} ({exc.strerror})", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return 2
    try:  # the printing: an OSError here is standard output's
        print(text, flush=True)  # a buffered write fails here, not at exit
    except OSError as exc:
        print(f"error: cannot write standard output ({exc.strerror})",
              file=sys.stderr)
        # what stays buffered goes to devnull at exit, not to a second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
