import dataclasses
import errno
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mfgspectral.basis import SliceTables, basis_1d, basis_2d, eval_all
from mfgspectral.cli import (
    PRESETS,
    ConfigError,
    build_kernel,
    build_problem,
    kernel_info,
    load_config_source,
    main,
    run,
    validate_config,
)
from mfgspectral.pdhg import DIVERGENCE_LIMIT, fixed_point_residual, solve, step_x
from mfgspectral.postprocess import (
    density_histogram,
    straightness_metric,
    symmetry_defect,
    write_trajectories_csv,
)
from mfgspectral.problem import (
    DivergenceError,
    action,
    action_gradient,
    moment_vector,
    saddle_value,
)

ARTIFACTS = ["trajectories.csv", "diagnostics.jsonl", "metrics.json"]
INFO_KEYS = ["basis_size", "dimension", "eigenvalues", "epsilon", "min_eigenvalue"]
# the metrics.json keys of a run that returned, and of one that diverged
RESULT_KEYS = [
    "converged", "final_saddle_value", "fixed_point_residual", "iterations",
    "status", "straightness_max", "symmetry_defect", "terminal_curvature",
]
DIVERGED_KEYS = [
    "converged", "iterations", "last_record", "status", "terminal_curvature",
]
HUGE_INT = "1" + "0" * 400  # a JSON integer too large for a float


def tiny_config(output_dir, **overrides):
    cfg = {
        "dimension": 1,
        "kernel": {"type": "gaussian", "sigma": 0.2, "mu": 0.5},
        "r": 2,
        "N": 4,
        "Q": 4,
        "solver": {
            "lambda": 3.0,
            "omega": 1.0 / 12.0,
            "theta": 1.0,
            "max_iter": 60,
            "tol": 1e-10,
            "record_every": 10,
        },
        "M": {"preset": "paper-1d"},
        "U": {"preset": "paper-1d"},
        "output_dir": str(output_dir),
        "bins": 8,
        "density_slices": [0, 2, 4],
    }
    cfg.update(overrides)
    return cfg


def diverging_config(output_dir, lam):
    # the implicit kinetic step is stable at any omega, and a terminal cost
    # is held back by its own curvature bound; a huge kernel with a long
    # coefficient step is what blows up: |a| passes DIVERGENCE_LIMIT at
    # iteration 1 with lambda 1e9 and at iteration 43 with lambda 1e5
    kernel = {"type": "custom-coefficients", "matrix": [[1e7, 0.0], [0.0, 1e7]]}
    cfg = tiny_config(output_dir, kernel=kernel)
    cfg["solver"].update({"lambda": lam, "max_iter": 500})
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestPresets:
    def test_listing_command(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_parameter_table(self):
        # golden values for the built-in experiment presets, float types too
        one = (20000, 1e-8, 50, 100, [0, 10, 20], {"preset": "paper-1d"},
               {"preset": "paper-1d"}, "out")
        two = (50000, 1e-5, 100, 50, [0, 10, 20], {"preset": "paper-2d"},
               {"preset": "paper-2d"}, "out")
        table = {
            "paper-1d-a": (1, 0.2, 0.5, 8, 20, 50, 3.0, 20.0, 1.0, 0.7, *one),
            "paper-1d-b": (1, 0.2, 1.5, 8, 20, 50, 3.0, 10.0, 1.0, 0.7, *one),
            "paper-1d-c": (1, 0.8, 0.5, 8, 20, 50, 3.0, 5.0, 1.0, 0.7, *one),
            "paper-2d-a": (2, 0.1, 0.75, 8, 20, 20, 1.0, 160.0, 1.0, 0.5, *two),
            "paper-2d-b": (2, 0.1, 0.5, 8, 20, 20, 1.0, 320.0, 1.0, 0.6, *two),
            "paper-2d-c": (2, 1.0, 0.5, 8, 20, 20, 1.0, 40.0, 1.0, 0.7, *two),
        }
        assert set(PRESETS) == set(table)
        for name, row in table.items():
            p, s = PRESETS[name], PRESETS[name]["solver"]
            values = (
                p["dimension"], p["kernel"]["sigma"], p["kernel"]["mu"], p["r"],
                p["N"], p["Q"], s["lambda"], s["omega"], s["theta"], s["momentum"],
                s["max_iter"], s["tol"], s["record_every"], p["bins"],
                p["density_slices"], p["M"], p["U"], p["output_dir"],
            )
            assert values == row, name
            assert [type(v) for v in values] == [type(v) for v in row], name

    def test_presets_validate(self):
        for name in PRESETS:
            validate_config(load_config_source(name))


# (preset, tol, iteration ceiling, residual cap) of every preset solve at
# its own tol, and of paper-2d-a at the tol 2e-4 it is also run at; the
# caps are those tools/pick_steps.py picks the presets' steps under
CEILINGS = [
    ("paper-1d-a", 1e-8, 140, 1e-8),
    ("paper-1d-b", 1e-8, 200, 1e-7),
    ("paper-1d-c", 1e-8, 98, 1e-8),
    ("paper-2d-a", 1e-5, 260, 1e-5),
    ("paper-2d-a", 2e-4, 100, 1e-3),
    ("paper-2d-b", 1e-5, 100, 1e-5),
    ("paper-2d-c", 1e-5, 67, 1e-5),
]


def load_pick_steps():
    # the step-search script, imported once without running its search
    if "pick_steps" not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "tools" / "pick_steps.py"
        spec = importlib.util.spec_from_file_location("pick_steps", path)
        sys.modules["pick_steps"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["pick_steps"])
    return sys.modules["pick_steps"]


class TestIterationCeilings:
    """Iteration counts and final residuals of the preset solves, capped.

    The counts are deterministic, so unlike a wall-clock bound these
    cannot flake. In the order of ``CEILINGS`` the solves take 122, 174,
    85, 226, 87, 87 and 58 iterations and end at residuals 1.9e-9, 9.4e-8,
    1.0e-10, 9.1e-7, 4.0e-4, 1.6e-6 and 6.4e-6; the ceilings are about 15%
    above.
    """

    @pytest.mark.parametrize(
        "preset, tol, ceiling, residual",
        CEILINGS,
        ids=[name if tol == PRESETS[name]["solver"]["tol"] else f"{name}-tol{tol:g}"
             for name, tol, _, _ in CEILINGS],
    )
    def test_preset_converges_under_ceiling(self, preset, tol, ceiling, residual):
        raw = load_config_source(preset)
        raw["solver"]["tol"] = tol
        cfg = validate_config(raw)
        result = solve(*build_problem(cfg), cfg.solver)
        assert result.converged
        assert result.iterations <= ceiling
        assert result.diagnostics[-1]["residual"] <= residual

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_twice_the_omega_still_converges(self, preset):
        # no preset sits one doubling of omega from the cliff where the
        # iteration starts to cycle
        raw = load_config_source(preset)
        raw["solver"]["omega"] *= 2
        cfg = validate_config(raw)
        assert solve(*build_problem(cfg), cfg.solver).converged


class TestPickSteps:
    """tools/pick_steps.py searches the presets' steps on the grid it says."""

    def test_presets_and_their_doubles_are_grid_points(self):
        tool = load_pick_steps()
        for name, preset in PRESETS.items():
            omegas, momenta = tool.grid(name)
            solver = preset["solver"]
            assert solver["omega"] in omegas and 2 * solver["omega"] in omegas, name
            assert solver["momentum"] in momenta, name

    def test_caps_are_the_ceiling_caps(self):
        caps = {(preset, tol): cap for preset, tol, _, cap in CEILINGS}
        assert load_pick_steps().CAPS == caps


def config_with_u(dimension, u_section):
    raw = load_config_source(f"paper-{dimension}d-a")
    raw["U"] = u_section
    return validate_config(raw)


def hessian_norm(gradient, points, h=1e-5):
    # the largest spectral norm, over the points, of the Hessian of U taken
    # by central differences of its gradient
    hessian = np.empty(points.shape + (points.shape[1],))
    for e in range(points.shape[1]):
        bump = np.zeros(points.shape[1])
        bump[e] = h
        hessian[:, :, e] = (gradient(points + bump) - gradient(points - bump)) / (2 * h)
    return float(np.max(np.linalg.norm(hessian, ord=2, axis=(1, 2))))


def grid_points(dimension, size):
    line = np.arange(size) / size
    return np.stack(np.meshgrid(*[line] * dimension, indexing="ij"), -1).reshape(
        -1, dimension
    )


class TestTerminalCurvature:
    """The CLI bounds the Hessian of every terminal cost it builds."""

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_preset_bound_is_tight(self, dimension):
        cfg = config_with_u(dimension, {"preset": f"paper-{dimension}d"})
        norm = hessian_norm(cfg.terminal_grad_fn, grid_points(dimension, 48))
        assert norm <= cfg.terminal_curvature <= 1.01 * norm
        assert build_problem(cfg)[0].terminal_curvature == cfg.terminal_curvature

    def test_paper_2d_a_caps_its_last_slice(self):
        # the 2d counterpart of criterion 7's slice-N check: with Q / omega
        # below c, slice N of the trajectory step satisfies, per unit weight,
        # c (x - x_new) = (x_new[N] - x_new[N-1]) / dt + grad(running +
        # terminal)(x), the running cost dt a[:, N-1] . phi of that slice;
        # the gradient is taken by central differences
        cfg = validate_config(load_config_source("paper-2d-a"))
        problem, measure = build_problem(cfg)
        c, n, dt = problem.terminal_curvature, problem.num_steps, problem.dt
        assert measure.count / cfg.solver.omega < c
        rng = np.random.default_rng(7)
        x = np.repeat(measure.points[:, None, :], n + 1, axis=1)
        x[:, 1:] += rng.normal(scale=0.05, size=(measure.count, n, 2))
        a = rng.normal(scale=0.4, size=(problem.basis.size, n))
        x_new = step_x(x, a, problem, measure, cfg.solver.omega)

        def running_and_terminal(points):
            running = dt * eval_all(problem.basis, points) @ a[:, -1]
            return running + problem.terminal_cost(points)

        h = 1e-6
        gradient = np.empty((measure.count, 2))
        for e, bump in enumerate(h * np.eye(2)):
            gradient[:, e] = (running_and_terminal(x[:, n] + bump)
                              - running_and_terminal(x[:, n] - bump)) / (2 * h)
        expect = (x_new[:, n] - x_new[:, n - 1]) / dt + gradient
        gap = c * (x[:, n] - x_new[:, n]) - expect
        assert np.max(np.abs(gap)) < 1e-5 * np.max(np.abs(expect))

    @pytest.mark.parametrize("dimension, count", [(1, 1), (1, 9), (2, 1), (2, 10)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coefficient_bound_holds(self, dimension, count, seed):
        coefficients = np.random.default_rng(seed).uniform(-1.0, 1.0, count)
        cfg = config_with_u(dimension, {"coefficients": coefficients.tolist()})
        norm = hessian_norm(cfg.terminal_grad_fn, grid_points(dimension, 48))
        assert norm <= cfg.terminal_curvature
        if count == 1:  # a constant
            assert cfg.terminal_curvature == 0.0

    @pytest.mark.parametrize(
        "dimension, count, position",
        [(1, 9, j) for j in range(1, 9)] + [(2, 10, j) for j in range(1, 10)],
    )
    def test_lone_function_bound(self, dimension, count, position):
        # tight for a function that varies along one axis, within 2x for a
        # product of two varying factors
        coefficients = np.zeros(count)
        coefficients[position] = -0.7
        cfg = config_with_u(dimension, {"coefficients": coefficients.tolist()})
        norm = hessian_norm(cfg.terminal_grad_fn, grid_points(dimension, 48))
        freqs = (basis_1d(9) if dimension == 1 else basis_2d(5)).frequencies
        slack = 1.01 if np.count_nonzero(freqs[position]) == 1 else 2.01
        assert norm <= cfg.terminal_curvature <= slack * norm


class TestValidation:
    def test_missing_field_names_path(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        del cfg["kernel"]["sigma"]
        with pytest.raises(ConfigError, match="config.kernel.sigma"):
            validate_config(cfg)

    def test_missing_integer_field_exit_code(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "out")
        del cfg["N"]
        assert main(["solve", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == (
            "config error: config.N: missing required field\n"
        )

    def test_invalid_2d_coefficient_count(self, tmp_path, capsys):
        # 4 is no q(q-1)/2, the size of the 2d basis of truncation q
        cfg = tiny_config(tmp_path / "out", dimension=2, M={"preset": "paper-2d"},
                          U={"coefficients": [1.0, 0.0, 0.0, 0.0]})
        assert main(["solve", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == (
            "config error: config.U.coefficients: length 4 is not a valid 2d "
            "coefficient count q(q-1)/2\n"
        )

    def test_bad_dimension(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", dimension=3)
        with pytest.raises(ConfigError, match="config.dimension"):
            validate_config(cfg)

    def test_bad_solver_value(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        cfg["solver"]["theta"] = 2.0
        with pytest.raises(ConfigError, match="config.solver"):
            validate_config(cfg)

    def test_bad_density_slices(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", density_slices=[0, 99])
        with pytest.raises(ConfigError, match="config.density_slices"):
            validate_config(cfg)

    def test_non_integer_density_slices_flag(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["solve", path, "--density-slices", "0,x"]) == 1
        assert capsys.readouterr().err == (
            "config error: --density-slices: invalid literal for int() with "
            "base 10: 'x'\n"
        )

    @pytest.mark.parametrize(
        "section, message",
        [
            ({}, "needs either 'preset' or 'coefficients'"),
            # validation passes; discretize_measure's error is wrapped
            ({"coefficients": [0.0]},
             "density vanishes on the whole grid; measure is degenerate"),
        ],
        ids=["empty", "zero-density"],
    )
    def test_unusable_density_section(self, tmp_path, capsys, section, message):
        path = write_config(tmp_path, tiny_config(tmp_path / "out", M=section))
        for command in ("solve", "kernel-info"):
            assert main([command, path]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"config error: config.M: {message}\n"
            assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--output-dir", "o"], ["--max-iter", "5"], ["--tol", "1e-3"],
         ["--density-slices", "0"]],
        ids=["output-dir", "max-iter", "tol", "density-slices"],
    )
    @pytest.mark.parametrize("raw", [[1, 2], "x", None], ids=["list", "str", "null"])
    def test_flags_on_non_object_config(self, tmp_path, capsys, monkeypatch,
                                        raw, flags):
        # the error validate_config gives, not a traceback in the override
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, raw)
        assert main(["solve", path, *flags]) == 1
        assert capsys.readouterr().err == (
            "config error: config: must be a JSON object\n"
        )
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize(
        "flag, message",
        [("--output-dir", "config.output_dir: must be a non-empty string"),
         ("--density-slices",
          "config.density_slices: must be a non-empty list of integers")],
        ids=["output-dir", "density-slices"],
    )
    def test_empty_flag_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                          flag, message):
        # an empty flag was ignored: the run cleared and wrote the config's
        # out/; it is checked as the JSON key it overrides
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, tiny_config("out"))
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "metrics.json").write_text("earlier run")
        assert main(["solve", path, flag, ""]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert os.listdir(tmp_path / "out") == ["metrics.json"]
        assert (tmp_path / "out" / "metrics.json").read_text() == "earlier run"

    @pytest.mark.parametrize("flags", [["--max-iter", "5"], ["--tol", "1e-3"]],
                             ids=["max-iter", "tol"])
    def test_solver_flags_on_non_object_solver(self, tmp_path, capsys, flags):
        cfg = tiny_config(tmp_path / "out", solver=[1])
        assert main(["solve", write_config(tmp_path, cfg), *flags]) == 1
        assert capsys.readouterr().err == (
            "config error: config.solver: must be an object\n"
        )
        assert not (tmp_path / "out").exists()

    def test_nan_tol_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["solve", path, "--tol", "nan"]) == 1
        assert "config.solver" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "literal", ["1.0", "-0.1", "NaN", "Infinity", "true", '"0.9"']
    )
    def test_bad_momentum_exit_code(self, tmp_path, capsys, literal):
        # SolverConfig checks the range and the type; the CLI names the section
        cfg = tiny_config(tmp_path / "out")
        cfg["solver"]["momentum"] = "LITERAL"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"LITERAL"', literal))
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: config.solver: momentum "
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry", ['"1.0"', "true", "null", "[1.0]"])
    def test_matrix_entries_must_be_numbers(self, tmp_path, capsys, entry):
        cfg = tiny_config(tmp_path / "out")
        cfg["kernel"] = {
            "type": "custom-coefficients", "matrix": [["LITERAL", 0.0], [0.0, 1.0]]
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"LITERAL"', entry))
        assert main(["kernel-info", str(path)]) == 1
        assert capsys.readouterr().err == (
            "config error: config.kernel.matrix: entries must be numbers\n"
        )

    @pytest.mark.parametrize("matrix", [[1.0, 0.0], [[1.0, 0.0], 1.0]])
    def test_matrix_must_be_nested(self, tmp_path, matrix):
        cfg = tiny_config(tmp_path / "out")
        cfg["kernel"] = {"type": "custom-coefficients", "matrix": matrix}
        with pytest.raises(
            ConfigError, match="^config.kernel.matrix: must be a non-empty nested list$"
        ):
            validate_config(cfg)

    def test_ragged_matrix_is_config_error(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        cfg["kernel"] = {"type": "custom-coefficients", "matrix": [[1.0, 0.0], [1.0]]}
        with pytest.raises(ConfigError, match="^config.kernel.matrix: not a matrix"):
            validate_config(cfg)

    def test_legacy_seed_field_ignored(self, tmp_path):
        cfg = validate_config(tiny_config(tmp_path / "out", seed=0))
        assert not hasattr(cfg, "seed")

    def test_unknown_preset_exit_code(self, tmp_path, capsys):
        assert main(["solve", "no-such-preset"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 1

    def test_integer_past_digit_limit(self, tmp_path, capsys):
        # json reads integers through int(), which refuses over 4300 digits
        path = tmp_path / "huge.json"
        path.write_text('{"dimension": 1' + "0" * 5000 + "}")
        assert main(["kernel-info", str(path)]) == 1
        assert "config error: config: invalid JSON in" in capsys.readouterr().err

    def test_directory_config_path(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == 1
        assert "config error: config: cannot read" in capsys.readouterr().err

    def test_non_utf8_config_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dimension": 1, "note": "caf\xe9"}')
        assert main(["solve", str(path)]) == 1
        assert "config error: config: cannot read" in capsys.readouterr().err

    def test_wrong_matrix_shape(self, tmp_path, capsys):
        # spectral_from_dense checks the shape; the CLI names the field
        cfg = tiny_config(
            tmp_path / "out",
            kernel={"type": "custom-coefficients", "matrix": [[1.0]]},
        )
        assert main(["solve", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == (
            "config error: config.kernel: matrix shape (1, 1) does not match "
            "basis size 2\n"
        )
        assert not (tmp_path / "out").exists()

    def test_integer_beyond_float_range_in_matrix(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "out")
        matrix = np.eye(basis_1d(cfg["r"]).size).tolist()
        matrix[0][0] = "LITERAL"
        cfg["kernel"] = {"type": "custom-coefficients", "matrix": matrix}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"LITERAL"', HUGE_INT))
        assert main(["kernel-info", str(path)]) == 1
        assert capsys.readouterr().err == (
            "config error: config.kernel.matrix: too large for a float\n"
        )

    @pytest.mark.parametrize(
        "field, literal",
        [
            ("sigma", "Infinity"),
            ("sigma", "NaN"),
            ("mu", "Infinity"),
            ("mu", "1e309"),
            ("eps", "Infinity"),
            ("matrix", "NaN"),
            ("matrix", "-Infinity"),
            pytest.param("sigma", HUGE_INT, id="sigma-int-1e400"),
            pytest.param("mu", HUGE_INT, id="mu-int-1e400"),
            pytest.param("eps", HUGE_INT, id="eps-int-1e400"),
        ],
    )
    def test_non_finite_kernel_input(self, tmp_path, capsys, field, literal):
        # Python's json reads these literals as floats; each must be a
        # config error naming the field, not a solve or a divergence. The
        # kernel module checks the value, and the CLI reports its message.
        cfg = tiny_config(tmp_path / "out")
        if field == "matrix":
            matrix = np.eye(basis_1d(cfg["r"]).size).tolist()
            matrix[0][0] = "LITERAL"
            cfg["kernel"] = {"type": "custom-coefficients", "matrix": matrix}
        else:
            cfg["kernel"][field] = "LITERAL"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"LITERAL"', literal))
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: config.kernel: {field} "
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("literal", ["Infinity", "NaN", "1e309"])
    @pytest.mark.parametrize("field", ["M", "U"])
    def test_non_finite_coefficients(self, tmp_path, capsys, field, literal):
        cfg = tiny_config(tmp_path / "out")
        cfg[field] = {"coefficients": [1.0, "LITERAL", 0.5]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"LITERAL"', literal))
        assert main(["solve", str(path)]) == 1
        assert f"config error: config.{field}.coefficients:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "kernel-info"])
    @pytest.mark.parametrize("field", ["M", "U"])
    def test_integer_beyond_float_range_in_coefficients(self, tmp_path, capsys,
                                                        field, command):
        # one config error line, as for kernel.matrix, not an OverflowError
        cfg = tiny_config(tmp_path / "out")
        cfg[field] = {"coefficients": [1.0, "LITERAL", 0.5]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"LITERAL"', HUGE_INT))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: config.{field}.coefficients: too large for a float\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_integer_beyond_float_range_in_solver(self, tmp_path, capsys):
        # SolverConfig checks each real field; this pins the CLI's wrapping
        cfg = tiny_config(tmp_path / "out")
        cfg["solver"]["lambda"] = "LITERAL"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"LITERAL"', HUGE_INT))
        assert main(["kernel-info", str(path)]) == 1
        assert capsys.readouterr().err == (
            "config error: config.solver: lam is too large for a float\n"
        )

    @pytest.mark.parametrize("key", ["lambda", "omega"])
    def test_missing_required_solver_key(self, tmp_path, key):
        cfg = tiny_config(tmp_path / "out")
        del cfg["solver"][key]
        with pytest.raises(
            ConfigError, match=f"config.solver.{key}: missing required field"
        ):
            validate_config(cfg)

    def test_infinite_tol_rejected(self, tmp_path, capsys):
        # +inf would stop before the first step and report it converged
        cfg = tiny_config(tmp_path / "out")
        cfg["solver"]["tol"] = "LITERAL"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"LITERAL"', "Infinity"))
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == (
            "config error: config.solver: tol must be nonnegative and finite, "
            "got inf\n"
        )
        assert not (tmp_path / "out").exists()

    def test_mismatched_preset_dimension(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", M={"preset": "paper-2d"})
        with pytest.raises(ConfigError, match="config.M.preset"):
            validate_config(cfg)


class TestKernelInfo:
    def test_gaussian_1d(self):
        cfg = validate_config(load_config_source("paper-1d-a"))
        info = kernel_info(cfg)
        assert info["basis_size"] == 8
        assert len(info["eigenvalues"]) == 8
        # ascending; the constant mode carries the largest eigenvalue, mu
        assert info["eigenvalues"][-1] == pytest.approx(0.5)

    def test_gaussian_2d(self):
        cfg = validate_config(load_config_source("paper-2d-b"))
        info = kernel_info(cfg)
        assert info["basis_size"] == 28
        assert len(info["eigenvalues"]) == 28

    def test_cli_output_is_json(self, capsys):
        assert main(["kernel-info", "paper-1d-a"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["basis_size"] == 8

    def test_output_keys(self, capsys):
        for preset in ("paper-1d-a", "paper-2d-b"):
            assert main(["kernel-info", preset]) == 0
            assert sorted(json.loads(capsys.readouterr().out)) == INFO_KEYS

    def test_near_singular_custom_matrix_warns(self, tmp_path):
        entries = np.diag([1e-13, 1.0, 1.0]).tolist()
        cfg = tiny_config(
            tmp_path / "out",
            r=3,
            kernel={"type": "custom-coefficients", "matrix": entries, "eps": 0.0},
        )
        with pytest.warns(RuntimeWarning):
            build_kernel(validate_config(cfg))

    @pytest.mark.parametrize("preset", ["paper-1d-c", "paper-2d-c"])
    def test_gaussian_presets_not_shifted(self, preset):
        # the smallest eigenvalues (~1e-22) sit below the automatic-shift
        # trigger of dense kernels; the analytic Gaussian must keep them
        cfg = validate_config(load_config_source(preset))
        ker = build_kernel(cfg)
        assert ker.eps == 0.0
        freqs = np.reshape(ker.basis.indices, (ker.size, -1)) // 2
        n2 = np.sum(freqs**2, axis=1).astype(float)
        spec = cfg.kernel
        analytic = spec.mu**spec.dimension * np.exp(
            -0.5 * (np.pi * spec.sigma) ** 2 * n2
        )
        np.testing.assert_allclose(np.diag(ker.k_mat), analytic, rtol=1e-14)
        assert np.min(np.diag(ker.k_mat)) < 1e-21

    @pytest.mark.parametrize("eps", [1e-6, 1e-3, 0.5])
    @pytest.mark.parametrize(
        "preset", ["paper-1d-a", "paper-1d-c", "paper-2d-a", "paper-2d-c"]
    )
    def test_gaussian_eps_shift(self, preset, eps):
        # spectral_from_dense shifts the analytic diagonal, bit for bit
        raw = load_config_source(preset)
        unshifted = build_kernel(validate_config(raw))
        raw["kernel"]["eps"] = eps
        ker = build_kernel(validate_config(raw))
        assert ker.basis == unshifted.basis and ker.eps == eps
        np.testing.assert_array_equal(
            ker.k_mat, np.diag(np.diag(unshifted.k_mat) + eps)
        )
        gap = np.linalg.norm(ker.k_mat @ ker.j_mat - np.eye(ker.size))
        assert gap < 1e-10

    def test_near_singular_gaussian_shift_warns(self):
        # paper-1d-c's smallest eigenvalue is ~1e-22
        raw = load_config_source("paper-1d-c")
        raw["kernel"]["eps"] = 1e-12
        with pytest.warns(RuntimeWarning, match="near-singular"):
            build_kernel(validate_config(raw))

    @pytest.mark.parametrize("command", ["solve", "kernel-info"])
    def test_overflowed_gaussian_weight_is_config_error(
        self, tmp_path, capsys, command
    ):
        # mu^2 = 1e400 is past the float range
        raw = load_config_source("paper-2d-a")
        raw["kernel"]["mu"] = 1e200
        raw["output_dir"] = str(tmp_path / "out")
        assert main([command, write_config(tmp_path, raw)]) == 1
        assert capsys.readouterr().err == (
            "config error: config.kernel: mu = 1e+200 overflows a float in mu^2\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "kernel-info"])
    def test_underflowed_gaussian_is_config_error(self, tmp_path, capsys, command):
        # mu^2 underflows to zero, so every 2d eigenvalue does too
        raw = load_config_source("paper-2d-a")
        raw["kernel"]["mu"] = 1e-200
        raw["output_dir"] = str(tmp_path / "out")
        assert main([command, write_config(tmp_path, raw)]) == 1
        assert capsys.readouterr().err.startswith("config error: config.kernel: ")

    def test_custom_matrix_auto_policy(self, tmp_path):
        entries = np.diag([1e-13, 1.0, 1.0]).tolist()
        cfg = tiny_config(
            tmp_path / "out",
            r=3,
            kernel={"type": "custom-coefficients", "matrix": entries},
        )
        ker = build_kernel(validate_config(cfg))
        assert ker.eps == pytest.approx(1e-6)
        assert ker.eigenvalues()[0] > 0


class TestRun:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_readers_of_the_result_agree_on_either_layout(self, tmp_path, preset):
        # result.x is slice-major: a (Q, N+1, d) view of (d, N+1, Q) memory.
        # What run() reads from it gives the bits of a C-order copy, on 5
        # random states per preset; saddle_value and action sum the kinetic
        # terms in memory order, so there the layouts agree to the rounding
        # of those sums
        cfg = validate_config(load_config_source(preset))
        problem, measure = build_problem(cfg)
        rng = np.random.default_rng(31)
        for _ in range(5):
            c_order = np.repeat(measure.points[:, None, :], cfg.N + 1, axis=1)
            c_order[:, 1:] += rng.normal(scale=0.3, size=c_order[:, 1:].shape)
            a = rng.normal(size=(problem.basis.size, cfg.N))
            slice_major = np.ascontiguousarray(c_order.transpose(2, 1, 0))
            layouts = (c_order, slice_major.transpose(2, 1, 0))
            readers = [
                lambda x: moment_vector(x, measure, problem.basis),
                lambda x: fixed_point_residual(a, x, problem.kernel, measure),
                lambda x: action_gradient(x, a, problem),
                lambda x: symmetry_defect(x, measure),
                lambda x: straightness_metric(x)[0],
            ] + [
                lambda x, i=i: density_histogram(x, measure, i, cfg.bins).values
                for i in cfg.density_slices
            ]
            for read in readers:
                np.testing.assert_array_equal(*(read(x) for x in layouts))
            paths = [tmp_path / "c.csv", tmp_path / "slice-major.csv"]
            for path, x in zip(paths, layouts):
                write_trajectories_csv(path, x)
            assert paths[0].read_bytes() == paths[1].read_bytes()
            kinetic = np.sum(np.diff(c_order, axis=1) ** 2) / (2.0 * problem.dt)
            for read in (
                lambda x: saddle_value(a, x, problem, measure),
                lambda x: action(x, a, problem),
            ):
                np.testing.assert_allclose(
                    *(read(x) for x in layouts), rtol=1e-14, atol=1e-15 * kinetic
                )

    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "run1"
        path = write_config(tmp_path, tiny_config(out))
        assert main(["solve", path]) == 0
        for name in ARTIFACTS + ["density_t0.csv", "density_t2.csv", "density_t4.csv"]:
            assert (out / name).exists(), name
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["iterations"] == 60
        assert metrics["status"] == "max_iter" and metrics["converged"] is False
        assert np.isfinite(metrics["fixed_point_residual"])
        assert np.isfinite(metrics["final_saddle_value"])
        assert metrics["terminal_curvature"] == 16.0 * np.pi**2

    def test_density_mass(self, tmp_path):
        out = tmp_path / "run2"
        path = write_config(tmp_path, tiny_config(out))
        main(["solve", path])
        lines = (out / "density_t4.csv").read_text().strip().splitlines()[1:]
        vals = [float(line.split(",")[1]) for line in lines]
        assert sum(vals) / len(vals) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        p1 = write_config(tmp_path, tiny_config(out1), "c1.json")
        p2 = write_config(tmp_path, tiny_config(out2), "c2.json")
        assert main(["solve", p1]) == 0
        assert main(["solve", p2]) == 0
        for name in ARTIFACTS + ["density_t0.csv"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_single_free_particle_stays_put(self, tmp_path):
        out = tmp_path / "free"
        cfg = tiny_config(
            out,
            r=1,
            Q=1,
            M={"coefficients": [1.0]},
            U={"coefficients": [0.0]},
            density_slices=[0],
        )
        path = write_config(tmp_path, cfg)
        assert main(["solve", path]) == 0
        lines = (out / "trajectories.csv").read_text().strip().splitlines()[1:]
        xs = {line.split(",")[2] for line in lines}
        assert xs == {"0.5"}

    def test_run_returns_its_summary_line(self, tmp_path, capsys):
        # main prints it; run itself writes nothing to standard output
        out = tmp_path / "direct"
        line = run(validate_config(tiny_config(out)))
        assert line == f"solved in 60 iterations (converged=False); artifacts in {out}"
        assert capsys.readouterr().out == ""

    def test_2d_coefficient_functions(self, tmp_path):
        # M of truncation q = 3 (3 coefficients) and U of q = 4 (6 coefficients)
        out = tmp_path / "coefficients-2d"
        cfg = tiny_config(out, dimension=2, M={"coefficients": [1.0, 0.2, 0.1]},
                          U={"coefficients": [1.0, 0.1, 0.2, 0.0, 0.3, 0.1]})
        assert main(["solve", write_config(tmp_path, cfg)]) == 0
        for name in ARTIFACTS + ["density_t0.csv", "density_t2.csv", "density_t4.csv"]:
            assert (out / name).exists(), name
        assert json.loads((out / "metrics.json").read_text())["iterations"] == 60

    def test_rerun_removes_earlier_density_slices(self, tmp_path):
        # an earlier run's density CSVs go; a name not of digits is the user's
        out = tmp_path / "slices"
        path = write_config(tmp_path, tiny_config(out))
        assert main(["solve", path, "--tol", "0.5"]) == 0
        (out / "density_t1b.csv").write_text("kept")
        assert main(["solve", path, "--density-slices", "1,3"]) == 0
        assert sorted(os.listdir(out)) == [
            "density_t1.csv", "density_t1b.csv", "density_t3.csv",
            "diagnostics.jsonl", "metrics.json", "trajectories.csv",
        ]

    def test_diverged_rerun_leaves_only_its_record(self, tmp_path, capsys):
        # no trajectories or densities of the earlier run beside "diverged"
        out = tmp_path / "rerun"
        path = write_config(tmp_path, tiny_config(out))
        assert main(["solve", path, "--tol", "0.5"]) == 0
        cfg = diverging_config(out, lam=1e9)
        assert main(["solve", write_config(tmp_path, cfg, "diverge.json")]) == 2
        assert "diverged" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["diagnostics.jsonl", "metrics.json"]
        assert json.loads((out / "metrics.json").read_text())["status"] == "diverged"

    def test_failed_rerun_leaves_no_earlier_metrics(self, tmp_path, capsys):
        # a run that fails to write an artifact must not sit next to the
        # converged record of an earlier run in the same directory
        out = tmp_path / "rerun"
        path = write_config(tmp_path, tiny_config(out))
        assert main(["solve", path, "--tol", "0.5"]) == 0
        assert json.loads((out / "metrics.json").read_text())["converged"] is True
        (out / "trajectories.csv").unlink()
        (out / "trajectories.csv").mkdir()
        assert main(["solve", path, "--max-iter", "3"]) == 1
        assert "cannot create" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_unusable_output_dir_is_config_error(self, tmp_path, capsys, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out" if below else blocker
        path = write_config(tmp_path, tiny_config(out))
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config.output_dir: cannot create {out}")

    def test_divergence_exit_code(self, tmp_path, capsys):
        out = tmp_path / "diverge"
        path = write_config(tmp_path, diverging_config(out, lam=1e9))
        assert main(["solve", path]) == 2
        assert capsys.readouterr().err == (
            "solver diverged: solver diverged at iteration 1; "
            "try a smaller omega or lambda\n"
        )
        # partial diagnostics were streamed before the failure
        assert (out / "diagnostics.jsonl").exists()
        assert json.loads((out / "metrics.json").read_text())["status"] == "diverged"

    def test_divergence_writes_metrics(self, tmp_path, capsys):
        # diverges after several recorded iterations
        cfg = diverging_config(tmp_path / "diverged", lam=1e5)
        cfg["solver"]["record_every"] = 10
        problem, measure = build_problem(validate_config(cfg))
        with pytest.raises(DivergenceError) as caught:
            solve(problem, measure, validate_config(cfg).solver)
        assert main(["solve", write_config(tmp_path, cfg)]) == 2
        assert "diverged" in capsys.readouterr().err
        metrics = json.loads((tmp_path / "diverged" / "metrics.json").read_text())
        assert metrics["status"] == "diverged" and metrics["converged"] is False
        assert metrics["iterations"] == caught.value.iteration
        assert metrics["terminal_curvature"] == problem.terminal_curvature
        last = metrics["last_record"]
        assert last["iteration"] == caught.value.iteration // 10 * 10
        assert last == caught.value.diagnostics[-1]

    def test_divergence_with_momentum_stops_before_the_tables(
        self, tmp_path, monkeypatch
    ):
        # the heavy-ball term is added before the divergence check, so no
        # unbounded or non-finite path reaches the basis tables. A huge
        # terminal cost stays bounded under its curvature bound; dropping
        # the bound makes its explicit step far too long, and the paths
        # diverge after a few iterations
        cfg = tiny_config(tmp_path / "out", U={"coefficients": [0.0, 1e6]})
        cfg["solver"].update(max_iter=500, momentum=0.9)
        config = validate_config(cfg)
        problem, measure = build_problem(config)
        assert np.max(np.abs(solve(problem, measure, config.solver).x)) < 1.0
        problem = dataclasses.replace(problem, terminal_curvature=0.0)
        seen = []
        real = SliceTables.rebuild

        def checked(tables, points):
            seen.append(float(np.max(np.abs(points))))
            return real(tables, points)

        monkeypatch.setattr(SliceTables, "rebuild", checked)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as caught:
                solve(problem, measure, config.solver)
        # the coefficient-list terminal gradient rebuilds tables of its own
        assert caught.value.iteration > 2 and seen
        assert max(seen) <= DIVERGENCE_LIMIT

    def test_long_steps_run_without_a_step_warning(self, tmp_path, capsys):
        # omega * lambda = 20, far past the classic 1 / A^2 of about 0.81:
        # the run converges, and only its status says how it went
        out = tmp_path / "steps"
        cfg = tiny_config(out)
        cfg["solver"].update({"lambda": 40.0, "omega": 0.5, "max_iter": 200})
        path = write_config(tmp_path, cfg)
        assert main(["kernel-info", path]) == 0
        assert capsys.readouterr().err == ""
        assert main(["solve", path]) == 0
        assert capsys.readouterr().err == ""
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["status"] == "converged" and metrics["iterations"] < 200

    @pytest.mark.parametrize(
        "status, flags, code, keys",
        [
            ("converged", ["--tol", "0.5"], 0, RESULT_KEYS),
            ("max_iter", ["--max-iter", "3"], 0, RESULT_KEYS),
            ("diverged", [], 2, DIVERGED_KEYS),
        ],
        ids=["converged", "max_iter", "diverged"],
    )
    def test_metrics_keys(self, tmp_path, status, flags, code, keys):
        out = tmp_path / "out"
        diverged = status == "diverged"
        cfg = diverging_config(out, lam=1e9) if diverged else tiny_config(out)
        assert main(["solve", write_config(tmp_path, cfg), *flags]) == code
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["status"] == status and sorted(metrics) == keys

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "flags"
        path = write_config(tmp_path, tiny_config(tmp_path / "ignored"))
        assert (
            main(
                [
                    "solve",
                    path,
                    "--output-dir",
                    str(out),
                    "--max-iter",
                    "7",
                    "--density-slices",
                    "1,3",
                ]
            )
            == 0
        )
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["iterations"] == 7
        assert (out / "density_t1.csv").exists()
        assert (out / "density_t3.csv").exists()
        assert not (out / "density_t0.csv").exists()

    def test_max_iter_stop_warns(self, tmp_path, capsys):
        out = tmp_path / "capped"
        cfg = tiny_config(out)
        cfg["solver"]["max_iter"] = 1
        assert main(["solve", write_config(tmp_path, cfg)]) == 0
        captured = capsys.readouterr()
        assert "converged=False" in captured.out
        assert "warning: stopped at max_iter = 1" in captured.err

    @pytest.mark.parametrize(
        "preset, omega, momentum, max_iter, cycling",
        [
            # cycles: its residual wanders between 0.04 and 0.1
            ("paper-1d-b", 40.0, 0.7, 1000, True),
            # slow but falling: converges in 6397 iterations
            ("paper-1d-a", 0.5, 0.0, 3000, False),
        ],
        ids=["cycling", "slow"],
    )
    def test_max_iter_warning_says_what_the_run_saw(
        self, tmp_path, capsys, preset, omega, momentum, max_iter, cycling
    ):
        out = tmp_path / "capped"
        raw = load_config_source(preset)
        raw["solver"].update(omega=omega, momentum=momentum)
        path = write_config(tmp_path, raw)
        flags = ["--max-iter", str(max_iter), "--output-dir", str(out)]
        assert main(["solve", path, *flags]) == 0
        err = capsys.readouterr().err
        last = json.loads((out / "diagnostics.jsonl").read_text().splitlines()[-1])
        assert err.startswith(f"warning: stopped at max_iter = {max_iter} ")
        assert f"(last residual {last['residual']:.3e})" in err
        hint = ("residual is not falling: the iteration looks cycling; "
                "try a smaller omega")
        assert (hint in err) is cycling
        assert err.count("\n") == 1

    def test_single_time_step_run(self, tmp_path):
        out = tmp_path / "one-step"
        cfg = tiny_config(out, N=1, density_slices=[0, 1])
        path = write_config(tmp_path, cfg)
        assert main(["solve", path]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["straightness_max"] == 0.0

    def test_tol_override_stops_early(self, tmp_path, capsys):
        out = tmp_path / "tol"
        path = write_config(tmp_path, tiny_config(tmp_path / "ignored2"))
        assert (
            main(["solve", path, "--output-dir", str(out), "--tol", "0.5"]) == 0
        )
        assert "max_iter" not in capsys.readouterr().err
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["converged"] is True and metrics["status"] == "converged"
        assert metrics["iterations"] < 60

    @pytest.mark.parametrize(
        "flags", [[], ["--max-iter", "3"]], ids=["converged", "max-iter-3"]
    )
    def test_metrics_agree_with_the_last_record(self, tmp_path, flags):
        # one final state: metrics.json's residual and saddle value are the
        # ones the last diagnostics.jsonl line records
        out = tmp_path / "record"
        assert main(["solve", "paper-1d-c", "--output-dir", str(out), *flags]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        last = json.loads((out / "diagnostics.jsonl").read_text().splitlines()[-1])
        assert metrics["iterations"] == last["iteration"]
        assert metrics["fixed_point_residual"] == last["residual"]
        assert metrics["final_saddle_value"] == last["saddle_value"]

    def test_symmetry_defect_is_number_for_asymmetric_weights(self, tmp_path):
        # custom M breaks the mirror symmetry of the weights, not the grid;
        # defect is still computable, so it must be a number
        out = tmp_path / "sym"
        cfg = tiny_config(out, M={"coefficients": [1.0, 0.2]})
        path = write_config(tmp_path, cfg)
        assert main(["solve", path]) == 0
        defect = json.loads((out / "metrics.json").read_text())["symmetry_defect"]
        assert isinstance(defect, float) and math.isfinite(defect)


def run_module(argv, stdout=subprocess.PIPE, flags=(), module="mfgspectral"):
    # `python -m mfgspectral` runs __main__.py and `-m mfgspectral.cli` the
    # __main__ block of cli.py, which no in-process test does; standard
    # output is buffered, as in a shell, unless flags hold "-u"
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *flags, "-m", module, *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, cwd=root,
        timeout=60,
    )


@pytest.mark.parametrize(
    "argv", [["presets"], ["kernel-info", "paper-1d-a"]], ids=["presets", "kernel-info"]
)
def test_module_entry_point(argv):
    for module in ("mfgspectral", "mfgspectral.cli"):
        proc = run_module(argv, module=module)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        if argv == ["presets"]:
            assert sorted(line.split(":")[0] for line in proc.stdout.splitlines()) == (
                sorted(PRESETS)
            )
        else:
            assert json.loads(proc.stdout)["basis_size"] == 8


@pytest.mark.parametrize(
    "artifact",
    ["diagnostics.jsonl", "trajectories.csv", "density_t0.csv", "metrics.json"],
)
def test_unwritable_artifact_is_config_error(tmp_path, artifact):
    # a directory at an artifact's name: one error line and no traceback
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    proc = run_module(["solve", write_config(tmp_path, tiny_config(out))])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(
        f"config error: config.output_dir: cannot create {out / artifact}"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["presets"],
        ["kernel-info", "paper-1d-a"],
        ["solve", "paper-1d-c", "--output-dir", "{tmp}/out"],
    ],
    ids=["presets", "kernel-info", "solve"],
)
@pytest.mark.parametrize("flags", [(), ("-u",)], ids=["buffered", "unbuffered"])
def test_unwritable_stdout_is_not_an_output_dir_error(tmp_path, argv, flags):
    # an OSError that names no path is standard output's, reported in one
    # line; a buffered write fails at the flush, and nothing more at exit
    with open("/dev/full", "w") as full:
        proc = run_module(
            [a.format(tmp=tmp_path) for a in argv], stdout=full, flags=flags
        )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line == "error: cannot write standard output (No space left on device)"


def test_full_disk_is_an_output_dir_error(tmp_path, capsys, monkeypatch):
    # an artifact write that fails after its file opened names no file; it
    # was raised during the work, so it is the output directory's
    def full_disk(path, x):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("mfgspectral.cli.write_trajectories_csv", full_disk)
    out = tmp_path / "out"
    assert main(["solve", write_config(tmp_path, tiny_config(out))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line == (
        f"config error: config.output_dir: cannot create {out} "
        "(No space left on device)"
    )


def test_config_requires_kernel_type(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    cfg["kernel"].pop("type")
    with pytest.raises(ConfigError, match="config.kernel.type"):
        validate_config(cfg)


@pytest.mark.parametrize("value", ["0,,2", "0,2,", ","],
                         ids=["inner", "trailing", "comma"])
def test_empty_density_slice_entry_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                     value):
    # empty entries were dropped, so "0,,2," ran as [0, 2]; the JSON key
    # allows no empty entry either
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, tiny_config("out"))
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "metrics.json").write_text("earlier run")
    assert main(["solve", path, "--density-slices", value]) == 1
    assert capsys.readouterr().err == (
        "config error: --density-slices: invalid literal for int() with "
        "base 10: ''\n"
    )
    assert os.listdir(tmp_path / "out") == ["metrics.json"]
    assert (tmp_path / "out" / "metrics.json").read_text() == "earlier run"
