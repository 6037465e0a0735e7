import json

import numpy as np
import pytest

from mfgspectral.basis import basis_1d
from mfgspectral.cli import (
    PRESETS,
    ConfigError,
    build_kernel,
    build_problem,
    kernel_info,
    load_config_source,
    main,
    validate_config,
)
from mfgspectral.pdhg import solve
from mfgspectral.problem import DivergenceError

ARTIFACTS = ["trajectories.csv", "diagnostics.jsonl", "metrics.json"]


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
        # golden values for the built-in experiment presets
        table = {
            "paper-1d-a": (1, 0.2, 0.5, 8, 20, 50, 3.0, 0.5, 1.0),
            "paper-1d-b": (1, 0.2, 1.5, 8, 20, 50, 3.0, 0.5, 1.0),
            "paper-1d-c": (1, 0.8, 0.5, 8, 20, 50, 3.0, 0.5, 1.0),
            "paper-2d-a": (2, 0.1, 0.75, 8, 20, 20, 1.0, 0.5, 1.0),
            "paper-2d-b": (2, 0.1, 0.5, 8, 20, 20, 1.0, 0.5, 1.0),
            "paper-2d-c": (2, 1.0, 0.5, 8, 20, 20, 1.0, 0.5, 1.0),
        }
        assert set(PRESETS) == set(table)
        for name, (d, sigma, mu, r, n, q, lam, omega, theta) in table.items():
            p = PRESETS[name]
            assert p["dimension"] == d
            assert p["kernel"]["sigma"] == sigma
            assert p["kernel"]["mu"] == mu
            assert p["r"] == r
            assert p["N"] == n
            assert p["Q"] == q
            assert p["solver"]["lambda"] == lam
            assert p["solver"]["omega"] == omega
            assert p["solver"]["theta"] == theta

    def test_presets_validate(self):
        for name in PRESETS:
            validate_config(load_config_source(name))


class TestValidation:
    def test_missing_field_names_path(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        del cfg["kernel"]["sigma"]
        with pytest.raises(ConfigError, match="config.kernel.sigma"):
            validate_config(cfg)

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

    def test_nan_tol_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["solve", path, "--tol", "nan"]) == 1
        assert "config.solver" in capsys.readouterr().err

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

    def test_directory_config_path(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == 1
        assert "config error: config: cannot read" in capsys.readouterr().err

    def test_non_utf8_config_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dimension": 1, "note": "caf\xe9"}')
        assert main(["solve", str(path)]) == 1
        assert "config error: config: cannot read" in capsys.readouterr().err

    def test_wrong_matrix_shape(self, tmp_path):
        cfg = tiny_config(
            tmp_path / "out",
            kernel={"type": "custom-coefficients", "matrix": [[1.0]]},
        )
        with pytest.raises(ConfigError, match="config.kernel.matrix"):
            validate_config(cfg)

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
        ],
    )
    def test_non_finite_kernel_input(self, tmp_path, capsys, field, literal):
        # Python's json reads these literals as floats; each must be a
        # config error naming the field, not a solve or a divergence
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
        assert f"config error: config.kernel.{field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["Infinity", "NaN", "1e309"])
    @pytest.mark.parametrize("field", ["M", "U"])
    def test_non_finite_coefficients(self, tmp_path, capsys, field, literal):
        cfg = tiny_config(tmp_path / "out")
        cfg[field] = {"coefficients": [1.0, "LITERAL", 0.5]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"LITERAL"', literal))
        assert main(["solve", str(path)]) == 1
        assert f"config error: config.{field}.coefficients:" in capsys.readouterr().err

    def test_infinite_tol_still_valid(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        cfg["solver"]["tol"] = float("inf")
        assert validate_config(cfg).solver.tol == float("inf")

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
        assert info["step_bound_ok"] is True
        assert info["omega_lambda"] == pytest.approx(1.5)

    def test_gaussian_2d(self):
        cfg = validate_config(load_config_source("paper-2d-b"))
        info = kernel_info(cfg)
        assert info["basis_size"] == 28
        assert len(info["eigenvalues"]) == 28

    def test_cli_output_is_json(self, capsys):
        assert main(["kernel-info", "paper-1d-a"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["basis_size"] == 8

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
        analytic = cfg.mu**cfg.dimension * np.exp(
            -0.5 * (np.pi * cfg.sigma) ** 2 * n2
        )
        np.testing.assert_allclose(np.diag(ker.k_mat), analytic, rtol=1e-14)
        assert np.min(np.diag(ker.k_mat)) < 1e-21

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
        assert ker.min_eigenvalue() > 0


class TestRun:
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
        # the implicit kinetic step is stable at any omega; a huge terminal
        # cost is what blows up
        cfg = tiny_config(out, U={"coefficients": [0.0, 1e6]})
        cfg["solver"]["max_iter"] = 500
        path = write_config(tmp_path, cfg)
        assert main(["solve", path]) == 2
        assert "diverged" in capsys.readouterr().err
        # partial diagnostics were streamed before the failure
        assert (out / "diagnostics.jsonl").exists()
        assert json.loads((out / "metrics.json").read_text())["status"] == "diverged"

    def test_divergence_writes_metrics(self, tmp_path, capsys):
        # passes the step check; the huge terminal cost diverges after
        # several recorded iterations
        cfg = tiny_config(tmp_path / "diverged", U={"coefficients": [0.0, 1e6]})
        cfg["solver"].update(max_iter=500, record_every=10)
        problem, measure = build_problem(validate_config(cfg))
        with pytest.raises(DivergenceError) as caught:
            solve(problem, measure, validate_config(cfg).solver)
        assert main(["solve", write_config(tmp_path, cfg)]) == 2
        assert "diverged" in capsys.readouterr().err
        metrics = json.loads((tmp_path / "diverged" / "metrics.json").read_text())
        assert metrics["status"] == "diverged" and metrics["converged"] is False
        assert metrics["iterations"] == caught.value.iteration
        last = metrics["last_record"]
        assert last["iteration"] == caught.value.iteration // 10 * 10
        assert last == caught.value.diagnostics[-1]

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

    def test_symmetry_defect_none_for_asymmetric_setup(self, tmp_path):
        # custom M breaks the mirror symmetry of the weights, not the grid;
        # defect is still computable, so it must be a number
        out = tmp_path / "sym"
        cfg = tiny_config(out, M={"coefficients": [1.0, 0.2]})
        path = write_config(tmp_path, cfg)
        assert main(["solve", path]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["symmetry_defect"] is not None


def test_config_requires_kernel_type(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    cfg["kernel"].pop("type")
    with pytest.raises(ConfigError, match="config.kernel.type"):
        validate_config(cfg)
