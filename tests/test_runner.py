import argparse
import errno
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import pls_lab
import pls_lab.cli as cli_mod
from pls_lab import errors, problems, runner
from pls_lab.cli import main
from pls_lab.config import ExperimentConfig
from pls_lab.datasets import synthetic_digits
from pls_lab.errors import ConfigError, IdxFormatError
from pls_lab.idx import write_idx
from pls_lab.problems import MlpLsrProblem, QuadraticProblem
from pls_lab.runner import build_problem, execute, execute_config, gradcheck_report, run_grid

from _oracles import strict_json
from conftest import fresh_python, mlp_classification_config


def quadratic_pls_config(steps=200, seed=1, curvature=1.0, eta0=0.5):
    return {
        "problem": {"kind": "quadratic", "dim": 10, "curvature": curvature,
                    "n_samples": 50, "center_scale": 1.0, "x0_scale": 1.0},
        "algorithm": "sgd",
        "rate": {"kind": "pls", "eta0": eta0, "eps1": 1e-8, "eps2": 1e-8},
        "steps": steps,
        "seed": seed,
        "batch_size": 50,  # full batch: n_samples == batch_size
    }


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# every float flag of each stability system, with a valid value
STABILITY_ARGS = {
    "t1": {"--L": "2", "--rho": "0.5", "--eta": "0.4"},
    "t2": {"--beta1": "0.9", "--sqrtvhat": "1", "--L": "1", "--eta": "1.0", "--rho": "0.95"},
    "t3": {"--kappa": "1000", "--xi": "10", "--L": "1", "--eta": "0.5", "--rho": "0.996"},
}

T1_ARGV = ["stability", "t1", *sum(STABILITY_ARGS["t1"].items(), ())]


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestExecute:
    def test_row_count_and_monotone_loss(self, tmp_path):
        cfg = ExperimentConfig.from_dict(quadratic_pls_config())
        execute(cfg, tmp_path)
        header, rows = read_csv(tmp_path / "records.csv")
        assert header[:3] == ["iter", "train_loss", "test_loss"]
        assert len(rows) == 201
        losses = [float(r[1]) for r in rows]
        # full-batch descent with an adaptive rate: monotone after bootstrap
        assert all(b <= a + 1e-12 for a, b in zip(losses[1:], losses[2:]))

    def test_zero_steps_header_and_initial_row(self, tmp_path):
        cfg = ExperimentConfig.from_dict(quadratic_pls_config(steps=0))
        execute(cfg, tmp_path)
        _, rows = read_csv(tmp_path / "records.csv")
        assert len(rows) == 1
        assert rows[0][0] == "0"

    def test_byte_identical_reruns(self, tmp_path):
        cfg_dict = quadratic_pls_config(steps=60)
        execute_config(cfg_dict, tmp_path / "a")
        execute_config(cfg_dict, tmp_path / "b")
        assert (tmp_path / "a/records.csv").read_bytes() == (
            tmp_path / "b/records.csv"
        ).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        execute_config(quadratic_pls_config(steps=30, seed=1), tmp_path / "a")
        execute_config(quadratic_pls_config(steps=30, seed=2), tmp_path / "b")
        assert (tmp_path / "a/records.csv").read_bytes() != (
            tmp_path / "b/records.csv"
        ).read_bytes()

    def test_csv_floats_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(quadratic_pls_config(steps=40))
        execute(cfg, tmp_path)
        _, rows = read_csv(tmp_path / "records.csv")
        rewritten = [repr(float(r[1])) for r in rows]
        assert rewritten == [r[1] for r in rows]

    def test_summary_contents_and_echo(self, tmp_path):
        cfg_dict = quadratic_pls_config(steps=50)
        summary = execute_config(cfg_dict, tmp_path)
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk["steps_completed"] == 50
        assert not on_disk["diverged"]
        assert on_disk["final_train_loss"] is not None
        # the echoed config re-validates and reproduces itself
        echoed = ExperimentConfig.from_dict(on_disk["config"])
        assert echoed.to_dict() == on_disk["config"]
        assert summary["final_train_loss"] == on_disk["final_train_loss"]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_summary_is_strict_json(self, tmp_path):
        # an overflowing loss and an infinite step size are written as null
        huge_x0 = quadratic_pls_config(steps=0)
        huge_x0["problem"]["x0_scale"] = 1e300
        tiny_eps2 = quadratic_pls_config(steps=20, eta0=1.0)
        tiny_eps2["rate"]["eps2"] = 1e-320
        for name, cfg_dict, field in (("x0", huge_x0, "final_train_loss"),
                                      ("eps2", tiny_eps2, "final_rates")):
            execute_config(cfg_dict, tmp_path / name)
            summary = strict_json((tmp_path / name / "summary.json").read_text())
            assert summary[field] in (None, [None])

    @pytest.mark.parametrize("held", ["records.csv", "summary.json"])
    def test_refuses_a_directory_that_holds_a_run(self, held, tmp_path, monkeypatch):
        (tmp_path / held).write_text("an earlier run\n")
        monkeypatch.setattr(runner, "build_problem", None)  # the refusal comes first
        with pytest.raises(FileExistsError, match=f"^{tmp_path / held} exists"):
            execute_config(quadratic_pls_config(steps=5), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [held]

    def test_failed_summary_replace_leaves_no_summary(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError(errno.EIO, "replace failed")

        monkeypatch.setattr(runner.os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            execute_config(quadratic_pls_config(steps=5), tmp_path)
        assert (tmp_path / "records.csv").exists()
        assert not (tmp_path / "summary.json").exists()

    def test_divergent_run_flagged_rows_truncated(self, tmp_path):
        cfg_dict = quadratic_pls_config(steps=100, curvature=4.0)
        cfg_dict["rate"] = {"kind": "fixed", "eta": 1.0}
        summary = execute_config(cfg_dict, tmp_path)
        assert summary["diverged"]
        step = summary["divergence_step"]
        assert step is not None
        _, rows = read_csv(tmp_path / "records.csv")
        assert len(rows) == step + 1
        assert rows[-1][-1] == "1"
        assert all(r[-1] == "0" for r in rows[:-1])

    def test_wall_time_in_summary_not_in_csv(self, tmp_path):
        cfg = ExperimentConfig.from_dict(quadratic_pls_config(steps=20))
        execute(cfg, tmp_path)
        header, rows = read_csv(tmp_path / "records.csv")
        wall_col = header.index("wall_ms")
        assert all(r[wall_col] == "" for r in rows)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["wall_ms_total"] > 0.0

    def test_mlp_run_has_per_layer_columns(self, small_digits_dir, tmp_path):
        cfg_dict = mlp_classification_config(
            small_digits_dir,
            layers=[64, 16, 16, 10],
            steps=12,
            seed=3,
            rate={"kind": "pls", "eta0": 0.01, "eps1": 0.01, "eps2": 0.01},
            limit=120,
            batch_size=20,
            extra={"test_every": 5},
        )
        execute_config(cfg_dict, tmp_path)
        header, rows = read_csv(tmp_path / "records.csv")
        assert header[3:6] == ["lr_g0", "lr_g1", "lr_g2"]
        assert header[6:9] == ["L_g0", "L_g1", "L_g2"]
        # test losses appear on the cadence only
        test_col = [r[2] for r in rows]
        present = [i for i, v in enumerate(test_col) if v != ""]
        assert present == [0, 5, 10]

    def test_one_training_pass_after_the_loop(self, small_digits_dir, tmp_path, monkeypatch):
        full_passes, batch_sizes = [], []
        forward, check_batch = MlpLsrProblem._forward, problems._check_batch

        def counting(problem, x, a):
            if len(a) == problem.n == 120:  # the training split, not a batch or the test split
                # every stored byte row, divided by 255.0
                full_passes.append(a.tobytes() == (problem.inputs / 255.0).tobytes())
            return forward(problem, x, a)

        def checking(batch, n):  # every index batch passes here before its gather
            batch_sizes.append(len(batch))
            return check_batch(batch, n)

        monkeypatch.setattr(MlpLsrProblem, "_forward", counting)
        monkeypatch.setattr(problems, "_check_batch", checking)
        cfg_dict = mlp_classification_config(
            small_digits_dir, layers=[64, 16, 10], steps=4, seed=3,
            rate={"kind": "fixed", "eta": 0.01}, limit=120, batch_size=20,
            extra={"test_every": 2},
        )
        summary = execute_config(cfg_dict, tmp_path)
        # the initial record's loss, then the final loss with its raw part
        assert full_passes == [True, True]
        assert batch_sizes == [20] * 4  # the steps' batches: no pass gathers by index
        assert summary["final_train_loss_raw"] < summary["final_train_loss"]

    def test_final_pass_trains_x0_and_holds_no_rate_history(self, small_digits_dir, tmp_path,
                                                            monkeypatch):
        # the run trains build_problem's x0 in place, and the PLS rate with
        # its history is freed before the final training pass
        starts, sources, passes = [], [], []
        build_problem_, build_rate_source = runner.build_problem, runner.build_rate_source
        data_value = MlpLsrProblem.data_value

        def building_problem(cfg):
            built = build_problem_(cfg)
            starts.append(built[1])
            return built

        def building_rate(rate, partition):
            source = build_rate_source(rate, partition)
            sources.append(weakref.ref(source))
            return source

        def passing(problem, x, batch):
            if batch is None and problem.n == 120:  # a pass over the training split
                passes.append((x is starts[0], sources[0]() is not None))
            return data_value(problem, x, batch)

        monkeypatch.setattr(runner, "build_problem", building_problem)
        monkeypatch.setattr(runner, "build_rate_source", building_rate)
        monkeypatch.setattr(MlpLsrProblem, "data_value", passing)
        cfg_dict = mlp_classification_config(
            small_digits_dir, layers=[64, 16, 10], steps=4, seed=3,
            rate={"kind": "pls", "eta0": 0.01, "eps1": 0.01, "eps2": 0.01}, limit=120,
            batch_size=20,
        )
        execute_config(cfg_dict, tmp_path)
        # the initial record's loss, with the rate alive; then the final loss
        assert passes == [(True, True), (True, False)]

    # test passes at 0, 2, 4; a run of 5 steps then tests x_final once more
    @pytest.mark.parametrize("steps, passes", [(4, 3), (5, 4)])
    def test_final_test_loss_is_taken_once(self, small_digits_dir, tmp_path, monkeypatch,
                                           steps, passes):
        test_passes = []
        full_value = MlpLsrProblem.full_value

        def counting(problem, x):
            if problem.n == 60:  # the test split
                test_passes.append(1)
            return full_value(problem, x)

        monkeypatch.setattr(MlpLsrProblem, "full_value", counting)
        cfg_dict = mlp_classification_config(
            small_digits_dir, layers=[64, 16, 10], steps=steps, seed=3,
            rate={"kind": "fixed", "eta": 0.01}, limit=120, batch_size=20,
            extra={"test_every": 2},
        )
        summary = execute_config(cfg_dict, tmp_path)
        assert len(test_passes) == passes
        _, rows = read_csv(tmp_path / "records.csv")
        if steps == 4:
            assert repr(summary["final_test_loss"]) == rows[-1][2]

    def test_limit_subsets_training_split(self, small_digits_dir):
        cfg = ExperimentConfig.from_dict(
            mlp_classification_config(
                small_digits_dir,
                layers=[64, 8, 10],
                steps=1,
                seed=1,
                rate={"kind": "fixed", "eta": 0.01},
                limit=40,
            )
        )
        problem, x0, test_fn = build_problem(cfg)
        assert problem.n == 40
        assert test_fn is not None

    def test_fixed_decay_rate_runs(self, tmp_path):
        cfg_dict = quadratic_pls_config(steps=10)
        cfg_dict["rate"] = {"kind": "fixed-decay", "eta0": 0.3}
        summary = execute_config(cfg_dict, tmp_path)
        assert not summary["diverged"]

    def test_global_estimator_mode_single_rate_group(self, small_digits_dir, tmp_path):
        cfg_dict = mlp_classification_config(
            small_digits_dir,
            layers=[64, 16, 16, 10],
            steps=6,
            seed=4,
            rate={"kind": "pls", "eta0": 0.01, "eps1": 0.01, "eps2": 0.01,
                  "per_group": False},
            limit=80,
            batch_size=20,
            algorithm="amsgrad",
            extra={"amsgrad": {"beta1": 0.9, "beta2": 0.999}},
        )
        execute_config(cfg_dict, tmp_path)
        header, rows = read_csv(tmp_path / "records.csv")
        assert "lr_g0" in header and "lr_g1" not in header
        assert len(rows) == 7

    def test_reconstruction_task_runs_and_reports_raw_loss(self, small_digits_dir, tmp_path):
        cfg_dict = {
            "problem": {
                "kind": "mlp-reconstruction",
                "layers": [64, 32, 64],
                "images": str(small_digits_dir / "train-images.idx"),
                "test_images": str(small_digits_dir / "test-images.idx"),
                "l2": 1e-4,
            },
            "algorithm": "amsgrad",
            "rate": {"kind": "pls", "eta0": 2e-4, "eps1": 0.1, "eps2": 0.1,
                     "decay": "sqrt_t"},
            "steps": 15,
            "seed": 2,
            "batch_size": 30,
            "limit": 90,
            "test_every": 5,
        }
        summary = execute_config(cfg_dict, tmp_path)
        assert not summary["diverged"]
        assert summary["final_test_loss"] is not None
        # the raw loss excludes the weight penalty, so it sits below
        assert summary["final_train_loss_raw"] < summary["final_train_loss"]


class TestGradcheck:
    def test_quadratic_nearly_exact(self):
        cfg = ExperimentConfig.from_dict(quadratic_pls_config(steps=0))
        report = gradcheck_report(cfg, n_points=5)
        assert report["max_rel_error"] < 1e-9
        assert report["passed"]

    def test_mlp_within_gate(self, small_digits_dir):
        cfg = ExperimentConfig.from_dict(
            mlp_classification_config(
                small_digits_dir,
                layers=[64, 8, 10],
                steps=0,
                seed=2,
                rate={"kind": "fixed", "eta": 0.01},
                limit=60,
            )
        )
        report = gradcheck_report(cfg, n_points=4)
        assert report["max_rel_error"] < 1e-5

    def test_corrupted_gradient_fails(self, monkeypatch):
        grad = QuadraticProblem.grad

        def corrupted(self, x, batch):
            g = grad(self, x, batch)
            g[0] += 1e-3 * (1.0 + abs(g[0]))
            return g

        monkeypatch.setattr(QuadraticProblem, "grad", corrupted)
        cfg = ExperimentConfig.from_dict(quadratic_pls_config(steps=0))
        report = gradcheck_report(cfg, n_points=3)
        assert not report["passed"]


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(quadratic_pls_config(steps=25)))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["steps_completed"] == 25
        assert (tmp_path / "o/records.csv").exists()

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(quadratic_pls_config(steps=25) | {"oops": 1}))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "oops" in capsys.readouterr().err

    def test_run_reports_an_integer_beyond_float_range(self, tmp_path, capsys):
        cfg = quadratic_pls_config(steps=25)
        cfg["rate"]["eta0"] = 10**400
        cfg_path = tmp_path / "huge.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: rate.eta0: must be finite\n"

    def test_seed_precedence(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(quadratic_pls_config(steps=1, seed=1)))

        def run_and_read_seed(args):
            assert main(args) == 0
            capsys.readouterr()
            out_dir = args[args.index("--out") + 1]
            return json.loads((tmp_path / out_dir / "summary.json").read_text())[
                "config"
            ]["seed"]

        monkeypatch.setenv("PLS_LAB_SEED", "7")
        assert run_and_read_seed(["run", "--config", str(cfg_path), "--out",
                                  str(tmp_path / "env")]) == 7
        assert run_and_read_seed(["run", "--config", str(cfg_path), "--out",
                                  str(tmp_path / "flag"), "--seed", "9"]) == 9
        monkeypatch.delenv("PLS_LAB_SEED")
        assert run_and_read_seed(["run", "--config", str(cfg_path), "--out",
                                  str(tmp_path / "cfg")]) == 1

    def test_stability_t1_json(self, capsys):
        assert main(["stability", "t1", "--L", "2", "--rho", "0.5", "--eta", "0.4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stable"]
        npt.assert_allclose(out["window"], [0.25, 0.5])
        npt.assert_allclose(out["spectral_radius"], 0.2, atol=1e-12)

    def test_stability_t2_json(self, capsys):
        assert main(["stability", "t2", "--beta1", "0.9", "--sqrtvhat", "1",
                     "--L", "1", "--eta", "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stable"]
        npt.assert_allclose(out["spectral_radius"], 0.948683, atol=1e-6)
        npt.assert_allclose(out["window"], [0.026334, 37.973666], atol=1e-5)

    def test_stability_t2_window_with_beta1_near_one(self, capsys):
        # (1 - s)/(1 + s) and (1 - s)^2/(1 - beta1) differ by more than 1e-9 here
        assert main(["stability", "t2", "--beta1=0.999999999999", "--sqrtvhat=1", "--L=1",
                     "--eta=1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        s = math.sqrt(0.999999999999)
        assert json.loads(captured.out)["window"] == [(1 - s) / (1 + s), (1 + s) / (1 - s)]

    def test_stability_t3_json(self, capsys):
        assert main(["stability", "t3", "--kappa", "1000", "--xi", "10",
                     "--L", "1", "--eta", "0.5", "--rho", "0.996"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stable"]
        npt.assert_allclose(out["nominal_eigenvalues"], [0.9951, 0.496524], atol=1e-6)
        npt.assert_allclose(out["window"][0], -0.002972, atol=1e-6)

    @pytest.mark.parametrize("system, flag", [
        (system, flag) for system, args in STABILITY_ARGS.items() for flag in args
    ])
    def test_stability_float_flags_take_negative_exponent_form(self, system, flag,
                                                                monkeypatch):
        parsed = {}
        monkeypatch.setattr(cli_mod, "_cmd_stability", lambda args: parsed.update(vars(args)))
        argv = ["stability", system]
        for name, value in STABILITY_ARGS[system].items():
            argv += [name, "-2.5e-01" if name == flag else value]
        main(argv)
        assert parsed[flag[2:]] == -0.25

    def test_stability_t3_negative_eta_in_exponent_form(self, capsys):
        assert main(["stability", "t3", "--kappa", "18.416991926760048",
                     "--xi", "3.6314328459536815", "--L", "6.743524366838232",
                     "--eta", "-5.948835676027227e-05", "--rho", "0.9283854113120378"]) == 0
        assert json.loads(capsys.readouterr().out)["eta"] == -5.948835676027227e-05

    def test_stability_rejects_bad_ranges(self, capsys):
        assert main(["stability", "t2", "--beta1", "1.0", "--sqrtvhat", "1",
                     "--L", "1", "--eta", "0.5"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["t1", "--L", "2", "--rho", "1e-5", "--eta", "0.4"],
        ["t2", "--beta1", "0.9", "--sqrtvhat", "1", "--L", "1", "--eta", "1.0", "--rho", "1e-5"],
    ])
    def test_stability_envelope_past_underflowing_rho_power(self, argv, capsys):
        # rho^t underflows to 0 within the simulated steps; the ratio
        # grows past the float range and is reported as null
        assert main(["stability", *argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        envelope = json.loads(captured.out)["envelope"]
        assert envelope["max_ratio"] is None
        assert not envelope["overflowed"]

    def test_stability_factor_below_tiny_rho_stays_in_envelope(self, capsys):
        # factor 1 - 0.999991 = 0.9e-5 decays faster than rho = 1e-5
        assert main(["stability", "t1", "--L", "1", "--rho", "1e-5", "--eta", "0.999991"]) == 0
        out = json.loads(capsys.readouterr().out)
        npt.assert_allclose(out["factor"], 0.9e-5, rtol=1e-9)
        assert out["envelope"]["max_ratio"] == 1.0

    def test_stability_envelope_of_a_state_below_the_float_range(self, capsys):
        # factor 2e-5 against rho = 1e-5: the state passes 1e-300 at step 64
        # and would underflow to 0 near step 70
        assert main(["stability", "t1", "--L", "1", "--rho", "1e-5", "--eta", "0.99998"]) == 0
        out = json.loads(capsys.readouterr().out)
        npt.assert_allclose(out["envelope"]["max_ratio"], (out["factor"] / 1e-5) ** 100,
                            rtol=1e-9)
        npt.assert_allclose(out["envelope"]["max_ratio"], 1.2676506e30, rtol=1e-7)

    def test_stability_overflowing_simulation_prints_no_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stability", "t2", "--beta1", "0.9", "--sqrtvhat", "1",
                         "--L", "1", "--eta", "1e308"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        envelope = json.loads(captured.out)["envelope"]
        assert envelope["overflowed"]
        assert envelope["max_ratio"] is None

    def test_stability_underflowing_rate_power_prints_no_warning(self, capsys):
        # rho^t ||z_0|| reaches 0 while the state does not: no division by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stability", "t2", "--beta1=1e-9", "--sqrtvhat=1", "--L=1",
                         "--eta=1", "--rho=1e-5"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["envelope"]["max_ratio"] == pytest.approx(7.07e53,
                                                                                   rel=1e-3)

    def test_stability_t2_names_a_bad_beta1_before_the_default_rho(self, capsys):
        assert main(["stability", "t2", "--beta1", "-0.5", "--sqrtvhat", "1",
                     "--L", "1", "--eta", "0.5"]) == 2
        assert capsys.readouterr().err == "error: beta1 must lie strictly in (0, 1)\n"

    @pytest.mark.parametrize("argv, message", [
        (["t2", "--beta1", "0.9", "--sqrtvhat", "0.1", "--L", "1", "--eta", "0.05",
          "--rho", "nan"], "rho must be finite"),
        (["t3", "--kappa", "1000", "--xi", "10", "--L", "1", "--eta", "0.5",
          "--rho", "nan"], "rho must be finite"),
        (["t2", "--beta1", "0.9", "--sqrtvhat", "0.1", "--L", "1", "--eta", "0.05",
          "--rho", "inf"], "rho must be finite"),
        (["t3", "--kappa", "1000", "--xi", "10", "--L", "1", "--eta", "0.5",
          "--rho", "inf"], "rho must be finite"),
        (["t1", "--L", "1", "--rho", "0.5", "--eta", "0.1", "--steps", "-3"],
         "steps must be non-negative"),
        (["t1", "--L", "1", "--rho", "0.5", "--eta", "nan"], "eta must be finite"),
        (["t1", "--L", "1", "--rho", "0.5", "--eta", "inf"], "eta must be finite"),
        (["t1", "--L", "nan", "--rho", "0.5", "--eta", "0.1"], "L must be finite"),
        (["t1", "--L", "inf", "--rho", "0.5", "--eta", "0.1"], "L must be finite"),
        (["t2", "--beta1", "0.9", "--sqrtvhat", "0.1", "--L", "nan", "--eta", "0.05"],
         "L must be finite"),
        (["t2", "--beta1", "0.9", "--sqrtvhat", "inf", "--L", "1", "--eta", "0.05"],
         "sqrtvhat must be finite"),
    ])
    def test_stability_rejects_non_finite_rho_and_negative_steps(self, argv, message,
                                                                 capsys):
        assert main(["stability", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        built = []
        build = cli_mod.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli_mod, "_PARSER", None)
        monkeypatch.setattr(cli_mod, "build_parser", counting_build)
        argv = ["stability", "t1", *sum(STABILITY_ARGS["t1"].items(), ())]
        assert main(argv) == 0
        assert main(argv) == 0
        assert built == [1]

    def test_handler_patched_after_the_parser_exists_is_called(self, monkeypatch, capsys):
        argv = ["stability", "t1", *sum(STABILITY_ARGS["t1"].items(), ())]
        assert main(argv) == 0
        assert cli_mod._PARSER is not None
        seen = []

        def patched(args):
            seen.append(args.L)
            return 7

        monkeypatch.setattr(cli_mod, "_cmd_stability", patched)
        assert main(argv) == 7
        assert seen == [2.0]

    def test_cached_parser_prints_alike_after_usage_errors(self, monkeypatch, capsys):
        argv = ["stability", "t3", *sum(STABILITY_ARGS["t3"].items(), ())]
        monkeypatch.setattr(cli_mod, "_PARSER", None)
        assert main(argv) == 0
        fresh = capsys.readouterr()
        for bad in (["stability", "t1", "--L", "1", "--rho", "0.5"], ["stability", "--help"]):
            with pytest.raises(SystemExit):
                main(bad)
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == fresh

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["stability", "-h"], ["run", "-h"], ["grid", "-h"],
        ["gradcheck", "-h"], ["make-dataset", "-h"],
        *(["stability", system, "-h"] for system in STABILITY_ARGS),
        ["bogus"], ["--seed", "1", "run"], ["stability"], ["stability", "t4"],
        ["stability", "--L", "2"],
        [*T1_ARGV, "extra"], [*T1_ARGV, "--bogus", "1"], [*T1_ARGV, "--steps", "3", "4"],
        ["stability", "t1", "--L", "2", "--rho", "0.5", "--et="],
        ["stability", "t1", "--L", "2", "--rho", "0.5", "--et=0.4"],
        ["stability", "t1", "--L", "2", "--rho", "0.5", "--eta", "-5e-05"],
        ["stability", "t1", "--", *T1_ARGV[2:]], [*T1_ARGV, "--"],
        [*T1_ARGV, "--eta", "0.3"], [*T1_ARGV, "-h"],
        ["stability", "t1", "--L", "2", "--rho", "0.5"], ["stability", "t2", "--rho", "x"],
        ["run"], ["run", "--config"], ["run", "--config", "c.json", "--limit", "x"],
        ["run", "--config", "c.json", "extra"], ["run", "--config", "c.json", "--seed", "7"],
        ["grid"], ["grid", "--configs"], ["grid", "--configs", "a.json", "--workers", "x"],
        ["gradcheck"], ["gradcheck", "--config", "c.json", "--points", "x"],
        ["make-dataset"], ["make-dataset", "--out", "d", "--train", "x"],
        ["make-dataset", "--out", "d", "--rows", "8"],
    ])
    def test_dispatch_parses_as_the_whole_tree(self, argv, monkeypatch, capsys):
        def outcome(parse):
            try:
                code, args = 0, parse()
            except SystemExit as exc:
                code, args = exc.code, None
            return code, *capsys.readouterr(), args

        seen = []
        for name in ("run", "grid", "stability", "gradcheck", "make_dataset"):
            monkeypatch.setattr(cli_mod, f"_cmd_{name}", lambda args: seen.append(args) or 0)
        main(T1_ARGV)  # the parser exists
        capsys.readouterr()
        whole = outcome(lambda: cli_mod._PARSER.parse_args(argv))
        dispatched = outcome(lambda: main(argv) or seen[-1])
        assert dispatched == whole

    def test_stability_call_is_parsed_once(self, monkeypatch, capsys):
        main(T1_ARGV)  # the parser exists
        capsys.readouterr()
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def counting(parser, *args, **kwargs):
            calls.append(parser.prog)
            return parse(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        assert main(T1_ARGV) == 0
        assert calls == ["pls-lab stability t1"]
        assert json.loads(capsys.readouterr().out)["factor"] == pytest.approx(0.2)

    def test_gradcheck_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(quadratic_pls_config(steps=0)))
        assert main(["gradcheck", "--config", str(cfg_path), "--points", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"]

    def test_gradcheck_seed_precedence(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(quadratic_pls_config(steps=0, seed=1)))
        seeds = []

        def spy(cfg, **kwargs):
            seeds.append(cfg.seed)
            return gradcheck_report(cfg, **kwargs)

        monkeypatch.setattr(cli_mod, "gradcheck_report", spy)
        argv = ["gradcheck", "--config", str(cfg_path), "--points", "2"]
        monkeypatch.setenv("PLS_LAB_SEED", "7")
        assert main(argv) == 0
        assert main([*argv, "--seed", "9"]) == 0
        monkeypatch.delenv("PLS_LAB_SEED")
        assert main(argv) == 0
        assert seeds == [7, 9, 1]
        cfg = ExperimentConfig.load(cfg_path)  # the seed picks the checked points
        errors_at_1 = gradcheck_report(cfg, n_points=2)["point_errors"]
        cfg.seed = 9
        assert gradcheck_report(cfg, n_points=2)["point_errors"] != errors_at_1

    def test_gradcheck_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import pls_lab.cli as cli_mod

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(quadratic_pls_config(steps=0)))
        monkeypatch.setattr(
            cli_mod, "gradcheck_report",
            lambda *a, **k: {"max_rel_error": 1.0, "points": 1, "passed": False},
        )
        assert main(["gradcheck", "--config", str(cfg_path)]) == 1

    def test_grid_runs_each_config(self, tmp_path, capsys):
        for name, seed in (("a", 1), ("b", 2)):
            (tmp_path / f"{name}.json").write_text(
                json.dumps(quadratic_pls_config(steps=10, seed=seed))
            )
        assert main(["grid", "--configs", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json"), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out/a/summary.json").exists()
        assert (tmp_path / "out/b/records.csv").exists()

    def test_make_dataset_round_trip(self, tmp_path, capsys):
        assert main(["make-dataset", "--out", str(tmp_path / "d"), "--train", "12",
                     "--test", "4", "--rows", "8", "--cols", "8"]) == 0
        paths = json.loads(capsys.readouterr().out)
        from pls_lab.idx import load_idx

        assert load_idx(paths["train_images"]).shape == (12, 8, 8)
        assert load_idx(paths["test_labels"]).shape == (4,)

    @pytest.mark.parametrize("flags", [["--train", "0"], ["--train", "-3"], ["--test", "0"],
                                       ["--rows", "0"], ["--cols", "-2"]])
    def test_make_dataset_rejects_degenerate_sizes(self, tmp_path, capsys, flags):
        out = tmp_path / "d"
        assert main(["make-dataset", "--out", str(out), "--train", "12", "--test", "4",
                     "--rows", "8", "--cols", "8"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "must be at least 1" in captured.err
        assert not out.exists()  # nothing written, the train split included

    def test_run_limit_flag_is_checked_as_the_config_key(self, small_digits_dir, tmp_path,
                                                         capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(mlp_classification_config(
            small_digits_dir, layers=[64, 8, 10], steps=1, seed=1,
            rate={"kind": "fixed", "eta": 0.01})))
        out = tmp_path / "o"
        for limit in ("0", "-5"):
            assert main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--limit", limit]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: limit: expected a positive integer, got {limit}\n"
            assert captured.out == "" and not out.exists()
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--limit", "40"]) == 0
        assert json.loads((out / "summary.json").read_text())["config"]["limit"] == 40

    def test_run_limit_flag_on_a_quadratic_is_refused(self, tmp_path, capsys):
        # a quadratic has no training split; the limit would be echoed and ignored
        out = tmp_path / "o"
        assert main(["run", "--config", str(CONFIGS / "quadratic.json"), "--out", str(out),
                     "--limit", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: limit: a quadratic problem has no training split to limit\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_gradcheck_refuses_to_check_no_point(self, points, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(quadratic_pls_config(steps=0)))
        assert main(["gradcheck", "--config", str(cfg_path), "--points", points]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: points must be at least 1, got {points}\n"
        with pytest.raises(ValueError, match="points must be at least 1"):
            gradcheck_report(ExperimentConfig.load(cfg_path), n_points=int(points))

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_grid_refuses_fewer_than_one_worker(self, workers, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(quadratic_pls_config(steps=0)))
        out = tmp_path / "o"
        assert main(["grid", "--configs", str(cfg_path), "--out", str(out),
                     "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: workers must be at least 1, got {workers}\n"
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2


def test_grid_parallel_workers(tmp_path):
    paths = []
    for name, seed in (("a", 3), ("b", 4)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(quadratic_pls_config(steps=10, seed=seed)))
        paths.append(p)
    summaries = run_grid(paths, tmp_path / "out", workers=2)
    assert len(summaries) == 2
    assert all(not s["diverged"] for s in summaries)


def test_grid_refuses_configs_sharing_an_output_dir(tmp_path):
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "x.json")
        paths[-1].write_text(json.dumps(quadratic_pls_config(steps=5)))
    with pytest.raises(ConfigError) as exc:
        run_grid(paths, tmp_path / "out")
    assert str(paths[0]) in str(exc.value) and str(paths[1]) in str(exc.value)
    assert not (tmp_path / "out").exists()


# --- the one fault exit of the CLI ---


def _os_error(code, path) -> str:
    return f"[Errno {code}] {os.strerror(code)}: {str(path)!r}"


@pytest.mark.parametrize("case", [
    "run-config-dir", "grid-configs-dir", "run-not-utf8", "gradcheck-not-utf8",
    "run-out-under-a-file", "make-dataset-out-a-file", "seed-env-not-an-integer",
])
def test_input_faults_exit_2_with_one_error_line(case, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "q.json"
    cfg.write_text(json.dumps(quadratic_pls_config(steps=2)))
    folder, file = tmp_path / "folder", tmp_path / "file"
    folder.mkdir()
    file.write_text("")
    latin1 = tmp_path / "latin1.json"  # a config with one latin-1 byte in a key
    latin1.write_bytes(cfg.read_bytes()[:-1] + b', "n\xe9": 1}')
    with pytest.raises(ValueError) as undecodable:
        json.loads(latin1.read_text())
    out = str(tmp_path / "out")
    argv, message = {
        "run-config-dir": (["run", "--config", str(folder), "--out", out],
                           _os_error(errno.EISDIR, folder)),
        "grid-configs-dir": (["grid", "--configs", str(folder), "--out", out],
                             _os_error(errno.EISDIR, folder)),
        "run-not-utf8": (["run", "--config", str(latin1), "--out", out],
                         f"<file>: not valid JSON: {undecodable.value}"),
        "gradcheck-not-utf8": (["gradcheck", "--config", str(latin1)],
                               f"<file>: not valid JSON: {undecodable.value}"),
        "run-out-under-a-file": (["run", "--config", str(cfg), "--out", str(file / "x")],
                                 _os_error(errno.ENOTDIR, file / "x")),
        "make-dataset-out-a-file": (["make-dataset", "--out", str(file), "--train", "4",
                                     "--test", "2", "--rows", "4", "--cols", "4"],
                                    _os_error(errno.EEXIST, file)),
        "seed-env-not-an-integer": (["run", "--config", str(cfg), "--out", out],
                                    "PLS_LAB_SEED: not an integer: 'abc'"),
    }[case]
    if case == "seed-env-not-an-integer":
        monkeypatch.setenv("PLS_LAB_SEED", "abc")
    else:
        monkeypatch.delenv("PLS_LAB_SEED", raising=False)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before


def _cli_into_closed_stdout(argv, unbuffered):
    """The exit status and stderr of ``python -m pls_lab.cli *argv`` whose
    stdout is a pipe with its read end closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(pls_lab.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:  # the write itself fails, not the flush
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = fresh_python("-m", "pls_lab.cli", *argv, env=env, stdout=write_end,
                            stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_1_without_a_traceback(unbuffered):
    assert _cli_into_closed_stdout(T1_ARGV, unbuffered) == (1, b"")


@pytest.mark.parametrize("argv, unbuffered", [
    pytest.param(argv, unbuffered, id=" ".join(argv) + ("-unbuffered" if unbuffered else ""))
    for unbuffered in (False, True) for argv in (["-h"], ["stability", "t1", "-h"])])
def test_help_into_closed_stdout_exits_1_without_a_traceback(argv, unbuffered):
    assert _cli_into_closed_stdout(argv, unbuffered) == (1, b"")


def test_a_run_into_a_used_out_exits_2_and_keeps_the_first_run(tmp_path, capsys):
    cfg = tmp_path / "q.json"
    cfg.write_text(json.dumps(quadratic_pls_config(steps=5)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "2"]) == 2
    message = f"{out / 'records.csv'} exists: a run does not overwrite a run"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_a_grid_into_a_used_root_exits_2(tmp_path, capsys):
    paths = _quadratic_configs(tmp_path, (3, 4))
    root = tmp_path / "out"
    assert main(["grid", "--configs", *map(str, paths), "--out", str(root)]) == 0
    first = {p: p.read_bytes() for p in root.rglob("*.*")}
    capsys.readouterr()
    assert main(["grid", "--configs", *map(str, paths), "--out", str(root)]) == 2
    message = f"{root / 'q0' / 'records.csv'} exists: a run does not overwrite a run"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert {p: p.read_bytes() for p in root.rglob("*.*")} == first


# --- the grid's pool of job interpreters ---


def _error_samples():
    return {
        errors.PlsLabError: errors.PlsLabError("base"),
        errors.DivergenceError: errors.DivergenceError("loss is nan"),
        errors.SingularSystemError: errors.SingularSystemError("resonance"),
        errors.ConsistencyError: errors.ConsistencyError("routes disagree"),
        errors.IdxFormatError: errors.IdxFormatError("truncated dimension header", 7),
        errors.ConfigError: errors.ConfigError("rate.eta0", "must be positive"),
    }


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_package_error_round_trips_through_pickle():
    samples = _error_samples()
    assert set(samples) == {errors.PlsLabError, *_subclasses(errors.PlsLabError)}
    for cls, exc in samples.items():
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert back.args == exc.args and vars(back) == vars(exc)
    idx_error = pickle.loads(pickle.dumps(samples[errors.IdxFormatError]))
    assert str(idx_error) == "truncated dimension header (at byte offset 7)"
    assert idx_error.offset == 7 and idx_error.field is None
    keyed = pickle.loads(pickle.dumps(errors.IdxFormatError("trailing bytes", 9, "problem.labels")))
    assert str(keyed) == "problem.labels: trailing bytes (at byte offset 9)"
    assert (keyed.offset, keyed.field) == (9, "problem.labels")
    config_error = pickle.loads(pickle.dumps(samples[errors.ConfigError]))
    assert str(config_error) == "rate.eta0: must be positive"
    assert config_error.field == "rate.eta0"


# the error a file holding b"garbage" gives
GARBAGE_MAGIC = ("magic 0x67617262 is not a supported uint8 layout "
                 "(expected 0x00000803 or 0x00000801) (at byte offset 0)")


def _garbage_data(root):
    """The shipped configs' data/*.idx files, each holding b"garbage"."""
    (root / "data").mkdir(parents=True)
    for name in ("train-images", "train-labels", "test-images", "test-labels"):
        (root / "data" / f"{name}.idx").write_bytes(b"garbage")


def _children() -> list[int]:
    """Processes whose parent is this process."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # ended while listed
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


@pytest.mark.parametrize("workers", ["1", "2"])
def test_grid_error_is_reported_alike_for_any_worker_count(workers, tmp_path, monkeypatch,
                                                          capfd):
    _garbage_data(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main(["grid", "--configs", str(CONFIGS / "classification.json"),
                 str(CONFIGS / "reconstruction.json"), "--workers", workers])
    captured = capfd.readouterr()
    assert code == 2
    assert captured.err == f"error: problem.images: {GARBAGE_MAGIC}\n"


def test_a_job_interpreter_loads_no_pool_or_stability_code():
    # a job imports pls_lab.runner for _run_job; the grid pool's modules and
    # the stability engine are not what a job runs
    code = ("import sys, pls_lab.runner; print(*[m for m in ('pls_lab.stability', 'subprocess',"
            " 'concurrent.futures') if m in sys.modules])")
    proc = fresh_python("-c", code, stdout=subprocess.PIPE, check=True)
    assert proc.stdout == b"\n"


def test_grid_job_that_dies_without_its_exception(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(runner, "_JOB_COMMAND", (sys.executable, "-c", "raise SystemExit(3)"))
    paths = _quadratic_configs(tmp_path, [1, 2])
    assert main(["grid", "--configs", *map(str, paths), "--out", str(tmp_path / "out"),
                 "--workers", "2"]) == 2
    message = f"job for {tmp_path / 'out' / 'q0'} exited with status 3"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(["run", "--config", str(paths[0]), "--out", str(tmp_path / "run")]) == 2
    message = f"job for {tmp_path / 'run'} exited with status 3"
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _data_fault(root, fault):
    """The problem keys of a classification config on 8x8 digits whose
    ``fault`` names the one file that does not fit, and the error it gives."""
    images, labels = synthetic_digits(12, seed=1, rows=8, cols=8)
    files = {"images": images, "labels": labels, "test_images": images[:6],
             "test_labels": labels[:6], "short_labels": labels[:11],
             "label_ten": np.where(np.arange(12) == 5, 10, labels).astype(np.uint8)}
    files["test_label_ten"] = files["label_ten"][:6]
    for name, array in files.items():
        write_idx(root / f"{name}.idx", array)
    (root / "garbage.idx").write_bytes(b"garbage")
    paths = {key: str(root / f"{key}.idx")
             for key in ("images", "labels", "test_images", "test_labels")}
    key, name, message = fault
    paths[key] = str(root / f"{name}.idx")
    return paths, f"error: problem.{key}: {message}\n"


DATA_FAULTS = [
    ("labels", "short_labels", "11 labels for 12 images"),
    ("labels", "label_ten", "labels must lie in [0, 10), found 10"),
    ("labels", "images", "expected a label file, got an image stack"),
    ("images", "labels", "expected an image stack, got a label file"),
    ("test_labels", "labels", "12 labels for 6 images"),
    ("test_labels", "test_label_ten", "labels must lie in [0, 10), found 10"),
    ("test_images", "test_labels", "expected an image stack, got a label file"),
    *((key, "garbage", GARBAGE_MAGIC)
      for key in ("images", "labels", "test_images", "test_labels")),
]


@pytest.mark.parametrize("fault", DATA_FAULTS, ids=lambda f: f"{f[0]}-{f[1]}")
def test_data_faults_name_the_config_field(fault, tmp_path, capfd):
    problem, expected = _data_fault(tmp_path, fault)
    cfg = mlp_classification_config(tmp_path, layers=[64, 8, 10], steps=2, seed=1,
                                     rate={"kind": "fixed", "eta": 0.01}, batch_size=4)
    cfg["problem"].update(problem)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    assert capfd.readouterr() == ("", expected)
    assert not (tmp_path / "run").exists()
    for workers in ("1", "2"):
        assert main(["grid", "--configs", str(cfg_path), "--out", str(tmp_path / "grid"),
                     "--workers", workers]) == 2
        assert capfd.readouterr() == ("", expected)


def _quadratic_configs(root, seeds):
    paths = []
    for k, seed in enumerate(seeds):
        paths.append(root / f"q{k}.json")
        paths[-1].write_text(json.dumps(quadratic_pls_config(steps=5, seed=seed)))
    return paths


def test_grid_jobs_run_pinned_with_the_callers_pls_lab(tmp_path, monkeypatch):
    site = tmp_path / "site"
    log = tmp_path / "log"
    work = tmp_path / "work"
    decoy = tmp_path / "decoy" / "pls_lab"  # another pls_lab on the caller's path
    for d in (site, log, work, decoy):
        d.mkdir(parents=True)
    (decoy / "__init__.py").write_text("")
    # each job interpreter writes its thread settings, sys.path and pls_lab on exit
    (site / "sitecustomize.py").write_text(
        "import atexit, json, os, sys\n"
        "def _record():\n"
        "    record = {k: os.environ.get(k) for k in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS')}\n"
        "    record['path'] = sys.path\n"
        "    record['pls_lab'] = getattr(sys.modules.get('pls_lab'), '__file__', None)\n"
        f"    with open(os.path.join({str(log)!r}, f'{{os.getpid()}}.json'), 'w') as fh:\n"
        "        json.dump(record, fh)\n"
        "atexit.register(_record)\n"
    )
    monkeypatch.chdir(work)
    # the trailing separator would put the working directory on the path
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(site), str(decoy.parent), ""]))
    run_grid(_quadratic_configs(tmp_path, (3, 4)), tmp_path / "out", workers=2)
    records = [json.loads(p.read_text()) for p in log.iterdir()]
    assert len(records) == 2
    for record in records:
        assert record["OMP_NUM_THREADS"] == "1" and record["OPENBLAS_NUM_THREADS"] == "1"
        assert str(site) in record["path"]
        assert "" not in record["path"] and str(work) not in record["path"]
        assert Path(record["pls_lab"]).resolve() == Path(pls_lab.__file__).resolve()


def test_grid_leaves_no_process_running(tmp_path, monkeypatch):
    paths = _quadratic_configs(tmp_path, (3, 4, 5))
    assert len(run_grid(paths, tmp_path / "out", workers=2)) == 3
    assert _children() == []

    _garbage_data(tmp_path)
    monkeypatch.chdir(tmp_path)
    bad = [CONFIGS / "classification.json", CONFIGS / "reconstruction.json", *paths]
    with pytest.raises(IdxFormatError) as exc:
        run_grid(bad, tmp_path / "bad", workers=2)
    assert exc.value.offset == 0
    assert _children() == []


def _assert_launches_agree(config_paths, out_root):
    """Each config gives the same records.csv and summary.json (but for its
    wall time) through ``run``, ``grid --workers 1`` and ``grid --workers 2``."""
    for path in config_paths:
        assert main(["run", "--config", str(path),
                     "--out", str(out_root / "run" / Path(path).stem)]) == 0
    for workers in ("1", "2"):
        assert main(["grid", "--configs", *map(str, config_paths),
                     "--out", str(out_root / workers), "--workers", workers]) == 0
    for path in config_paths:
        dirs = [out_root / launch / Path(path).stem for launch in ("run", "1", "2")]
        records = {(d / "records.csv").read_bytes() for d in dirs}
        assert len(records) == 1
        summaries = [json.loads((d / "summary.json").read_text()) for d in dirs]
        for summary in summaries:
            del summary["wall_ms_total"]
        assert summaries[0] == summaries[1] == summaries[2]


def test_parallel_grid_matches_serial_on_the_quadratic(tmp_path, capsys):
    _assert_launches_agree([CONFIGS / "quadratic.json"], tmp_path)


def test_parallel_grid_matches_serial_on_a_small_net(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["make-dataset", "--out", str(data), "--train", "200", "--test", "50",
                 "--rows", "8", "--cols", "8", "--seed", "3"]) == 0
    pls = {"kind": "pls", "eta0": 0.01, "eps1": 0.01, "eps2": 0.01, "per_group": True}
    paths = []
    for algorithm in ("sgd", "amsgrad", "accsgd"):
        cfg = mlp_classification_config(data, layers=[64, 16, 10], steps=40, seed=7,
                                        rate=pls, algorithm=algorithm, batch_size=20,
                                        limit=150, extra={"test_every": 10})
        paths.append(tmp_path / f"{algorithm}.json")
        paths[-1].write_text(json.dumps(cfg))
    _assert_launches_agree(paths, tmp_path / "out")


def test_launches_agree_where_the_blas_thread_count_shows(tmp_path, capsys):
    # on a multi-core host a 784-64-32-10 net at batch 100 gives other
    # records at the BLAS default thread count than at one thread
    data = tmp_path / "data"
    assert main(["make-dataset", "--out", str(data), "--train", "200", "--test", "50",
                 "--seed", "3"]) == 0
    cfg = mlp_classification_config(data, layers=[784, 64, 32, 10], steps=3, seed=1,
                                    rate={"kind": "fixed", "eta": 0.01}, batch_size=100)
    path = tmp_path / "sgd.json"
    path.write_text(json.dumps(cfg))
    _assert_launches_agree([path], tmp_path / "out")


# --- records.csv is a stream: a run that ends early leaves whole rows ------


def test_a_run_that_raises_leaves_the_rows_before_it(tmp_path, monkeypatch):
    cfg, k = quadratic_pls_config(steps=20), 7
    execute_config(cfg, tmp_path / "full")
    full = (tmp_path / "full" / "records.csv").read_bytes()
    calls = []
    value_and_grad = QuadraticProblem.value_and_grad

    def raise_on_call_k(self, x, batch):
        calls.append(batch)
        if len(calls) == k:
            raise RuntimeError("gradient failed")
        return value_and_grad(self, x, batch)

    monkeypatch.setattr(QuadraticProblem, "value_and_grad", raise_on_call_k)
    with pytest.raises(RuntimeError, match="gradient failed"):
        execute_config(cfg, tmp_path / "cut")
    cut = (tmp_path / "cut" / "records.csv").read_bytes()
    assert cut.count(b"\n") == 1 + k  # the header and rows 0 .. k-1, whole
    assert cut.endswith(b"\n") and full.startswith(cut) and len(cut) < len(full)
    assert [r[0] for r in read_csv(tmp_path / "cut" / "records.csv")[1]] == [
        str(t) for t in range(k)]
    assert not (tmp_path / "cut" / "summary.json").exists()
    with pytest.raises(FileExistsError, match="records.csv exists: a run does not overwrite"):
        execute_config(cfg, tmp_path / "cut")
    assert (tmp_path / "cut" / "records.csv").read_bytes() == cut


def test_a_killed_job_leaves_a_whole_row_prefix_and_no_summary(tmp_path):
    # 40,000 steps take over a second, so the job is killed mid-run once
    # its file holds 20 rows
    cfg = quadratic_pls_config(steps=40_000)
    cfg["rate"] = {"kind": "fixed", "eta": 0.1}
    out = tmp_path / "killed"
    proc = subprocess.Popen([*runner._JOB_COMMAND, str(out)], stdin=subprocess.PIPE,
                            stdout=subprocess.DEVNULL, env=runner._job_environment())
    try:
        proc.stdin.write(json.dumps(cfg).encode())
        proc.stdin.close()
        records = out / "records.csv"
        deadline = time.monotonic() + 60.0
        while not (records.exists() and records.read_bytes().count(b"\n") >= 21):
            assert proc.poll() is None, f"the job ended first, with status {proc.returncode}"
            assert time.monotonic() < deadline, "the job wrote no 20 rows in 60 s"
            time.sleep(0.001)
        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=10) == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    cut = records.read_bytes()
    execute_config(cfg, tmp_path / "full")
    full = (tmp_path / "full" / "records.csv").read_bytes()
    assert cut.count(b"\n") >= 21 and cut.endswith(b"\n")
    assert full.startswith(cut) and len(cut) < len(full)
    assert sorted(p.name for p in out.iterdir()) == ["records.csv"]


@pytest.mark.parametrize("exit_", ["loss-cap", "gradient", "iterate"])
def test_each_divergence_exit_emits_one_flagged_last_row(exit_, tmp_path, monkeypatch):
    eta = {"loss-cap": 5.0, "gradient": 0.1, "iterate": 1e308}[exit_]
    cfg = quadratic_pls_config(steps=50)
    cfg["rate"] = {"kind": "fixed", "eta": eta}
    if exit_ == "gradient":  # a nan gradient entry at step 3, under a finite loss
        calls = []
        value_and_grad = QuadraticProblem.value_and_grad

        def nan_gradient(self, x, batch):
            loss, g = value_and_grad(self, x, batch)
            calls.append(batch)
            if len(calls) == 3:
                g[0] = np.nan
            return loss, g

        monkeypatch.setattr(QuadraticProblem, "value_and_grad", nan_gradient)
    if exit_ == "iterate":  # a gradient entry above 1.8 overflows x - 1e308 * g
        cfg["problem"]["x0_scale"] = 100.0
    emitted = []
    run_optimizer = runner.run_optimizer

    def spy(*args, emit, **kwargs):
        def both(rec):
            emitted.append(rec)
            emit(rec)
        return run_optimizer(*args, emit=both, **kwargs)

    monkeypatch.setattr(runner, "run_optimizer", spy)
    summary = execute_config(cfg, tmp_path)
    last = emitted[-1]
    assert [r.diverged for r in emitted] == [False] * (len(emitted) - 1) + [True]
    assert [r.iter for r in emitted] == list(range(len(emitted)))
    if exit_ == "loss-cap":
        assert math.isfinite(last.train_loss) and last.train_loss > 1e12 and last.etas is None
    elif exit_ == "gradient":
        assert last.iter == 3 and last.train_loss < 1e12 and last.etas is None
    else:
        assert last.iter == 1 and last.etas == (1e308,)
    assert summary["diverged"] is True
    assert summary["divergence_step"] == summary["steps_completed"] == last.iter
    assert summary["final_rates"] == (list(last.etas) if last.etas is not None else None)
    _, rows = read_csv(tmp_path / "records.csv")
    assert len(rows) == len(emitted) and rows[-1][-1] == "1"
