import json

import numpy as np
import numpy.testing as npt
import pytest

import pls_lab.cli as cli_mod
from pls_lab.cli import main
from pls_lab.config import ExperimentConfig
from pls_lab.errors import ConfigError
from pls_lab.problems import QuadraticProblem
from pls_lab.runner import build_problem, execute, execute_config, gradcheck_report, run_grid

from conftest import mlp_classification_config


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


# every float flag of each stability system, with a valid value
STABILITY_ARGS = {
    "t1": {"--L": "2", "--rho": "0.5", "--eta": "0.4"},
    "t2": {"--beta1": "0.9", "--sqrtvhat": "1", "--L": "1", "--eta": "1.0", "--rho": "0.95"},
    "t3": {"--kappa": "1000", "--xi": "10", "--L": "1", "--eta": "0.5", "--rho": "0.996"},
}


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
            extra={"amsgrad": {"beta1": 0.9, "beta2": 0.999,
                               "beta1_schedule": "over_t"}},
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

    def test_gradcheck_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(quadratic_pls_config(steps=0)))
        assert main(["gradcheck", "--config", str(cfg_path), "--points", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"]

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
