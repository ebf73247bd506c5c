"""Command-line interface.

Subcommands:

    run           execute one experiment config, write records.csv + summary.json
    grid          execute several configs with isolated outputs
    stability     contraction analysis of one linearized system (t1|t2|t3)
    gradcheck     analytic gradients vs. the finite-difference oracle
    make-dataset  synthetic digit-like IDX files for desk-scale runs

Seed precedence for run/gradcheck: --seed flag, then the PLS_LAB_SEED
environment variable, then the config file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import stability as stab
from .config import ExperimentConfig
from .datasets import synthetic_digits
from .errors import ConfigError, IdxFormatError, PlsLabError
from .idx import write_idx
from .runner import execute, gradcheck_report, run_grid

ENV_SEED = "PLS_LAB_SEED"

# argparse takes "-5.9e-05" for an option, as it knows negative numbers only
# in the forms -5 and -5.9; the stability parsers use this pattern instead.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _apply_seed_override(cfg: ExperimentConfig, flag_seed: int | None) -> ExperimentConfig:
    if flag_seed is not None:
        cfg.seed = flag_seed
    elif os.environ.get(ENV_SEED):
        try:
            cfg.seed = int(os.environ[ENV_SEED])
        except ValueError as exc:
            raise ConfigError(ENV_SEED, f"not an integer: {os.environ[ENV_SEED]!r}") from exc
    return cfg


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config)
    if getattr(args, "limit", None) is not None:
        cfg.limit = args.limit
    return _apply_seed_override(cfg, args.seed)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    summary = execute(cfg, args.out)
    print(json.dumps({k: summary[k] for k in (
        "diverged", "divergence_step", "steps_completed",
        "final_train_loss", "final_test_loss")}, indent=2))
    return 0


def _cmd_grid(args) -> int:
    summaries = run_grid(args.configs, args.out, workers=args.workers)
    for path, summary in zip(args.configs, summaries):
        status = "diverged" if summary["diverged"] else "ok"
        print(f"{Path(path).stem}: {status} final_train_loss={summary['final_train_loss']}")
    return 0


def _cmd_gradcheck(args) -> int:
    cfg = _load_config(args)
    report = gradcheck_report(cfg, n_points=args.points, seed=args.seed)
    print(json.dumps({"max_rel_error": report["max_rel_error"],
                      "points": report["points"],
                      "passed": report["passed"]}, indent=2))
    return 0 if report["passed"] else 1


def _envelope_dict(report: stab.DecayReport, steps: int) -> dict:
    return {
        "steps": steps,
        "max_ratio": None if math.isinf(report.max_ratio) else report.max_ratio,
        "bound": report.bound,
        "within_bound": report.within_bound,
        "overflowed": report.overflowed,
    }


def _stability_t1(args) -> dict:
    window = stab.sgd_rate_window(args.L, args.rho)
    factor = stab.sgd_factor(args.eta, args.L)
    inside = window[0] <= args.eta <= window[1]
    sim = stab.simulate_factors([factor] * args.steps, 1.0, args.rho)
    p = 1.0 / (args.rho**2 - factor**2) if abs(factor) < args.rho else None
    return {
        "system": "sgd",
        "rho": args.rho,
        "window": list(window),
        "eta": args.eta,
        "eta_in_window": inside,
        "factor": factor,
        "spectral_radius": abs(factor),
        "lyapunov_p": p,
        "stable": inside,
        "envelope": _envelope_dict(sim, args.steps),
    }


def _stability_t2(args) -> dict:
    rho = args.rho if args.rho is not None else math.sqrt(args.beta1)
    window = stab.amsgrad_rate_window(args.beta1, args.sqrtvhat, args.L)
    a = stab.amsgrad_system(args.beta1, args.eta, args.L, args.sqrtvhat)
    verdict = stab.lyapunov_verdict(a, rho)
    inside = window[0] < args.eta < window[1]
    zeta0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    sim = stab.simulate_system([a] * args.steps, zeta0, rho, verdict.lyapunov_p)
    return {
        "system": "amsgrad",
        "rho": rho,
        "window": list(window),
        "eta": args.eta,
        "eta_in_window": inside,
        "spectral_radius": verdict.spectral_radius,
        "discriminant": stab.amsgrad_discriminant(args.beta1, args.eta, args.L, args.sqrtvhat),
        "lmi_feasible": verdict.stable,
        "cond_p": verdict.cond_p,
        "stable": inside,
        "envelope": _envelope_dict(sim, args.steps),
    }


def _stability_t3(args) -> dict:
    verdict = stab.accsgd_stability(args.kappa, args.xi, args.eta, args.L, args.rho)
    b = stab.accsgd_system(args.kappa, args.xi, args.eta, args.L)
    lyap = stab.lyapunov_verdict(b, args.rho)
    zeta0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    sim = stab.simulate_system([b] * args.steps, zeta0, args.rho, lyap.lyapunov_p)
    return {
        "system": "accsgd",
        "rho": args.rho,
        "alpha_ok": verdict.alpha_ok,
        "window": list(verdict.eta_window),
        "eta": args.eta,
        "eta_in_window": verdict.eta_in_window,
        "nominal_eigenvalues": list(verdict.nominal_eigenvalues),
        "spectral_radius": lyap.spectral_radius,
        "lmi_feasible": lyap.stable,
        "cond_p": lyap.cond_p,
        "stable": verdict.stable,
        "envelope": _envelope_dict(sim, args.steps),
    }


def _cmd_stability(args) -> int:
    builders = {"t1": _stability_t1, "t2": _stability_t2, "t3": _stability_t3}
    try:
        result = builders[args.system](args)
    except (ValueError, PlsLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, indent=2))
    return 0


def _cmd_make_dataset(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = {}
    for split, count in (("train", args.train), ("test", args.test)):
        images, labels = synthetic_digits(
            count, args.seed + (0 if split == "train" else 1), args.rows, args.cols
        )
        img_path = out / f"{split}-images.idx"
        lab_path = out / f"{split}-labels.idx"
        write_idx(img_path, images)
        write_idx(lab_path, labels)
        written[f"{split}_images"] = str(img_path)
        written[f"{split}_labels"] = str(lab_path)
    print(json.dumps(written, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pls-lab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--limit", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_grid = sub.add_parser("grid", help="execute several configs")
    p_grid.add_argument("--configs", nargs="+", required=True)
    p_grid.add_argument("--out", default="out")
    p_grid.add_argument("--workers", type=int, default=1)
    p_grid.set_defaults(func=_cmd_grid)

    p_stab = sub.add_parser("stability", help="contraction analysis of one system")
    stab_sub = p_stab.add_subparsers(dest="system", required=True)

    t1 = stab_sub.add_parser("t1", help="plain descent (scalar factor)")
    t1.add_argument("--L", type=float, required=True)
    t1.add_argument("--rho", type=float, required=True)
    t1.add_argument("--eta", type=float, required=True)
    t1.add_argument("--steps", type=int, default=100)

    t2 = stab_sub.add_parser("t2", help="adaptive-moment system (2x2)")
    t2.add_argument("--beta1", type=float, required=True)
    t2.add_argument("--sqrtvhat", type=float, required=True)
    t2.add_argument("--L", type=float, required=True)
    t2.add_argument("--eta", type=float, required=True)
    t2.add_argument("--rho", type=float, default=None,
                    help="defaults to sqrt(beta1)")
    t2.add_argument("--steps", type=int, default=100)

    t3 = stab_sub.add_parser("t3", help="accelerated-momentum system (2x2)")
    t3.add_argument("--kappa", type=float, required=True)
    t3.add_argument("--xi", type=float, required=True)
    t3.add_argument("--L", type=float, required=True)
    t3.add_argument("--eta", type=float, required=True)
    t3.add_argument("--rho", type=float, required=True)
    t3.add_argument("--steps", type=int, default=100)

    for system in (t1, t2, t3):
        system._negative_number_matcher = _NEGATIVE_NUMBER
    p_stab.set_defaults(func=_cmd_stability)

    p_gc = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p_gc.add_argument("--config", required=True)
    p_gc.add_argument("--points", type=int, default=20)
    p_gc.add_argument("--seed", type=int, default=None)
    p_gc.set_defaults(func=_cmd_gradcheck)

    p_ds = sub.add_parser("make-dataset", help="write synthetic digit IDX files")
    p_ds.add_argument("--out", required=True)
    p_ds.add_argument("--train", type=int, default=1000)
    p_ds.add_argument("--test", type=int, default=200)
    p_ds.add_argument("--seed", type=int, default=0)
    p_ds.add_argument("--rows", type=int, default=28)
    p_ds.add_argument("--cols", type=int, default=28)
    p_ds.set_defaults(func=_cmd_make_dataset)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, IdxFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
