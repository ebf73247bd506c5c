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
import os
import re
import sys
from pathlib import Path

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

# Each stability system's help line and required float flags, in --help order.
_STABILITY_SYSTEMS = {
    "t1": ("plain descent (scalar factor)", ("L", "rho", "eta")),
    "t2": ("adaptive-moment system (2x2)", ("beta1", "sqrtvhat", "L", "eta")),
    "t3": ("accelerated-momentum system (2x2)", ("kappa", "xi", "L", "eta", "rho")),
}


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
    report = gradcheck_report(cfg, n_points=args.points)
    print(json.dumps({"max_rel_error": report["max_rel_error"],
                      "points": report["points"],
                      "passed": report["passed"]}, indent=2))
    return 0 if report["passed"] else 1


def _cmd_stability(args) -> int:
    params = {k: v for k, v in vars(args).items() if k not in ("command", "system")}
    try:
        result = stab.analyze(args.system, **params)
    except (ValueError, PlsLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, indent=2, allow_nan=False))
    return 0


def _cmd_make_dataset(args) -> int:
    splits = {}  # both made before anything is written
    for split, count, offset in (("train", args.train, 0), ("test", args.test, 1)):
        try:
            splits[split] = synthetic_digits(count, args.seed + offset, args.rows, args.cols)
        except ValueError as exc:
            print(f"error: {split} split: {exc}", file=sys.stderr)
            return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = {}
    for split, (images, labels) in splits.items():
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

    p_grid = sub.add_parser("grid", help="execute several configs")
    p_grid.add_argument("--configs", nargs="+", required=True)
    p_grid.add_argument("--out", default="out")
    p_grid.add_argument("--workers", type=int, default=1)

    p_stab = sub.add_parser("stability", help="contraction analysis of one system")
    stab_sub = p_stab.add_subparsers(dest="system", required=True)

    for system, (help_text, flags) in _STABILITY_SYSTEMS.items():
        p_sys = stab_sub.add_parser(system, help=help_text)
        p_sys._negative_number_matcher = _NEGATIVE_NUMBER
        for flag in flags:
            p_sys.add_argument(f"--{flag}", type=float, required=True)
        if system == "t2":
            p_sys.add_argument("--rho", type=float, default=None,
                               help="defaults to sqrt(beta1)")
        p_sys.add_argument("--steps", type=int, default=100)

    p_gc = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p_gc.add_argument("--config", required=True)
    p_gc.add_argument("--points", type=int, default=20)
    p_gc.add_argument("--seed", type=int, default=None)

    p_ds = sub.add_parser("make-dataset", help="write synthetic digit IDX files")
    p_ds.add_argument("--out", required=True)
    p_ds.add_argument("--train", type=int, default=1000)
    p_ds.add_argument("--test", type=int, default=200)
    p_ds.add_argument("--seed", type=int, default=0)
    p_ds.add_argument("--rows", type=int, default=28)
    p_ds.add_argument("--cols", type=int, default=28)

    return parser


_PARSER = None  # built by the first main() call, then reused


def main(argv=None) -> int:
    global _PARSER
    _PARSER = _PARSER or build_parser()
    args = _PARSER.parse_args(argv)
    # looked up per call, so the cached parser holds no handler
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (ConfigError, IdxFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
