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
from .config import ExperimentConfig, finite_or_none
from .datasets import synthetic_digits
from .errors import ConfigError, PlsLabError
from .idx import write_idx
from .runner import _run_in_interpreter, gradcheck_report, run_grid

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


def _load_config(args) -> ExperimentConfig:
    """The config file with --limit and the seed (--seed, else PLS_LAB_SEED)
    set as its keys, checked as the file's keys are."""
    cfg = ExperimentConfig.load(args.config).to_dict()
    if getattr(args, "limit", None) is not None:
        cfg["limit"] = args.limit
    if args.seed is not None:
        cfg["seed"] = args.seed
    elif os.environ.get(ENV_SEED):
        try:
            cfg["seed"] = int(os.environ[ENV_SEED])
        except ValueError as exc:
            raise ConfigError(ENV_SEED, f"not an integer: {os.environ[ENV_SEED]!r}") from exc
    return ExperimentConfig.from_dict(cfg)


# json.dumps(..., indent=2, allow_nan=False) builds this encoder per call
_JSON = json.JSONEncoder(indent=2, allow_nan=False)


def _cmd_run(args) -> int:
    summary = _run_in_interpreter(_load_config(args).to_dict(), args.out)
    print(_JSON.encode({k: summary[k] for k in (
        "diverged", "divergence_step", "steps_completed",
        "final_train_loss", "final_test_loss")}))
    return 0


def _cmd_grid(args) -> int:
    summaries = run_grid(args.configs, args.out, workers=args.workers)
    for path, summary in zip(args.configs, summaries):
        status = "diverged" if summary["diverged"] else "ok"
        print(f"{Path(path).stem}: {status} final_train_loss={summary['final_train_loss']}")
    return 0


def _cmd_gradcheck(args) -> int:
    report = gradcheck_report(_load_config(args), n_points=args.points)
    print(_JSON.encode(finite_or_none({k: report[k] for k in (
        "max_rel_error", "points", "passed")})))
    return 0 if report["passed"] else 1


def _cmd_stability(args) -> int:
    params = {k: v for k, v in vars(args).items() if k not in ("command", "system")}
    print(_JSON.encode(stab.analyze(args.system, **params)))
    return 0


def _cmd_make_dataset(args) -> int:
    splits = {}  # both made before anything is written
    for split, count, offset in (("train", args.train, 0), ("test", args.test, 1)):
        try:
            splits[split] = synthetic_digits(count, args.seed + offset, args.rows, args.cols)
        except ValueError as exc:
            raise ValueError(f"{split} split: {exc}") from exc
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
    print(_JSON.encode(written))
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose failed writes (help into a closed pipe) reach main."""

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pls-lab", description=__doc__,
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


def _subcommands(parser: argparse.ArgumentParser):
    """The add_subparsers() action of ``parser``, or None for a leaf."""
    return next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, parsed once by the leaf parser that the
    leading words name (``stability t1``, ``run``) instead of by each level
    in turn. Words that name no leaf (help, a bad or missing command or
    system) and words the leaf leaves over go to the whole tree, which
    prints its usage, help and errors."""
    parser, args, depth = _PARSER, argparse.Namespace(), 0
    while (action := _subcommands(parser)) is not None:
        if depth == len(argv) or argv[depth] not in action.choices:
            return _PARSER.parse_args(argv)
        setattr(args, action.dest, argv[depth])
        parser, depth = action.choices[argv[depth]], depth + 1
    args, extras = parser.parse_known_args(argv[depth:], args)
    return _PARSER.parse_args(argv) if extras else args


def main(argv=None) -> int:
    global _PARSER
    _PARSER = _PARSER or build_parser()
    try:
        try:
            args = _parse(sys.argv[1:] if argv is None else list(argv))
        except SystemExit:  # after help or usage: a closed pipe fails here, not at exit
            sys.stdout.flush()
            raise
        # looked up per call, so the cached parser holds no handler
        code = globals()["_cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # the reader closed stdout (the Python docs' recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (PlsLabError, ValueError, OSError) as exc:  # config, data, path or parameter
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
