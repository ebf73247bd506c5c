"""Experiment orchestration: build, run, and emit records.csv + summary.json.

records.csv is written row by row as the run makes each record, so a run
that is killed or fails leaves its rows so far and no summary.json.
Outputs are deterministic functions of (config, seed): floats are written
with shortest round-trip precision and the per-row wall-time column is
left empty so repeated runs of the same config are byte-identical; the
run's measured wall time goes only into the summary.

Substreams of the run seed are fixed by key: 0 initializes parameters,
1 samples batches (inside the run loop), 2 generates synthetic problem
data, 3 shuffles for subset selection.

Every training run the CLI starts (``run`` and each config of ``grid``)
is a job: ``execute`` in a fresh interpreter with one BLAS and OpenMP
thread, so a (config, seed) gives the same records however it was
launched.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, QuadraticSpec, RateSpec, finite_or_none
from .datasets import load_split
from .errors import ConfigError
from .optimizers import WHOLE, FixedRate, PlsRate, TrainRecord, run_optimizer
from .problems import MlpLsrProblem, QuadraticProblem, finite_diff_grad, glorot_init
from .rng import SeededRng

INIT_STREAM = 0
PROBLEM_STREAM = 2
SHUFFLE_STREAM = 3

GRADCHECK_GATE = 1e-4
GRADCHECK_COORDS = 20  # coordinates checked per point above 2000 parameters


def build_problem(cfg: ExperimentConfig):
    """Instantiate the objective, initial point, and test-loss closure."""
    root = SeededRng(cfg.seed)
    if isinstance(cfg.problem, QuadraticSpec):
        spec = cfg.problem
        problem = QuadraticProblem.random(
            spec.dim, spec.n_samples, spec.curvatures, spec.center_scale,
            root.spawn(PROBLEM_STREAM),
        )
        x0 = root.spawn(INIT_STREAM).uniform_array(spec.dim, -spec.x0_scale, spec.x0_scale)
        return problem, x0, None

    spec = cfg.problem
    inputs, targets = load_split(spec.images, spec.labels, spec.num_classes)
    n = len(inputs)
    if cfg.limit is not None and cfg.limit < n:  # a seeded-shuffle prefix
        order = root.spawn(SHUFFLE_STREAM).permutation(n)[:cfg.limit]
        labeled = targets is not inputs
        inputs = inputs[order]
        targets = targets[order] if labeled else inputs
    if inputs.shape[1] != spec.layers[0]:
        raise ConfigError(
            "problem.layers", f"first layer size {spec.layers[0]} != data width {inputs.shape[1]}"
        )
    problem = MlpLsrProblem(spec.layers, inputs, targets, l2=spec.l2)
    x0 = glorot_init(spec.layers, root.spawn(INIT_STREAM))

    test_fn = None
    if spec.test_images is not None:  # a classification config has test_labels too
        test_inputs, test_targets = load_split(
            spec.test_images, spec.test_labels, spec.num_classes, "test_")
        if test_inputs.shape[1] != spec.layers[0]:
            raise ConfigError("problem.test_images", f"first layer size {spec.layers[0]} "
                              f"!= data width {test_inputs.shape[1]}")
        test_fn = MlpLsrProblem(spec.layers, test_inputs, test_targets, l2=0.0).full_value
    return problem, x0, test_fn


def build_rate_source(rate: RateSpec, partition):
    if rate.kind == "fixed":
        return FixedRate(rate.eta)
    if rate.kind == "fixed-decay":
        return FixedRate(rate.eta0, "sqrt_t")
    groups = list(partition) if rate.per_group else WHOLE
    return PlsRate(groups, rate.eta0, rate.eps1, rate.eps2, decay=rate.decay)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _csv_header(n_groups: int) -> str:
    lr_cols = [f"lr_g{k}" for k in range(n_groups)]
    l_cols = [f"L_g{k}" for k in range(n_groups)]
    cols = ["iter", "train_loss", "test_loss", *lr_cols, *l_cols, "wall_ms", "diverged"]
    return ",".join(cols) + "\n"


def _csv_row(rec: TrainRecord, n_groups: int) -> str:
    etas = rec.etas if rec.etas is not None else (None,) * n_groups
    l_hats = rec.l_hats if rec.l_hats is not None else (None,) * n_groups
    cells = [
        _fmt(rec.iter),
        _fmt(rec.train_loss),
        _fmt(rec.test_loss),
        *(_fmt(e) for e in etas),
        *(_fmt(l) for l in l_hats),
        "",  # wall time is not per row: runs stay byte-identical
        _fmt(rec.diverged),
    ]
    return ",".join(cells) + "\n"


def execute(cfg: ExperimentConfig, out_dir) -> dict:
    """Run one experiment into out_dir, refused first if it holds a run's
    files. Each record is written to records.csv as the run makes it
    (line-buffered, so a killed run leaves whole rows); summary.json is
    written last, through a temp file and os.replace, so that a summary
    means the run ended."""
    out_dir = Path(out_dir)
    for name in ("records.csv", "summary.json"):
        if (out_dir / name).exists():
            raise FileExistsError(f"{out_dir / name} exists: a run does not overwrite a run")
    problem, x0, test_fn = build_problem(cfg)  # bad data fails before anything is written
    out_dir.mkdir(parents=True, exist_ok=True)
    rate_source = build_rate_source(cfg.rate, problem.layer_partition)
    n_groups = len(rate_source.groups)

    with open(out_dir / "records.csv", "x", buffering=1) as records:
        records.write(_csv_header(n_groups))
        start = time.perf_counter()
        last = run_optimizer(
            problem,
            cfg.algorithm,
            rate_source,
            steps=cfg.steps,
            seed=cfg.seed,
            x0=x0,
            batch_size=cfg.batch_size,
            beta1=cfg.amsgrad.beta1,
            beta2=cfg.amsgrad.beta2,
            kappa=cfg.accsgd.kappa,
            xi=cfg.accsgd.xi,
            test_fn=test_fn,
            test_every=cfg.test_every,
            emit=lambda rec: records.write(_csv_row(rec, n_groups)),
        )
        wall_ms = (time.perf_counter() - start) * 1e3
    del rate_source  # a PLS history, an iterate and a gradient, is freed before the final pass

    final_train = final_raw = final_test = None
    if not last.diverged:  # x0 holds the final iterate
        if isinstance(problem, MlpLsrProblem):  # one pass: value is data_value + _reg_value
            final_raw = problem.data_value(x0, None)  # every sample, in place
            final_train = final_raw + problem._reg_value(x0)
        else:
            final_train = final_raw = problem.full_value(x0)
        if last.test_loss is not None:  # the loop already tested the final iterate
            final_test = last.test_loss
        elif test_fn is not None:
            final_test = float(test_fn(x0))
    summary = finite_or_none({
        "config": cfg.to_dict(),
        "diverged": last.diverged,
        "divergence_step": last.iter if last.diverged else None,
        "steps_completed": last.iter,
        "final_train_loss": final_train,
        "final_train_loss_raw": final_raw,
        "final_test_loss": final_test,
        "final_rates": list(last.etas) if last.etas is not None else None,
        "final_smoothness": list(last.l_hats) if last.l_hats is not None else None,
        "wall_ms_total": wall_ms,
        "records_csv": "records.csv",
    })
    partial = out_dir / "summary.json.partial"
    with open(partial, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    os.replace(partial, out_dir / "summary.json")
    return summary


def execute_config(config_dict: dict, out_dir: str) -> dict:
    """Validate a raw config dict and run it."""
    return execute(ExperimentConfig.from_dict(config_dict), out_dir)


_JOB_COMMAND = (sys.executable, "-c",
                "import sys; from pls_lab.runner import _run_job; sys.exit(_run_job(sys.argv[1]))")


def _run_job(out_dir: str) -> int:
    """Body of a job's interpreter: run the config read as JSON from stdin;
    on an error write the pickled exception to stdout and return 1."""
    try:
        execute_config(json.load(sys.stdin), out_dir)
    except Exception as exc:
        sys.stdout.buffer.write(pickle.dumps(exc))
        return 1
    return 0


def _job_environment() -> dict:
    """The caller's environment with one BLAS/OpenMP thread, and this
    pls_lab's source directory in front of the caller's PYTHONPATH, so a
    job imports the same pls_lab (PYTHONSAFEPATH keeps the working
    directory off its sys.path)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    caller = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                PYTHONSAFEPATH="1", PYTHONPATH=os.pathsep.join([src, *caller]))


def _run_in_interpreter(config_dict: dict, out_dir: str) -> dict:
    """Run one config as a job in a fresh interpreter and return its
    summary; re-raise the job's exception."""
    import subprocess  # here, not at the top: a job's interpreter starts no job

    proc = subprocess.run([*_JOB_COMMAND, out_dir], input=json.dumps(config_dict).encode(),
                          env=_job_environment(), stdout=subprocess.PIPE)
    if proc.returncode == 1 and proc.stdout:
        raise pickle.loads(proc.stdout)
    if proc.returncode != 0:
        raise ChildProcessError(f"job for {out_dir} exited with status {proc.returncode}")
    with open(Path(out_dir) / "summary.json") as fh:
        return json.load(fh)


def run_grid(config_paths, out_root, workers: int = 1) -> list[dict]:
    """Run several configs with isolated state and per-config output dirs.

    Each config writes to ``out_root/<file stem>``; two configs whose stems
    clash are refused, like a bad config, before any run starts. Each
    config runs as a job, in its own interpreter with one BLAS thread, at
    most ``workers`` (at least 1) at a time; all of them have ended when
    this returns or raises the first failed config's exception.
    """
    from concurrent.futures import ThreadPoolExecutor  # here: a job runs no pool

    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    out_root = Path(out_root)
    jobs = []
    owners = {}
    for path in config_paths:
        cfg_path = Path(path)
        cfg = ExperimentConfig.load(cfg_path)  # fail fast on any bad config
        out = str(out_root / cfg_path.stem)
        if out in owners:
            raise ConfigError(str(cfg_path), f"writes to {out}, as does {owners[out]}")
        owners[out] = cfg_path
        jobs.append((cfg.to_dict(), out))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_in_interpreter, d, out) for d, out in jobs]
        return [f.result() for f in futures]


def gradcheck_report(cfg: ExperimentConfig, n_points: int = 20) -> dict:
    """Compare analytic gradients against the central-difference oracle.

    At each random point GRADCHECK_COORDS coordinates are sampled among
    those whose analytic derivative is not vanishingly small relative to
    the largest one (central differences cannot resolve near-zero
    derivatives in relative terms). Small problems check every coordinate.
    """
    if n_points < 1:
        raise ValueError(f"points must be at least 1, got {n_points}")
    problem, x0, _ = build_problem(cfg)
    rng = SeededRng(cfg.seed).spawn(17)
    batch_size = min(cfg.batch_size, problem.n)
    worst = 0.0
    point_errors = []
    for k in range(n_points):
        if isinstance(problem, MlpLsrProblem):
            x = glorot_init(problem.layer_sizes, rng.spawn(100 + k))
        else:
            x = rng.spawn(100 + k).uniform_array(problem.d, -2.0, 2.0)
        batch = rng.index_array(batch_size, problem.n)
        ga = problem.grad(x, batch)
        if problem.d <= 2000:
            coords = np.arange(problem.d)
        else:
            magnitude_floor = 1e-3 * np.abs(ga).max()
            eligible = np.flatnonzero(np.abs(ga) >= magnitude_floor)
            pick = rng.index_array(GRADCHECK_COORDS, eligible.size)
            coords = eligible[pick]
        gn = finite_diff_grad(problem, x, batch, coords=coords)
        num = float(np.linalg.norm(ga[coords] - gn))
        den = max(float(np.linalg.norm(ga[coords])), 1e-12)
        err = num / den
        point_errors.append(err)
        worst = max(worst, err)
    return {
        "max_rel_error": worst,
        "point_errors": point_errors,
        "points": n_points,
        "passed": worst <= GRADCHECK_GATE,
    }
