"""The pls-lab benchmark: one command, three workloads.

    python3 bench/run.py --workload grid-sgd-b100 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Each call runs one workload in this fresh process for
``--seconds`` of wall time, in whole rounds, then checks every output
against ``reference.py`` and prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and the metrics. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` installs spans around the
program's public functions (``spans.py``) and reports the per-layer
metrics. Outputs, spans and the environment manifest are written under
``bench/runs/``. The benchmark sets no BLAS or OpenMP thread variable.

Workloads (README.md gives why each was chosen):

- ``grid-sgd-b100``: ``runner.run_grid(..., workers=2)`` rounds of two
  c09-shaped sgd jobs, PLS per-group rate and a fixed rate from the c09
  grid, on the 784-500-500-10 net at batch 100;
- ``moments-b10``: serial ``runner.execute`` rounds of amsgrad+PLS and
  accsgd+PLS on the same net at batch 10;
- ``stability-sweep``: rounds of ``pls-lab stability t1|t2|t3`` run
  in-process through ``cli.main``, three analyses per system per round.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import reference
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TRACED_MODULES = (
    "datasets", "idx", "config", "runner", "problems", "smoothness",
    "optimizers", "rng", "cli", "stability", "linalg",
)
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "OMP_PROC_BIND",
)

LAYERS = [784, 500, 500, 10]
FIXED_GRID = (0.011, 0.009, 0.008, 0.007, 0.006, 0.005, 0.004)  # the c09 grid
TRAIN_SAMPLES, TEST_SAMPLES = 1000, 200
GRID_STEPS = 12  # per job; test evaluation at step 0 and after the last step
MOMENT_STEPS = 50
REPLAY_STEPS = 4  # replayed rows per distinct (algorithm, rate)
# Set-up is timed this many times before the timed phase and again after
# the checks, so that its median samples the machine at both ends of a run.
SETUP_REPEATS = 3
STABILITY_CHUNK = 10  # rounds generated, timed and checked together

# (metric, unit, span, statistic, scale). Statistics: "mean" time per call,
# "calls", "self" time per call, "self_per_step" and "faults_per_step"
# per value_and_grad call, "workload" for values the workload computes.
PER_LAYER = [
    ("datasets.synthetic_digits_s", "s", "datasets.synthetic_digits", "mean", 1.0),
    ("idx.write_idx_ms", "ms", "idx.write_idx", "mean", 1e3),
    ("idx.load_idx_ms", "ms", "idx.load_idx", "mean", 1e3),
    ("runner.build_problem_ms", "ms", "runner.build_problem", "mean", 1e3),
    ("config.from_dict_us", "us", "config.ExperimentConfig.from_dict", "mean", 1e6),
    ("problems.value_and_grad_ms", "ms", "problems.MlpLsrProblem.value_and_grad", "mean", 1e3),
    ("problems.value_and_grad_calls", "count", "problems.MlpLsrProblem.value_and_grad", "calls", 1),
    ("problems.full_value_ms", "ms", "problems.MlpLsrProblem.full_value", "mean", 1e3),
    ("problems.full_value_calls", "count", "problems.MlpLsrProblem.full_value", "calls", 1),
    ("optimizers.pls_rates_ms", "ms", "optimizers.PlsRate.rates", "mean", 1e3),
    ("smoothness.predict_ms", "ms", "smoothness.SmoothnessEstimator.predict", "mean", 1e3),
    ("optimizers.sgd_step_ms", "ms", "optimizers.sgd_step", "mean", 1e3),
    ("optimizers.amsgrad_step_ms", "ms", "optimizers.AmsgradState.step", "mean", 1e3),
    ("optimizers.accsgd_step_ms", "ms", "optimizers.AccsgdState.step", "mean", 1e3),
    ("optimizers.run_loop_self_ms", "ms", "optimizers.run_optimizer", "self_per_step", 1e3),
    ("optimizers.minor_faults_per_step", "faults/step", "optimizers.run_optimizer",
     "faults_per_step", 1),
    ("rng.index_array_us", "us", "rng.SeededRng.index_array", "mean", 1e6),
    ("runner.write_records_csv_ms", "ms", "runner.write_records_csv", "mean", 1e3),
    ("runner.execute_self_ms", "ms", "runner.execute", "self", 1e3),
    ("runner.grid_pool_efficiency", "ratio", None, "workload", 1),
    ("runner.grid_job_step_ms", "ms", None, "workload", 1),
    ("cli.main_self_us", "us", "cli.main", "self", 1e6),
    ("cli.build_parser_us", "us", "cli.build_parser", "mean", 1e6),
    ("stability.lyapunov_verdict_us", "us", "stability.lyapunov_verdict", "mean", 1e6),
    ("stability.simulate_system_ms", "ms", "stability.simulate_system", "mean", 1e3),
    ("stability.simulate_factors_us", "us", "stability.simulate_factors", "mean", 1e6),
    ("stability.accsgd_stability_us", "us", "stability.accsgd_stability", "mean", 1e6),
    ("linalg.eig2x2_us", "us", "linalg.eig2x2", "mean", 1e6),
    ("linalg.solve_discrete_lyapunov2_us", "us", "linalg.solve_discrete_lyapunov2", "mean", 1e6),
]
STEP_SPAN = "problems.MlpLsrProblem.value_and_grad"


class Outcome:
    """What a workload hands back: operation counts, problems, metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_times: list[float] = []
        self.rounds: list[tuple[int, float]] = []  # (steps or analyses, timed seconds)
        self.peak_rss_mb = math.nan
        self.layer: dict[str, float] = {}


# --- training workloads ---------------------------------------------------


def write_digits(data_dir: Path, seed: int):
    from pls_lab import datasets, idx

    data_dir.mkdir(parents=True, exist_ok=True)
    for split, count, data_seed in (
        ("train", TRAIN_SAMPLES, 10_000 + seed),
        ("test", TEST_SAMPLES, 20_000 + seed),
    ):
        images, labels = datasets.synthetic_digits(count, data_seed)
        idx.write_idx(data_dir / f"{split}-images.idx", images)
        idx.write_idx(data_dir / f"{split}-labels.idx", labels)


def job_config(data_dir: Path, *, algorithm, rate, seed, batch_size, steps) -> dict:
    return {
        "problem": {
            "kind": "mlp-classification",
            "layers": LAYERS,
            "images": str(data_dir / "train-images.idx"),
            "labels": str(data_dir / "train-labels.idx"),
            "test_images": str(data_dir / "test-images.idx"),
            "test_labels": str(data_dir / "test-labels.idx"),
            "l2": 1e-4,
            "num_classes": 10,
        },
        "algorithm": algorithm,
        "rate": rate,
        "steps": steps,
        "seed": seed,
        "batch_size": batch_size,
        "test_every": 50,
        "limit": TRAIN_SAMPLES,
    }


def pls(eta0, eps):
    return {"kind": "pls", "eta0": eta0, "eps1": eps, "eps2": eps, "per_group": True}


def grid_round(rng: random.Random, data_dir: Path) -> list[dict]:
    common = dict(algorithm="sgd", batch_size=100, steps=GRID_STEPS)
    return [
        job_config(data_dir, rate=pls(0.002, 0.01), seed=rng.randrange(1, 1 << 31), **common),
        job_config(data_dir, rate={"kind": "fixed", "eta": rng.choice(FIXED_GRID)},
                   seed=rng.randrange(1, 1 << 31), **common),
    ]


def moments_round(rng: random.Random, data_dir: Path) -> list[dict]:
    common = dict(batch_size=10, steps=MOMENT_STEPS)
    return [
        job_config(data_dir, algorithm="amsgrad", rate=pls(0.001, 0.01),
                   seed=rng.randrange(1, 1 << 31), **common),
        job_config(data_dir, algorithm="accsgd", rate=pls(0.001, 0.001),
                   seed=rng.randrange(1, 1 << 31), **common),
    ]


def training_setup(data_dir: Path, seed: int, make_round) -> list[float]:
    """Times to write the digit files, read them and build the first
    round's configs and problems."""
    from pls_lab import config, runner

    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        write_digits(data_dir, seed)
        for d in make_round(random.Random(seed), data_dir):
            runner.build_problem(config.ExperimentConfig.from_dict(d))
        times.append(time.perf_counter() - start)
    return times


def check_training(jobs: list[tuple[dict, Path]]) -> list[str]:
    problems = []
    replayed = set()
    for cfg, run_dir in jobs:
        key = (cfg["algorithm"], json.dumps(cfg["rate"], sort_keys=True))
        ref_rows = None
        if key not in replayed:
            replayed.add(key)
            ref_rows = reference.replay(cfg, REPLAY_STEPS)
        try:
            records = (run_dir / "records.csv").read_text()
            summary = json.loads((run_dir / "summary.json").read_text())
        except FileNotFoundError as exc:
            problems.append(f"{run_dir.name}: {exc}")
            continue
        problems += [f"{run_dir.name}: {p}" for p in checks.check_run(cfg, records, summary, ref_rows)]
    return problems


def run_grid_workload(seed: int, seconds: float, out: Path) -> Outcome:
    from pls_lab import runner

    res = Outcome()
    data_dir = out / "data"
    res.setup_times += training_setup(data_dir, seed, grid_round)
    rng = random.Random(seed)
    jobs = []
    job_wall_ms = 0.0
    (out / "configs").mkdir()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        paths = []
        for k, cfg in enumerate(grid_round(rng, data_dir)):
            path = out / "configs" / f"r{len(res.rounds):04d}-{k}.json"
            path.write_text(json.dumps(cfg))
            paths.append(str(path))
            jobs.append((cfg, out / "grid" / path.stem))
        res.attempted += len(paths)
        start = time.perf_counter()
        try:
            summaries = runner.run_grid(paths, str(out / "grid"), workers=2)
        except Exception:  # the whole call fails: count its jobs
            res.failed += len(paths)
            res.problems.append(traceback.format_exc())
            summaries = []
        res.rounds.append((sum(s["steps_completed"] for s in summaries),
                           time.perf_counter() - start))
        job_wall_ms += sum(s["wall_ms_total"] for s in summaries)
    work, timed = map(sum, zip(*res.rounds))
    res.layer["runner.grid_pool_efficiency"] = job_wall_ms / 1e3 / (2 * timed)
    res.layer["runner.grid_job_step_ms"] = job_wall_ms / work if work else 0.0
    res.peak_rss_mb = peak_rss_mb()
    res.problems += check_training(jobs)
    res.setup_times += training_setup(data_dir, seed, grid_round)
    return res


def run_moments_workload(seed: int, seconds: float, out: Path) -> Outcome:
    from pls_lab import config, runner

    res = Outcome()
    data_dir = out / "data"
    res.setup_times += training_setup(data_dir, seed, moments_round)
    rng = random.Random(seed)
    jobs = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        steps, timed = 0, 0.0
        for k, cfg in enumerate(moments_round(rng, data_dir)):
            run_dir = out / "runs" / f"r{len(res.rounds):04d}-{k}"
            parsed = config.ExperimentConfig.from_dict(cfg)
            res.attempted += 1
            start = time.perf_counter()
            try:
                steps += runner.execute(parsed, run_dir)["steps_completed"]
                jobs.append((cfg, run_dir))
            except Exception:
                res.failed += 1
                res.problems.append(traceback.format_exc())
            timed += time.perf_counter() - start
        res.rounds.append((steps, timed))
    res.peak_rss_mb = peak_rss_mb()
    res.problems += check_training(jobs)
    res.setup_times += training_setup(data_dir, seed, moments_round)
    return res


# --- stability sweep ------------------------------------------------------


def _segments(system: str, p: dict):
    """Step-size intervals on which the window verdict and contraction
    are both constant, as (lo, hi, agree)."""
    w_lo, w_hi, _ = reference.window(system, p)
    c_lo, c_hi = reference.contraction_interval(system, p)
    points = {w_lo, w_hi}
    if c_lo < c_hi:
        points |= {c_lo, c_hi}
    points = sorted(v for v in points if math.isfinite(v) and (system == "t3" or v > 0.0))
    if len(points) < 2:
        return []
    span = points[-1] - points[0]
    # t1 and t2 take positive step sizes; t3's window can reach below zero
    start = points[0] - span if system == "t3" else points[0] / 4.0
    edges = [start, *points, points[-1] + span]
    segments = []
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo < 1e-3 * span:
            continue
        mid = 0.5 * (lo + hi)
        contracts = reference.spectral_radius(system, dict(p, eta=mid)) < p["rho"]
        segments.append((lo, hi, reference.window_verdict(system, p, mid) == contracts))
    return segments


def _draw_params(system: str, rng: random.Random) -> dict:
    L = 10.0 ** rng.uniform(-1.0, 1.0)
    if system == "t1":
        return {"L": L, "rho": rng.uniform(0.05, 0.95)}
    if system == "t2":
        return {"beta1": rng.uniform(0.5, 0.99), "sqrtvhat": 10.0 ** rng.uniform(-2.0, 0.0),
                "L": L, "rho": rng.uniform(0.3, 0.999)}
    kappa = 10.0 ** rng.uniform(1.0, 3.7)
    return {"kappa": kappa, "xi": rng.uniform(0.05, 1.0) * math.sqrt(kappa), "L": L,
            "rho": rng.uniform(0.5, 0.999)}


def stability_draws(system: str, rng: random.Random) -> list[dict]:
    """Three analyses of one seeded system: eta below the window and above
    it where the window verdict is right, and eta where it is wrong (the
    named fault). Parameters without all three kinds of interval are
    drawn again, so every round has exactly one wrong verdict per system.
    """
    while True:
        p = _draw_params(system, rng)
        w_lo, w_hi, _ = reference.window(system, p)
        segs = _segments(system, p)
        below = [s for s in segs if s[2] and s[1] <= w_lo]
        above = [s for s in segs if s[2] and s[0] >= w_hi]
        wrong = [s for s in segs if not s[2]]
        if not (below and above and wrong):
            continue
        draws = []
        for pool in (below, above, wrong):
            lo, hi, _ = rng.choice(pool)
            eta = lo + (0.1 + 0.8 * rng.random()) * (hi - lo)
            draws.append(dict(p, eta=eta))
        if all(abs(reference.spectral_radius(system, d) - d["rho"]) > 1e-6 for d in draws):
            return draws


def stability_argv(system: str, p: dict) -> list[str]:
    names = {"t1": ("L", "rho", "eta"), "t2": ("beta1", "sqrtvhat", "L", "eta", "rho"),
             "t3": ("kappa", "xi", "L", "eta", "rho")}[system]
    # "--eta=-5e-05", not "--eta -5e-05": argparse reads a negative number
    # in exponent form as an option name
    return ["stability", system] + [f"--{name}={float(p[name])!r}" for name in names]


def import_seconds() -> list[float]:
    """Start-up times of fresh interpreters that import the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pls_lab.cli"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_stability_workload(seed: int, seconds: float, out: Path) -> Outcome:
    from pls_lab import cli

    res = Outcome()
    res.setup_times += import_seconds()
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        chunk = [
            (system, p)
            for _ in range(STABILITY_CHUNK)
            for system in ("t1", "t2", "t3")
            for p in stability_draws(system, rng)
        ]
        argvs = [stability_argv(system, p) for system, p in chunk]
        outputs = []
        start = time.perf_counter()
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
                except Exception:
                    code = traceback.format_exc()
            outputs.append((code, buf.getvalue()))
        res.rounds.append((len(argvs), time.perf_counter() - start))
        for (system, p), (code, text) in zip(chunk, outputs):
            problems, failed = checks.check_analysis(system, p, code, text)
            res.problems += problems
            res.failed += failed
    res.attempted = sum(n for n, _ in res.rounds)
    res.peak_rss_mb = peak_rss_mb()
    res.setup_times += import_seconds()
    return res


# --- reporting ------------------------------------------------------------


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def throughput(rounds) -> float:
    work, seconds = map(sum, zip(*rounds))
    return work / seconds


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    with contextlib.suppress(TypeError, KeyError):
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def layer_metrics(spans: dict, workload_values: dict) -> dict:
    steps = spans.get(STEP_SPAN, [0])[0]
    metrics = {}
    for name, unit, span, stat, scale in PER_LAYER:
        calls, total, self_total, faults = spans.get(span, [0, 0.0, 0.0, 0])
        if stat == "workload":
            value = workload_values.get(name, 0.0)
        elif stat == "calls":
            value = calls
        elif stat == "mean":
            value = total / calls * scale if calls else 0.0
        elif stat == "self":
            value = self_total / calls * scale if calls else 0.0
        elif stat == "self_per_step":
            value = self_total / steps * scale if steps else 0.0
        else:  # faults_per_step
            value = faults / steps if steps else 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics


WORKLOADS = {
    "grid-sgd-b100": run_grid_workload,
    "moments-b10": run_moments_workload,
    "stability-sweep": run_stability_workload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pls_lab" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'pls_lab'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pls_lab

    if Path(pls_lab.__file__).resolve().parent != SRC / "pls_lab":
        print(f"error: imported pls_lab from {pls_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out = HERE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = environment()
    tracer = None
    if args.trace:
        tracer = Tracer(out / "spans")
        tracer.install(TRACED_MODULES)

    res = WORKLOADS[args.workload](args.seed, args.seconds, out)

    end_to_end = {
        "setup_s": {"value": statistics.median(res.setup_times), "unit": "s"},
        "throughput": {"value": throughput(res.rounds), "unit": "1/s"},
        "peak_rss_mb": {"value": res.peak_rss_mb, "unit": "MB"},
    }
    span_stats = tracer.merged() if tracer else {}
    per_layer = layer_metrics(span_stats, res.layer) if tracer else {}
    correct = not res.problems
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "problems": res.problems,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "rounds": res.rounds,
        "setup_times": res.setup_times,
        "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2], "minor_faults": v[3]}
                  for k, v in sorted(span_stats.items())},
    }
    (out / "result.json").write_text(json.dumps(report, indent=2) + "\n")

    print("environment: " + json.dumps(env, sort_keys=True))
    for problem in res.problems[:20]:
        print(f"WRONG: {problem}")
    print(f"{args.workload}: attempted {res.attempted}, failed {res.failed}, correct {correct}")
    for name, m in {**end_to_end, **per_layer}.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    metrics = per_layer if tracer else end_to_end
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
