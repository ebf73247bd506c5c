"""End-to-end acceptance criteria.

Each test is one criterion at its stated tolerance; the terminal summary
prints one PASS/FAIL line per criterion. The image-classification criteria
share one synthetic digit fixture (written and read through the IDX codec)
and run their training grids through a process pool.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from pls_lab.linalg import Matrix2, eig2x2, solve_discrete_lyapunov2, spectral_radius2
from pls_lab.optimizers import FixedRate, PlsRate, run_optimizer
from pls_lab.problems import MlpLsrProblem, QuadraticProblem, finite_diff_grad, glorot_init
from pls_lab.rng import SeededRng
from pls_lab.runner import build_problem, execute_config, run_grid
from pls_lab.stability import (
    accsgd_nominal_eigenvalues,
    accsgd_stability,
    amsgrad_discriminant,
    amsgrad_rate_window,
    amsgrad_system,
)
from pls_lab.config import ExperimentConfig

from _oracles import run_with_iterates
from conftest import mlp_classification_config

pytestmark = pytest.mark.acceptance

BIG_LAYERS = [784, 500, 500, 10]
GRID = (0.011, 0.009, 0.008, 0.007, 0.006, 0.005, 0.004)
SEEDS = (1, 2, 3, 4, 5)


def _run_jobs(jobs):
    """jobs: list of (config_dict, out_dir) -> list of summary dicts. The
    out dirs share one parent; each config is written next to its out dir
    as <out-dir-name>.json and the grid runs them on 2 workers."""
    paths = []
    for cfg, out in jobs:
        path = Path(f"{out}.json")
        path.write_text(json.dumps(cfg))
        paths.append(path)
    return run_grid(paths, Path(jobs[0][1]).parent, workers=2)


def _pls_rate(eta0=0.002, eps=0.01):
    return {"kind": "pls", "eta0": eta0, "eps1": eps, "eps2": eps, "per_group": True}


@pytest.fixture(scope="session")
def explosion_runs(digits_dir, tmp_path_factory):
    """Shared runs for criteria 7 and 8: 5 seeds of fixed 0.05 and of the
    adaptive rule at eta0=0.002 on the 784-500-500-10 net."""
    out_root = tmp_path_factory.mktemp("explosion")
    jobs = []
    for seed in SEEDS:
        fixed = mlp_classification_config(
            digits_dir, layers=BIG_LAYERS, steps=500, seed=seed,
            rate={"kind": "fixed", "eta": 0.05}, limit=1000,
        )
        adaptive = mlp_classification_config(
            digits_dir, layers=BIG_LAYERS, steps=500, seed=seed,
            rate=_pls_rate(), limit=1000,
        )
        jobs.append((fixed, str(out_root / f"fixed-{seed}")))
        jobs.append((adaptive, str(out_root / f"pls-{seed}")))
    summaries = _run_jobs(jobs)
    return {
        "fixed": summaries[0::2],
        "pls": summaries[1::2],
        "pls_dirs": [out_root / f"pls-{seed}" for seed in SEEDS],
    }


def test_c01_descent_rate_window_reproduced():
    """(rho, eta) grid inside the descent window contracts at rho^t; a step
    beyond the window with |factor| > 1 demonstrably diverges; < 1 s."""
    t_start = time.perf_counter()
    curvature = 2.0
    steps = 200
    for rho in np.linspace(0.05, 0.95, 10):
        lo, hi = (1.0 - rho) / curvature, 1.0 / curvature
        for k in range(10):
            eta = lo + (hi - lo) * (k + 0.5) / 10.0
            factor = 1.0 - eta * curvature
            z, bound = 1.0, 1.0
            for _ in range(steps):
                z *= factor
                bound *= rho
                assert abs(z) <= bound * (1.0 + 1e-12)

    # the same contraction on the actual optimizer, full batch
    prob = QuadraticProblem.random(3, 10, curvature, 1.0, SeededRng(2))
    x0 = prob.x_star + np.array([1.0, -0.5, 0.25])
    rho, eta = 0.5, 0.4  # inside (0.25, 0.5)
    _, xs = run_with_iterates(prob, "sgd", FixedRate(eta), steps=steps, seed=1, x0=x0,
                              batch_size=prob.n)
    dist = np.linalg.norm(xs - prob.x_star, axis=1)
    bounds = dist[0] * rho ** np.arange(steps + 1)
    assert np.all(dist <= bounds * (1.0 + 1e-12))

    # |1 - eta*L| = 1.5 > 1: the divergence detector must fire
    res = run_optimizer(prob, "sgd", FixedRate(2.5 / curvature), steps=steps,
                        seed=1, x0=x0, batch_size=prob.n)
    assert res.diverged

    assert time.perf_counter() - t_start < 1.0


def test_c02_moment_system_radius_and_boundary():
    """Inside the open rate window the 2x2 moment system has spectral
    radius sqrt(beta1) to 1e-9 over 1e4 draws; the discriminant vanishes on
    the window boundaries; < 1 s."""
    t_start = time.perf_counter()
    rng = SeededRng(21)
    for _ in range(10_000):
        beta = rng.uniform(0.01, 0.99)
        sqrt_vhat = rng.uniform(0.1, 10.0)
        L = rng.uniform(0.1, 10.0)
        lo, hi = amsgrad_rate_window(beta, sqrt_vhat, L)
        eta = lo + (hi - lo) * rng.uniform(0.05, 0.95)
        sr = spectral_radius2(amsgrad_system(beta, eta, L, sqrt_vhat))
        assert abs(sr - math.sqrt(beta)) <= 1e-9
        assert abs(amsgrad_discriminant(beta, lo, L, sqrt_vhat)) <= 1e-9
        assert abs(amsgrad_discriminant(beta, hi, L, sqrt_vhat)) <= 1e-9
    assert time.perf_counter() - t_start < 1.0


def test_c03_certificate_feasibility_equals_radius_test():
    """Discrete Lyapunov feasibility agrees with spectral radius < rho on
    1e4 random 2x2 systems, zero disagreements outside a 1e-9 boundary."""
    rng = SeededRng(31)
    disagreements = 0
    checked = 0
    while checked < 10_000:
        m = Matrix2(*rng.uniform_array(4, -1.0, 1.0))
        rho = rng.uniform(0.05, 1.3)
        sr = spectral_radius2(m)
        if abs(sr - rho) <= 1e-9:
            continue
        checked += 1
        try:
            p = solve_discrete_lyapunov2(m, rho)
            feasible = p is not None
        except Exception:
            feasible = False
            assert sr > rho  # resonance only exists above the rate
        if feasible != (sr < rho):
            disagreements += 1
    assert disagreements == 0


def test_c04_accelerated_system_closed_form():
    """Window verdict must match both nominal values in (0, rho); the
    spectrum of the state matrix must match its closed form to 1e-10.

    The nominal pair (l1, l2) = (alpha, (1-b)(1-eta*L)) keeps the
    determinant of the state matrix but not its trace, which is larger by
    delta = b*(1-alpha)*(1-a*eta*L). The spectrum is therefore the pair of
    roots of lam^2 - (l1 + l2 + delta)*lam + l1*l2, compared with eig2x2
    as an unordered pair (complex-conjugate on about a fifth of the draws)."""
    rng = SeededRng(41)
    checked = 0
    while checked < 10_000:
        kappa = rng.uniform(1.0, 2000.0)
        xi = rng.uniform(0.1, math.sqrt(kappa))
        L = rng.uniform(0.1, 10.0)
        eta = rng.uniform(-0.5, 1.5) / L
        rho = rng.uniform(0.05, 0.999)
        lam = accsgd_nominal_eigenvalues(kappa, xi, eta, L)
        if min(abs(lam[0] - rho), abs(lam[1] - rho), abs(lam[0]), abs(lam[1])) <= 1e-9:
            continue
        verdict = accsgd_stability(kappa, xi, eta, L, rho)
        assert verdict.stable == ((0.0 < lam[0] < rho) and (0.0 < lam[1] < rho))
        checked += 1

    import cmath

    from pls_lab.optimizers import accsgd_coefficients
    from pls_lab.stability import accsgd_system

    rng = SeededRng(42)
    worst = 0.0
    worst_case = None
    for _ in range(10_000):
        kappa = rng.uniform(1.0, 2000.0)
        xi = rng.uniform(0.1, math.sqrt(kappa))
        L = rng.uniform(0.1, 10.0)
        eta = rng.uniform(-0.5, 1.5) / L
        l1, l2 = accsgd_nominal_eigenvalues(kappa, xi, eta, L)
        alpha, a, b = accsgd_coefficients(kappa, xi)
        delta = b * (1.0 - alpha) * (1.0 - a * eta * L)
        tr = l1 + l2 + delta
        root = cmath.sqrt(tr * tr - 4.0 * l1 * l2)
        lam_closed = ((tr + root) / 2.0, (tr - root) / 2.0)
        lam_true = eig2x2(accsgd_system(kappa, xi, eta, L))
        gap = min(
            max(abs(lam_true[0] - lam_closed[0]), abs(lam_true[1] - lam_closed[1])),
            max(abs(lam_true[0] - lam_closed[1]), abs(lam_true[1] - lam_closed[0])),
        )
        if gap > worst:
            worst, worst_case = gap, (kappa, xi, eta, L, lam_closed, lam_true)
    assert worst <= 1e-10, (
        "closed-form roots are not the spectrum of the state matrix: worst "
        f"gap {worst:.6g} at (kappa, xi, eta, L, closed, true) = {worst_case}"
    )


def test_c05_smoothness_exact_on_quadratics():
    """On isotropic quadratics the prediction recovers the curvature to
    1e-6 relative after the bootstrap, and the adaptive descent contracts
    at 1 - eta0 within 0.02 per step."""
    for curvature in (0.1, 1.0, 10.0):
        prob = QuadraticProblem.random(4, 10, curvature, 1.0, SeededRng(3))
        x0 = prob.x_star + np.full(4, 0.8)
        src = PlsRate(prob.layer_partition, 0.5, 1e-8, 1e-8)
        res, xs = run_with_iterates(prob, "sgd", src, steps=20, seed=1, x0=x0,
                                    batch_size=prob.n)
        assert not res.diverged
        # right after the bootstrap the displacement is macroscopic, so the
        # eps1 bias is negligible; much later r -> 0 and the bias dominates
        for rec in res.records[2:6]:
            assert abs(rec.l_hats[0] - curvature) / curvature < 1e-6
        dist = np.linalg.norm(xs - prob.x_star, axis=1)
        factors = dist[3:16] / dist[2:15]
        assert np.all(np.abs(factors - 0.5) <= 0.02), f"curvature {curvature}: {factors}"


def test_c06_gradients_match_oracle(digits_dir):
    """Backprop vs central differences: full gradient on a 10-8-5 net at 20
    random points; 20 sampled coordinates on the 784-500-500-10 net over the
    1000-sample digit subset; both at 1e-5 relative, under 30 s."""
    t_start = time.perf_counter()

    rng = SeededRng(61)
    inputs = rng.uniform_array(64 * 10).reshape(64, 10)
    targets = rng.uniform_array(64 * 5).reshape(64, 5)
    small = MlpLsrProblem([10, 8, 5], inputs, targets, l2=1e-4)
    batch = np.arange(small.n)
    for k in range(20):
        x = glorot_init([10, 8, 5], rng.spawn(k))
        ga = small.grad(x, batch)
        gn = finite_diff_grad(small, x, batch)
        assert np.linalg.norm(ga - gn) / np.linalg.norm(ga) < 1e-5

    cfg = ExperimentConfig.from_dict(
        mlp_classification_config(
            digits_dir, layers=BIG_LAYERS, steps=0, seed=7,
            rate={"kind": "fixed", "eta": 0.01}, limit=1000,
        )
    )
    big, x0, _ = build_problem(cfg)
    assert big.n == 1000
    crng = SeededRng(62)
    batch = crng.index_array(100, big.n)
    ga = big.grad(x0, batch)
    eligible = np.flatnonzero(np.abs(ga) >= 1e-3 * np.abs(ga).max())
    coords = eligible[crng.index_array(20, eligible.size)]
    gn = finite_diff_grad(big, x0, batch, coords=coords)
    rel = np.abs(ga[coords] - gn) / np.maximum(np.abs(ga[coords]), np.abs(gn))
    assert rel.max() < 1e-5

    assert time.perf_counter() - t_start < 30.0


def test_c07_explosion_alleviated(explosion_runs):
    """Fixed eta=0.05 hits the divergence detector within 500 steps on at
    least 4 of 5 seeds; the adaptive rule at eta0=0.002 finishes all 500
    steps finitely on every seed."""
    fixed = explosion_runs["fixed"]
    diverged = [s["diverged"] and s["divergence_step"] <= 500 for s in fixed]
    assert sum(diverged) >= 4, f"fixed-rate divergence per seed: {diverged}"
    adaptive = explosion_runs["pls"]
    assert all(not s["diverged"] for s in adaptive)
    assert all(s["steps_completed"] == 500 for s in adaptive)


def test_c08_adaptive_rates_rise_from_initial_stage(explosion_runs):
    """Per-layer mean rate over iterations 1-50 must sit below the mean
    over 51-200 for every layer group of every adaptive run."""
    failures = []
    for out_dir in explosion_runs["pls_dirs"]:
        lines = (out_dir / "records.csv").read_text().splitlines()
        header = lines[0].split(",")
        lr_cols = [i for i, name in enumerate(header) if name.startswith("lr_g")]
        rows = [line.split(",") for line in lines[1:]]
        for col in lr_cols:
            early = np.mean([float(r[col]) for r in rows[1:51]])
            late = np.mean([float(r[col]) for r in rows[51:201]])
            if not early < late:
                failures.append((out_dir.name, header[col], early, late))
    assert not failures, (
        "adaptive rates do not rise out of the initial stage: "
        + "; ".join(f"{run}/{col}: mean(1-50)={a:.3e} vs mean(51-200)={b:.3e}"
                    for run, col, a, b in failures)
    )


def test_c09_adaptive_beats_tuned_fixed_rate(digits_dir, tmp_path):
    """2000-step comparison: the adaptive descent's final full training
    loss must not exceed the best fixed rate from the grid on at least 3 of
    5 seeds; moment/momentum comparisons are reported (not asserted); the
    whole protocol must finish inside 5 minutes."""
    t_start = time.perf_counter()
    jobs = []
    for seed in SEEDS:
        jobs.append((mlp_classification_config(
            digits_dir, layers=BIG_LAYERS, steps=2000, seed=seed,
            rate=_pls_rate(), limit=1000), str(tmp_path / f"pls-{seed}")))
        for eta in GRID:
            jobs.append((mlp_classification_config(
                digits_dir, layers=BIG_LAYERS, steps=2000, seed=seed,
                rate={"kind": "fixed", "eta": eta}, limit=1000),
                str(tmp_path / f"sgd-{eta}-{seed}")))
    report_jobs = [
        ("amsgrad_fixed", mlp_classification_config(
            digits_dir, layers=BIG_LAYERS, steps=2000, seed=1,
            rate={"kind": "fixed", "eta": 0.004}, limit=1000, algorithm="amsgrad")),
        ("amsgrad_adaptive", mlp_classification_config(
            digits_dir, layers=BIG_LAYERS, steps=2000, seed=1,
            rate=_pls_rate(eta0=0.001), limit=1000, algorithm="amsgrad")),
        ("accsgd_fixed", mlp_classification_config(
            digits_dir, layers=BIG_LAYERS, steps=2000, seed=1,
            rate={"kind": "fixed", "eta": 0.004}, limit=1000, algorithm="accsgd")),
        ("accsgd_adaptive", mlp_classification_config(
            digits_dir, layers=BIG_LAYERS, steps=2000, seed=1,
            rate=_pls_rate(eta0=0.001, eps=0.001), limit=1000, algorithm="accsgd")),
    ]
    jobs.extend((cfg, str(tmp_path / name)) for name, cfg in report_jobs)
    summaries = _run_jobs(jobs)

    per_seed = {seed: {} for seed in SEEDS}
    idx = 0
    for seed in SEEDS:
        per_seed[seed]["pls"] = summaries[idx]
        idx += 1
        for eta in GRID:
            per_seed[seed][eta] = summaries[idx]
            idx += 1
    reports = {name: summaries[idx + k] for k, (name, _) in enumerate(report_jobs)}

    def final_loss(summary):
        if summary["diverged"] or summary["final_train_loss"] is None:
            return math.inf
        return summary["final_train_loss"]

    table = []
    wins = 0
    for seed in SEEDS:
        pls_loss = final_loss(per_seed[seed]["pls"])
        grid_losses = {eta: final_loss(per_seed[seed][eta]) for eta in GRID}
        best_eta = min(grid_losses, key=grid_losses.get)
        best = grid_losses[best_eta]
        won = pls_loss <= best
        wins += won
        table.append({"seed": seed, "adaptive": pls_loss, "best_fixed": best,
                      "best_eta": best_eta, "won": won})

    comparison = {
        "per_seed": table,
        "wins": wins,
        "reported": {
            name: {"final_train_loss": reports[name]["final_train_loss"],
                   "diverged": reports[name]["diverged"]}
            for name in reports
        },
        "elapsed_seconds": time.perf_counter() - t_start,
    }
    (tmp_path / "comparison.json").write_text(json.dumps(comparison, indent=2))
    print(json.dumps(comparison, indent=2))

    rows = "; ".join(
        f"seed {r['seed']}: adaptive {r['adaptive']:.4f} vs best fixed "
        f"{r['best_fixed']:.4f} (eta={r['best_eta']})" for r in table
    )
    assert wins >= 3, f"adaptive won on {wins}/5 seeds ({rows})"
    assert comparison["elapsed_seconds"] < 300.0


def test_c10_reproducibility(small_digits_dir, tmp_path):
    """Byte-identical records.csv on reruns of the same config+seed, for a
    quadratic and a network run; IDX files survive a read-write round trip
    byte-exactly."""
    quad = {
        "problem": {"kind": "quadratic", "dim": 6, "curvature": 1.5, "n_samples": 30},
        "algorithm": "accsgd",
        "rate": _pls_rate(eta0=0.01),
        "steps": 80,
        "seed": 13,
        "batch_size": 10,
    }
    execute_config(quad, tmp_path / "q1")
    execute_config(quad, tmp_path / "q2")
    assert (tmp_path / "q1/records.csv").read_bytes() == (
        tmp_path / "q2/records.csv"
    ).read_bytes()

    mlp = mlp_classification_config(
        small_digits_dir, layers=[64, 16, 16, 10], steps=40, seed=5,
        rate=_pls_rate(eta0=0.01), limit=150, batch_size=25, algorithm="amsgrad",
    )
    execute_config(mlp, tmp_path / "m1")
    execute_config(mlp, tmp_path / "m2")
    assert (tmp_path / "m1/records.csv").read_bytes() == (
        tmp_path / "m2/records.csv"
    ).read_bytes()

    from pls_lab.idx import load_idx, write_idx

    src = small_digits_dir / "train-images.idx"
    copy = tmp_path / "copy.idx"
    write_idx(copy, load_idx(src))
    assert copy.read_bytes() == src.read_bytes()
