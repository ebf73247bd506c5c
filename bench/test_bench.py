"""Tests of the benchmark's reference and checks.

    python3 -m pytest -q bench/test_bench.py

The reference must reproduce hand-checked numbers, and each check must
pass the program's real output and reject a deliberately wrong copy.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402


def test_splitmix64_matches_the_published_stream():
    # the first outputs of SplitMix64 seeded with 0
    assert [int(v) for v in reference.SplitMix64(0).raw(2)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
    ]


def test_hand_checked_step_on_a_tiny_net():
    # 2-2-1 net, l2 = 0.5, one sample u = (1, 2) with target 3:
    # z1 = (2, 2), output 6.5, error 3.5; loss 6.125 + 0.25 * 11.25
    net = reference.Net([2, 2, 1], l2=0.5)
    x = np.array([1.0, -1.0, 0.5, 2.0, 0.0, -1.0, 2.0, 1.0, 0.5])
    loss, g = net.loss_and_grad(x, np.array([[1.0, 2.0]]), np.array([[3.0]]))
    assert loss == 8.9375
    np.testing.assert_array_equal(g, [7.5, 3.0, 14.25, 8.0, 7.0, 3.5, 8.0, 7.5, 3.5])
    assert net.groups == [slice(0, 6), slice(6, 9)]


def test_hand_checked_spectral_radius():
    # t1: factor 1 - 0.6 * 2 = -0.2 contracts at rho 0.5 though eta > 1/L
    p = {"L": 2.0, "rho": 0.5, "eta": 0.6}
    assert reference.spectral_radius("t1", p) == pytest.approx(0.2, abs=1e-15)
    assert not reference.window_verdict("t1", p)
    lo, hi = reference.contraction_interval("t1", p)
    assert (lo, hi) == pytest.approx((0.25, 0.75))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A real run of the program: 8x8 digits, 64-16-10 net, sgd+PLS."""
    from pls_lab.datasets import synthetic_digits
    from pls_lab.idx import write_idx
    from pls_lab.runner import execute_config

    root = tmp_path_factory.mktemp("tiny")
    for split, count, seed in (("train", 120, 3), ("test", 40, 4)):
        images, labels = synthetic_digits(count, seed, rows=8, cols=8)
        write_idx(root / f"{split}-images.idx", images)
        write_idx(root / f"{split}-labels.idx", labels)
    cfg = run.job_config(root, algorithm="sgd", rate=run.pls(0.01, 0.01), seed=9,
                         batch_size=20, steps=12)
    cfg["problem"]["layers"] = [64, 16, 10]
    cfg["limit"] = 120
    summary = execute_config(cfg, str(root / "out"))
    return cfg, (root / "out" / "records.csv").read_text(), summary


def test_training_check_passes_real_output(tiny_run):
    cfg, records, summary = tiny_run
    assert checks.check_run(cfg, records, summary, reference.replay(cfg, 6)) == []


@pytest.mark.parametrize("iteration", [1, 3, 9])
def test_training_check_rejects_a_scaled_rate(tiny_run, iteration):
    cfg, records, summary = tiny_run
    lines = records.splitlines()
    header = lines[0].split(",")
    cells = lines[iteration + 1].split(",")
    col = header.index("lr_g1")
    cells[col] = repr(float(cells[col]) * (1 + 1e-6))
    lines[iteration + 1] = ",".join(cells)
    bad = "\n".join(lines) + "\n"
    assert checks.check_run(cfg, bad, summary, reference.replay(cfg, 6))
    assert checks.check_run(cfg, bad, summary)  # the rate rule alone


def test_training_check_rejects_records_cut_short(tiny_run):
    cfg, records, summary = tiny_run
    short = "\n".join(records.splitlines()[:-1]) + "\n"
    assert checks.check_run(cfg, short, summary)


def _analysis(system, params):
    from pls_lab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(run.stability_argv(system, params))
    return code, buf.getvalue()


def test_analysis_check_passes_and_counts_the_named_fault():
    code, text = _analysis("t1", {"L": 2.0, "rho": 0.5, "eta": 0.6})
    problems, failed = checks.check_analysis("t1", {"L": 2.0, "rho": 0.5, "eta": 0.6}, code, text)
    assert problems == [] and failed


@pytest.mark.parametrize("system", ["t2", "t3"])
def test_analysis_check_rejects_a_flipped_certificate(system):
    for params in run.stability_draws(system, random.Random(5)):
        code, text = _analysis(system, params)
        assert checks.check_analysis(system, params, code, text)[0] == []
        out = json.loads(text)
        out["lmi_feasible"] = not out["lmi_feasible"]
        assert checks.check_analysis(system, params, code, json.dumps(out))[0]


def test_every_stability_round_has_one_wrong_verdict_per_system():
    rng = random.Random(11)
    for _ in range(20):
        for system in ("t1", "t2", "t3"):
            draws = run.stability_draws(system, rng)
            wrong = [
                reference.window_verdict(system, d)
                != (reference.spectral_radius(system, d) < d["rho"])
                for d in draws
            ]
            assert wrong == [False, False, True]
