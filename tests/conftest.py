import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from pls_lab.datasets import synthetic_digits
from pls_lab.idx import write_idx
from pls_lab.runner import _job_environment

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.get_closest_marker("acceptance"):
        _ACCEPTANCE_RESULTS.append((item.name, "PASS" if report.passed else "FAIL"))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, verdict in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"ACCEPTANCE {name}: {verdict}")


@contextmanager
def traced():
    """Trace the block's allocations with tracemalloc. On exit the yielded
    record's ``peak`` is the most bytes the block held at once and
    ``held`` the bytes it still held at its end."""
    mem = SimpleNamespace(peak=0, held=0)
    tracemalloc.start()
    try:
        yield mem
        mem.held, mem.peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def fresh_python(*args, env=None, **kwargs):
    """``subprocess.run`` of ``python *args`` in a fresh interpreter, in the
    environment a job gets (``runner._job_environment()``) unless ``env``
    is given, with a 60 s timeout."""
    return subprocess.run([sys.executable, *args], env=_job_environment() if env is None else env,
                          timeout=60, **kwargs)


def _write_split(out_dir, name, count, seed, rows, cols):
    images, labels = synthetic_digits(count, seed=seed, rows=rows, cols=cols)
    write_idx(out_dir / f"{name}-images.idx", images)
    write_idx(out_dir / f"{name}-labels.idx", labels)


@pytest.fixture(scope="session")
def digits_dir(tmp_path_factory):
    """Full-size (28x28) synthetic digit IDX files: 1000 train + 200 test."""
    out = tmp_path_factory.mktemp("digits28")
    _write_split(out, "train", 1000, seed=5, rows=28, cols=28)
    _write_split(out, "test", 200, seed=6, rows=28, cols=28)
    return out


@pytest.fixture(scope="session")
def small_digits_dir(tmp_path_factory):
    """Small (8x8) synthetic digit IDX files for fast harness tests."""
    out = tmp_path_factory.mktemp("digits8")
    _write_split(out, "train", 300, seed=11, rows=8, cols=8)
    _write_split(out, "test", 60, seed=12, rows=8, cols=8)
    return out


def mlp_classification_config(data_dir, *, layers, steps, seed, rate, limit=None,
                              algorithm="sgd", batch_size=100, extra=None):
    """Config dict for an image-classification run on an IDX directory."""
    cfg = {
        "problem": {
            "kind": "mlp-classification",
            "layers": layers,
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
    }
    if limit is not None:
        cfg["limit"] = limit
    if extra:
        cfg.update(extra)
    return cfg
