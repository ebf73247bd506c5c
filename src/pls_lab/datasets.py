"""Data loading from IDX files, and synthetic digit fixtures.

A split's inputs are its images flattened to uint8 rows, the bytes the
IDX file holds: ``problems.MlpLsrProblem`` divides the rows it reads by
255.0, into [0, 1]. Classification targets are float64 one-hot rows of
its labels; reconstruction targets are the inputs array itself.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import ConfigError, IdxFormatError
from .idx import load_idx
from .rng import SeededRng


def _load(path, field: str) -> np.ndarray:
    """``load_idx(path)``, its format errors naming the config key ``field``."""
    try:
        return load_idx(path)
    except IdxFormatError as exc:
        raise IdxFormatError(exc.args[0], exc.offset, field) from None


def load_split(images, labels, num_classes: int, split: str = "") -> tuple[np.ndarray, np.ndarray]:
    """``(inputs, targets)`` of one split from its IDX files: the images
    as unscaled uint8 rows, and one-hot float64 rows of the labels or,
    with no labels, the inputs array itself. A file that is not
    IDX raises IdxFormatError, and one that does not fit ConfigError, on
    ``problem.<split>images`` or ``problem.<split>labels``."""
    field = f"problem.{split}images"
    raw = _load(images, field)
    if raw.ndim != 3:
        raise ConfigError(field, "expected an image stack, got a label file")
    inputs = raw.reshape(len(raw), -1)
    if labels is None:
        return inputs, inputs
    field = f"problem.{split}labels"
    raw = _load(labels, field)
    if raw.ndim != 1:
        raise ConfigError(field, "expected a label file, got an image stack")
    if len(raw) != len(inputs):
        raise ConfigError(field, f"{len(raw)} labels for {len(inputs)} images")
    if raw.max() >= num_classes:
        raise ConfigError(field, f"labels must lie in [0, {num_classes}), found {raw.max()}")
    return inputs, np.eye(num_classes)[raw]


# Samples generated together: a chunk's draws and canvases take about 2 MB
# at 28x28 whatever n is, and each numpy call covers 64 samples, not one.
_CHUNK = 64
_BLOBS = 3  # strokes per class
# A sample's draws, in stream order: a (y, x) jitter per stroke, an
# amplitude per stroke, (y, x, width, amplitude) for each of 4 clutter
# blobs, the bold draw, then rows*cols paper draws. These are the ends of
# the groups before the paper. After the paper, when label_noise > 0,
# come the noise draw and, when that hits, a label draw.
_GROUP_ENDS = [2 * _BLOBS, 3 * _BLOBS, 3 * _BLOBS + 16, 3 * _BLOBS + 17]


def _scaled(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``SeededRng.uniform(lo, hi)`` of unit draws ``u``, the same operations."""
    return lo + (hi - lo) * u


def _add_blobs(canvas, ys, xs, cy, cx, w, amp):
    """canvas[k] += amp[k] * exp(-((ys - cy[k])**2 + (xs - cx[k])**2) / (2 w[k] w[k]))
    for each sample k of a chunk, in the order of operations of one sample."""
    t = ((ys - cy[:, None]) ** 2)[:, :, None] + ((xs - cx[:, None]) ** 2)[:, None, :]
    np.negative(t, out=t)
    t /= (2.0 * w * w)[:, None, None]
    np.exp(t, out=t)
    t *= amp[:, None, None]
    canvas += t


def synthetic_digits(
    n: int,
    seed: int,
    rows: int = 28,
    cols: int = 28,
    num_classes: int = 10,
    label_noise: float = 0.10,
) -> tuple[np.ndarray, np.ndarray]:
    """Digit-like uint8 image stack with balanced labels.

    Each class is a fixed arrangement of a few saturated strokes; samples
    jitter stroke centers and amplitudes, add class-uninformative clutter
    and paper-like background texture, and a small fraction of labels is
    resampled. The texture and occasional bold samples are deliberate:
    they raise the local curvature of network losses enough that step-size
    instability phenomena show up at desk scale (1000 samples, mini-batch
    gradients averaged over the batch) the way they do on full-size
    handwritten-digit corpora.

    Samples are drawn in order from one counter-based stream, so each
    sample's draws sit at a known offset. A scalar scan finds the label
    draws, which shift every later sample by one; then each chunk of
    samples takes its draws in one block and is rendered with whole-chunk
    operations, pixel by pixel the ones a sample-by-sample loop performs.
    """
    if n < 1 or rows < 1 or cols < 1:
        raise ValueError(f"n, rows and cols must be at least 1, got {n}, {rows}, {cols}")
    if not 0.0 <= label_noise <= 1.0:
        raise ValueError(f"label_noise must lie in [0, 1], got {label_noise}")
    rng = SeededRng(seed)
    class_rng = SeededRng(0xD161).spawn(7)
    centers = np.empty((num_classes, _BLOBS, 2))
    widths = np.empty((num_classes, _BLOBS))
    for k in range(num_classes):
        centers[k] = class_rng.uniform_array(_BLOBS * 2, 0.25, 0.75).reshape(_BLOBS, 2)
        widths[k] = class_rng.uniform_array(_BLOBS, 0.09, 0.16)

    classes = (np.arange(n) % num_classes).astype(np.int64)[rng.permutation(n)]
    labels = classes.copy()
    per_image = _GROUP_ENDS[-1] + rows * cols
    step = per_image + (label_noise > 0.0)
    scan = copy.copy(rng)
    ends = np.empty(n, dtype=np.int64)  # stream offset just past each sample
    end = 0
    for i in range(n):
        scan.skip(per_image)
        end += step
        if label_noise > 0.0 and scan.uniform() < label_noise:
            labels[i] = scan.randint(num_classes)
            end += 1
        ends[i] = end

    ys = np.arange(rows, dtype=np.float64) / rows
    xs = np.arange(cols, dtype=np.float64) / cols
    images = np.empty((n, rows, cols), dtype=np.uint8)
    first = 0
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        starts = np.concatenate(([first], ends[lo:hi - 1])) - first
        u = rng.uniform_array(ends[hi - 1] - first)
        first = ends[hi - 1]
        draws = u[starts[:, None] + np.arange(per_image)]  # (samples, per_image)
        jitter, amps, clutter, bold, paper = np.split(draws, _GROUP_ENDS, axis=1)
        jitter = _scaled(jitter, -0.10, 0.10)
        amps = _scaled(amps, 1.2, 1.9)
        canvas = np.zeros((hi - lo, rows, cols))
        c, w = centers[classes[lo:hi]], widths[classes[lo:hi]]
        for b in range(_BLOBS):
            _add_blobs(canvas, ys, xs, c[:, b, 0] + jitter[:, 2 * b],
                       c[:, b, 1] + jitter[:, 2 * b + 1], w[:, b], amps[:, b])
        for cy, cx, cw, amp in clutter.reshape(-1, 4, 4).transpose(1, 2, 0):
            _add_blobs(canvas, ys, xs, _scaled(cy, 0.05, 0.95), _scaled(cx, 0.05, 0.95),
                       _scaled(cw, 0.04, 0.12), _scaled(amp, 0.4, 1.5))
        canvas[bold[:, 0] < 0.10] *= 1.7  # occasional bold sample, a heavy intensity tail
        np.clip(canvas, 0.0, 1.0, out=canvas)
        canvas[canvas < 0.10] = 0.0
        canvas += _scaled(paper, 0.0, 0.30).reshape(canvas.shape)
        np.clip(canvas, 0.0, 1.0, out=canvas)
        canvas *= 255.0
        images[lo:hi] = np.round(canvas, out=canvas)
    return images, labels.astype(np.uint8)
