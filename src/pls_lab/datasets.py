"""Dataset assembly: IDX ingestion, subsetting, and synthetic fixtures.

Images are flattened to float64 rows scaled into [0, 1]; classification
targets are one-hot rows, reconstruction targets are the inputs
themselves. Subsetting shuffles with a seeded stream and takes a prefix,
so a given (seed, limit) always selects the same samples.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .idx import load_idx
from .rng import SeededRng


@dataclass
class Dataset:
    """Flattened train/test inputs plus optional integer labels."""

    train_inputs: np.ndarray  # (n, d) float64 in [0, 1]
    train_labels: np.ndarray | None
    test_inputs: np.ndarray | None = None
    test_labels: np.ndarray | None = None
    num_classes: int | None = None

    def __post_init__(self):
        if self.train_labels is not None:
            if self.train_labels.shape[0] != self.train_inputs.shape[0]:
                raise ValueError("label count does not match sample count")
            if self.num_classes is None:
                raise ValueError("labeled datasets must declare num_classes")
            for labels in (self.train_labels, self.test_labels):
                if labels is not None and (
                    labels.min() < 0 or labels.max() >= self.num_classes
                ):
                    raise ValueError("labels must lie in [0, num_classes)")

    @property
    def n(self) -> int:
        return self.train_inputs.shape[0]

    @property
    def d(self) -> int:
        return self.train_inputs.shape[1]

    def train_targets(self, task: str) -> np.ndarray:
        if task == "classification":
            if self.train_labels is None:
                raise ValueError("classification needs labels")
            return one_hot(self.train_labels, self.num_classes)
        if task == "reconstruction":
            return self.train_inputs
        raise ValueError("task must be 'classification' or 'reconstruction'")

    def test_targets(self, task: str) -> np.ndarray | None:
        if self.test_inputs is None:
            return None
        if task == "classification":
            if self.test_labels is None:
                return None
            return one_hot(self.test_labels, self.num_classes)
        return self.test_inputs


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _flatten_images(raw: np.ndarray) -> np.ndarray:
    n, rows, cols = raw.shape
    return raw.reshape(n, rows * cols).astype(np.float64) / 255.0


def from_idx(
    images_path,
    labels_path=None,
    test_images_path=None,
    test_labels_path=None,
    num_classes: int = 10,
) -> Dataset:
    """Load a dataset from IDX files; labels are optional (reconstruction)."""
    train_inputs = _flatten_images(load_idx(images_path))
    train_labels = None
    if labels_path is not None:
        train_labels = load_idx(labels_path).astype(np.int64)
    test_inputs = test_labels = None
    if test_images_path is not None:
        test_inputs = _flatten_images(load_idx(test_images_path))
        if test_labels_path is not None:
            test_labels = load_idx(test_labels_path).astype(np.int64)
    return Dataset(
        train_inputs,
        train_labels,
        test_inputs,
        test_labels,
        num_classes if train_labels is not None else None,
    )


def subset(dataset: Dataset, limit: int, rng: SeededRng) -> Dataset:
    """Seeded-shuffle prefix of the training split; the test split is kept."""
    if limit <= 0:
        raise ValueError("limit must be positive")
    if limit >= dataset.n:
        return dataset
    order = rng.permutation(dataset.n)[:limit]
    return Dataset(
        dataset.train_inputs[order],
        None if dataset.train_labels is None else dataset.train_labels[order],
        dataset.test_inputs,
        dataset.test_labels,
        dataset.num_classes,
    )


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
