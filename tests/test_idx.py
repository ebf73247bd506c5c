import numpy as np
import numpy.testing as npt
import pytest

from pls_lab import datasets
from pls_lab.config import ExperimentConfig
from pls_lab.datasets import load_split, synthetic_digits
from pls_lab.errors import ConfigError, IdxFormatError
from pls_lab.idx import MAGIC_IMAGES, MAGIC_LABELS, load_idx, write_idx
from pls_lab.problems import MlpLsrProblem
from pls_lab.runner import build_problem

from _oracles import synthetic_digits_loop
from conftest import traced


class TestIdxCodec:
    def test_image_round_trip_byte_exact(self, tmp_path):
        images, _ = synthetic_digits(20, seed=1, rows=9, cols=7)
        path = tmp_path / "imgs.idx"
        write_idx(path, images)
        loaded = load_idx(path)
        npt.assert_array_equal(loaded, images)
        path2 = tmp_path / "imgs2.idx"
        write_idx(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_label_round_trip(self, tmp_path):
        labels = np.arange(17, dtype=np.uint8) % 10
        path = tmp_path / "labels.idx"
        write_idx(path, labels)
        npt.assert_array_equal(load_idx(path), labels)

    def test_header_layout(self, tmp_path):
        images = np.zeros((2, 3, 4), dtype=np.uint8)
        path = tmp_path / "z.idx"
        write_idx(path, images)
        blob = path.read_bytes()
        assert int.from_bytes(blob[0:4], "big") == MAGIC_IMAGES
        assert int.from_bytes(blob[4:8], "big") == 2
        assert int.from_bytes(blob[8:12], "big") == 3
        assert int.from_bytes(blob[12:16], "big") == 4
        assert len(blob) == 16 + 24

    def test_single_zero_image(self, tmp_path):
        write_idx(tmp_path / "one.idx", np.zeros((1, 28, 28), dtype=np.uint8))
        inputs, targets = load_split(tmp_path / "one.idx", None, 10)
        assert inputs.shape == (1, 784)
        npt.assert_array_equal(inputs, np.zeros((1, 784)))
        assert targets is inputs

    def test_unsupported_magic_named_with_offset(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes((0x00000802).to_bytes(4, "big") + b"\x00" * 8)
        with pytest.raises(IdxFormatError) as exc:
            load_idx(path)
        assert exc.value.offset == 0
        assert "0x00000802" in str(exc.value)

    @pytest.mark.parametrize("blob", [b"", b"\x00\x00\x08"])
    def test_file_shorter_than_a_magic_number(self, blob, tmp_path):
        path = tmp_path / "tiny.idx"
        path.write_bytes(blob)
        with pytest.raises(IdxFormatError) as exc:
            load_idx(path)
        assert str(exc.value) == "file too short for a magic number (at byte offset 0)"

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(MAGIC_IMAGES.to_bytes(4, "big") + b"\x00\x00\x00\x02")
        with pytest.raises(IdxFormatError) as exc:
            load_idx(path)
        assert exc.value.offset == 8

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.idx"
        header = MAGIC_LABELS.to_bytes(4, "big") + (10).to_bytes(4, "big")
        path.write_bytes(header + b"\x01" * 4)
        with pytest.raises(IdxFormatError) as exc:
            load_idx(path)
        assert "truncated" in str(exc.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "extra.idx"
        header = MAGIC_LABELS.to_bytes(4, "big") + (2).to_bytes(4, "big")
        path.write_bytes(header + b"\x01\x02\x03")
        with pytest.raises(IdxFormatError):
            load_idx(path)

    def test_dimension_overflow_guarded(self, tmp_path):
        path = tmp_path / "huge.idx"
        header = (
            MAGIC_IMAGES.to_bytes(4, "big")
            + (0xFFFFFFFF).to_bytes(4, "big")
            + (0xFFFFFFFF).to_bytes(4, "big")
            + (28).to_bytes(4, "big")
        )
        path.write_bytes(header)
        with pytest.raises(IdxFormatError) as exc:
            load_idx(path)
        assert "overflow" in str(exc.value)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "zero.idx"
        path.write_bytes(MAGIC_LABELS.to_bytes(4, "big") + (0).to_bytes(4, "big"))
        with pytest.raises(IdxFormatError):
            load_idx(path)

    def test_writer_validates_dtype_and_rank(self, tmp_path):
        with pytest.raises(ValueError):
            write_idx(tmp_path / "f.idx", np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            write_idx(tmp_path / "f.idx", np.zeros(4, dtype=np.float64))


def _write(tmp_path, images, labels):
    write_idx(tmp_path / "i.idx", np.asarray(images, dtype=np.uint8))
    write_idx(tmp_path / "l.idx", np.asarray(labels, dtype=np.uint8))
    return tmp_path / "i.idx", tmp_path / "l.idx"


def _read(inputs, targets):
    """The (inputs, targets) rows of every sample as a problem on them reads them."""
    problem = MlpLsrProblem([inputs.shape[1], targets.shape[1]], inputs, targets)
    return problem._samples(None)


def _build(tmp_path, limit, kind="mlp-classification", layers=(2, 3, 2)):
    """build_problem on ten 1x2 images whose pixels are 20k and 20k+10,
    labelled k % 2."""
    images = np.stack([[[20 * k, 20 * k + 10]] for k in range(10)])
    images_path, labels_path = _write(tmp_path, images, np.arange(10) % 2)
    problem = {"kind": kind, "layers": list(layers), "images": str(images_path)}
    if kind == "mlp-classification":
        problem.update(labels=str(labels_path), num_classes=2)
    cfg = ExperimentConfig.from_dict({"problem": problem, "algorithm": "sgd",
                                      "rate": {"kind": "fixed", "eta": 0.1},
                                      "steps": 1, "seed": 3, "limit": limit})
    return build_problem(cfg)[0]


class TestDataset:
    def test_load_split_scaling_and_labels(self, tmp_path):
        images, labels = synthetic_digits(30, seed=2, rows=8, cols=8)
        inputs, targets = load_split(*_write(tmp_path, images, labels), 10)
        assert inputs.dtype == np.uint8  # the file's bytes, scaled on read
        npt.assert_array_equal(inputs, images.reshape(30, 64))
        rows, _ = _read(inputs, targets)
        assert rows.min() >= 0.0 and rows.max() <= 1.0
        assert rows.shape == (30, 64)
        npt.assert_array_equal(rows, images.reshape(30, 64) / 255.0)
        npt.assert_array_equal(targets.argmax(axis=1), labels)

    def test_label_range_enforced(self, tmp_path):
        paths = _write(tmp_path, np.zeros((2, 2, 2)), [0, 10])
        with pytest.raises(ConfigError, match=r"labels must lie in \[0, 10\), found 10") as exc:
            load_split(*paths, 10)
        assert exc.value.field == "problem.labels"

    def test_one_hot(self, tmp_path):
        _, targets = load_split(*_write(tmp_path, np.zeros((3, 1, 1)), [1, 0, 2]), 3)
        npt.assert_array_equal(targets, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])

    def test_targets_by_task(self, tmp_path):
        images_path, labels_path = _write(tmp_path, np.full((3, 1, 2), 51), [0, 1, 0])
        inputs, targets = load_split(images_path, labels_path, 2)
        npt.assert_array_equal(targets, [[1, 0], [0, 1], [1, 0]])
        inputs, targets = load_split(images_path, None, 2)
        assert targets is inputs
        rows, targets = _read(inputs, targets)
        assert targets is rows  # one division serves both
        npt.assert_array_equal(rows, np.full((3, 2), 0.2))

    def test_first_layer_must_match_the_data_width(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            _build(tmp_path, None, layers=(3, 3, 2))
        assert (exc.value.field, str(exc.value)) == (
            "problem.layers", "problem.layers: first layer size 3 != data width 2")

    def test_test_split_must_match_the_first_layer(self, tmp_path):
        train, labels = _write(tmp_path, np.zeros((4, 8, 8)), [0, 1, 0, 1])
        write_idx(tmp_path / "ti.idx", np.zeros((3, 7, 7), dtype=np.uint8))
        write_idx(tmp_path / "tl.idx", np.zeros(3, dtype=np.uint8))
        cfg = ExperimentConfig.from_dict({
            "problem": {"kind": "mlp-classification", "layers": [64, 16, 10],
                        "images": str(train), "labels": str(labels),
                        "test_images": str(tmp_path / "ti.idx"),
                        "test_labels": str(tmp_path / "tl.idx")},
            "algorithm": "sgd", "rate": {"kind": "fixed", "eta": 0.1}, "steps": 1, "seed": 3})
        with pytest.raises(ConfigError) as exc:
            build_problem(cfg)
        assert (exc.value.field, str(exc.value)) == (
            "problem.test_images", "problem.test_images: first layer size 64 != data width 49")

    def test_subset_is_seeded_shuffle_prefix(self, tmp_path):
        s1 = _build(tmp_path, 4)
        s2 = _build(tmp_path, 4)
        npt.assert_array_equal(s1.inputs, s2.inputs)
        assert s1.n == 4
        rows1, targets1 = s1._samples(None)
        # each sample keeps its own label
        npt.assert_array_equal(targets1.argmax(axis=1), np.round(rows1[:, 0] * 255 / 20) % 2)
        # prefix of the same shuffle: limit 4 is a prefix of limit 6
        s3 = _build(tmp_path, 6)
        npt.assert_array_equal(s3._samples(None)[0][:4], rows1)
        for limit in (10, 11, None):  # no shuffle at full size
            full = _build(tmp_path, limit)
            npt.assert_array_equal(full._samples(None)[0][:, 0], np.arange(0, 200, 20) / 255.0)

    def test_a_problem_holds_its_pixels_as_bytes(self, digits_dir):
        # 1000 28x28 images: 784,000 bytes, against 6,272,000 as float64 rows
        cfg = ExperimentConfig.from_dict({
            "problem": {"kind": "mlp-classification", "layers": [784, 10],
                        "images": str(digits_dir / "train-images.idx"),
                        "labels": str(digits_dir / "train-labels.idx")},
            "algorithm": "sgd", "rate": {"kind": "fixed", "eta": 0.1}, "steps": 1, "seed": 3})
        problem = build_problem(cfg)[0]
        assert problem.inputs.nbytes == 784_000
        assert problem.inputs.dtype == np.uint8

    def test_subset_keeps_reconstruction_targets_the_inputs(self, tmp_path):
        problem = _build(tmp_path, 4, kind="mlp-reconstruction")
        assert problem.n == 4
        assert problem.targets is problem.inputs

    def test_synthetic_digits_deterministic_and_balancedish(self):
        a_img, a_lab = synthetic_digits(50, seed=9, rows=8, cols=8)
        b_img, b_lab = synthetic_digits(50, seed=9, rows=8, cols=8)
        npt.assert_array_equal(a_img, b_img)
        npt.assert_array_equal(a_lab, b_lab)
        assert a_img.dtype == np.uint8
        assert set(np.unique(a_lab)) <= set(range(10))


class TestSyntheticDigits:
    @pytest.mark.parametrize("n, seed, kwargs", [
        (1000, 5, {}),  # the acceptance fixtures
        (200, 6, {}),
        (1000, 10001, {}),  # the benchmark's training split
        (50, 9, {"rows": 8, "cols": 8}),
        (20, 1, {"rows": 9, "cols": 7}),
        (1, 3, {}),
        (datasets._CHUNK - 1, 4, {}),
        (datasets._CHUNK, 4, {}),
        (datasets._CHUNK + 1, 4, {}),
        (300, 8, {"label_noise": 0.0}),
        (300, 8, {"label_noise": 1.0}),
    ])
    def test_chunks_match_the_sample_loop_byte_for_byte(self, n, seed, kwargs):
        images, labels = synthetic_digits(n, seed, **kwargs)
        want_images, want_labels = synthetic_digits_loop(n, seed, **kwargs)
        assert images.dtype == want_images.dtype and images.shape == want_images.shape
        assert labels.dtype == want_labels.dtype and labels.shape == want_labels.shape
        assert images.tobytes() == want_images.tobytes()
        assert labels.tobytes() == want_labels.tobytes()

    def test_peak_memory_is_a_few_chunks(self):
        with traced() as mem:
            synthetic_digits(1000, 5)
        # 0.78 MB of images plus one chunk's draws and canvases; the whole
        # stream of 1000 samples' draws alone would take 6.5 MB
        assert mem.peak < 5_000_000, mem.peak

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": 0}, "at least 1"),
        ({"n": -3}, "at least 1"),
        ({"rows": 0}, "at least 1"),
        ({"cols": -1}, "at least 1"),
        ({"label_noise": -0.1}, r"label_noise must lie in \[0, 1\]"),
        ({"label_noise": 1.5}, r"label_noise must lie in \[0, 1\]"),
        ({"label_noise": float("nan")}, r"label_noise must lie in \[0, 1\]"),
    ])
    def test_degenerate_arguments_rejected(self, kwargs, message):
        args = dict({"n": 5, "seed": 1, "rows": 8, "cols": 8}, **kwargs)
        with pytest.raises(ValueError, match=message):
            synthetic_digits(**args)
