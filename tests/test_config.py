import copy
import dataclasses
import json
import types
from pathlib import Path
from typing import get_args, get_origin

import pytest

from pls_lab.config import (
    AccsgdSpec,
    AmsgradSpec,
    ExperimentConfig,
    MlpSpec,
    QuadraticSpec,
    RateSpec,
)
from pls_lab.errors import ConfigError


def quadratic_config(**overrides):
    cfg = {
        "problem": {"kind": "quadratic", "dim": 4, "curvature": 2.0, "n_samples": 8},
        "algorithm": "sgd",
        "rate": {"kind": "fixed", "eta": 0.1},
        "steps": 10,
        "seed": 1,
    }
    cfg.update(overrides)
    return cfg


class TestValidation:
    def test_minimal_quadratic_parses_with_defaults(self):
        cfg = ExperimentConfig.from_dict(quadratic_config())
        assert cfg.batch_size == 100
        assert cfg.test_every == 50
        assert cfg.limit is None
        assert cfg.problem.curvatures == [2.0] * 4
        assert cfg.amsgrad.beta1 == 0.9
        assert cfg.accsgd.kappa == 1000.0

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(quadratic_config(stepss=5))
        assert exc.value.field == "stepss"

    def test_unknown_nested_key_names_path(self):
        bad = quadratic_config(rate={"kind": "fixed", "eta": 0.1, "etaa": 2})
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(bad)
        assert exc.value.field == "rate.etaa"

    def test_missing_required_key(self):
        bad = quadratic_config()
        del bad["steps"]
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(bad)
        assert exc.value.field == "steps"

    def test_type_errors_are_field_level(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(quadratic_config(steps="many"))
        assert exc.value.field == "steps"
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(quadratic_config(steps=-1))
        assert exc.value.field == "steps"

    def test_curvature_list_length_checked(self):
        bad = quadratic_config()
        bad["problem"] = {"kind": "quadratic", "dim": 3, "curvatures": [1.0, 2.0],
                          "n_samples": 5}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(bad)
        assert "curvatures" in exc.value.field

    def test_negative_base_rate_needs_flag_and_accsgd(self):
        pls = {"kind": "pls", "eta0": -0.001}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(quadratic_config(rate=pls))
        flagged = {"kind": "pls", "eta0": -0.001, "allow_negative_eta0": True}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(quadratic_config(rate=flagged))
        assert exc.value.field == "rate.eta0"
        ok = ExperimentConfig.from_dict(
            quadratic_config(rate=flagged, algorithm="accsgd")
        )
        assert ok.rate.eta0 == -0.001

    def test_accsgd_xi_bound(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(quadratic_config(accsgd={"kappa": 4.0, "xi": 3.0}))
        assert exc.value.field == "accsgd.xi"

    def test_mlp_layer_and_class_consistency(self):
        bad = quadratic_config()
        bad["problem"] = {
            "kind": "mlp-classification",
            "layers": [64, 16, 9],
            "images": "i.idx",
            "labels": "l.idx",
        }
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(bad)
        assert exc.value.field == "problem.layers"

    def test_reconstruction_needs_matching_ends(self):
        bad = quadratic_config()
        bad["problem"] = {"kind": "mlp-reconstruction", "layers": [64, 16, 32],
                         "images": "i.idx"}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_echo_revalidates(self):
        cfg = ExperimentConfig.from_dict(
            quadratic_config(rate={"kind": "pls", "eta0": 0.5, "eps1": 1e-8,
                                   "eps2": 1e-8, "decay": "sqrt_t"})
        )
        echo = cfg.to_dict()
        again = ExperimentConfig.from_dict(json.loads(json.dumps(echo)))
        assert again.to_dict() == echo

    def test_mlp_echo_revalidates(self):
        cfg = ExperimentConfig.from_dict(
            quadratic_config(
                problem={
                    "kind": "mlp-classification",
                    "layers": [64, 16, 10],
                    "images": "i.idx",
                    "labels": "l.idx",
                    "test_images": "ti.idx",
                    "l2": 1e-4,
                },
                algorithm="amsgrad",
                amsgrad={"beta1_schedule": "over_t"},
            )
        )
        echo = cfg.to_dict()
        assert ExperimentConfig.from_dict(json.loads(json.dumps(echo))).to_dict() == echo

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.load(path)


@pytest.mark.parametrize("block, value", [
    ("accsgd", True), ("amsgrad", "beta1"), ("accsgd", []), ("amsgrad", [784, 10]),
    ("amsgrad", None),
])
def test_non_object_block_is_a_config_error(block, value):
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(quadratic_config(**{block: value}))
    assert exc.value.field == block
    assert str(exc.value) == f"{block}: expected an object"


# A valid config in which each spec's fields are read, and the path to them.
SPEC_CONFIGS = {
    QuadraticSpec: ("problem.", quadratic_config()),
    MlpSpec: ("problem.", quadratic_config(problem={
        "kind": "mlp-classification", "layers": [4, 3, 10], "images": "i.idx",
        "labels": "l.idx", "test_images": "ti.idx", "test_labels": "tl.idx",
    })),
    RateSpec: ("rate.", quadratic_config(rate={"kind": "pls", "eta0": 0.1})),
    AmsgradSpec: ("amsgrad.", quadratic_config(amsgrad={})),
    AccsgdSpec: ("accsgd.", quadratic_config(accsgd={})),
    ExperimentConfig: ("", quadratic_config()),
}
WRONG_TYPE = {int: "1", float: "1.0", str: 1, bool: 1}


def _faults(f):
    """(value, dotted suffix of the field that must be reported) pairs."""
    tp = f.type
    if isinstance(tp, types.UnionType):
        tp = get_args(tp)[0]
    if get_origin(tp) is list:
        yield "1", ""
        tp = get_args(tp)[0]
        suffix = "[0]"
    else:
        suffix = ""
    if "read" in f.metadata or dataclasses.is_dataclass(tp):
        yield 5, suffix
        return
    yield WRONG_TYPE[tp], suffix
    if f.metadata.get("positive"):
        yield from ((0, suffix), (-1, suffix))
    if f.metadata.get("nonneg"):
        yield -1, suffix
    if "choices" in f.metadata:
        yield "bogus", suffix


def _schema_cases():
    for spec, (prefix, base) in SPEC_CONFIGS.items():
        for f in dataclasses.fields(spec):
            for value, suffix in _faults(f):
                yield pytest.param(spec, f.name, value, suffix,
                                   id=f"{prefix}{f.name}{suffix}={value!r}")


@pytest.mark.parametrize("spec, name, value, suffix", _schema_cases())
def test_schema_field_faults_name_the_field(spec, name, value, suffix):
    prefix, base = SPEC_CONFIGS[spec]
    cfg = copy.deepcopy(base)
    if spec is RateSpec and name == "eta":
        cfg["rate"] = {"kind": "fixed", "eta": 0.1}
    target = cfg[prefix[:-1]] if prefix else cfg
    if name == "curvatures":
        target.pop("curvature")
        target[name] = [2.0] * target["dim"]
    if suffix:
        target[name][0] = value
    else:
        target[name] = value
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(cfg)
    assert exc.value.field == prefix + name + suffix


def _assert_echoes(raw, echo):
    """Every key the raw config gives is in the echo, with its value."""
    for key, value in raw.items():
        if key == "curvature":  # alias: the echo lists curvatures
            assert echo["curvatures"] == [value] * echo["dim"]
        elif isinstance(value, dict):
            _assert_echoes(value, echo[key])
        else:
            assert echo[key] == value


@pytest.mark.parametrize("path", sorted(Path(__file__).parents[1].glob("configs/*.json")),
                         ids=lambda p: p.name)
def test_shipped_config_round_trips(path):
    raw = json.loads(path.read_text())
    echo = ExperimentConfig.from_dict(raw).to_dict()
    assert ExperimentConfig.from_dict(json.loads(json.dumps(echo))).to_dict() == echo
    _assert_echoes(raw, echo)
