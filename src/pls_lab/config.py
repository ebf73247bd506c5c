"""Experiment configuration: a strict JSON schema with field-path errors.

The spec dataclasses below are the schema. Each field's type annotation,
default and bounds (``positive``, ``nonneg``, ``choices``) are declared
once, on the field; a field without a default is a required key. One
reader checks a raw object against those fields and one echo helper
writes ``to_dict``. Rules that involve more than one field are explicit
code in the spec that owns them.

Top-level keys are the fields of ``ExperimentConfig``. ``problem`` is one
of the objects below, picked by its ``kind``:

    {"kind": "quadratic", "dim", "curvature" | "curvatures",
     "n_samples", "center_scale"?, "x0_scale"?}
    {"kind": "mlp-classification", "layers", "images", "labels",
     "test_images"?, "test_labels"?, "l2"?, "num_classes"?}
    {"kind": "mlp-reconstruction", "layers", "images", "test_images"?, "l2"?}

``rate`` is a step-size source, also picked by its ``kind``:

    {"kind": "fixed", "eta"}
    {"kind": "fixed-decay", "eta0"}
    {"kind": "pls", "eta0", "eps1"?, "eps2"?, "decay"?, "per_group"?,
     "allow_negative_eta0"?}

Unknown keys are rejected everywhere. ``from_dict`` raises ConfigError
with the offending key path, so CLI failures name the exact field.
"""

import json
import math
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin

from .errors import ConfigError
from .optimizers import ALGORITHMS
from .smoothness import DECAY_MODES

RATE_KINDS = ("fixed", "fixed-decay", "pls")
PROBLEM_KINDS = ("quadratic", "mlp-classification", "mlp-reconstruction")
_CLASSIFICATION_ONLY = {"labels", "test_labels", "num_classes"}


def _field(default=MISSING, **rule):
    """A spec field with its default (none: required) and the rule its
    value must meet: ``positive``, ``nonneg``, ``choices``, ``nullable``
    (JSON null allowed) or ``read`` (a reader of its own)."""
    return field(default=default, metadata=rule)


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _object(d, path: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(path[:-1], "expected an object")


def _check(value, tp, path: str, rule):
    """``value`` checked against the annotation ``tp`` and the field's rule.

    Lists are checked element by element; their shape is the caller's.
    """
    if "read" in rule:
        return rule["read"](value, path + ".")
    if isinstance(tp, types.UnionType):  # X | None: None is the absent value
        tp = get_args(tp)[0]
    if tp is bool:
        if not isinstance(value, bool):
            raise ConfigError(path, "expected a boolean")
        return value
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(path, f"expected a string, got {value!r}")
        if "choices" in rule and value not in rule["choices"]:
            raise ConfigError(path, f"expected one of {rule['choices']}, got {value!r}")
        return value
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        if rule.get("positive") and value <= 0:
            raise ConfigError(path, f"expected a positive integer, got {value!r}")
        if rule.get("nonneg") and value < 0:
            raise ConfigError(path, f"expected a non-negative integer, got {value!r}")
        return value
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {value!r}")
        v = float(value)
        if not math.isfinite(v):
            raise ConfigError(path, "must be finite")
        if rule.get("positive") and v <= 0.0:
            raise ConfigError(path, f"must be positive, got {value!r}")
        if rule.get("nonneg") and v < 0.0:
            raise ConfigError(path, f"must be non-negative, got {value!r}")
        return v
    if get_origin(tp) is list:
        return [_check(v, get_args(tp)[0], f"{path}[{i}]", rule) for i, v in enumerate(value)]
    return tp.from_dict(value, path + ".")  # a nested spec


def _get(cls, name: str, d: dict, path: str, rule=None):
    """Field ``name`` of ``cls`` read from ``d``, or its default."""
    f = cls.__dataclass_fields__[name]
    if name not in d:
        if f.default is not MISSING:
            return f.default
        if f.default_factory is not MISSING:
            return f.default_factory()
        raise ConfigError(path + name, "missing required key")
    if d[name] is None and f.metadata.get("nullable"):
        return None
    return _check(d[name], f.type, path + name, f.metadata if rule is None else rule)


def _read(cls, d, path: str, keys=None, **values):
    """An instance of ``cls`` from the raw object ``d``.

    Keys of ``d`` outside ``keys`` (default: every field) are rejected.
    Each field in ``keys`` is read from ``d`` unless given in ``values``;
    the other fields keep their defaults.
    """
    _object(d, path)
    keys = _names(cls) if keys is None else keys
    for key in d:
        if key not in keys:
            raise ConfigError(path + key, "unknown key")
    for f in fields(cls):
        if f.name in keys and f.name not in values:
            values[f.name] = _get(cls, f.name, d, path)
    return cls(**values)


def _echo(spec, keys=None) -> dict:
    """The fields of ``spec`` in ``keys`` (default: all); nested specs echo too."""
    out = {}
    for f in fields(spec):
        if keys is None or f.name in keys:
            v = getattr(spec, f.name)
            out[f.name] = v.to_dict() if is_dataclass(v) else v
    return out


class _Spec:
    def to_dict(self) -> dict:
        return _echo(self)


@dataclass
class QuadraticSpec(_Spec):
    dim: int = _field(positive=True)
    curvatures: list[float] = _field(positive=True)
    n_samples: int = _field(positive=True)
    center_scale: float = _field(1.0, nonneg=True)
    x0_scale: float = _field(1.0, nonneg=True)
    kind: str = "quadratic"

    @classmethod
    def from_dict(cls, d: dict, path: str) -> "QuadraticSpec":
        spec = _read(cls, d, path, _names(cls) | {"curvature"}, curvatures=None)
        if "curvatures" in d:
            raw = d["curvatures"]
            if not isinstance(raw, list) or len(raw) != spec.dim:
                raise ConfigError(path + "curvatures", f"expected a list of {spec.dim} numbers")
            spec.curvatures = _get(cls, "curvatures", d, path)
        elif "curvature" in d:  # alias: one curvature for every coordinate
            rule = cls.__dataclass_fields__["curvatures"].metadata
            spec.curvatures = [_check(d["curvature"], float, path + "curvature", rule)] * spec.dim
        else:
            raise ConfigError(path + "curvature", "missing required key")
        return spec


@dataclass
class MlpSpec:
    kind: str
    layers: list[int] = _field(positive=True)
    images: str
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    l2: float = _field(0.0, nonneg=True)
    num_classes: int = _field(10, positive=True)

    @classmethod
    def from_dict(cls, d: dict, path: str) -> "MlpSpec":
        layers = d.get("layers")
        if "layers" in d and (not isinstance(layers, list) or len(layers) < 2):
            raise ConfigError(path + "layers", "expected a list of at least two sizes")
        spec = _read(cls, d, path, cls._keys(d["kind"]))
        if spec.kind == "mlp-classification":
            if spec.labels is None:
                raise ConfigError(path + "labels", "missing required key")
            if spec.layers[-1] != spec.num_classes:
                raise ConfigError(
                    path + "layers",
                    f"output size {spec.layers[-1]} must equal num_classes {spec.num_classes}",
                )
        elif spec.layers[0] != spec.layers[-1]:
            raise ConfigError(path + "layers", "reconstruction needs matching input and output sizes")
        return spec

    @classmethod
    def _keys(cls, kind: str) -> set[str]:
        keys = _names(cls)
        return keys if kind == "mlp-classification" else keys - _CLASSIFICATION_ONLY

    def to_dict(self) -> dict:
        return {k: v for k, v in _echo(self, self._keys(self.kind)).items() if v is not None}

    @property
    def task(self) -> str:
        return "classification" if self.kind == "mlp-classification" else "reconstruction"


def _read_problem(d, path: str) -> QuadraticSpec | MlpSpec:
    _object(d, path)
    if "kind" not in d:
        raise ConfigError(path + "kind", "missing required key")
    kind = _check(d["kind"], str, path + "kind", {"choices": PROBLEM_KINDS})
    return (QuadraticSpec if kind == "quadratic" else MlpSpec).from_dict(d, path)


_RATE_KEYS = {
    "fixed": {"kind", "eta"},
    "fixed-decay": {"kind", "eta0"},
    "pls": {"kind", "eta0", "eps1", "eps2", "decay", "per_group", "allow_negative_eta0"},
}


@dataclass
class RateSpec:
    kind: str = _field(choices=RATE_KINDS)
    eta: float | None = _field(None, positive=True)
    eta0: float | None = _field(None, positive=True)
    eps1: float = _field(0.01, positive=True)
    eps2: float = _field(0.01, positive=True)
    decay: str = _field("constant", choices=DECAY_MODES)
    per_group: bool = True
    allow_negative_eta0: bool = False

    @classmethod
    def from_dict(cls, d: dict, path: str) -> "RateSpec":
        _object(d, path)
        kind = _get(cls, "kind", d, path)
        # a pls base rate may be negative: its sign is checked below
        given = {"eta0": _get(cls, "eta0", d, path, {})} if kind == "pls" else {}
        spec = _read(cls, d, path, _RATE_KEYS[kind], **given)
        base = "eta" if kind == "fixed" else "eta0"
        if getattr(spec, base) is None:
            raise ConfigError(path + base, "missing required key")
        if kind == "pls" and spec.eta0 <= 0.0 and not spec.allow_negative_eta0:
            raise ConfigError(path + "eta0", "must be positive unless allow_negative_eta0 is set")
        return spec

    def to_dict(self) -> dict:
        out = _echo(self, _RATE_KEYS[self.kind])
        if not self.allow_negative_eta0:
            out.pop("allow_negative_eta0", None)
        return out


@dataclass
class AmsgradSpec(_Spec):
    beta1: float = _field(0.9, positive=True)
    beta2: float = _field(0.999, positive=True)
    beta1_schedule: str = _field("constant", choices=("constant", "over_t"))

    @classmethod
    def from_dict(cls, d: dict, path: str) -> "AmsgradSpec":
        spec = _read(cls, d, path)
        if spec.beta1 >= 1.0 or spec.beta2 >= 1.0:
            raise ConfigError(path + "beta1", "moment factors must lie in (0, 1)")
        return spec


@dataclass
class AccsgdSpec(_Spec):
    kappa: float = _field(1000.0, positive=True)
    xi: float = _field(10.0, positive=True)
    m0: str = _field("x0", choices=("x0", "zero"))

    @classmethod
    def from_dict(cls, d: dict, path: str) -> "AccsgdSpec":
        spec = _read(cls, d, path)
        if spec.kappa < 1.0:
            raise ConfigError(path + "kappa", "must be at least 1")
        if spec.xi > math.sqrt(spec.kappa):
            raise ConfigError(path + "xi", "must not exceed sqrt(kappa)")
        return spec


@dataclass
class ExperimentConfig(_Spec):
    problem: QuadraticSpec | MlpSpec = _field(read=_read_problem)
    algorithm: str = _field(choices=ALGORITHMS)
    rate: RateSpec
    steps: int = _field(nonneg=True)
    seed: int
    batch_size: int = _field(100, positive=True)
    test_every: int = _field(50, positive=True)
    limit: int | None = _field(None, positive=True, nullable=True)  # training-subset cap
    amsgrad: AmsgradSpec = field(default_factory=AmsgradSpec)
    accsgd: AccsgdSpec = field(default_factory=AccsgdSpec)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        cfg = _read(cls, d, "")
        if cfg.rate.kind == "pls" and cfg.rate.eta0 <= 0.0 and cfg.algorithm != "accsgd":
            raise ConfigError("rate.eta0", "negative base rates are only supported for accsgd")
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("<file>", f"not valid JSON: {exc}") from exc
        return cls.from_dict(raw)
