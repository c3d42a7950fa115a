"""Experiment configuration: nested dataclasses with strict JSON parsing.

Unknown keys anywhere in the document are rejected. The dataclass fields are
the schema: parsing and writing both read them.
"""

from __future__ import annotations

import enum
import json
import numbers
import reprlib
import types
import typing
from dataclasses import asdict, dataclass, field

import numpy as np

from .adapt import TtaConfig
from .data import ShiftSpec, ShiftTransform, SyntheticSpec
from .errors import ConfigInvalid
from .network import ParamGroup
from .stats import DEFAULT_EPS_SCALE, CovarianceMode


_SCALARS = {  # JSON scalar type -> (what to expect, test)
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: (
        "an integer",
        lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    ),
    float: (
        "a number",
        lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    ),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _number_nest(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(map(_number_nest, value))
    return _SCALARS[float][1](value)


def _mismatch(value, tp) -> str | None:
    """What a field annotated `tp` expects, or None when `value` fits it.

    A nested dataclass always fits here: its own section is checked when it
    is parsed.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        wants = [_mismatch(value, a) for a in args]
        return None if None in wants else " or ".join(wants)
    if tp is type(None):
        return None if value is None else "null"
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            return "a JSON list"
        if origin is tuple and len(value) != len(args):
            return f"a JSON list of {len(args)} entries"
        for v in value:
            want = _mismatch(v, args[0])
            if want is not None:
                return f"a JSON list with each entry {want}"
        return None
    if tp is np.ndarray:
        ok = isinstance(value, list) and _number_nest(value)
        return None if ok else "a JSON list of numbers"
    if tp in _SCALARS:
        want, fits = _SCALARS[tp]
        return None if fits(value) else want
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        values = [m.value for m in tp]
        return None if value in values else f"one of {values}"
    return None


def _strict_kwargs(cls, d: dict, section: str) -> dict:
    """Check one section against the fields of dataclass `cls`: no unknown
    keys, and every value of the type its annotation names. An int is
    accepted for a float, a bool is not accepted for an int."""
    if not isinstance(d, dict):
        raise ConfigInvalid(
            f"section {section!r} must be a JSON object, got {type(d).__name__}"
        )
    hints = typing.get_type_hints(cls)
    unknown = set(d) - set(hints)
    if unknown:
        raise ConfigInvalid(
            f"unknown keys in section {section!r} ({cls.__name__}): {sorted(unknown)}"
        )
    for name, value in d.items():
        want = _mismatch(value, hints[name])
        if want is not None:
            raise ConfigInvalid(
                f"field {name!r} in section {section!r} must be {want}, "
                f"got {reprlib.repr(value)}"
            )
    return d


def tta_config_from_dict(d, section: str = "methods[]") -> TtaConfig:
    """One method's configuration: a `methods[]` entry, or the `config` of
    a run header."""
    d = dict(_strict_kwargs(TtaConfig, d, section))
    if "param_group" in d:
        d["param_group"] = ParamGroup(d["param_group"])
    return TtaConfig(**d)


def _plain(value):
    """JSON-ready copy: arrays and tuples become lists, enums their value."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, enum.Enum):
        return value.value
    return value


@dataclass
class ModelConfig:
    hidden_dims: list[int] = field(default_factory=lambda: [32, 16])
    bn_momentum: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if not self.hidden_dims:
            raise ConfigInvalid("hidden_dims must list at least one block width")
        if not all(int(w) >= 1 for w in self.hidden_dims):
            raise ConfigInvalid("hidden_dims entries must be >= 1")
        if not 0.0 < self.bn_momentum < 1.0:
            raise ConfigInvalid("bn_momentum must lie in (0, 1)")


@dataclass
class PretrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    eps_scale: float = DEFAULT_EPS_SCALE
    covariance_mode: str = "class_wise"

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 2:
            raise ConfigInvalid("pretrain needs epochs >= 1 and batch_size >= 2")
        if self.learning_rate <= 0 or self.eps_scale <= 0:
            raise ConfigInvalid("learning_rate and eps_scale must be > 0")
        try:
            CovarianceMode(self.covariance_mode)
        except ValueError:
            raise ConfigInvalid(
                f"covariance_mode must be one of "
                f"{[m.value for m in CovarianceMode]}, got {self.covariance_mode!r}"
            ) from None

    @property
    def cov_mode(self) -> CovarianceMode:
        return CovarianceMode(self.covariance_mode)


@dataclass
class ExperimentConfig:
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    shift: ShiftSpec | None = None
    model: ModelConfig = field(default_factory=ModelConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    methods: list[TtaConfig] = field(default_factory=list)
    output_dir: str = "runs"

    def validate(self) -> None:
        self.synthetic.validate()
        if self.shift is not None:
            self.shift.validate(self.synthetic.input_dim)
        self.model.validate()
        self.pretrain.validate()
        if not self.methods:
            raise ConfigInvalid("methods list is empty")
        names = [m.run_name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigInvalid(f"duplicate run names in experiment: {names}")
        for m in self.methods:
            m.validate()

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        doc = dict(_strict_kwargs(ExperimentConfig, doc, "top-level"))
        for key, cls in (
            ("synthetic", SyntheticSpec),
            ("model", ModelConfig),
            ("pretrain", PretrainConfig),
        ):
            if key in doc:
                doc[key] = cls(**_strict_kwargs(cls, doc[key], key))
        if doc.get("shift") is not None:
            sd = dict(_strict_kwargs(ShiftSpec, doc["shift"], "shift"))
            transforms = []
            for td in sd.get("transforms", []):
                td = dict(_strict_kwargs(ShiftTransform, td, "shift.transforms[]"))
                if "plane" in td:
                    td["plane"] = tuple(td["plane"])
                transforms.append(ShiftTransform(**td))
            sd["transforms"] = transforms
            doc["shift"] = ShiftSpec(**sd)
        if "methods" in doc:
            doc["methods"] = [tta_config_from_dict(m) for m in doc["methods"]]
        cfg = ExperimentConfig(**doc)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return _plain(asdict(self))

    @staticmethod
    def default(seed: int = 0, output_dir: str = "runs") -> "ExperimentConfig":
        """The stock benchmark: heteroscedastic 3-class mixture, severity-5
        additive noise, 60 online batches of 64, all seven methods.

        `seed` drives data sampling only; the mixture geometry stays fixed
        so different seeds are honest re-draws of the same problem.
        """
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(seed=seed, cov_scales=[0.2, 0.6, 1.5]),
            shift=ShiftSpec(
                transforms=[ShiftTransform(kind="gaussian_noise")], severity=5
            ),
            model=ModelConfig(),
            pretrain=PretrainConfig(eps_scale=1e-3),
            methods=[
                TtaConfig(method="source", steps_per_batch=0),
                TtaConfig(method="bn", steps_per_batch=0),
                TtaConfig(method="pl"),
                TtaConfig(method="entropy"),
                TtaConfig(method="global_fa"),
                TtaConfig(method="intra"),
                TtaConfig(method="cafa", steps_per_batch=2),
            ],
            output_dir=output_dir,
        )
        cfg.validate()
        return cfg

    @staticmethod
    def from_json_file(path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config {path} is not valid JSON: {exc}") from exc
        return ExperimentConfig.from_dict(doc)
