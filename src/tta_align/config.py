"""The schema of every JSON document the program reads, as dataclasses.

The annotations are the schema, a number's range included. `parse_json`
parses every document the program reads, and one walk over the annotations
(`read`) checks and builds it in one pass and rejects unknown keys
anywhere; `plain` writes one back. A config section's `validate()` runs
the walk on its own fields, then its cross-field checks.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import math
import re
import reprlib
import sys
import types
import typing
from dataclasses import dataclass, field
from typing import Annotated, Literal, NamedTuple

from .errors import ConfigInvalid

METHODS = ("source", "bn", "pl", "entropy", "global_fa", "intra", "cafa")
NO_LOSS_METHODS = ("source", "bn")
SHIFT_KINDS = ("gaussian_noise", "mean_shift", "scaling", "rotation")
PARAM_GROUPS = ("bn_only", "feature_full")  # each a prefix of the model's buffer, in order
COVARIANCE_MODES = ("class_wise", "tied")
DEFAULT_EPS_SCALE = 1e-6

_SCALARS = {  # JSON scalar type -> (what to expect, test); a bool is no number
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    # an int or a float, not NaN or +-inf, and no integer past the float range
    float: (
        "a finite number",
        lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max,
    ),
    str: ("a string", lambda v: isinstance(v, str)),
}
_hints = functools.cache(functools.partial(typing.get_type_hints, include_extras=True))


class Least(NamedTuple):
    """A number's range, as `Annotated` metadata: at least `low` (above it
    when `strict`) and at most `high`."""

    low: float
    strict: bool = False
    high: float = math.inf

    def __str__(self) -> str:
        low = f"> {self.low}" if self.strict else f">= {self.low}"
        return low if self.high == math.inf else f"{low} and <= {self.high}"


class _Mismatch(Exception):
    """A value does not fit its annotation; the message says what would."""


def _value(tp, value, section: str):
    """`value` checked against annotation `tp` and built: a nested dataclass
    section, a list or tuple of entries, or a scalar (within its `Least`
    range, if any) or `Literal` string (kept as it is). A section already
    built in Python is kept too: its own `validate()` checks it."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Annotated:
        base, bound = args
        value = _value(base, value, section)
        below = value <= bound.low if bound.strict else value < bound.low
        if below or value > bound.high:
            raise _Mismatch(f"{_SCALARS[base][0]} {bound}")
        return value
    if origin in (types.UnionType, typing.Union):  # `Annotated[...] | None` is a typing.Union
        if value is None and type(None) in args:
            return None
        wants = []
        for arm in args:
            try:
                return _value(arm, value, section)
            except _Mismatch as exc:
                wants.append(str(exc))
        # "a JSON list with each entry a finite number, or null"
        raise _Mismatch((", or " if any(" each " in w for w in wants) else " or ").join(wants))
    if tp is type(None):
        raise _Mismatch("null")
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise _Mismatch("a JSON list")
        if origin is tuple and len(value) != len(args):
            raise _Mismatch(f"a JSON list of {len(args)} entries")
        entry_types = args if origin is tuple else args * len(value)
        try:
            built = [_value(t, v, f"{section}[]") for t, v in zip(entry_types, value)]
        except _Mismatch as exc:
            raise _Mismatch(f"a JSON list with each entry {exc}") from None
        return origin(built)
    if tp in _SCALARS:
        want, fits = _SCALARS[tp]
        if fits(value):
            return value
        raise _Mismatch(want)
    if origin is Literal:
        if isinstance(value, str) and value in args:
            return value
        raise _Mismatch(f"one of {list(args)}")
    if type(value) is tp:
        return value
    return read(tp, value, section)


def _unique_keys(pairs: list) -> dict:
    twice = [k for k, n in collections.Counter(k for k, _ in pairs).items() if n > 1]
    if twice:
        raise ValueError(f"keys named more than once in one object: {twice}")
    return dict(pairs)


def parse_json(text: str | bytes):
    """The JSON document `text` holds. An object that names a key twice is
    refused (ValueError), where `json` would keep only its last value."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def read(cls, doc, section: str):
    """Dataclass `cls` built from the JSON object `doc`, every key of which
    must name a field; a nested section is named for its field's path."""
    if not isinstance(doc, dict):
        raise ConfigInvalid(
            f"section {section!r} must be a JSON object, got {type(doc).__name__}"
        )
    hints = _hints(cls)
    unknown = set(doc) - set(hints)
    if unknown:
        raise ConfigInvalid(
            f"unknown keys in section {section!r} ({cls.__name__}): {sorted(unknown)}"
        )
    no_default = dataclasses.MISSING
    missing = [
        f.name
        for f in dataclasses.fields(cls)
        if f.name not in doc
        and f.default is no_default
        and f.default_factory is no_default
    ]
    if missing:
        raise ConfigInvalid(
            f"section {section!r} ({cls.__name__}) lacks required keys {missing}"
        )
    kwargs = {}
    for name, value in doc.items():
        where = name if section == "top-level" else f"{section}.{name}"
        try:
            kwargs[name] = _value(hints[name], value, where)
        except _Mismatch as exc:
            raise ConfigInvalid(
                f"field {name!r} in section {section!r} must be {exc}, "
                f"got {reprlib.repr(value)}"
            ) from None
    return cls(**kwargs)


def plain(value):
    """JSON-ready copy of a config value: a dataclass becomes an object of
    its fields, tuples lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def _check_fields(section, where: str) -> None:
    """The walk's type and range rules for a section built in Python: each
    field and list entry must have the type the walk reads from its JSON
    form, so a value `json` cannot write (`np.int64(64)`) is refused here,
    not when a run header is written. A nested section is left to its own
    `validate()`."""
    fields = {f.name: getattr(section, f.name) for f in dataclasses.fields(section)}
    doc = {k: list(v) if isinstance(v, tuple) else v for k, v in fields.items()}
    built = read(type(section), doc, where)
    for name, value in fields.items():
        want = getattr(built, name)
        pairs = zip(value, want) if isinstance(want, (list, tuple)) else []
        if type(value) is not type(want) or any(type(v) is not type(w) for v, w in pairs):
            message = f"field {name!r} in section {where!r} must be {want!r}, got {value!r}"
            raise ConfigInvalid(message)


def valid_run_name(name) -> bool:
    """Whether `name` can label a run: it is part of the run's file names."""
    return isinstance(name, str) and re.fullmatch(r"[\w.+-]+", name, re.ASCII) is not None


@dataclass
class ShiftTransform:
    kind: Literal[SHIFT_KINDS]
    direction: list[float] | None = None  # mean_shift only
    # rotation only; a rotation without one turns axes 0 and 1
    plane: tuple[Annotated[int, Least(0)], Annotated[int, Least(0)]] | None = None

    def validate(self, input_dim: int) -> None:
        _check_fields(self, "shift.transforms[]")
        for name, kind in (("direction", "mean_shift"), ("plane", "rotation")):
            if getattr(self, name) is not None and self.kind != kind:
                raise ConfigInvalid(f"a {self.kind} transform reads no {name}: it is {kind} only")
        if self.kind == "mean_shift":
            if self.direction is None or len(self.direction) != input_dim:
                raise ConfigInvalid("mean_shift needs a direction of input_dim length")
            if not any(self.direction):
                raise ConfigInvalid("mean_shift direction must be nonzero")
        if self.plane is not None:
            i, j = self.plane
            if not (i < input_dim and j < input_dim and i != j):
                raise ConfigInvalid(f"invalid rotation plane {self.plane}")


@dataclass
class ShiftSpec:
    transforms: list[ShiftTransform] = field(default_factory=list)
    severity: Annotated[int, Least(1, high=5)] = 5

    def validate(self, input_dim: int) -> None:
        _check_fields(self, "shift")
        for t in self.transforms:
            t.validate(input_dim)


@dataclass
class SyntheticSpec:
    n_classes: Annotated[int, Least(2)] = 3
    input_dim: Annotated[int, Least(2)] = 8
    mean_scale: float = 2.4  # class-mean radius from the origin
    n_train_per_class: Annotated[int, Least(2)] = 500
    n_test_per_class: Annotated[int, Least(2)] = 1280
    seed: Annotated[int, Least(0)] = 0  # sampling only; geometry is pinned by data.GEOMETRY_SEED
    cov_scales: list[float] | None = None  # per-class isotropic stds

    def validate(self) -> None:
        _check_fields(self, "synthetic")
        if self.cov_scales is not None:
            if len(self.cov_scales) != self.n_classes:
                raise ConfigInvalid("cov_scales must list one std per class")
            if not all(math.isfinite(float(s) * float(s)) for s in self.cov_scales):
                raise ConfigInvalid("cov_scales entries must have finite squares")


@dataclass
class TtaConfig:
    method: Literal[METHODS] = "cafa"
    name: str = ""  # run label; defaults to the method name
    param_group: Literal[PARAM_GROUPS] = "bn_only"
    steps_per_batch: Annotated[int, Least(0)] = 1
    learning_rate: Annotated[float, Least(0, strict=True)] = 1e-3
    batch_size: Annotated[int, Least(2)] = 64

    to_dict = plain

    @property
    def run_name(self) -> str:
        return self.name or self.method

    def validate(self) -> None:
        _check_fields(self, "methods[]")
        if self.name and not valid_run_name(self.name):
            raise ConfigInvalid(f"name {self.name!r} may hold only ASCII letters, digits and _.+-")
        if (self.method in NO_LOSS_METHODS) != (self.steps_per_batch == 0):
            need = "0: it performs no optimization" if self.method in NO_LOSS_METHODS else ">= 1"
            raise ConfigInvalid(f"method {self.method!r} needs steps_per_batch {need}")


@dataclass
class ModelConfig:
    hidden_dims: list[Annotated[int, Least(1)]] = field(default_factory=lambda: [32, 16])

    def validate(self) -> None:
        _check_fields(self, "model")
        if not self.hidden_dims:
            raise ConfigInvalid("hidden_dims must list at least one block width")


@dataclass
class PretrainConfig:
    epochs: Annotated[int, Least(1)] = 30
    batch_size: Annotated[int, Least(2)] = 64
    learning_rate: Annotated[float, Least(0, strict=True)] = 1e-3
    eps_scale: Annotated[float, Least(0, strict=True)] = DEFAULT_EPS_SCALE
    covariance_mode: Literal[COVARIANCE_MODES] = "class_wise"

    def validate(self) -> None:
        _check_fields(self, "pretrain")


@dataclass
class ExperimentConfig:
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    shift: ShiftSpec | None = None
    model: ModelConfig = field(default_factory=ModelConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    methods: list[TtaConfig] = field(default_factory=list)
    output_dir: str = "runs"

    to_dict = plain

    def validate(self) -> None:
        _check_fields(self, "top-level")
        self.synthetic.validate()
        if self.shift is not None:
            self.shift.validate(self.synthetic.input_dim)
        self.model.validate()
        self.pretrain.validate()
        if not self.methods:
            raise ConfigInvalid("methods list is empty")
        for m in self.methods:
            m.validate()
        names = [m.run_name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigInvalid(f"duplicate run names in experiment: {names}")
        # a batch larger than its data set leaves pretraining without a step
        # or a method without a batch
        spec = self.synthetic
        n_train = spec.n_classes * spec.n_train_per_class
        n_target = spec.n_classes * spec.n_test_per_class
        if self.pretrain.batch_size > n_train:
            raise ConfigInvalid(
                f"pretrain batch_size {self.pretrain.batch_size} exceeds the "
                f"{n_train} training samples (n_classes x n_train_per_class)"
            )
        for m in self.methods:
            if m.batch_size > n_target:
                raise ConfigInvalid(
                    f"method {m.run_name!r} batch_size {m.batch_size} exceeds the "
                    f"{n_target} target samples (n_classes x n_test_per_class)"
                )

    @staticmethod
    def from_dict(doc) -> "ExperimentConfig":
        cfg = read(ExperimentConfig, doc, "top-level")
        cfg.validate()
        return cfg

    @staticmethod
    def default(seed: int = 0) -> "ExperimentConfig":
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
        )
        cfg.validate()
        return cfg

    @staticmethod
    def from_json_file(path) -> "ExperimentConfig":
        try:
            with open(path, "rb") as fh:
                doc = parse_json(fh.read())
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # a repeated key and bytes that are not UTF-8 too
            raise ConfigInvalid(f"config {path} is not valid JSON: {exc}") from exc
        return ExperimentConfig.from_dict(doc)


# -- the headers of the files a run writes ---------------------------------------


@dataclass
class RunHeader:
    """`run_<name>.json`: the method's config and its CSV's number of rows."""

    config: TtaConfig
    n_batches: int


@dataclass
class Manifest:
    """`manifest.json`: the run names, in order; `report` reads nothing else."""

    methods: list[str]
    source_holdout_accuracy: Annotated[float, Least(0, high=1)] | None = None


@dataclass
class StatsHeader:
    """A stats file's JSON header; a fit refuses a class of fewer than 2 rows."""

    format_version: int
    feature_dim: Annotated[int, Least(1)]
    n_classes: Annotated[int, Least(1)]
    covariance_mode: Literal[COVARIANCE_MODES]
    eps_scale: Annotated[float, Least(0, strict=True)]
    n_samples: list[Annotated[int, Least(2)]]
    warnings: list[str]


@dataclass
class LayoutEntry:
    name: str
    shape: list[Annotated[int, Least(0)]]


@dataclass
class CheckpointHeader:
    """A checkpoint's `__header__`: the layout names each array and its shape."""

    format_version: int
    n_blocks: Annotated[int, Least(1)]
    layout: list[LayoutEntry]
