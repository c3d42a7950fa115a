import dataclasses
import enum
import functools
import json
import math
import re
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from helpers import key_twice, named, random_stats, small_model
from hypothesis import given, settings
from hypothesis import strategies as st

from tta_align import cli
from tta_align.adapt import TtaConfig, adapt_stream
from tta_align.config import (
    CheckpointHeader,
    ExperimentConfig,
    LayoutEntry,
    Manifest,
    ModelConfig,
    PretrainConfig,
    RunHeader,
    StatsHeader,
    plain,
    read,
)
from tta_align.errors import ConfigInvalid

NAN = float("nan")  # json.dumps writes NaN and Infinity, and json.load reads them


def write_json(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestStrictParsing:
    def test_default_round_trips_through_json(self, tmp_path):
        cfg = ExperimentConfig.default()
        path = write_json(tmp_path, cfg.to_dict())
        again = ExperimentConfig.from_json_file(path)
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigInvalid, match="top-level"):
            ExperimentConfig.from_dict({"methods": [], "epochs": 3})

    def test_unknown_synthetic_key(self):
        doc = ExperimentConfig.default().to_dict()
        doc["synthetic"]["n_channels"] = 3
        with pytest.raises(ConfigInvalid, match="synthetic"):
            ExperimentConfig.from_dict(doc)

    def test_unknown_model_key(self):
        doc = ExperimentConfig.default().to_dict()
        doc["model"]["dropout"] = 0.5
        with pytest.raises(ConfigInvalid, match="model"):
            ExperimentConfig.from_dict(doc)

    def test_unknown_pretrain_key(self):
        doc = ExperimentConfig.default().to_dict()
        doc["pretrain"]["weight_decay"] = 0.01
        with pytest.raises(ConfigInvalid, match="pretrain"):
            ExperimentConfig.from_dict(doc)

    def test_unknown_shift_key(self):
        doc = ExperimentConfig.default().to_dict()
        doc["shift"]["sigma"] = 1.0
        with pytest.raises(ConfigInvalid, match="shift"):
            ExperimentConfig.from_dict(doc)

    def test_unknown_transform_key(self):
        doc = ExperimentConfig.default().to_dict()
        doc["shift"]["transforms"][0]["strength"] = 2.0
        with pytest.raises(ConfigInvalid, match="transforms"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "section, cls, key",
        [
            ("synthetic", "SyntheticSpec", "class_means"),
            ("synthetic", "SyntheticSpec", "class_covs"),
            ("synthetic", "SyntheticSpec", "geometry_seed"),
            ("model", "ModelConfig", "bn_momentum"),
            ("model", "ModelConfig", "seed"),
            ("pretrain", "PretrainConfig", "seed"),
            ("methods[]", "TtaConfig", "adam_beta1"),
            ("methods[]", "TtaConfig", "adam_beta2"),
            ("methods[]", "TtaConfig", "adam_eps"),
        ],
        ids=[
            "class_means",
            "class_covs",
            "geometry_seed",
            "bn_momentum",
            "model.seed",
            "pretrain.seed",
            "adam_beta1",
            "adam_beta2",
            "adam_eps",
        ],
    )
    def test_removed_key_rejected(self, tmp_path, capsys, section, cls, key):
        # the class geometry comes from data.GEOMETRY_SEED, mean_scale and
        # cov_scales; the initialisation and shuffle seeds, the BN momentum
        # and the Adam constants are fixed
        doc = ExperimentConfig().to_dict()
        doc["methods"] = [TtaConfig().to_dict()]
        target = doc["methods"][0] if section == "methods[]" else doc[section]
        assert key not in target
        target[key] = 0.9
        message = f"unknown keys in section {section!r} ({cls}): [{key!r}]"
        with pytest.raises(ConfigInvalid, match=re.escape(message)):
            ExperimentConfig.from_dict(doc)
        assert cli.main(["pretrain", "--config", str(write_json(tmp_path, doc))]) == 1
        assert message in capsys.readouterr().err

    def test_unknown_method_key(self):
        doc = ExperimentConfig.default().to_dict()
        doc["methods"][0]["momentum"] = 0.9
        with pytest.raises(ConfigInvalid, match="TtaConfig"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "section, damage",
        [
            ("model", lambda doc: doc.update(model=5)),
            ("shift", lambda doc: doc.update(shift=[1])),
            ("shift.transforms[]", lambda doc: doc["shift"]["transforms"].append(5)),
            ("methods[]", lambda doc: doc["methods"].append("cafa")),
        ],
        ids=["model", "shift", "shift.transforms[]", "methods[]"],
    )
    def test_section_not_an_object(self, tmp_path, capsys, section, damage):
        doc = ExperimentConfig.default().to_dict()
        damage(doc)
        message = f"section '{section}' must be a JSON object"
        with pytest.raises(ConfigInvalid, match=re.escape(message)):
            ExperimentConfig.from_dict(doc)
        assert cli.main(["pretrain", "--config", str(write_json(tmp_path, doc))]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, name, damage",
        [
            ("top-level", "methods", lambda doc: doc.update(methods=5)),
            ("model", "hidden_dims", lambda doc: doc["model"].update(hidden_dims=5)),
            ("shift", "transforms", lambda doc: doc["shift"].update(transforms=5)),
        ],
        ids=["methods", "model.hidden_dims", "shift.transforms"],
    )
    def test_list_field_not_a_list(self, tmp_path, capsys, section, name, damage):
        doc = ExperimentConfig.default().to_dict()
        damage(doc)
        message = f"field '{name}' in section '{section}' must be a JSON list"
        with pytest.raises(ConfigInvalid, match=re.escape(message)):
            ExperimentConfig.from_dict(doc)
        assert cli.main(["pretrain", "--config", str(write_json(tmp_path, doc))]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (
                lambda doc: doc["pretrain"].update(epochs="3"),
                "field 'epochs' in section 'pretrain' must be an integer, got '3'",
            ),
            (
                lambda doc: doc["model"].update(hidden_dims=["a"]),
                "field 'hidden_dims' in section 'model' must be a JSON list "
                "with each entry an integer",
            ),
            (
                lambda doc: doc["synthetic"].update(cov_scales=5),
                "field 'cov_scales' in section 'synthetic' must be a JSON list or null",
            ),
            (
                lambda doc: doc["pretrain"].update(epochs=True),
                "field 'epochs' in section 'pretrain' must be an integer",
            ),
            (
                lambda doc: doc["methods"][0].update(steps_per_batch="0"),
                "field 'steps_per_batch' in section 'methods[]' must be an integer",
            ),
            (
                lambda doc: doc["methods"][0].update(param_group="all"),
                "field 'param_group' in section 'methods[]' must be one of",
            ),
            (
                lambda doc: doc["shift"]["transforms"][0].update(plane=[0, 1, 2]),
                "field 'plane' in section 'shift.transforms[]' must be "
                "a JSON list of 2 entries",
            ),
            (
                lambda doc: doc["shift"].update(
                    transforms=[{"kind": "mean_shift", "direction": [0.0, 1.0]}]
                ),
                "mean_shift needs a direction of input_dim length",
            ),
            (
                lambda doc: doc["methods"][2].update(learning_rate=NAN),
                "field 'learning_rate' in section 'methods[]' must be "
                "a finite number, got nan",
            ),
            (
                lambda doc: doc["pretrain"].update(learning_rate=NAN),
                "field 'learning_rate' in section 'pretrain' must be "
                "a finite number, got nan",
            ),
            (
                lambda doc: doc["pretrain"].update(eps_scale=NAN),
                "field 'eps_scale' in section 'pretrain' must be a finite number",
            ),
            (
                lambda doc: doc["pretrain"].update(eps_scale=math.inf),
                "field 'eps_scale' in section 'pretrain' must be "
                "a finite number, got inf",
            ),
            (
                lambda doc: doc["synthetic"].update(mean_scale=NAN),
                "field 'mean_scale' in section 'synthetic' must be a finite number",
            ),
            (
                lambda doc: doc["synthetic"].update(mean_scale=-math.inf),
                "field 'mean_scale' in section 'synthetic' must be a finite number",
            ),
            (
                lambda doc: doc["synthetic"].update(mean_scale=10**400),
                "field 'mean_scale' in section 'synthetic' must be a finite number",
            ),
            (
                lambda doc: doc["synthetic"].update(cov_scales=[0.2, NAN, 1.5]),
                "field 'cov_scales' in section 'synthetic' must be a JSON list "
                "with each entry a finite number, or null",
            ),
            (
                lambda doc: doc["shift"].update(
                    transforms=[{"kind": "mean_shift", "direction": [1.0] * 7 + [NAN]}]
                ),
                "field 'direction' in section 'shift.transforms[]' must be a JSON list "
                "with each entry a finite number, or null",
            ),
            (
                lambda doc: doc["pretrain"].update(covariance_mode="diagonal"),
                "field 'covariance_mode' in section 'pretrain' must be one of",
            ),
            (
                lambda doc: doc["shift"]["transforms"][0].pop("kind"),
                "section 'shift.transforms[]' (ShiftTransform) "
                "lacks required keys ['kind']",
            ),
        ],
        ids=[
            "string_for_int",
            "string_list_entry",
            "scalar_for_array",
            "bool_for_int",
            "method_field",
            "param_group_value",
            "tuple_length",
            "array_shape",
            "nan_method_learning_rate",
            "nan_pretrain_learning_rate",
            "nan_eps_scale",
            "inf_eps_scale",
            "nan_mean_scale",
            "minus_inf_mean_scale",
            "int_past_float_range",
            "nan_cov_scales_entry",
            "nan_in_array",
            "covariance_mode_value",
            "missing_required_key",
        ],
    )
    def test_scalar_type_mismatch(self, tmp_path, capsys, damage, message):
        doc = ExperimentConfig.default().to_dict()
        damage(doc)
        with pytest.raises(ConfigInvalid, match=re.escape(message)):
            ExperimentConfig.from_dict(doc)
        assert cli.main(["pretrain", "--config", str(write_json(tmp_path, doc))]) == 1
        assert message in capsys.readouterr().err

    def test_int_accepted_for_float(self):
        doc = ExperimentConfig.default().to_dict()
        doc["pretrain"]["learning_rate"] = 1
        doc["synthetic"]["mean_scale"] = 3
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.pretrain.learning_rate == 1 and cfg.synthetic.mean_scale == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="cannot read"):
            ExperimentConfig.from_json_file(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        for text in (b"{not json", b'{"methods": [\xff]}'):  # the second is not UTF-8
            path.write_bytes(text)
            with pytest.raises(ConfigInvalid, match="not valid JSON"):
                ExperimentConfig.from_json_file(path)
        # a key named twice: json would keep its last value, and `compare`
        # would run only the last list of methods
        doc = ExperimentConfig.default().to_dict()
        path.write_text(key_twice({**doc, "methods": doc["methods"][:1]}, "methods"))
        message = "keys named more than once in one object: ['methods']"
        with pytest.raises(ConfigInvalid, match=re.escape(message)):
            ExperimentConfig.from_json_file(path)
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", str(path), "--out-dir", str(out)]) == 1
        assert message in capsys.readouterr().err and not out.exists()


class TestValidation:
    def test_default_validates(self):
        ExperimentConfig.default().validate()

    def test_empty_methods_rejected(self):
        cfg = ExperimentConfig.default()
        cfg.methods = []
        with pytest.raises(ConfigInvalid, match="methods"):
            cfg.validate()

    def test_duplicate_run_names(self):
        cfg = ExperimentConfig.default()
        cfg.methods = [TtaConfig(method="cafa"), TtaConfig(method="cafa")]
        with pytest.raises(ConfigInvalid, match="duplicate"):
            cfg.validate()

    def test_distinct_names_allow_same_method(self):
        cfg = ExperimentConfig.default()
        cfg.methods = [
            TtaConfig(method="cafa", name="cafa_1", steps_per_batch=1),
            TtaConfig(method="cafa", name="cafa_2", steps_per_batch=2),
        ]
        cfg.validate()

    def test_bad_covariance_mode(self):
        cfg = PretrainConfig(covariance_mode="diagonal")
        with pytest.raises(ConfigInvalid, match="covariance_mode"):
            cfg.validate()

    def test_covariance_mode_is_a_string(self):
        doc = ExperimentConfig.default().to_dict()
        doc["pretrain"]["covariance_mode"] = "tied"
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.pretrain.covariance_mode == "tied"
        assert cfg.to_dict()["pretrain"]["covariance_mode"] == "tied"

    def test_bad_param_group(self):
        # a group is named by its schema string alone: an unknown group or
        # another spelling is refused, never read as the BN-only default
        message = "field 'param_group' in section 'methods[]' must be one of"
        for group in ("all", "FEATURE_FULL"):
            with pytest.raises(ConfigInvalid, match=re.escape(message)):
                TtaConfig(method="cafa", param_group=group).validate()
        rng = np.random.default_rng(5)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        batches = [(rng.normal(size=(16, 6)), rng.integers(0, 3, size=16)) for _ in range(4)]
        before = {k: v.copy() for k, v in named(model, model.flat).items()}
        cfg = TtaConfig(method="cafa", param_group="feature_full", batch_size=16)
        cfg.validate()
        adapt_stream(model, stats, batches, cfg)
        for name, value in named(model, model.flat).items():
            moved = not np.array_equal(before[name], value)
            assert moved == name.startswith("block"), name

    @pytest.mark.parametrize(
        "damage, message",
        [
            (
                lambda doc: doc["shift"].update(
                    transforms=[{"kind": "mean_shift", "direction": [0.0] * 8}]
                ),
                "mean_shift direction must be nonzero",
            ),
            (
                lambda doc: doc["synthetic"].update(cov_scales=[0.2, 1e200, 1.5]),
                "cov_scales entries must have finite squares",
            ),
            (
                # all integers, once a bare TypeError from NumPy's object arrays
                lambda doc: doc["synthetic"].update(cov_scales=[1, 2, 10**200]),
                "cov_scales entries must have finite squares",
            ),
            (
                lambda doc: doc["methods"][2].update(name="../pl"),
                "may hold only ASCII letters, digits and _.+-",
            ),
            (
                # once a (0, 1) rotation that dropped the direction
                lambda doc: doc["shift"].update(
                    transforms=[{"kind": "rotation", "direction": [1.0] * 8}]
                ),
                "a rotation transform reads no direction: it is mean_shift only",
            ),
            (
                lambda doc: doc["shift"].update(transforms=[{"kind": "scaling", "plane": [3, 4]}]),
                "a scaling transform reads no plane: it is rotation only",
            ),
        ],
        ids=[
            "zero_shift_direction",
            "cov_scale_square_overflows",
            "int_cov_scale_square_overflows",
            "name_with_path_separator",
            "direction_of_a_rotation",
            "plane_of_a_scaling",
        ],
    )
    def test_value_that_cannot_run(self, tmp_path, capsys, damage, message):
        doc = ExperimentConfig.default().to_dict()
        damage(doc)
        with pytest.raises(ConfigInvalid, match=re.escape(message)):
            ExperimentConfig.from_dict(doc)
        assert cli.main(["pretrain", "--config", str(write_json(tmp_path, doc))]) == 1
        assert message in capsys.readouterr().err

    def test_model_config_bounds(self):
        # a width built in Python passes the schema walk's integer test too:
        # 8.7 used to train an 8-wide block and True a 1-wide one
        for widths in ([], [0], [8.7], [True], [8, 4.0]):
            with pytest.raises(ConfigInvalid, match="hidden_dims"):
                ModelConfig(hidden_dims=widths).validate()

    def test_pretrain_bounds(self):
        with pytest.raises(ConfigInvalid):
            PretrainConfig(epochs=0).validate()
        with pytest.raises(ConfigInvalid):
            PretrainConfig(learning_rate=-1.0).validate()


class TestDefaultExperiment:
    def test_seed_threads_to_data_only(self):
        # the geometry, initialisation and shuffle seeds are constants, so the
        # data seed is the one seed a document carries
        doc = ExperimentConfig.default(seed=4).to_dict()
        assert re.findall(r'"(\w*seed\w*)":', json.dumps(doc)) == ["seed"]
        assert doc["synthetic"]["seed"] == 4

    def test_default_shape(self):
        cfg = ExperimentConfig.default()
        assert cfg.shift is not None and cfg.shift.severity == 5
        assert [m.method for m in cfg.methods] == [
            "source",
            "bn",
            "pl",
            "entropy",
            "global_fa",
            "intra",
            "cafa",
        ]
        # 60 online batches of 64
        assert cfg.synthetic.n_classes * cfg.synthetic.n_test_per_class == 60 * 64


def check_schema_keys(cls, doc, where: str) -> None:
    """`doc` names exactly the fields of dataclass `cls`, and so does each
    nested section (a dataclass field, optional or a list of entries)."""
    hints = typing.get_type_hints(cls)
    assert set(doc) == set(hints), f"{where}: {sorted(set(doc) ^ set(hints))}"
    for name, value in doc.items():
        tp = hints[name]
        section = next(
            (t for t in (tp, *typing.get_args(tp)) if dataclasses.is_dataclass(t)), None
        )
        if section is not None:
            for entry in value if isinstance(value, list) else [value]:
                check_schema_keys(section, entry, f"{where}.{name}")


def test_readme_schema_names_every_field():
    # the README's schema block, with its // comments stripped, names every
    # field of every section and nothing else, and its comments name every
    # value of every closed set and every field's range ("n_classes >= 2")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration schema", 1)[1]
    block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    doc = json.loads(re.sub(r"//[^\n]*", "", block))
    check_schema_keys(ExperimentConfig, doc, "top-level")
    comments = " ".join(re.findall(r"//[^\n]*", block))
    for where, cls, _ in SCHEMA_SECTIONS:
        for name, tp in hints(cls).items():
            for value in typing.get_args(tp) if typing.get_origin(tp) is typing.Literal else ():
                assert f'"{value}"' in comments, (where, name, value)
            for bound in bounds(tp):
                assert f"{name} {bound}" in comments, (where, name, str(bound))


def schema_sections(cls=ExperimentConfig, where="top-level", steps=()):
    """(section path as the walk names it, dataclass, the attribute names
    and list indices that lead from a config to it) of `cls` and of every
    section reachable from its annotations; a list of sections stands for
    its first entry."""
    yield where, cls, steps
    for name, tp in typing.get_type_hints(cls).items():
        for arm in (tp, *typing.get_args(tp)):
            if dataclasses.is_dataclass(arm):
                path = name if where == "top-level" else f"{where}.{name}"
                if typing.get_origin(tp) is list:
                    yield from schema_sections(arm, f"{path}[]", (*steps, name, 0))
                else:
                    yield from schema_sections(arm, path, (*steps, name))


def section_of(cfg, steps):
    for step in steps:
        cfg = getattr(cfg, step) if dataclasses.is_dataclass(cfg) else cfg[step]
    return cfg


hints = functools.partial(typing.get_type_hints, include_extras=True)


def bounds(tp):
    """Each `Least` range in annotation `tp`, those of its entries included."""
    if typing.get_origin(tp) is typing.Annotated:
        yield tp.__metadata__[0]
    for arg in typing.get_args(tp):
        yield from bounds(arg)


def wrong_values(tp) -> list:
    """Values no JSON document reads into a field of annotation `tp`: values
    of another JSON type, a string outside a closed set, the first number
    past each end of a `Least` range, and Python objects that its JSON form
    would read back as something else or that `json` cannot write (a list
    for a tuple, a tuple for a list, a NumPy scalar other than float64)."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Annotated:
        bound = tp.__metadata__[0]
        outside = [bound.low if bound.strict else bound.low - 1]
        if bound.high < math.inf:
            outside.append(bound.high + 1)
        return wrong_values(args[0]) + outside
    if origin in (types.UnionType, typing.Union):
        return [v for arm in args if arm is not type(None) for v in wrong_values(arm)]
    if origin is list:
        entries = wrong_values(args[0])
        return [5, "ab", tuple(), [entries[0]], [entries[-1]]]
    if origin is tuple:
        firsts, lasts = (tuple(wrong_values(a)[i] for a in args) for i in (0, -1))
        return [5, [0] * len(args), firsts, lasts]
    if origin is typing.Literal or dataclasses.is_dataclass(tp):
        return ["x", 5]
    return {
        int: [2.5, True, "1", np.int32(1), np.int64(64)],
        float: [NAN, math.inf, "x", True, np.int64(1), np.float32(0.2)],
        str: [5, 1.5],
    }[tp]


SCHEMA_SECTIONS = list(schema_sections())
WRONG_FIELDS = [
    pytest.param(where, steps, name, value, id=f"{where}.{name}={value!r}")
    for where, cls, steps in SCHEMA_SECTIONS
    for name, tp in hints(cls).items()
    for value in wrong_values(tp)
]
HEADERS = [  # one of each file header the program writes
    RunHeader(config=TtaConfig(), csv_sha256="0" * 64),
    Manifest(methods=["source", "cafa"], source_holdout_accuracy=0.75),
    StatsHeader(2, 4, 3, "class_wise", 1e-4, [41, 46, 33], ["class 0: rank-deficient"]),
    CheckpointHeader(1, 1, [LayoutEntry("classifier.bias", [3]), LayoutEntry("n", [])]),
]
HEADER_SECTIONS = [
    (header, where, cls, steps)
    for header in HEADERS
    for where, cls, steps in schema_sections(type(header), type(header).__name__)
]


def test_every_schema_section_is_defined_in_config():
    # the whole schema lives in one module, so the walk and every section
    # that it checks are read together: every config section, and every
    # header of a file the program writes
    names = {cls.__name__ for _, cls, _ in SCHEMA_SECTIONS}
    assert {"SyntheticSpec", "ShiftSpec", "ShiftTransform", "TtaConfig"} <= names
    names = {cls.__name__ for _, _, cls, _ in HEADER_SECTIONS}
    assert {"RunHeader", "Manifest", "StatsHeader", "CheckpointHeader", "LayoutEntry"} <= names
    for where, cls, _ in SCHEMA_SECTIONS + [s[1:] for s in HEADER_SECTIONS]:
        assert cls.__module__ == "tta_align.config", (where, cls)


@pytest.mark.parametrize("header", HEADERS, ids=lambda h: type(h).__name__)
def test_header_round_trips_through_json(header):
    doc = json.loads(json.dumps(plain(header)))
    assert read(type(header), doc, type(header).__name__) == header


@pytest.mark.parametrize(
    "header, where, steps, name, value",
    [
        pytest.param(header, where, steps, name, value, id=f"{where}.{name}={value!r}")
        for header, where, cls, steps in HEADER_SECTIONS
        for name, tp in hints(cls).items()
        for value in wrong_values(tp)
    ],
)
def test_header_field_of_a_wrong_type_is_refused(header, where, steps, name, value):
    # every header is read by the walk, so each of its fields meets the
    # same type and range rules as a config field, named the same way
    doc = plain(header)
    section_of(doc, steps)[name] = value
    named = "|".join(
        [
            re.escape(f"field {name!r} in section {where!r}"),
            re.escape(f"section '{where}.{name}") + r"(\[\])?' must be a JSON object",
        ]
    )
    with pytest.raises(ConfigInvalid, match=named):
        read(type(header), doc, type(header).__name__)


def test_no_schema_field_is_an_enum():
    # a closed set is a Literal of strings, so a config holds what its JSON
    # form reads back
    def parts(tp):
        yield tp
        for arg in typing.get_args(tp):
            yield from parts(arg)

    for where, cls, _ in SCHEMA_SECTIONS:
        for name, tp in typing.get_type_hints(cls).items():
            for part in parts(tp):
                assert not (isinstance(part, type) and issubclass(part, enum.Enum)), (where, name)


@pytest.mark.parametrize("where, steps, name, value", WRONG_FIELDS)
def test_python_built_field_of_a_wrong_type_is_refused(where, steps, name, value):
    # a config built in Python meets the walk's type rules, from the whole
    # config's validate() and from its own section's, and the error names
    # the field as it would for a JSON document; a field that holds a
    # section is named as that section
    cfg = ExperimentConfig.default()
    section = section_of(cfg, steps)
    setattr(section, name, value)
    path = name if where == "top-level" else f"{where}.{name}"
    named = "|".join(
        [
            re.escape(f"field {name!r} in section {where!r}"),
            re.escape(f"section '{path}") + r"(\[\])?' must be a JSON object",
        ]
    )
    with pytest.raises(ConfigInvalid, match=named):
        cfg.validate()
    input_dim = [cfg.synthetic.input_dim] if where.startswith("shift") else []
    with pytest.raises(ConfigInvalid, match=named):
        section.validate(*input_dim)


LEAF_FIELDS = {  # (steps, name) of each number or closed-set field -> its annotation
    (steps, name): tp
    for _, cls, steps in SCHEMA_SECTIONS
    for name, tp in typing.get_type_hints(cls).items()
    if tp in (int, float) or typing.get_origin(tp) is typing.Literal
}
NUMBERS = st.one_of(
    st.integers(-1, 4000),
    st.integers(-1, 4000).map(np.int64),
    st.floats(-1e300, 1e300),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans(),
)
CHOICES = st.sampled_from(
    sorted({v for tp in LEAF_FIELDS.values() for v in typing.get_args(tp)})
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.sampled_from(list(LEAF_FIELDS)), NUMBERS | CHOICES), max_size=4),
    st.none() | st.lists(NUMBERS, min_size=3, max_size=3),
)
def test_accepted_python_built_config_round_trips_through_json(edits, cov_scales):
    # whatever validate() accepts, NumPy scalars and every named choice
    # included, json can write and from_dict reads back as an equal config
    cfg = ExperimentConfig.default()
    for (steps, name), value in edits:
        setattr(section_of(cfg, steps), name, value)
    cfg.synthetic.cov_scales = cov_scales
    try:
        cfg.validate()
    except ConfigInvalid:
        return
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
