"""Experiment configuration: schema-validated JSON in, typed objects out.

A config file names an algorithm, a dataset source, the model and
hypernetwork architecture, the training recipe, and an output directory.
`load_config` validates it against the published schema (unknown keys are
rejected), fills in defaults, and returns a resolved view whose dict form
round-trips through JSON byte-for-byte.  The package checks the schema
itself: `_walk` implements the draft-7 keywords the schema file uses, so
numpy stays the only runtime dependency.  Constructing an
`ExperimentConfig` builds its model bundle, round recipe and DP settings
once, so a config that cannot run fails there and every command reads the
same objects.  Every value a config holds changes the run: a setting that
only some protocols read (`PROTOCOL_SETTINGS`) must keep its default under
any other protocol, and `model.activation` its default on nets with no hidden
layer, or construction refuses it.  Builders then materialize the dataset and
shards deterministically from the resolved values, so a stored
`config.resolved.json` is the whole recipe of a run.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import MISSING, asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Optional

from . import datakit as dk
from .attack import AttackConfig
from .datakit import Dataset, PartitionSpec
from .errors import ConfigError
from .fedsim import PROTOCOLS, DPConfig, ModelBundle, RoundConfig
from .hypernet import HypernetSpec, target_from_netspec
from .network import NetSpec, OptimConfig, dense_net

_DEFAULTS = {
    "workers": 1,  # accepted only as 1: sampled clients always train one after another
    "snapshot_every": 0,
    "partition": {
        "clients": 20,
        "groups": 3,
        "dominant_classes": 3,
        "samples_per_client": 600,
        "uniform_percent": 20.0,
        "test_fraction": 1.0 / 6.0,
    },
    "model": {"activation": "relu"},
    "hypernet": {f.name: f.default for f in fields(HypernetSpec) if f.default is not MISSING}
    | {"hidden_bias": True},  # accepted only as true: the trunk always has a bias
    "rounds": asdict(RoundConfig()),
    "dp": {"clip_norm": None, "sigma": 0.0},
}

_DATASET_DEFAULTS = {"synthetic": {"separation": 3.0}, "pattern": {}, "idx": {"num_classes": None}}

ATTACK_DEFAULTS = {**asdict(AttackConfig()), "samples": 50}

# config paths that only some protocols read -> the fedsim.PROTOCOLS flags, any of
# which marks a protocol that reads it; elsewhere the value must stay at its default
PROTOCOL_SETTINGS = {
    "dp": ("sanitizes",),
    "hypernet": ("hyper", "server_steps"),
    "rounds/eta_h": ("hyper",),
    "rounds/eta_v": ("hyper",),
    "rounds/server_lr": ("server_steps",),
}


@functools.cache
def _schema() -> dict:
    with resources.files("hyperfl").joinpath("schema/experiment.schema.json").open("rb") as f:
        return json.load(f)


# -- schema validation: the draft-7 keywords experiment.schema.json uses -----------------

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}
_TYPES |= {"number": (int, float), "integer": int}
_BOUNDS = {"minimum": operator.lt, "maximum": operator.gt}  # keyword -> comparison that breaks it
_BOUNDS |= {"exclusiveMinimum": operator.le, "exclusiveMaximum": operator.ge}
SCHEMA_KEYWORDS = {"type", "enum", "const", *_BOUNDS, "minLength", "items", "minItems", "maxItems"}
SCHEMA_KEYWORDS |= {"properties", "required", "additionalProperties", "oneOf", "$ref"}


def _is(value, type_name: str) -> bool:
    """Draft-7 types: booleans are neither integers nor numbers, and 5.0 is an integer."""
    if isinstance(value, bool) and type_name != "boolean":
        return False
    return isinstance(value, _TYPES[type_name]) or (
        type_name == "integer" and isinstance(value, float) and value.is_integer()
    )


def _walk(value, schema: dict, root: dict, errors: list, path: tuple = ()):
    """``value`` with each float that ``schema`` types "integer" made an int; appends a
    (path, message) pair to ``errors`` for each way ``value`` breaks ``schema``, as draft 7 reads it."""
    while "$ref" in schema:  # draft 7 ignores a $ref's siblings
        schema = root["definitions"][schema["$ref"].removeprefix("#/definitions/")]
    types = schema.get("type", [])
    if types and not any(_is(value, t) for t in ([types] if isinstance(types, str) else types)):
        errors.append((path, f"{value!r} is not of type {types!r}"))
    allowed = schema.get("enum", [schema["const"]] if "const" in schema else None)
    if allowed is not None and not any(
        a == value and isinstance(a, bool) == isinstance(value, bool) for a in allowed  # true is not 1
    ):
        errors.append((path, f"{value!r} is not one of {allowed!r}"))
    for key, breaks in _BOUNDS.items():
        if key in schema and _is(value, "number") and breaks(value, schema[key]):
            errors.append((path, f"{value!r} is out of range ({key} {schema[key]!r})"))
    if isinstance(value, str) and len(value) < schema.get("minLength", 0):
        errors.append((path, f"{value!r} is too short"))
    if isinstance(value, list):
        if not schema.get("minItems", 0) <= len(value) <= schema.get("maxItems", math.inf):
            errors.append((path, f"{value!r} has {len(value)} items"))
        value = [_walk(item, schema.get("items", {}), root, errors, path + (i,)) for i, item in enumerate(value)]
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                errors.append((path, f"{key!r} is a required property"))
        extra = [k for k in value if k not in props]
        if extra and schema.get("additionalProperties", True) is False:
            errors.append((path, f"unexpected properties {extra!r}"))
        value = {k: _walk(v, props.get(k, {}), root, errors, path + (k,)) for k, v in value.items()}
    if "oneOf" in schema:
        branches = [(_walk(value, sub, root, errs := [], path), errs) for sub in schema["oneOf"]]
        passing = [v for v, errs in branches if not errs]
        if len(passing) == 1:
            value = passing[0]  # the one branch that admits it types its integers
        else:
            errors.append((path, f"{value!r} is valid under {len(passing)} of the given schemas, not exactly one"))
    return int(value) if "integer" in types and _is(value, "integer") else value


def _validate(raw, schema: dict, what: str):
    """Raise ConfigError naming the first offending path, in path order; else return ``raw``
    with each float the schema types "integer" made an int."""
    errors: list = []
    value = _walk(raw, schema, schema, errors)
    first = min(errors, key=lambda e: e[0], default=None)
    if first is not None:
        where = "/".join(map(str, first[0])) or "<root>"
        raise ConfigError(f"{what} invalid at {where}: {first[1]}")
    return value


def _merge(defaults: dict, user: dict) -> dict:
    out = dict(defaults)
    for k, v in user.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def default_image_shape(dim: int) -> list[int]:
    """Square when the pixel count allows it, a single row otherwise."""
    side = math.isqrt(dim)
    return [side, side] if side * side == dim else [1, dim]


def resolve(raw: dict) -> dict:
    """Validate a config dict and materialize every default into it."""
    raw = _validate(raw, _schema(), "config")
    out = _merge(_DEFAULTS, raw)
    out["algorithm"] = out["algorithm"].replace("-", "_")

    ds = _merge(_DATASET_DEFAULTS[raw["dataset"]["kind"]], raw["dataset"])
    if "image_shape" not in ds:
        if ds["kind"] == "pattern":
            ds["image_shape"] = [ds["side"], ds["side"]]
        elif ds["kind"] == "synthetic":
            ds["image_shape"] = default_image_shape(ds["dim"])
        else:
            ds["image_shape"] = None  # unknown until the files are read
    out["dataset"] = ds
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration; ``data`` is the JSON-ready resolved dict.

    Construction builds the typed objects once and raises ConfigError for a
    config that cannot run, so a bad value fails here, not mid-run.  Beyond
    the schema and the typed objects' own checks it refuses a setting the
    protocol does not read left off its default (`PROTOCOL_SETTINGS`),
    `model.activation` off its default on nets with no hidden layer, an
    extractor input width that the dataset or `image_shape` does not match,
    and a classifier with fewer logits than the dataset has classes.
    """

    data: dict
    bundle: ModelBundle = field(init=False, compare=False, repr=False)
    round_config: RoundConfig = field(init=False, compare=False, repr=False)
    dp_config: DPConfig = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        r = self.data["rounds"]  # exactly RoundConfig's fields: the defaults merge and the schema see to it
        etas = {k: OptimConfig(**r[k]) for k in ("eta_g", "eta_h", "eta_v")}
        d = self.data["dp"]
        clip = math.inf if d["clip_norm"] is None else float(d["clip_norm"])
        object.__setattr__(self, "round_config", RoundConfig(**{**r, **etas}))
        object.__setattr__(self, "dp_config", DPConfig(clip_norm=clip, sigma=float(d["sigma"])))
        proto = PROTOCOLS[self.algorithm]
        for path, flags in PROTOCOL_SETTINGS.items():
            lookup = functools.partial(functools.reduce, operator.getitem, path.split("/"))
            if not any(getattr(proto, f) for f in flags) and lookup(self.data) != lookup(_DEFAULTS):
                readers = [name for name, p in PROTOCOLS.items() if any(getattr(p, f) for f in flags)]
                raise ConfigError(f"{path}: read only by {' and '.join(readers)}, not by {self.algorithm}")
        object.__setattr__(self, "bundle", build_bundle(self))

    @property
    def algorithm(self) -> str:
        return self.data["algorithm"]

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def output_dir(self) -> Path:
        return Path(self.data["output_dir"])

    @property
    def snapshot_every(self) -> int:
        return self.data["snapshot_every"]

    def partition_spec_for(self, num_classes: int) -> PartitionSpec:
        """Concrete shard recipe once the dataset's class count is known."""
        p = self.data["partition"]
        return PartitionSpec(
            groups=dk.consecutive_groups(num_classes, p["groups"], p["dominant_classes"]),
            samples_per_client=p["samples_per_client"],
            uniform_percent=p["uniform_percent"],
        )

    @property
    def image_shape(self) -> Optional[tuple[int, int]]:
        shape = self.data["dataset"]["image_shape"]
        return None if shape is None else tuple(shape)


def _read_json(path: str | Path, what: str) -> dict:
    """Parse a JSON object from ``path``; ConfigError names the line and column of a syntax fault."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} is not valid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return raw


def load_config(path: str | Path) -> ExperimentConfig:
    """Read, validate, and resolve a config file."""
    return ExperimentConfig(resolve(_read_json(path, "config")))


def load_attack_overrides(path: str | Path) -> tuple[AttackConfig, int]:
    """Read a standalone attack-settings file; returns (config, sample count)."""
    raw = _read_json(path, "attack config")
    definitions = _schema()["definitions"]
    raw = _validate(raw, {**definitions["attack"], "definitions": definitions}, "attack config")
    merged = _merge(ATTACK_DEFAULTS, raw)  # the single-valued "grad_loss", "init" and "optimizer" are not fields
    return AttackConfig(**{f.name: merged[f.name] for f in fields(AttackConfig)}), merged["samples"]


# -- builders -------------------------------------------------------------------


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    """The dataset the config names; an IDX pair is also checked against the model."""
    ds = cfg.data["dataset"]
    if ds["kind"] == "synthetic":
        return dk.synth_dataset(
            num_classes=ds["num_classes"],
            dim=ds["dim"],
            per_class=ds["per_class"],
            separation=ds["separation"],
            seed=cfg.seed,
        )
    if ds["kind"] == "pattern":
        return dk.pattern_dataset(
            num_classes=ds["num_classes"], side=ds["side"], per_class=ds["per_class"], seed=cfg.seed
        )
    data = dk.load_idx(ds["images"], ds["labels"], num_classes=ds["num_classes"])
    fe, cls = cfg.bundle.fe, cfg.bundle.cls  # only now are an IDX file's width and classes known
    if data.dim != fe.in_dim:
        raise ConfigError(f"model/extractor: input width {fe.in_dim} does not match the dataset's {data.dim} features")
    if cls.out_dim < data.num_classes:
        raise ConfigError(f"model/classifier: {cls.out_dim} logits, fewer than the dataset's {data.num_classes} classes")
    return data


def build_shards(cfg: ExperimentConfig, ds: Dataset) -> list[tuple[Dataset, Dataset]]:
    """Partition, then split each client's shard into train and test."""
    p = cfg.data["partition"]
    parts = dk.partition(ds, cfg.partition_spec_for(ds.num_classes), p["clients"], cfg.seed)
    return [dk.train_test_split(part, cfg.seed + c, p["test_fraction"]) for c, part in enumerate(parts)]


def build_bundle(cfg: ExperimentConfig) -> ModelBundle:
    m = cfg.data["model"]
    ds = cfg.data["dataset"]
    if ds["kind"] == "synthetic" and m["extractor"][0] != ds["dim"]:
        raise ConfigError(
            f"extractor input width {m['extractor'][0]} does not match dataset dim {ds['dim']}"
        )
    if ds["kind"] == "pattern" and m["extractor"][0] != ds["side"] ** 2:
        raise ConfigError(
            f"extractor input width {m['extractor'][0]} does not match {ds['side']}x{ds['side']} images"
        )
    if ds["num_classes"] is not None and m["classifier"][-1] < ds["num_classes"]:
        raise ConfigError(  # a wider classifier trains: its extra logits are never targets
            f"model/classifier: {m['classifier'][-1]} logits, fewer than the dataset's {ds['num_classes']} classes"
        )
    shape = ds["image_shape"]
    if shape is not None and shape[0] * shape[1] != m["extractor"][0]:
        raise ConfigError(
            f"dataset/image_shape {shape} does not hold the extractor's {m['extractor'][0]} inputs"
        )
    if m["activation"] != _DEFAULTS["model"]["activation"] and len(m["extractor"]) == len(m["classifier"]) == 2:
        raise ConfigError(  # each net's last layer is linear and nothing sits between the two
            f"model/activation: read only by nets with a hidden layer, "
            f"not by extractor {m['extractor']} and classifier {m['classifier']}"
        )
    fe = dense_net("fe", m["extractor"], activation=m["activation"])
    cls = dense_net("cls", m["classifier"], activation=m["activation"])
    h = cfg.data["hypernet"]
    hyper = HypernetSpec(
        target=target_from_netspec(fe),
        embedding_dim=h["embedding_dim"],
        hidden_dim=h["hidden_dim"],
    )
    return ModelBundle(fe=fe, cls=cls, hyper=hyper)
