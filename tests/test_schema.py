"""The package's own schema check, with jsonschema as its oracle.

`config._validate` walks `experiment.schema.json` itself so that numpy is
the only runtime dependency.  Here `jsonschema.Draft7Validator` (a test
dependency only) judges mutated experiment configs and attack settings, and
both must agree on accept or reject and on the first offending path, with
jsonschema's path order (list indices compare as integers).
"""

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfl import config as cfgmod
from hyperfl import fedsim as fs
from hyperfl.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = cfgmod._schema()
ATTACK_SCHEMA = {**SCHEMA["definitions"]["attack"], "definitions": SCHEMA["definitions"]}
OPTIM = {"learning_rate": 0.1, "momentum": 0.5, "weight_decay": 0.0}
COMMON = {  # every key set: the schema accepts it, the runtime only what its dp_fedavg reads
    "algorithm": "dp_fedavg",
    "seed": 3,
    "output_dir": "runs/x",
    "workers": 1,
    "snapshot_every": 2,
    "partition": {
        "clients": 4,
        "groups": 2,
        "dominant_classes": 1,
        "samples_per_client": 20,
        "uniform_percent": 20.0,
        "test_fraction": 0.25,
    },
    "model": {"extractor": [16, 8], "classifier": [8, 3], "activation": "relu"},
    "hypernet": {"embedding_dim": 4, "hidden_dim": 6, "hidden_bias": True},
    "rounds": {
        "local_epochs": 1,
        "batch_size": 5,
        "sampling_rate": 0.5,
        "total_rounds": 2,
        "server_lr": 1.0,
        "eta_g": OPTIM,
        "eta_h": OPTIM,
        "eta_v": OPTIM,
    },
    "dp": {"clip_norm": 1.0, "sigma": 0.1},
}
DATASETS = [
    {"kind": "synthetic", "num_classes": 3, "dim": 16, "per_class": 40, "separation": 2.0, "image_shape": [4, 4]},
    {"kind": "pattern", "num_classes": 3, "side": 4, "per_class": 40, "image_shape": None},
    {"kind": "idx", "images": "x.idx", "labels": "y.idx", "num_classes": None, "image_shape": [2, 8]},
]
VALID = [(dict(COMMON, dataset=ds), SCHEMA) for ds in DATASETS] + [
    (dict(COMMON, dataset=DATASETS[2], dp={"clip_norm": None, "sigma": 0.0}), SCHEMA),
    (
        {
            "iterations": 10,
            "step_size": 0.1,
            "grad_loss": "cosine",
            "tv_coeff": 0.0,
            "init": "uniform",
            "optimizer": "adam",
            "seed": 1,
            "samples": 2,
        },
        ATTACK_SCHEMA,
    ),
]

ODD_VALUES = [True, False, None, "", "x", "relu", "idx", [], {}, [4, 4], [1, 2, 3], {"kind": "idx"}]
ODD_VALUES += [0, 1, 2, -1, 0.0, 0.5, 1.0, 5.0, 100, 100.5, 1e9]
VALUES = st.one_of(
    st.sampled_from(ODD_VALUES).map(copy.deepcopy),  # a fresh list or dict each draw
    st.integers(-3, 120),
    st.floats(-2.0, 120.0, allow_nan=False),
)
EXTRA_KEYS = ["zz_extra", "batchsize", "kind", "attack", "num_classes", "dim"]


def walker_path(raw, schema):
    """First offending path as `_validate` reports it, or None when accepted."""
    try:
        cfgmod._validate(raw, schema, "config")
    except ConfigError as e:
        return re.match(r"config invalid at (.*?): ", str(e)).group(1)
    return None


def oracle_path(raw, schema):
    errors = sorted(jsonschema.Draft7Validator(schema).iter_errors(raw), key=lambda e: list(e.absolute_path))
    return ("/".join(map(str, errors[0].absolute_path)) or "<root>") if errors else None


def all_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from all_paths(child, prefix + (key,))


def locate(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw):
    """A valid document with one to three mutations applied, and its schema."""
    doc, schema = draw(st.sampled_from(VALID))
    doc = json.loads(json.dumps(doc))  # unshared copy: the eta_* blocks alias one dict
    for _ in range(draw(st.integers(1, 3))):
        paths = list(all_paths(doc))
        path = draw(st.sampled_from(paths))
        target = locate(doc, path)
        ops = ["set"] + (["delete"] if path and isinstance(locate(doc, path[:-1]), dict) else [])
        ops += ["extra"] if isinstance(target, dict) else ["grow", "shrink"] if isinstance(target, list) else []
        op = draw(st.sampled_from(ops))
        if op == "set" and not path:
            doc = draw(VALUES)
        elif op == "set":
            locate(doc, path[:-1])[path[-1]] = draw(VALUES)
        elif op == "delete":
            del locate(doc, path[:-1])[path[-1]]
        elif op == "extra":
            target[draw(st.sampled_from(EXTRA_KEYS))] = draw(VALUES)
        elif op == "grow":
            target.extend(draw(st.lists(VALUES, min_size=1, max_size=12)))
        elif target:
            target.pop(draw(st.integers(0, len(target) - 1)))
        if not isinstance(doc, (dict, list)):
            break
    return doc, schema


@pytest.mark.parametrize("doc, schema", VALID)
def test_valid_documents_pass_both(doc, schema):
    assert walker_path(doc, schema) is None
    assert oracle_path(doc, schema) is None


@settings(max_examples=400, deadline=None)
@given(mutated())
def test_walker_agrees_with_draft7_validator(case):
    doc, schema = case
    assert walker_path(doc, schema) == oracle_path(doc, schema)


def with_changes(**changes):
    doc = json.loads(json.dumps(dict(COMMON, dataset=DATASETS[0])))
    for dotted, value in changes.items():
        *parents, key = dotted.split("__")
        locate(doc, parents)[key] = value
    return doc


BAD_EXTRACTOR = [16, 16, 0] + [16] * 7 + ["wide"]  # bad at index 2 and index 10


@pytest.mark.parametrize(
    "doc, where",
    [
        pytest.param(with_changes(seed=5.0), None, id="float-integer"),
        pytest.param(with_changes(seed=5.5), "seed", id="fractional-integer"),
        pytest.param(with_changes(seed=True), "seed", id="bool-not-integer"),
        pytest.param(with_changes(rounds__server_lr=False), "rounds/server_lr", id="bool-not-number"),
        # true is not "synthetic", and oneOf reports at the parent
        pytest.param(with_changes(dataset__kind=True), "dataset", id="bool-not-const"),
        # /2 before /10: list indices compare as integers, not as strings
        pytest.param(with_changes(model__extractor=BAD_EXTRACTOR), "model/extractor/2", id="index-order"),
    ],
)
def test_fixed_cases_agree(doc, where):
    assert walker_path(doc, SCHEMA) == oracle_path(doc, SCHEMA) == where


def schema_nodes(schema):
    yield schema
    for key in ("properties", "definitions"):
        for sub in schema.get(key, {}).values():
            yield from schema_nodes(sub)
    for sub in [schema["items"]] if "items" in schema else []:
        yield from schema_nodes(sub)
    for sub in schema.get("oneOf", []):
        yield from schema_nodes(sub)


def test_schema_uses_only_keywords_the_walker_implements():
    nodes = list(schema_nodes(SCHEMA))
    used = set().union(*(node.keys() for node in nodes)) - {"$schema", "title", "definitions"}
    assert used <= cfgmod.SCHEMA_KEYWORDS, used - cfgmod.SCHEMA_KEYWORDS
    # additionalProperties is implemented for `false` only, items for a single schema only
    assert all(node.get("additionalProperties", False) is False for node in nodes)
    assert all(isinstance(node.get("items", {}), dict) for node in nodes)
    assert all(ref.startswith("#/definitions/") for ref in (n["$ref"] for n in nodes if "$ref" in n))


def test_schema_algorithm_enum_matches_the_protocol_table():
    """Every spelling the schema accepts names a protocol, and every protocol has one."""
    spellings = SCHEMA["properties"]["algorithm"]["enum"]
    assert {name.replace("-", "_") for name in spellings} == set(fs.PROTOCOLS)


def test_runtime_never_imports_jsonschema(tmp_path):
    cfg = tmp_path / "config.json"
    # COMMON sets every key, and no protocol reads them all: keep those dp_fedavg reads
    rounds = {k: v for k, v in COMMON["rounds"].items() if k not in ("eta_h", "eta_v", "server_lr")}
    reads = {k: v for k, v in COMMON.items() if k != "hypernet"} | {"rounds": rounds}
    cfg.write_text(json.dumps(dict(reads, dataset=DATASETS[0], output_dir=str(tmp_path / "run"))))
    code = (
        "import sys, hyperfl, hyperfl.cli\n"
        "assert hyperfl.cli.main(['partition', sys.argv[1]]) == 0\n"
        "print('jsonschema' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(cfg)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "False"
