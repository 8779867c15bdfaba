"""Config resolution and the command-line surface.

Resolved configs are checked for byte-stable JSON round-trips and for the
documented defaults.  CLI runs are exercised in-process through `cli.main`;
report series and attack summaries are re-derived by hand from the raw CSV
rows (spreadsheet style) rather than through the library's own readers.
"""

import csv
import functools
import json
import math
import operator
import shutil
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hyperfl import attack as atk
from hyperfl import checkpoint as ckpt
from hyperfl import cli
from hyperfl import config as cfgmod
from hyperfl import datakit as dk
from hyperfl import fedsim as fs
from hyperfl import metrics as mx
from hyperfl.errors import (
    CapabilityError,
    CapacityError,
    ConfigError,
    ConsistencyError,
    DimensionError,
    FormatError,
    HyperflError,
    NumericError,
    PrivacyError,
)
from hyperfl.network import OptimConfig


def base_config(out_dir: Path, **over) -> dict:
    cfg = {
        "algorithm": "fedavg",
        "seed": 5,
        "output_dir": str(out_dir),
        "dataset": {"kind": "synthetic", "num_classes": 3, "dim": 16, "per_class": 30},
        "partition": {"clients": 3, "groups": 3, "dominant_classes": 1, "samples_per_client": 12},
        "model": {"extractor": [16, 8], "classifier": [8, 3]},
        "rounds": {"local_epochs": 1, "batch_size": 8, "total_rounds": 2},
    }
    for key, val in over.items():
        # switching dataset kind replaces the block; everything else merges
        if isinstance(val, dict) and isinstance(cfg.get(key), dict) and "kind" not in val:
            cfg[key] = {**cfg[key], **val}
        else:
            cfg[key] = val
    return cfg


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=2))
    return path


def train_run(tmp: Path, name: str = "run", **over) -> Path:
    """Run `train` on a small config; returns the output directory."""
    out = tmp / name
    cfg_path = write_config(tmp / f"{name}.json", base_config(out, **over))
    rc = cli.main(["train", str(cfg_path)])
    assert rc == 0
    return out


# -- config resolution ---------------------------------------------------------


def test_defaults_materialized(tmp_path):
    raw = {
        "algorithm": "hyperfl",
        "seed": 1,
        "output_dir": str(tmp_path),
        "dataset": {"kind": "synthetic", "num_classes": 3, "dim": 16, "per_class": 30},
        "model": {"extractor": [16, 8], "classifier": [8, 3]},
    }
    cfg = cfgmod.ExperimentConfig(cfgmod.resolve(raw))
    r = cfg.data["rounds"]
    assert (r["batch_size"], r["total_rounds"], r["local_epochs"]) == (50, 200, 5)
    assert r["eta_g"] == {"learning_rate": 0.1, "momentum": 0.5, "weight_decay": 5e-4}
    assert r["eta_h"]["learning_rate"] == r["eta_v"]["learning_rate"] == 0.01
    assert cfg.data["partition"]["clients"] == 20
    assert cfg.data["partition"]["samples_per_client"] == 600
    assert cfg.data["partition"]["uniform_percent"] == 20.0
    assert cfg.data["hypernet"] == {"embedding_dim": 64, "hidden_dim": 100, "hidden_bias": True}
    assert cfg.data["model"]["activation"] == "relu"
    assert cfg.data["dp"] == {"clip_norm": None, "sigma": 0.0}
    assert cfg.data["workers"] == 1 and cfg.data["snapshot_every"] == 0


def test_resolved_config_round_trips(tmp_path):
    written = (train_run(tmp_path) / "config.resolved.json").read_bytes()
    again = cfgmod.resolve(json.loads(written))
    assert again == cfgmod.load_config(tmp_path / "run.json").data
    ckpt.write_json(tmp_path / "again.json", again)
    assert (tmp_path / "again.json").read_bytes() == written


def test_constructing_a_config_builds_and_validates_it(tmp_path):
    resolved = cfgmod.resolve(base_config(tmp_path, dp={"sigma": 0.5, "clip_norm": None}))
    with pytest.raises(ConfigError, match="finite clip_norm"):
        cfgmod.ExperimentConfig(resolved)

    over = {"algorithm": "hyperfl", "rounds": {"eta_h": {"momentum": 0.0}}}
    cfg = cfgmod.ExperimentConfig(cfgmod.resolve(base_config(tmp_path, **over)))
    assert cfg.bundle == cfgmod.build_bundle(cfg)
    eta_h = OptimConfig(learning_rate=0.01, momentum=0.0, weight_decay=5e-4)
    assert cfg.round_config == fs.RoundConfig(local_epochs=1, eta_h=eta_h, batch_size=8, total_rounds=2)
    assert cfg.dp_config == fs.DPConfig()


def test_unknown_key_rejected_names_the_path(tmp_path):
    cfg = base_config(tmp_path, rounds={"batchsize": 8})
    with pytest.raises(ConfigError, match=r"rounds.*batchsize"):
        cfgmod.resolve(cfg)


def test_hyphenated_algorithm_normalized(tmp_path):
    cfg = cfgmod.ExperimentConfig(cfgmod.resolve(base_config(tmp_path, algorithm="dp-fedavg")))
    assert cfg.algorithm == "dp_fedavg"
    assert cfg.dp_config.clip_norm == math.inf and cfg.dp_config.sigma == 0.0


def test_malformed_json_reports_location(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "algorithm": fedavg\n}')
    with pytest.raises(ConfigError, match="line 2"):
        cfgmod.load_config(p)


def test_config_must_be_object(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        cfgmod.load_config(p)


def test_attack_overrides_merge_defaults(tmp_path):
    p = tmp_path / "att.json"
    p.write_text('{"iterations": 7}')
    acfg, samples = cfgmod.load_attack_overrides(p)
    assert acfg.iterations == 7
    assert acfg.step_size == 0.1 and acfg.tv_coeff == 1e-6
    assert samples == 50

    p.write_text("{}")
    acfg, samples = cfgmod.load_attack_overrides(p)
    assert acfg.iterations == 10_000 and samples == 50


def test_attack_overrides_reject_unknown_keys(tmp_path):
    p = tmp_path / "att.json"
    p.write_text('{"iters": 7}')
    with pytest.raises(ConfigError, match="iters"):
        cfgmod.load_attack_overrides(p)


def readme_json_blocks() -> list[dict]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return [json.loads(block.split("```", 1)[0]) for block in text.split("```json\n")[1:]]


def test_readme_quick_start_and_attack_settings_load(tmp_path):
    experiment, settings = readme_json_blocks()
    cfg = cfgmod.load_config(write_config(tmp_path / "config.json", experiment))
    assert cfg.algorithm == "hyperfl" and cfg.data["rounds"]["total_rounds"] == 20
    acfg, samples = cfgmod.load_attack_overrides(write_config(tmp_path / "attack.json", settings))
    assert acfg == atk.AttackConfig() and samples == 50


def test_single_valued_keys_load_only_their_value(fedavg_run, tmp_path, capsys):
    # older files name them; their one value loads, the removed one exits 1 naming the key
    cfg = base_config(tmp_path / "run", hypernet={"hidden_bias": True})
    assert cfgmod.load_config(write_config(tmp_path / "e.json", cfg)).data["hypernet"]["hidden_bias"] is True
    att = {"grad_loss": "cosine", "init": "uniform", "optimizer": "adam", "iterations": 3}
    p = write_config(tmp_path / "att.json", att)
    assert cfgmod.load_attack_overrides(p) == (atk.AttackConfig(iterations=3), 50)

    out = tmp_path / "off"
    cfg_path = write_config(tmp_path / "off.json", base_config(out, hypernet={"hidden_bias": False}))
    runs = [["train", str(cfg_path)]]
    for key, value in (("init", "zeros"), ("optimizer", "sgd"), ("grad_loss", "l2")):
        att = write_config(tmp_path / f"{key}.json", {key: value, "samples": 1})
        runs.append(["attack", str(fedavg_run / "snapshots" / "round_0002.hfl"), str(att)])
    capsys.readouterr()
    for argv, path in zip(runs, ["hypernet/hidden_bias", "init", "optimizer", "grad_loss"]):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"at {path}:" in err and len(err.splitlines()) == 1
    assert not out.exists()


# the exit codes README's CLI summary documents, per error class; a bare
# HyperflError (no subclass) is a bad request like any other
DOCUMENTED_EXIT_CODES = {
    HyperflError: 1, DimensionError: 1, CapabilityError: 1, CapacityError: 1, ConfigError: 1,
    NumericError: 2, FormatError: 3, ConsistencyError: 3, PrivacyError: 3,
}


def test_documented_exit_codes_cover_every_error_class():
    assert set(DOCUMENTED_EXIT_CODES) == {HyperflError, *HyperflError.__subclasses__()}


@pytest.mark.parametrize("error", DOCUMENTED_EXIT_CODES, ids=lambda e: e.__name__)
def test_every_error_class_exits_with_its_documented_code(tmp_path, capsys, monkeypatch, error):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_report", fail)
    assert cli.main(["report", str(tmp_path)]) == DOCUMENTED_EXIT_CODES[error]
    prefix = "numeric error" if error is NumericError else "error"
    assert capsys.readouterr().err == f"{prefix}: boom\n"  # one line, no traceback


def test_attack_block_in_experiment_config_exits_1(tmp_path, capsys):
    # attack settings live in their own file (`hyperfl attack SNAPSHOT SETTINGS`)
    out = tmp_path / "run"
    cfg = base_config(out, attack={"iterations": 5, "samples": 3})
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["train", str(cfg_path)]) == 1
    assert "attack" in capsys.readouterr().err
    assert not out.exists()


def test_extractor_width_checked_against_dataset(tmp_path):
    cfg = base_config(tmp_path, model={"extractor": [17, 8], "classifier": [8, 3]})
    with pytest.raises(ConfigError, match="does not match"):
        cfgmod.build_bundle(cfgmod.ExperimentConfig(cfgmod.resolve(cfg)))

    cfg = base_config(
        tmp_path, dataset={"kind": "pattern", "num_classes": 3, "side": 5, "per_class": 30}
    )
    with pytest.raises(ConfigError, match="5x5"):
        cfgmod.build_bundle(cfgmod.ExperimentConfig(cfgmod.resolve(cfg)))


@pytest.mark.parametrize(
    "dataset",
    [
        {"kind": "synthetic", "num_classes": 5, "dim": 16, "per_class": 30},
        {"kind": "pattern", "num_classes": 5, "side": 4, "per_class": 30},
        {"kind": "idx", "images": "absent.idx", "labels": "absent.idx", "num_classes": 5},
    ],
    ids=["synthetic", "pattern", "idx"],
)
def test_a_classifier_narrower_than_the_class_count_exits_1(tmp_path, capsys, dataset):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "c.json", base_config(out, dataset=dataset, model={"classifier": [8, 3]}))
    assert cli.main(["train", str(cfg_path)]) == 1  # refused before the idx files are read
    err = capsys.readouterr().err
    assert err.startswith("error: model/classifier: 3 logits") and len(err.splitlines()) == 1
    assert not out.exists()


def test_a_classifier_wider_than_the_class_count_trains(tmp_path):
    assert (train_run(tmp_path, model={"classifier": [8, 5]}) / "metrics.csv").exists()


def test_image_shape_checked_against_extractor_width(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "e.json", base_config(out, dataset={"image_shape": [5, 5]}))
    assert cli.main(["train", str(cfg_path)]) == 1  # 25 pixels, 16 extractor inputs
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dataset/image_shape" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_group_layout_wraps_consecutive_classes(tmp_path):
    cfg = cfgmod.ExperimentConfig(
        cfgmod.resolve(
            base_config(
                tmp_path,
                dataset={"num_classes": 10},
                model={"classifier": [8, 10]},
                partition={"groups": 5, "dominant_classes": 3},
            )
        )
    )
    spec = cfg.partition_spec_for(10)
    assert spec.groups == ((0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (8, 9, 0))
    assert spec.samples_per_client == 12


def test_dp_clip_null_is_unbounded(tmp_path):
    cfg = cfgmod.ExperimentConfig(
        cfgmod.resolve(base_config(tmp_path, dp={"clip_norm": None, "sigma": 0.0}))
    )
    assert cfg.dp_config.clip_norm == math.inf
    cfg = cfgmod.ExperimentConfig(
        cfgmod.resolve(base_config(tmp_path, algorithm="dp_fedavg", dp={"clip_norm": 1.5, "sigma": 0.5}))
    )
    assert cfg.dp_config.clip_norm == 1.5 and cfg.dp_config.sigma == 0.5


# the settings only some protocols read, who reads each, and values other than its default
READERS = {
    "dp": {"dp_fedavg"},
    "hypernet": {"hyperfl", "pfedhn"},
    "rounds/eta_h": {"hyperfl"},
    "rounds/eta_v": {"hyperfl"},
    "rounds/server_lr": {"pfedhn"},
}
OPTIM_CHANGES = [{"learning_rate": 0.02}, {"momentum": 0.0}, {"weight_decay": 0.0}]
NON_DEFAULT = {
    "dp": [{"clip_norm": 0.01, "sigma": 5.0}, {"clip_norm": 1.0}],
    "hypernet": [{"embedding_dim": 8}, {"hidden_dim": 12}],
    "rounds/eta_h": OPTIM_CHANGES,
    "rounds/eta_v": OPTIM_CHANGES,
    "rounds/server_lr": [0.5],
}


def setting(path: str, value) -> dict:
    """``base_config`` overrides that put ``value`` at ``path``."""
    block, *rest = path.split("/")
    return {block: {rest[0]: value} if rest else value}


def settings_for(read: bool, values_per_path: int | None = None):
    """(path, value, algorithm) for each non-default value and each protocol that does or does not
    read it; ids run ``<last path part><value index>-<algorithm>``, as pytest named the dp cases."""
    for path, values in NON_DEFAULT.items():
        for i, value in enumerate(values[:values_per_path]):
            for algorithm in sorted(fs.PROTOCOLS):
                if (algorithm in READERS[path]) == read:
                    yield pytest.param(path, value, algorithm, id=f"{path.split('/')[-1]}{i}-{algorithm}")


def test_the_refusal_table_is_the_one_tested():
    assert set(cfgmod.PROTOCOL_SETTINGS) == set(READERS) == set(NON_DEFAULT)


@pytest.mark.parametrize("path, value, algorithm", settings_for(read=False))
def test_dp_block_on_a_protocol_without_dp_exits_1(tmp_path, capsys, path, value, algorithm):
    # named for its first row: a setting the protocol does not read would do nothing, so it
    # exits 1 naming the path and the protocols that read it
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "cfg.json", base_config(out, algorithm=algorithm, **setting(path, value)))
    assert cli.main(["train", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and len(err.splitlines()) == 1
    assert all(reader in err for reader in READERS[path])
    assert not out.exists()
    # the same value loads for the protocols that read it
    for reader in READERS[path]:
        cfgmod.ExperimentConfig(cfgmod.resolve(base_config(out, algorithm=reader, **setting(path, value))))
    # the default, spelled out as config.resolved.json records it, still loads
    resolved = cfgmod.resolve(base_config(out, algorithm=algorithm))
    default = functools.reduce(operator.getitem, path.split("/"), resolved)
    spelled = cfgmod.resolve(base_config(out, algorithm=algorithm, **setting(path, default)))
    assert cfgmod.ExperimentConfig(spelled).data == resolved


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    """``base_run(algorithm)``: the output directory of ``base_config`` trained, once per module."""
    runs = {}

    def get(algorithm: str) -> Path:
        if algorithm not in runs:
            runs[algorithm] = train_run(tmp_path_factory.mktemp(algorithm), algorithm=algorithm)
        return runs[algorithm]

    return get


# one value per path: a value may leave a run as it was (dp1's clip_norm 1.0 bounds no update here)
@pytest.mark.parametrize("path, value, algorithm", settings_for(read=True, values_per_path=1))
def test_a_protocol_setting_changes_the_run_of_a_protocol_that_reads_it(
    tmp_path, base_run, path, value, algorithm
):
    out = train_run(tmp_path, algorithm=algorithm, **setting(path, value))
    assert (out / "metrics.csv").read_bytes() != (base_run(algorithm) / "metrics.csv").read_bytes()


@pytest.mark.parametrize("activation", ["leaky_relu", "linear"])
def test_activation_on_nets_with_no_hidden_layer_exits_1(tmp_path, capsys, activation):
    # base_config's [16, 8] extractor and [8, 3] classifier are one layer each, and
    # each net's last layer is linear: the value would do nothing
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "cfg.json", base_config(out, model={"activation": activation}))
    assert cli.main(["train", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model/activation:") and len(err.splitlines()) == 1
    assert not out.exists()
    # the default, spelled out as config.resolved.json records it, still loads
    spelled = cfgmod.resolve(base_config(out, model={"activation": "relu"}))
    assert cfgmod.ExperimentConfig(spelled).data == cfgmod.resolve(base_config(out))


@pytest.mark.parametrize(
    "model",
    [{"extractor": [16, 12, 8]}, {"classifier": [8, 6, 3]}],
    ids=["extractor-hidden", "classifier-hidden"],
)
def test_activation_changes_the_run_of_a_net_with_a_hidden_layer(tmp_path, model):
    relu = train_run(tmp_path, "relu", model=model)
    leaky = train_run(tmp_path, "leaky", model={**model, "activation": "leaky_relu"})
    assert (relu / "metrics.csv").read_bytes() != (leaky / "metrics.csv").read_bytes()


def without_output_dir(resolved: Path) -> bytes:
    return b"".join(line for line in resolved.read_bytes().splitlines(True) if b'"output_dir"' not in line)


# draft 7 counts a float with no fractional part as an integer
WHOLE_FLOATS = {
    "seed": {"seed": 5.0},
    "dataset/per_class": {"dataset": {"per_class": 30.0}},
    "dataset/image_shape": {"dataset": {"image_shape": [4.0, 4.0]}},  # a $ref to a oneOf, in a oneOf
    "partition/clients": {"partition": {"clients": 3.0}},
    "partition/dominant_classes": {"partition": {"dominant_classes": 1.0}},
    "partition/samples_per_client": {"partition": {"samples_per_client": 12.0}},
    "model/extractor": {"model": {"extractor": [16.0, 8.0]}},
    "hypernet/hidden_dim": {"hypernet": {"hidden_dim": 100.0}},
    "rounds/local_epochs": {"rounds": {"local_epochs": 1.0}},
    "rounds/batch_size": {"rounds": {"batch_size": 8.0}},
    "rounds/total_rounds": {"rounds": {"total_rounds": 2.0}},
}


@pytest.mark.parametrize("over", WHOLE_FLOATS.values(), ids=WHOLE_FLOATS)
def test_an_integer_spelled_as_a_float_runs_as_the_integer(tmp_path, base_run, over):
    out = train_run(tmp_path, algorithm="hyperfl", **over)
    ints = base_run("hyperfl")
    assert without_output_dir(out / "config.resolved.json") == without_output_dir(ints / "config.resolved.json")
    assert (out / "metrics.csv").read_bytes() == (ints / "metrics.csv").read_bytes()


def test_image_shape_defaults(tmp_path):
    def shape_for(**over):
        return cfgmod.ExperimentConfig(cfgmod.resolve(base_config(tmp_path, **over))).image_shape

    assert shape_for() == (4, 4)  # 16 pixels make a square
    assert shape_for(
        dataset={"dim": 12}, model={"extractor": [12, 8], "classifier": [8, 3]}
    ) == (1, 12)
    assert shape_for(
        dataset={"kind": "pattern", "num_classes": 3, "side": 6, "per_class": 30},
        model={"extractor": [36, 8], "classifier": [8, 3]},
    ) == (6, 6)
    assert shape_for(dataset={"image_shape": [2, 8]}) == (2, 8)
    assert shape_for(dataset={"kind": "idx", "images": "x.idx", "labels": "y.idx"}) is None


# -- train --------------------------------------------------------------------


@pytest.fixture(scope="module")
def fedavg_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fedavg")
    return train_run(tmp, "run")


@pytest.fixture(scope="module")
def attacked_run(fedavg_run, tmp_path_factory):
    att = tmp_path_factory.mktemp("att") / "att.json"
    att.write_text('{"iterations": 40, "samples": 2, "seed": 0}')
    rc = cli.main(["attack", str(fedavg_run / "snapshots" / "round_0002.hfl"), str(att)])
    assert rc == 0
    return fedavg_run


def test_train_writes_run_artifacts(fedavg_run):
    for name in ("config.resolved.json", "metrics.csv", "timings.csv", "final_accuracy.json"):
        assert (fedavg_run / name).exists()
    assert (fedavg_run / "snapshots" / "round_0002.hfl").exists()
    resolved = json.loads((fedavg_run / "config.resolved.json").read_text())
    assert resolved["rounds"]["sampling_rate"] == 1.0  # defaults landed in the record
    acc = json.loads((fedavg_run / "final_accuracy.json").read_text())
    assert set(acc) == {"0", "1", "2"}


def test_train_prints_output_dir(tmp_path, capsys):
    out = train_run(tmp_path, rounds={"total_rounds": 0})
    assert capsys.readouterr().out.strip() == str(out)


def test_round_zero_run_records_baseline_only(tmp_path):
    out = train_run(tmp_path, rounds={"total_rounds": 0})
    records = mx.read_metrics_csv(out / "metrics.csv")
    assert [r.round for r in records] == [0, 0, 0, 0]
    assert records[-1].client_id == "_mean"
    assert all(math.isnan(r.train_loss) for r in records)  # nothing trained yet
    assert all(math.isfinite(r.test_acc) for r in records)


def test_workers_below_one_exits_1(tmp_path, capsys):
    # 1 is the only value, and above it too: sampled clients always train one after another
    for workers in (0, 2):
        out = tmp_path / f"run{workers}"
        cfg_path = write_config(tmp_path / f"w{workers}.json", base_config(out, workers=workers))
        assert cli.main(["train", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at workers:" in err and len(err.splitlines()) == 1
        assert not out.exists()


@pytest.mark.parametrize(
    "total, every, want",
    [(4, 2, [2, 4]), (3, 2, [2, 3]), (2, 0, [2]), (0, 0, [0]), (0, 3, [0])],
)
def test_train_writes_each_snapshot_once(tmp_path, monkeypatch, total, every, want):
    written = []
    write = ckpt.write_checkpoint

    def record(path, tensors):
        written.append(Path(path).name)
        write(path, tensors)

    monkeypatch.setattr(ckpt, "write_checkpoint", record)
    out = train_run(tmp_path, snapshot_every=every, rounds={"total_rounds": total})
    assert written == [f"round_{t:04d}.hfl" for t in want]
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == written


def test_unknown_algorithm_exits_1(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "e.json", base_config(tmp_path, algorithm="sgd"))
    assert cli.main(["train", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_config_file_exits_3(tmp_path):
    assert cli.main(["train", str(tmp_path / "nope.json")]) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_numeric_blowup_exits_2_and_leaves_emergency_snapshot(tmp_path):
    out = tmp_path / "run"
    cfg = base_config(out, rounds={"total_rounds": 2, "eta_g": {"learning_rate": 1e200}})
    cfg_path = write_config(tmp_path / "e.json", cfg)
    assert cli.main(["train", str(cfg_path)]) == 2
    assert (out / "snapshots" / "emergency.hfl").exists()


def test_interrupt_mid_run_leaves_emergency_snapshot(tmp_path, monkeypatch):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "i.json", base_config(out, rounds={"total_rounds": 5}))
    run_round = fs.run_round

    def interrupted_in_round_3(server, *args, **kw):
        if server.round_t == 2:
            raise KeyboardInterrupt
        return run_round(server, *args, **kw)

    monkeypatch.setattr(fs, "run_round", interrupted_in_round_3)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["train", str(cfg_path)])
    cfg = cfgmod.load_config(out / "config.resolved.json")
    shards = cfgmod.build_shards(cfg, cfgmod.build_dataset(cfg))
    flat = ckpt.read_checkpoint(out / "snapshots" / "emergency.hfl")
    server, clients = fs.tensors_to_state(flat, shards, cfgmod.build_bundle(cfg))
    assert flat["meta/round"] == 2.0
    assert server.round_t == 2 and len(clients) == 3


def test_train_and_attack_build_the_bundle_once(tmp_path, monkeypatch):
    calls = []
    build = cfgmod.build_bundle

    def spy(cfg):
        calls.append(cfg.algorithm)
        return build(cfg)

    monkeypatch.setattr(cfgmod, "build_bundle", spy)
    out = train_run(tmp_path, rounds={"total_rounds": 0})
    assert calls == ["fedavg"]
    att = write_config(tmp_path / "att.json", {"iterations": 1, "samples": 1})
    assert cli.main(["attack", str(out / "snapshots" / "round_0000.hfl"), str(att)]) == 0
    assert calls == ["fedavg"] * 2


def test_rerun_removes_what_the_previous_run_derived(tmp_path):
    out = tmp_path / "run"
    first = write_config(tmp_path / "seed7.json", base_config(out, seed=7, snapshot_every=1))
    second = write_config(tmp_path / "seed8.json", base_config(out, seed=8, snapshot_every=0))
    att = write_config(tmp_path / "att.json", {"iterations": 2, "samples": 1})
    snap = out / "snapshots" / "round_0001.hfl"
    assert cli.main(["train", str(first)]) == 0
    for argv in (["attack", str(snap), str(att)], ["report", str(out)], ["partition", str(first)]):
        assert cli.main(argv) == 0
    (out / "snapshots" / "emergency.hfl").write_bytes(b"from a crashed run")
    (out / "notes.txt").write_text("not the package's")
    partition = (out / "partition.json").read_bytes()

    assert cli.main(["train", str(second)]) == 0
    assert json.loads((out / "config.resolved.json").read_text())["seed"] == 8
    kept = {"config.resolved.json", "metrics.csv", "timings.csv", "final_accuracy.json", "partition.json"}
    assert {p.name for p in out.iterdir()} == kept | {"snapshots", "report", "notes.txt"}
    assert [p.name for p in (out / "snapshots").iterdir()] == ["round_0002.hfl"]
    assert list((out / "report").iterdir()) == []
    assert (out / "partition.json").read_bytes() == partition
    # the seed-7 snapshot is gone, so it cannot be attacked with the seed-8 shards
    assert cli.main(["attack", str(snap), str(att)]) == 3


@pytest.mark.parametrize(
    "over, code",
    [
        ({"partition": {"samples_per_client": 900}}, 1),  # more than the dominant classes hold
        ({"dataset": {"kind": "idx", "images": "absent.idx", "labels": "absent.idx"}}, 3),
    ],
    ids=["shards-too-large", "idx-file-missing"],
)
def test_a_rerun_that_fails_before_training_leaves_the_previous_run(tmp_path, monkeypatch, over, code):
    monkeypatch.chdir(tmp_path)
    out = train_run(tmp_path)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert cli.main(["train", str(write_config(tmp_path / "failing.json", base_config(out, **over)))]) == code
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize(
    "model, named",
    [
        ({"extractor": [16, 8], "classifier": [8, 3]}, "model/classifier: 3 logits, fewer than the dataset's 5 classes"),
        ({"extractor": [25, 8], "classifier": [8, 5]}, "model/extractor: input width 25 does not match the dataset's 16"),
    ],
    ids=["too-few-logits", "wrong-width"],
)
def test_a_rerun_whose_model_does_not_fit_the_idx_files_leaves_the_previous_run(
    tmp_path, monkeypatch, capsys, model, named
):
    # with num_classes omitted, only the files tell the width and the classes
    rng = np.random.default_rng(0)
    n = 500
    (tmp_path / "img.idx").write_bytes(
        struct.pack(">IIII", dk.IDX_IMAGES_MAGIC, n, 4, 4) + rng.integers(0, 256, n * 16, dtype=np.uint8).tobytes()
    )
    (tmp_path / "lbl.idx").write_bytes(struct.pack(">II", dk.IDX_LABELS_MAGIC, n) + bytes(i % 5 for i in range(n)))
    monkeypatch.chdir(tmp_path)
    idx = {"kind": "idx", "images": "img.idx", "labels": "lbl.idx"}
    out = train_run(tmp_path, dataset=idx, model={"extractor": [16, 8], "classifier": [8, 5]})
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    failing = write_config(tmp_path / "failing.json", base_config(out, dataset=idx, model=model))
    assert cli.main(["train", str(failing)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_cli_leaves_working_directory_clean(tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    train_run(tmp_path, rounds={"total_rounds": 0})
    assert list(cwd.iterdir()) == []


# -- attack -------------------------------------------------------------------


@pytest.mark.parametrize(
    "command, name",
    [
        ("train", "config.resolved.json"),
        ("train", "final_accuracy.json"),
        ("report", "report/summary.json"),
        ("report", "report/series_test_acc.csv"),
    ],
)
def test_failed_cli_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, command, name):
    # every file the CLI writes itself shares write_checkpoint's temp-file-then-replace path
    out = train_run(tmp_path) if command == "report" else tmp_path / "run"
    path = out / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"previous run\n")
    replace = ckpt.os.replace

    def crash_on_path(src, dst):
        if Path(dst) == path:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(ckpt.os, "replace", crash_on_path)
    if command == "train":
        args = ["train", str(write_config(tmp_path / "run.json", base_config(out)))]
    else:
        args = ["report", str(out)]
    assert cli.main(args) == 3
    assert path.read_bytes() == b"previous run\n"
    assert not [p.name for p in out.rglob("*.tmp")]


def test_attack_summary_reports_oracle_and_search_columns(attacked_run):
    lines = (attacked_run / "attack_summary.csv").read_text().splitlines()
    assert lines[0] == "sample,algorithm,psnr,analytic_psnr"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1"] and all(r[1] == "fedavg" for r in rows)
    for r in rows:
        assert 0.0 < float(r[2]) < mx.PSNR_CAP_DB  # search got somewhere, not everywhere
        # noiseless batch-1 gradients admit exact closed-form recovery
        assert float(r[3]) == mx.PSNR_CAP_DB

    report = json.loads((attacked_run / "attack_report.json").read_text())
    assert report["config"]["iterations"] == 40
    assert [s["psnr"] for s in report["samples"]] == [float(r[2]) for r in rows]
    assert [s["analytic_psnr"] for s in report["samples"]] == [float(r[3]) for r in rows]
    assert all(s["trace"][-1][0] == 40 for s in report["samples"])  # rows are triples


def test_hyperfl_attack_control_and_progress(tmp_path, capsys):
    run = train_run(tmp_path, algorithm="hyperfl")
    att = tmp_path / "att.json"
    att.write_text('{"iterations": 5, "samples": 3, "seed": 0}')
    capsys.readouterr()
    assert cli.main(["attack", str(run / "snapshots" / "round_0002.hfl"), str(att)]) == 0
    out, err = capsys.readouterr()
    assert out.strip() == str(run)
    rows = [line.split(",") for line in (run / "attack_summary.csv").read_text().splitlines()[1:]]
    # the head-bias gradients hold every batch-1 input exactly
    assert [float(r[3]) for r in rows] == [mx.PSNR_CAP_DB] * 3
    # one progress line per sample on stderr: index/total, the search's PSNR, seconds
    progress = err.splitlines()
    assert [line.split(":")[0] for line in progress] == ["sample 1/3", "sample 2/3", "sample 3/3"]
    for line, r in zip(progress, rows):
        assert f"psnr {float(r[2]):.2f} dB, " in line and line.endswith(" s")


def test_attack_with_zero_samples_writes_header_only(fedavg_run, tmp_path):
    run = tmp_path / "copy"
    shutil.copytree(fedavg_run, run)
    att = tmp_path / "att.json"
    att.write_text('{"samples": 0}')
    assert cli.main(["attack", str(run / "snapshots" / "round_0002.hfl"), str(att)]) == 0
    assert (run / "attack_summary.csv").read_text() == "sample,algorithm,psnr,analytic_psnr\n"


@pytest.mark.parametrize(
    "algorithm, over, shape",
    [
        ("hyperfl", {"dataset": {"dim": 32}, "model": {"extractor": [32, 16], "classifier": [16, 3]}}, [1, 32]),
        (
            "fedavg",
            {
                "dataset": {"kind": "pattern", "num_classes": 3, "side": 8, "per_class": 30},
                "model": {"extractor": [64, 12], "classifier": [12, 3]},
            },
            [8, 8],
        ),
    ],
    ids=["quickstart-1x32", "pattern-8x8"],
)
def test_every_attack_summary_column_carries_a_value(tmp_path, algorithm, over, shape):
    # on the image shapes the repo ships, no score column may be one that can never be finite
    run = train_run(tmp_path, algorithm=algorithm, **over)
    assert json.loads((run / "config.resolved.json").read_text())["dataset"]["image_shape"] == shape
    att = write_config(tmp_path / "att.json", {"iterations": 5, "samples": 2, "seed": 0})
    assert cli.main(["attack", str(run / "snapshots" / "round_0002.hfl"), str(att)]) == 0
    with open(run / "attack_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and all(r["algorithm"] == algorithm for r in rows)
    for column in rows[0].keys() - {"algorithm"}:
        assert any(math.isfinite(float(r[column])) for r in rows), column


def test_malformed_attack_settings_exit_1_naming_line_and_column(fedavg_run, tmp_path, capsys):
    att = tmp_path / "att.json"
    att.write_text('{\n  "iterations": 5,\n  "samples": x\n}')
    capsys.readouterr()
    assert cli.main(["attack", str(fedavg_run / "snapshots" / "round_0002.hfl"), str(att)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3, column 14" in err and len(err.splitlines()) == 1


def test_a_whole_float_under_a_list_of_types_resolves_to_the_integer(tmp_path):
    ds = {"kind": "idx", "images": "x.idx", "labels": "y.idx", "num_classes": 3.0}  # ["integer", "null"]
    assert type(cfgmod.resolve(base_config(tmp_path, dataset=ds))["dataset"]["num_classes"]) is int


def test_attack_settings_spelled_as_floats_run_as_their_integers(fedavg_run, tmp_path):
    results = []
    ints = {"iterations": 3, "samples": 2, "seed": 1}
    for n, spelling in enumerate((ints, {key: float(value) for key, value in ints.items()})):
        run = tmp_path / f"copy{n}"
        shutil.copytree(fedavg_run, run)
        att = write_config(tmp_path / f"att{n}.json", spelling)
        assert cli.main(["attack", str(run / "snapshots" / "round_0002.hfl"), str(att)]) == 0
        results.append([(run / name).read_bytes() for name in ("attack_report.json", "attack_summary.csv")])
    assert results[0] == results[1]


def test_attack_checks_samples_before_the_first_search(fedavg_run, tmp_path, capsys):
    run = tmp_path / "copy"
    shutil.copytree(fedavg_run, run)
    snap = str(run / "snapshots" / "round_0002.hfl")
    cfg = cfgmod.load_config(run / "config.resolved.json")
    trains = [train for train, _ in cfgmod.build_shards(cfg, cfgmod.build_dataset(cfg))]
    # sample i is item i div m of client i mod m, so the first client past its last item ends them
    most = min(train.n * len(trains) + c for c, train in enumerate(trains))
    att = write_config(tmp_path / "att.json", {"iterations": 1, "samples": most})
    assert cli.main(["attack", snap, str(att)]) == 0
    summary = (run / "attack_summary.csv").read_bytes()
    assert len(summary.splitlines()) == most + 1
    capsys.readouterr()
    att = write_config(tmp_path / "att.json", {"iterations": 1, "samples": most + 1})
    assert cli.main(["attack", snap, str(att)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: samples:") and len(err.splitlines()) == 1
    assert "sample 1/" not in err  # no search ran
    assert (run / "attack_summary.csv").read_bytes() == summary


def test_attack_rejects_mismatched_run_config(fedavg_run, tmp_path, capsys):
    run = tmp_path / "copy"
    shutil.copytree(fedavg_run, run)
    resolved = json.loads((run / "config.resolved.json").read_text())
    resolved["algorithm"] = "hyperfl"
    (run / "config.resolved.json").write_text(json.dumps(resolved, indent=2, sort_keys=True))
    att = tmp_path / "att.json"
    att.write_text('{"samples": 1}')
    assert cli.main(["attack", str(run / "snapshots" / "round_0002.hfl"), str(att)]) == 1
    assert "snapshot was produced by" in capsys.readouterr().err


def test_attack_needs_run_config_beside_snapshot(fedavg_run, tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(fedavg_run / "snapshots" / "round_0002.hfl", bare / "snap.hfl")
    att = tmp_path / "att.json"
    att.write_text('{"samples": 1}')
    assert cli.main(["attack", str(bare / "snap.hfl"), str(att)]) == 3


@pytest.mark.parametrize("key", ["meta/algorithm", "meta/round", "meta/clients"])
def test_attack_on_snapshot_without_meta_exits_3(fedavg_run, tmp_path, capsys, key):
    run = tmp_path / "copy"
    shutil.copytree(fedavg_run, run)
    snap = run / "snapshots" / "round_0002.hfl"
    flat = ckpt.read_checkpoint(snap)
    del flat[key]
    ckpt.write_checkpoint(snap, flat)
    att = tmp_path / "att.json"
    att.write_text('{"samples": 1}')
    assert cli.main(["attack", str(snap), str(att)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and len(err.splitlines()) == 1


def cut_inside_first_payload(blob, reads):
    """``blob`` cut 8 bytes into the payload of its first entry, a client tensor the attack skips."""
    (name_len,) = struct.unpack_from("<H", blob, 12)
    name = blob[14 : 14 + name_len].decode()
    assert not reads(name), name
    payload = 14 + name_len + 1 + 4 * blob[14 + name_len]
    return blob[: payload + 8]


@pytest.mark.parametrize(
    "damage",
    [
        lambda blob, reads: blob[:-1],
        lambda blob, reads: blob + b"\x00",
        # one entry whose dims claim (2**32 - 1)**2 float64 values, in 40 bytes
        lambda blob, reads: b"HFLTNSR1" + struct.pack("<IH1sB2I", 1, 1, b"x", 2, 2**32 - 1, 2**32 - 1) + bytes(16),
        cut_inside_first_payload,
    ],
    ids=["truncated", "trailing-byte", "forged-huge-dims", "truncated-in-skipped-payload"],
)
def test_attack_on_a_damaged_container_exits_3(fedavg_run, tmp_path, capsys, damage):
    run = tmp_path / "copy"
    shutil.copytree(fedavg_run, run)
    snap = run / "snapshots" / "round_0002.hfl"
    snap.write_bytes(damage(snap.read_bytes(), attack_reads(snap)))
    att = tmp_path / "att.json"
    att.write_text('{"iterations": 2, "samples": 1}')
    capsys.readouterr()
    assert cli.main(["attack", str(snap), str(att)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "codes",
    [[1e20], [-1.0], [math.nan], [float(ord(ch)) for ch in "xyz"]],
    ids=["overflow", "negative", "nan", "unknown-name"],
)
def test_attack_on_snapshot_with_bad_algorithm_code_points_exits_3(fedavg_run, tmp_path, capsys, codes):
    run = tmp_path / "copy"
    shutil.copytree(fedavg_run, run)
    snap = run / "snapshots" / "round_0002.hfl"
    flat = ckpt.read_checkpoint(snap)
    flat["meta/algorithm"] = np.array(codes)
    ckpt.write_checkpoint(snap, flat)
    att = tmp_path / "att.json"
    att.write_text('{"samples": 1}')
    assert cli.main(["attack", str(snap), str(att)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "meta/algorithm" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "key, value",
    [
        ("meta/clients", math.nan),
        ("meta/round", math.inf),
        ("meta/clients", 1e300),
        ("meta/round", -1.0),
        ("meta/round", 2.5),
    ],
    ids=["clients-nan", "round-inf", "clients-huge", "round-negative", "round-fraction"],
)
def test_attack_on_snapshot_with_a_bad_meta_count_exits_3(fedavg_run, tmp_path, capsys, key, value):
    run = tmp_path / "copy"
    shutil.copytree(fedavg_run, run)
    snap = run / "snapshots" / "round_0002.hfl"
    flat = ckpt.read_checkpoint(snap)
    flat[key] = np.array(value)
    ckpt.write_checkpoint(snap, flat)
    att = tmp_path / "att.json"
    att.write_text('{"iterations": 2, "samples": 1}')
    assert cli.main(["attack", str(snap), str(att)]) == 3
    err = capsys.readouterr().err
    # one short line: the value as written, not a 300-digit integer
    assert err.startswith("error:") and key in err and len(err.splitlines()) == 1 and len(err) < 120


def test_attack_on_sharing_free_algorithm_exits_1(tmp_path, capsys):
    out = train_run(tmp_path, algorithm="local", rounds={"total_rounds": 1})
    att = tmp_path / "att.json"
    att.write_text('{"samples": 1}')
    assert cli.main(["attack", str(out / "snapshots" / "round_0001.hfl"), str(att)]) == 1
    assert "nothing to attack" in capsys.readouterr().err


QUICK_START = {
    "seed": 7,
    "snapshot_every": 0,
    "dataset": {"kind": "synthetic", "num_classes": 5, "dim": 32, "per_class": 200},
    "partition": {"clients": 10, "groups": 5, "dominant_classes": 2, "samples_per_client": 80},
    "model": {"extractor": [32, 16], "classifier": [16, 5]},
    "rounds": {"local_epochs": 2, "batch_size": 10, "total_rounds": 1},
}


@pytest.fixture(scope="module")
def quick_start_snapshot(tmp_path_factory):
    """The README quick start, one round of it, trained once per algorithm and module."""
    snaps = {}

    def get(algorithm: str) -> Path:
        if algorithm not in snaps:
            tmp = tmp_path_factory.mktemp(f"quick-{algorithm}")
            cfg = {**QUICK_START, "algorithm": algorithm, "output_dir": str(tmp / "run")}
            if algorithm == "dp_fedavg":
                cfg["dp"] = {"clip_norm": 1.0, "sigma": 0.01}
            assert cli.main(["train", str(write_config(tmp / "cfg.json", cfg))]) == 0
            snaps[algorithm] = tmp / "run" / "snapshots" / "round_0001.hfl"
        return snaps[algorithm]

    return get


def attack_inputs(snap: Path):
    """The config, bundle and shards ``hyperfl attack`` rebuilds for the run that wrote ``snap``."""
    cfg = cfgmod.load_config(snap.parents[1] / "config.resolved.json")
    return cfg, cfgmod.build_bundle(cfg), cfgmod.build_shards(cfg, cfgmod.build_dataset(cfg))


def attack_reads(snap: Path):
    """The read filter ``hyperfl attack`` builds for ``snap``: what its transcripts read."""
    cfg, bundle, shards = attack_inputs(snap)
    return atk.transcript_reads(fs.state_layout(cfg.algorithm, bundle, len(shards)))


@pytest.mark.parametrize("algorithm", ["hyperfl", "fedavg", "dp_fedavg", "pfedhn"])
def test_attack_load_gives_the_public_view_of_a_full_load(quick_start_snapshot, algorithm):
    snap = quick_start_snapshot(algorithm)
    cfg, bundle, shards = attack_inputs(snap)
    full = fs.tensors_to_state(ckpt.read_checkpoint(snap), shards, bundle)
    lean = fs.tensors_to_state(ckpt.read_checkpoint(snap, attack_reads(snap)), shards, bundle)
    for i in range(4):
        want, got = (
            atk.snapshot_transcript(server, clients, bundle, i, cfg.image_shape, cfg.dp_config, cfg.round_config.eta_g, 3)
            .public()
            for server, clients in (full, lean)
        )
        assert got.label == want.label
        for tree in ("params", "observed"):
            a, b = getattr(got, tree), getattr(want, tree)
            assert a.keys() == b.keys() and all(a[k].tobytes() == b[k].tobytes() for k in a)
    clients = lean[1]
    if algorithm == "hyperfl":  # the generated extractors stay on disk
        assert all(c.theta is None and c.v is not None and c.phi_c is not None for c in clients)
    else:  # so do the local models
        assert all(c.model is None for c in clients)


def test_attack_on_a_local_snapshot_fails_as_a_full_load_does(quick_start_snapshot, tmp_path, capsys):
    snap = quick_start_snapshot("local")
    cfg, bundle, shards = attack_inputs(snap)
    server, clients = fs.tensors_to_state(ckpt.read_checkpoint(snap), shards, bundle)
    with pytest.raises(CapabilityError) as full:
        atk.snapshot_transcript(server, clients, bundle, 0, cfg.image_shape, cfg.dp_config, cfg.round_config.eta_g, 0)
    att = tmp_path / "att.json"
    att.write_text('{"iterations": 2, "samples": 1}')
    capsys.readouterr()
    assert cli.main(["attack", str(snap), str(att)]) == 1
    assert capsys.readouterr().err == f"error: {full.value}\n"


def test_attack_load_holds_little_beyond_the_kept_tensors(quick_start_snapshot):
    for algorithm in ("hyperfl", "fedavg"):
        snap = quick_start_snapshot(algorithm)
        _, bundle, shards = attack_inputs(snap)
        reads = attack_reads(snap)
        kept = sum(a.nbytes for name, a in ckpt.read_checkpoint(snap).items() if reads(name))
        if algorithm == "fedavg":
            assert kept < snap.stat().st_size / 8  # the clients' local models are the bulk
        tracemalloc.start()
        try:
            fs.tensors_to_state(ckpt.read_checkpoint(snap, reads), shards, bundle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 128 KiB covers the dict, the names, the array headers and the skip records
        assert peak < kept + 128 * 1024, (algorithm, peak, kept)


@pytest.fixture(scope="module")
def run_of(tmp_path_factory):
    """Train one small run per algorithm, once per module."""
    runs = {}

    def get(algorithm: str) -> Path:
        if algorithm not in runs:
            over = {"dp": {"clip_norm": 1.0, "sigma": 0.01}} if algorithm == "dp_fedavg" else {}
            runs[algorithm] = train_run(tmp_path_factory.mktemp(algorithm), algorithm=algorithm, **over)
        return runs[algorithm]

    return get


@pytest.mark.parametrize("algorithm", ["dp_fedavg", "pfedhn"])
def test_attack_reruns_are_byte_identical(run_of, tmp_path, algorithm):
    att = tmp_path / "att.json"
    att.write_text('{"iterations": 20, "samples": 4, "seed": 1}')
    snap = run_of(algorithm) / "snapshots" / "round_0002.hfl"
    outputs = []
    for _ in range(2):
        assert cli.main(["attack", str(snap), str(att)]) == 0
        outputs.append([(snap.parents[1] / n).read_bytes() for n in ("attack_summary.csv", "attack_report.json")])
    assert outputs[0] == outputs[1]
    rows = [line.split(",") for line in outputs[0][0].decode().splitlines()[1:]]
    assert [r[:2] for r in rows] == [[str(i), algorithm] for i in range(4)]
    analytic = [float(r[3]) for r in rows]
    if algorithm == "pfedhn":  # the inverted one-step delta is the batch-1 gradient
        assert analytic == [mx.PSNR_CAP_DB] * 4
    else:  # noise blurs the exact recovery
        assert all(a < mx.PSNR_CAP_DB for a in analytic)


@pytest.mark.parametrize(
    "algorithm, key",
    [
        ("hyperfl", "client/0/v"),
        ("hyperfl", "client/0/phi_c/cls0/W"),
        ("hyperfl", "server/varphi/hyper/trunk/W"),
        ("hyperfl", "client/1/theta/fe0/W"),  # skipped, but its absence is seen
        ("fedavg", "server/model/fe0/W"),
        ("fedavg", "client/0/model/fe0/W"),
        ("pfedhn", "server/embedding/0"),
    ],
)
def test_attack_on_snapshot_without_a_state_tensor_exits_3(run_of, tmp_path, capsys, algorithm, key):
    run = tmp_path / "copy"
    shutil.copytree(run_of(algorithm), run)
    snap = run / "snapshots" / "round_0002.hfl"
    flat = ckpt.read_checkpoint(snap)
    del flat[key]
    ckpt.write_checkpoint(snap, flat)
    att = tmp_path / "att.json"
    att.write_text('{"iterations": 2, "samples": 1}')
    capsys.readouterr()
    assert cli.main(["attack", str(snap), str(att)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "algorithm, key",
    [
        ("hyperfl", "client/0/v"),
        ("hyperfl", "server/varphi/hyper/trunk/b"),
        ("hyperfl", "client/1/theta/fe0/W"),  # skipped, but its shape is checked
        ("fedavg", "server/model/fe0/W"),
        ("pfedhn", "server/embedding/0"),
        ("pfedhn", "client/0/model/cls0/b"),
    ],
)
def test_attack_on_snapshot_with_a_misshapen_tensor_exits_3(run_of, tmp_path, capsys, algorithm, key):
    run = tmp_path / "copy"
    shutil.copytree(run_of(algorithm), run)
    snap = run / "snapshots" / "round_0002.hfl"
    flat = ckpt.read_checkpoint(snap)
    flat[key] = flat[key][:-1]  # one row or value short
    ckpt.write_checkpoint(snap, flat)
    att = tmp_path / "att.json"
    att.write_text('{"iterations": 2, "samples": 1}')
    capsys.readouterr()
    assert cli.main(["attack", str(snap), str(att)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key!r} has shape" in err and len(err.splitlines()) == 1


def test_attack_on_a_snapshot_with_client_hypernetwork_copies_exits_3(run_of, tmp_path, capsys):
    # the layout written before HyperFL clients kept their generated extractor
    run = tmp_path / "copy"
    shutil.copytree(run_of("hyperfl"), run)
    snap = run / "snapshots" / "round_0002.hfl"
    flat = ckpt.read_checkpoint(snap)
    old = {name: a for name, a in flat.items() if "/theta/" not in name}
    for cid in range(int(flat["meta/clients"])):
        old.update({f"client/{cid}/phi_h/{k[len('server/varphi/'):]}": a
                    for k, a in flat.items() if k.startswith("server/varphi/")})
    ckpt.write_checkpoint(snap, old)
    att = tmp_path / "att.json"
    att.write_text('{"iterations": 2, "samples": 1}')
    capsys.readouterr()
    assert cli.main(["attack", str(snap), str(att)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'client/0/theta/" in err and len(err.splitlines()) == 1
    assert "Traceback" not in err


# -- report -------------------------------------------------------------------


def hand_means(metrics_path: Path) -> dict[int, dict[str, float]]:
    """Recompute per-round means from the raw client rows, spreadsheet style."""
    per_round: dict[int, list[dict]] = {}
    with open(metrics_path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["client_id"] != "_mean":
                per_round.setdefault(int(row["round"]), []).append(row)
    out = {}
    for t, rows in per_round.items():
        out[t] = {
            field: float(np.mean([float(r[field]) if r[field] else math.nan for r in rows]))
            for field in ("train_loss", "test_acc")
        }
    return out


def test_report_summary_and_series_match_hand_means(attacked_run):
    assert cli.main(["report", str(attacked_run)]) == 0
    report_dir = attacked_run / "report"
    summary = json.loads((report_dir / "summary.json").read_text())
    means = hand_means(attacked_run / "metrics.csv")

    assert summary["rounds"] == 2
    assert summary["final_mean_test_acc"] == pytest.approx(means[2]["test_acc"], rel=1e-12)
    assert summary["final_mean_train_loss"] == pytest.approx(means[2]["train_loss"], rel=1e-12)
    assert set(summary["per_client_final_acc"]) == {"0", "1", "2"}

    series = (report_dir / "series_test_acc.csv").read_text().splitlines()
    assert series[0] == "round,value"
    for line in series[1:]:
        t, val = line.split(",")
        assert float(val) == pytest.approx(means[int(t)]["test_acc"], rel=1e-12)
    loss_rows = (report_dir / "series_train_loss.csv").read_text().splitlines()
    assert loss_rows[1] == "0,"  # round zero precedes any training
    for field in ("grad_sq_norm", "hypernet_drift", "extractor_drift"):
        assert (report_dir / f"series_{field}.csv").exists()

    csv_psnr = [
        float(line.split(",")[2])
        for line in (attacked_run / "attack_summary.csv").read_text().splitlines()[1:]
    ]
    digest = summary["attack"]
    assert digest == {"samples": 2, "mean_psnr": pytest.approx(float(np.mean(csv_psnr)), rel=1e-12)}


def test_report_single_round_has_no_convergence_block(tmp_path):
    out = train_run(tmp_path, rounds={"total_rounds": 0})
    assert cli.main(["report", str(out)]) == 0
    summary = json.loads((out / "report" / "summary.json").read_text())
    assert summary["convergence"] is None
    assert summary["final_mean_train_loss"] is None
    assert summary["attack"] is None


def test_report_missing_metrics_exits_3(tmp_path, capsys):
    assert cli.main(["report", str(tmp_path)]) == 3
    assert "missing metrics" in capsys.readouterr().err


def test_report_on_header_only_metrics_exits_3(fedavg_run, tmp_path, capsys):
    (tmp_path / "metrics.csv").write_text((fedavg_run / "metrics.csv").read_text().splitlines()[0] + "\n")
    assert cli.main(["report", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no per-round mean rows" in err and len(err.splitlines()) == 1


def test_report_on_empty_metrics_exits_3(tmp_path, capsys):
    (tmp_path / "metrics.csv").write_text("")
    assert cli.main(["report", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "header" in err and len(err.splitlines()) == 1


def test_report_on_non_numeric_metrics_cell_exits_3(fedavg_run, tmp_path, capsys):
    lines = (fedavg_run / "metrics.csv").read_text().splitlines()
    row = lines[2].split(",")
    row[3] = "abc"
    lines[2] = ",".join(row)
    (tmp_path / "metrics.csv").write_text("\n".join(lines) + "\n")
    assert cli.main(["report", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3" in err and len(err.splitlines()) == 1


def test_report_on_bad_client_id_exits_3(fedavg_run, tmp_path, capsys):
    lines = (fedavg_run / "metrics.csv").read_text().splitlines()
    row = lines[2].split(",")
    row[1] = "client1"
    lines[2] = ",".join(row)
    (tmp_path / "metrics.csv").write_text("\n".join(lines) + "\n")
    assert cli.main(["report", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3" in err and "'client1'" in err and len(err.splitlines()) == 1


def test_report_on_metrics_without_client_rows_exits_3(fedavg_run, tmp_path, capsys):
    lines = (fedavg_run / "metrics.csv").read_text().splitlines()
    kept = [lines[0]] + [line for line in lines[1:] if line.split(",")[1] == "_mean"]
    (tmp_path / "metrics.csv").write_text("\n".join(kept) + "\n")
    assert cli.main(["report", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no client rows" in err and len(err.splitlines()) == 1


HEADER_FAULT = "expected header 'sample,algorithm,psnr,analytic_psnr'"


@pytest.mark.parametrize(
    "line, edit, says",
    [
        (2, lambda cells: cells[:2] + ["abc"] + cells[3:], "'abc'"),  # non-numeric psnr
        (3, lambda cells: cells[:3], "3 fields, expected 4"),  # short row
        (1, lambda cells: cells[:3], HEADER_FAULT),  # header without the analytic column
        # a summary written before the ssim column left: no reader for the old layout
        (1, lambda cells: ["sample", "algorithm", "psnr", "ssim", "analytic_psnr"], HEADER_FAULT),
    ],
    ids=["non-numeric-psnr", "short-row", "wrong-header", "old-ssim-header"],
)
def test_report_on_malformed_attack_summary_exits_3(attacked_run, tmp_path, capsys, line, edit, says):
    shutil.copy(attacked_run / "metrics.csv", tmp_path / "metrics.csv")
    lines = (attacked_run / "attack_summary.csv").read_text().splitlines()
    lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
    (tmp_path / "attack_summary.csv").write_text("\n".join(lines) + "\n")
    assert cli.main(["report", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"line {line}:" in err and len(err.splitlines()) == 1
    assert str(tmp_path / "attack_summary.csv") in err and says in err


@pytest.mark.parametrize(
    "line, edit",
    [
        (3, lambda cells: cells[:5]),  # short row
        (1, lambda cells: cells[:7]),  # header without the seconds column
    ],
    ids=["short-row", "wrong-header"],
)
def test_report_on_malformed_metrics_exits_3(fedavg_run, tmp_path, capsys, line, edit):
    lines = (fedavg_run / "metrics.csv").read_text().splitlines()
    lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
    (tmp_path / "metrics.csv").write_text("\n".join(lines) + "\n")
    assert cli.main(["report", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"line {line}:" in err and len(err.splitlines()) == 1
    assert str(tmp_path / "metrics.csv") in err


# -- partition ----------------------------------------------------------------


def test_partition_manifest_lists_every_assignment(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "e.json", base_config(out))
    assert cli.main(["partition", str(cfg_path)]) == 0
    manifest_path = out / "partition.json"
    assert capsys.readouterr().out.strip() == str(manifest_path)

    manifest = json.loads(manifest_path.read_text())
    assert set(manifest) == {"0", "1", "2"}
    for idx in manifest.values():
        assert len(idx) == 12
        assert all(0 <= i < 90 for i in idx)

    cfg = cfgmod.load_config(cfg_path)
    ds = cfgmod.build_dataset(cfg)
    expect = dk.partition_indices(ds, cfg.partition_spec_for(3), 3, cfg.seed)
    assert [list(map(int, e)) for e in expect] == [manifest[str(c)] for c in range(3)]
