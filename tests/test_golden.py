"""Golden trajectories: the README quick start, cut to 10 rounds and rerun
for every algorithm, against a checked-in ``metrics.csv``.

Byte identity of ``metrics.csv`` cannot tell a rounding-only reorder from a
change in behaviour, and the convergence criterion sees neither.  This check
sits between them: the rows, the NaN pattern and ``test_acc`` must match
exactly, and every other float within 1e-10 relative.  A reorder of float
operations moves the columns by about 1e-14; a 0.2 % change to one
hyperparameter moves them by more than 1e-5.

Regenerate ``tests/golden/<algorithm>.csv`` only with a recorded reason and
the largest deviation per column: run the config below with ``hyperfl train``
and copy its ``metrics.csv``.  The files are the first 10 rounds of the
20-round quick start; 10 rounds keep the five runs to a few seconds.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hyperfl import config as cfgmod
from hyperfl import fedsim as fs
from hyperfl import metrics as mx

GOLDEN = Path(__file__).parent / "golden"

QUICK_START = {
    "seed": 7,
    "dataset": {"kind": "synthetic", "num_classes": 5, "dim": 32, "per_class": 200},
    "partition": {"clients": 10, "groups": 5, "dominant_classes": 2, "samples_per_client": 80},
    "model": {"extractor": [32, 16], "classifier": [16, 5]},
    "rounds": {"local_epochs": 2, "batch_size": 10, "total_rounds": 10},
}
REL_TOL = 1e-10
ABS_FLOOR = 1e-300


def columns(path: Path) -> tuple[list[tuple[int, str]], dict[str, np.ndarray]]:
    """A metrics file's (round, client) keys, and each numeric column as an array."""
    records = mx.read_metrics_csv(path)
    keys = [(r.round, r.client_id) for r in records]
    return keys, {name: np.array([getattr(r, name) for r in records]) for name in mx.NUMERIC_FIELDS}


@pytest.mark.parametrize("algorithm", fs.ALGORITHMS)
def test_quick_start_follows_its_golden_trajectory(algorithm, tmp_path):
    spec = {**QUICK_START, "algorithm": algorithm, "output_dir": str(tmp_path / "run")}
    if algorithm == "dp_fedavg":
        spec["dp"] = {"clip_norm": 5.0, "sigma": 0.01}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(spec))
    cfg = cfgmod.load_config(cfg_path, apply_env=False)
    shards = cfgmod.build_shards(cfg, cfgmod.build_dataset(cfg))
    _, _, records = fs.run_experiment(
        cfg.algorithm, cfgmod.build_bundle(cfg), shards, cfg.round_config, seed=cfg.seed, dp=cfg.dp_config
    )
    mx.write_metrics_csv(tmp_path / "metrics.csv", records)

    got_keys, got = columns(tmp_path / "metrics.csv")
    want_keys, want = columns(GOLDEN / f"{algorithm}.csv")
    assert got_keys == want_keys
    for name in mx.NUMERIC_FIELDS:
        a, b = got[name], want[name]
        assert np.array_equal(np.isnan(a), np.isnan(b)), f"{name}: NaN pattern differs"
        if name == "test_acc":
            assert np.array_equal(a, b, equal_nan=True), "test_acc differs"
            continue
        with np.errstate(invalid="ignore"):  # inf - inf in the deviation of equal infinities
            close = (a == b) | np.isnan(b) | (np.abs(a - b) <= np.maximum(REL_TOL * np.abs(b), ABS_FLOOR))
        if not close.all():
            i = int(np.argmin(close))
            raise AssertionError(
                f"{name} leaves the golden trajectory at {got_keys[i]}: {float(a[i])!r} vs {float(b[i])!r} "
                f"({int((~close).sum())} of {close.size} values beyond {REL_TOL} relative)"
            )
