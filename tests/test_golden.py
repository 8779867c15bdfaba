"""Golden trajectories: the README quick start, cut to 10 rounds and rerun
for every algorithm, against a checked-in ``metrics.csv``, and a short attack
on each trained state against a checked-in attack record.

Byte identity of ``metrics.csv`` cannot tell a rounding-only reorder from a
change in behaviour, and the convergence criterion sees neither.  This check
sits between them: the rows, the NaN pattern and ``test_acc`` must match
exactly, and every other float within 1e-10 relative.  A reorder of float
operations moves the columns by about 1e-14; a 0.2 % change to one
hyperparameter moves them by more than 1e-5.

The attack check follows the same rules.  Each 10-round state is attacked
through the public transcript API, 2 samples at 50 iterations with seed 0,
and ``tests/golden/attack_<algorithm>.csv`` holds, per sample, the trace rows,
the two scores and every pixel of the reconstruction.  The trace keeps only
iterations 0 and 50, so the pixels are what sees the search's trajectory.  At
50 iterations a rounding-sized change moves the results by about 1e-14 and a
0.2 % change of the step size by more than 1e-4; at 200 iterations rounding
grows to about 1e-11, too close to the tolerance.

Regenerate ``tests/golden/<algorithm>.csv`` only with a recorded reason and
the largest deviation per column: run the config below with ``hyperfl train``
and copy its ``metrics.csv``.  The files are the first 10 rounds of the
20-round quick start; 10 rounds keep the five runs to a few seconds.  The
attack files follow the same rule; ``python tests/test_golden.py`` (with
``src`` on ``PYTHONPATH``) rewrites them.  They hold what ``hyperfl attack``
writes to ``attack_report.json`` for the round-10 snapshot of that run with
``{"iterations": 50, "samples": 2}``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hyperfl import attack as atk
from hyperfl import checkpoint as ckpt
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

ATTACKED = ("hyperfl", "fedavg", "dp_fedavg", "pfedhn")
ATTACK = atk.AttackConfig(iterations=50, seed=0)
ATTACK_SAMPLES = 2
ATTACK_FIELDS = ("sample", "quantity", "index", "value")


def train(algorithm: str, work: Path):
    """The 10-round quick start of ``algorithm``: its config, final states and records."""
    spec = {**QUICK_START, "algorithm": algorithm, "output_dir": str(work / "run")}
    if algorithm == "dp_fedavg":
        spec["dp"] = {"clip_norm": 5.0, "sigma": 0.01}
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "cfg.json"
    cfg_path.write_text(json.dumps(spec))
    cfg = cfgmod.load_config(cfg_path)
    shards = cfgmod.build_shards(cfg, cfgmod.build_dataset(cfg))
    server, clients, records = fs.run_experiment(
        cfg.algorithm, cfg.bundle, shards, cfg.round_config, seed=cfg.seed, dp=cfg.dp_config
    )
    return cfg, server, clients, records


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """``trained(algorithm)`` trains each algorithm once per module."""
    runs = {}

    def get(algorithm):
        if algorithm not in runs:
            runs[algorithm] = train(algorithm, tmp_path_factory.mktemp(algorithm))
        return runs[algorithm]

    return get


def attack_rows(cfg, server, clients) -> list[list]:
    """``[sample, quantity, index, value]`` rows of the golden attack on a trained state.

    Per sample: ``loss`` and ``best_loss`` indexed by iteration, the two
    scores at index 0, and ``pixel`` indexed by position in the flattened
    reconstruction.
    """
    shape = cfg.image_shape
    rows = []
    for i in range(ATTACK_SAMPLES):
        tr = atk.snapshot_transcript(
            server, clients, cfg.bundle, i, shape, cfg.dp_config, cfg.round_config.eta_g, ATTACK.seed
        )
        x_hat, trace = atk.attack_transcript(tr.public(), ATTACK)
        rec = atk.sample_record(i, tr.view.algorithm, x_hat, atk.score_reconstruction(tr, x_hat), trace)
        for it, loss, best in rec["trace"]:
            rows += [[i, "loss", it, float(loss)], [i, "best_loss", it, float(best)]]
        rows += [[i, name, 0, rec[name]] for name in ("psnr", "analytic_psnr")]
        rows += [[i, "pixel", j, px] for j, px in enumerate(rec["reconstruction"])]
    return rows


def read_attack_rows(path: Path) -> list[list]:
    return ckpt.read_csv(path, ATTACK_FIELDS, lambda c: [int(c[0]), c[1], int(c[2]), float(c[3])])


def assert_close(keys, name: str, a: np.ndarray, b: np.ndarray) -> None:
    """Equal NaN pattern, and every float within REL_TOL of the golden ``b``."""
    assert np.array_equal(np.isnan(a), np.isnan(b)), f"{name}: NaN pattern differs"
    with np.errstate(invalid="ignore"):  # inf - inf in the deviation of equal infinities
        close = (a == b) | np.isnan(b) | (np.abs(a - b) <= np.maximum(REL_TOL * np.abs(b), ABS_FLOOR))
    if not close.all():
        i = int(np.argmin(close))
        raise AssertionError(
            f"{name} leaves the golden trajectory at {keys[i]}: {float(a[i])!r} vs {float(b[i])!r} "
            f"({int((~close).sum())} of {close.size} values beyond {REL_TOL} relative)"
        )


def columns(path: Path) -> tuple[list[tuple[int, str]], dict[str, np.ndarray]]:
    """A metrics file's (round, client) keys, and each numeric column as an array."""
    records = mx.read_metrics_csv(path)
    keys = [(r.round, r.client_id) for r in records]
    return keys, {name: np.array([getattr(r, name) for r in records]) for name in mx.NUMERIC_FIELDS}


@pytest.mark.parametrize("algorithm", fs.ALGORITHMS)
def test_quick_start_follows_its_golden_trajectory(algorithm, trained, tmp_path):
    mx.write_metrics_csv(tmp_path / "metrics.csv", trained(algorithm)[3])

    got_keys, got = columns(tmp_path / "metrics.csv")
    want_keys, want = columns(GOLDEN / f"{algorithm}.csv")
    assert got_keys == want_keys
    for name in mx.NUMERIC_FIELDS:
        if name == "test_acc":
            assert np.array_equal(got[name], want[name], equal_nan=True), "test_acc differs"
            continue
        assert_close(got_keys, name, got[name], want[name])


@pytest.mark.parametrize("algorithm", ATTACKED)
def test_attack_follows_its_golden_trajectory(algorithm, trained):
    cfg, server, clients, _ = trained(algorithm)
    got = attack_rows(cfg, server, clients)
    want = read_attack_rows(GOLDEN / f"attack_{algorithm}.csv")
    keys = [tuple(r[:3]) for r in got]
    assert keys == [tuple(r[:3]) for r in want]
    assert_close(keys, f"attack_{algorithm}", np.array([r[3] for r in got]), np.array([r[3] for r in want]))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for algo in ATTACKED:
            cfg, server, clients, _ = train(algo, Path(tmp) / algo)
            ckpt.write_csv(GOLDEN / f"attack_{algo}.csv", ATTACK_FIELDS, attack_rows(cfg, server, clients))
            print(GOLDEN / f"attack_{algo}.csv")
