"""PSNR / accuracy closed forms and convergence summaries."""

import math

import numpy as np
import pytest

from hyperfl import metrics as mx
from hyperfl import network as nn
from hyperfl.errors import ConfigError, ConsistencyError, DimensionError

RNG = np.random.default_rng(20240814)


# -- psnr -------------------------------------------------------------------


def test_psnr_identical_images_hit_cap():
    img = RNG.uniform(size=(16, 16))
    assert mx.psnr(img, img) == 100.0


def test_psnr_known_mse_closed_form():
    a = np.zeros((10, 10))
    b = np.full((10, 10), 0.1)  # MSE = 0.01
    assert mx.psnr(a, b) == pytest.approx(20.0, abs=1e-12)


def test_psnr_symmetric_and_monotone_in_noise():
    base = RNG.uniform(size=(12, 12))
    prev = math.inf
    for amp in (0.01, 0.03, 0.1, 0.3):
        noisy = base + amp * RNG.standard_normal((12, 12))
        val = mx.psnr(base, noisy)
        assert val == mx.psnr(noisy, base)
        assert val < prev
        prev = val


def test_psnr_shape_mismatch():
    with pytest.raises(DimensionError):
        mx.psnr(np.zeros((2, 2)), np.zeros((2, 3)))


# -- accuracy ------------------------------------------------------------------


def test_accuracy_constant_logits_tie_break_to_class_zero():
    spec = nn.dense_net("n", [4, 3])
    params = {k: np.zeros(s) for k, s in spec.param_shapes().items()}
    y = np.array([0, 1, 2, 0, 0, 1])
    x = RNG.normal(size=(6, 4))
    assert mx.accuracy(params, spec, x, y) == pytest.approx(np.mean(y == 0))


def test_accuracy_perfect_oracle():
    # one-hot passthrough network: logits equal the one-hot input
    spec = nn.dense_net("n", [3, 3])
    params = {"n0/W": np.eye(3), "n0/b": np.zeros(3)}
    y = np.array([0, 1, 2, 1])
    x = nn.one_hot(y, 3)
    assert mx.accuracy(params, spec, x, y) == 1.0


def test_accuracy_matches_bruteforce_loop():
    spec = nn.dense_net("n", [6, 8, 4])
    params = nn.init_params(spec, 3)
    x = RNG.normal(size=(40, 6))
    y = RNG.integers(0, 4, size=40)
    got = mx.accuracy(params, spec, x, y)

    hits = 0
    for i in range(40):
        logits = nn.forward_logits(params, spec, x[i : i + 1])[0]
        best = 0
        for k in range(1, 4):
            if logits[k] > logits[best]:
                best = k
        hits += int(best == y[i])
    assert got == hits / 40


def test_accuracy_invariant_under_increasing_transform():
    spec = nn.dense_net("n", [5, 3])
    params = nn.init_params(spec, 9)
    x = RNG.normal(size=(25, 5))
    y = RNG.integers(0, 3, size=25)
    base = mx.accuracy(params, spec, x, y)
    scaled = {"n0/W": 3.0 * params["n0/W"], "n0/b": 3.0 * params["n0/b"]}
    assert mx.accuracy(scaled, spec, x, y) == base  # logits tripled: argmax unchanged


# -- round records and CSV -------------------------------------------------------


def make_records():
    recs = []
    for t in range(4):
        for c in range(3):
            recs.append(
                mx.RoundRecord(
                    round=t,
                    client_id=str(c),
                    train_loss=1.0 / (t + 1) + 0.01 * c,
                    test_acc=0.5 + 0.1 * t,
                    grad_sq_norm=1.0 / math.sqrt(t + 1),
                    hypernet_drift=0.1 * (t + 1),
                    extractor_drift=0.2 / (t + 1),
                )
            )
    return recs


def test_csv_round_trip_and_mean_rows(tmp_path):
    path = tmp_path / "metrics.csv"
    recs = make_records()
    mx.write_metrics_csv(path, recs)
    back = mx.read_metrics_csv(path)
    assert len(back) == 4 * (3 + 1)
    means = [r for r in back if r.client_id == "_mean"]
    assert len(means) == 4
    assert means[0].train_loss == pytest.approx(1.0 + 0.01)
    clients = [r for r in back if r.client_id != "_mean"]
    for a, b in zip(sorted(recs, key=lambda r: (r.round, int(r.client_id))), clients):
        assert a.round == b.round and a.client_id == b.client_id
        assert b.train_loss == pytest.approx(a.train_loss, abs=0)  # repr() is exact
    rows = path.read_text().splitlines()
    assert all(row.endswith(",") for row in rows[1:])  # the seconds column is written empty


def test_csv_is_byte_deterministic(tmp_path):
    recs = make_records()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    mx.write_metrics_csv(p1, recs)
    # same records, different in-memory order
    mx.write_metrics_csv(p2, list(reversed(recs)))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_header_exact(tmp_path):
    path = tmp_path / "m.csv"
    mx.write_metrics_csv(path, [mx.RoundRecord(round=0, client_id="0")])
    first = path.read_text().splitlines()[0]
    assert first == "round,client_id,train_loss,test_acc,grad_sq_norm,hypernet_drift,extractor_drift,seconds"


def test_csv_nan_fields_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    mx.write_metrics_csv(path, [mx.RoundRecord(round=0, client_id="0", test_acc=0.25)])
    back = mx.read_metrics_csv(path)
    assert math.isnan(back[0].train_loss)
    assert back[0].test_acc == 0.25


def test_csv_rejects_precomputed_mean_rows(tmp_path):
    with pytest.raises(ConsistencyError):
        mx.write_metrics_csv(tmp_path / "m.csv", [mx.RoundRecord(round=0, client_id="_mean")])


def test_mean_record_ignores_nan_and_checks_round():
    a = mx.RoundRecord(round=1, client_id="0", train_loss=1.0)
    b = mx.RoundRecord(round=1, client_id="1", train_loss=math.nan)
    assert mx.mean_record([a, b]).train_loss == 1.0
    with pytest.raises(ConsistencyError):
        mx.mean_record([a, mx.RoundRecord(round=2, client_id="1")])


def test_timings_csv(tmp_path):
    path = tmp_path / "timings.csv"
    mx.write_timings_csv(path, [(0, 0.5), (1, 0.75)])
    lines = path.read_text().splitlines()
    assert lines[0] == "round,seconds"
    assert lines[1] == "0,0.500000"


# -- convergence stats -------------------------------------------------------------


def constant_series_records(value, rounds=8):
    return [
        mx.RoundRecord(round=t, client_id="0", grad_sq_norm=value, extractor_drift=value)
        for t in range(rounds)
    ]


def test_constant_series_gives_equal_quartiles():
    summary = mx.convergence_stats(constant_series_records(2.5))
    assert summary.grad_sq_quartiles == (2.5, 2.5, 2.5, 2.5)
    assert summary.grad_quartiles_nonincreasing
    assert not summary.grad_last_le_half_first
    assert not summary.extractor_drift_last_below_first


def test_inverse_sqrt_series_quartiles_strictly_decrease():
    recs = [
        mx.RoundRecord(round=t, client_id="0", grad_sq_norm=1.0 / math.sqrt(t + 1))
        for t in range(100)
    ]
    q = mx.convergence_stats(recs).grad_sq_quartiles
    assert q[0] > q[1] > q[2] > q[3]
    # arithmetic on the synthetic series: first quartile mean of 1/sqrt(t+1), t<25
    want_q0 = np.mean([1.0 / math.sqrt(t + 1) for t in range(25)])
    assert q[0] == pytest.approx(want_q0, rel=1e-12)
    assert mx.convergence_stats(recs).grad_last_le_half_first


def test_convergence_needs_two_rounds():
    with pytest.raises(ConfigError):
        mx.convergence_stats(constant_series_records(1.0, rounds=1))


def test_convergence_averages_over_clients_and_skips_nan():
    recs = []
    for t in range(4):
        recs.append(mx.RoundRecord(round=t, client_id="0", grad_sq_norm=4.0 - t))
        recs.append(mx.RoundRecord(round=t, client_id="1", grad_sq_norm=math.nan))
    q = mx.convergence_stats(recs).grad_sq_quartiles
    assert q == (4.0, 3.0, 2.0, 1.0)


def test_final_mean_test_acc_from_last_round():
    recs = [
        mx.RoundRecord(round=0, client_id="0", test_acc=0.2),
        mx.RoundRecord(round=1, client_id="0", test_acc=0.8),
        mx.RoundRecord(round=1, client_id="1", test_acc=0.6),
    ]
    assert mx.convergence_stats(recs).final_mean_test_acc == pytest.approx(0.7)
