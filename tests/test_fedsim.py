"""Protocol engine: aggregation, sanitization, local training, full rounds.

Composition oracles rebuild one local step by hand from loss_and_grad_params +
sgd_step with an identically seeded batch stream, then demand equality.
"""

import ast
import dataclasses
import gc
import itertools
import math
import re
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfl import autodiff as ad
from hyperfl import checkpoint as ckpt
from hyperfl import datakit as dk
from hyperfl import fedsim as fs
from hyperfl import hypernet as hn
from hyperfl import metrics as mx
from hyperfl import network as nn
from hyperfl.errors import ConfigError, ConsistencyError, DimensionError, NumericError, PrivacyError

RNG = np.random.default_rng(20240815)


def small_bundle():
    fe = nn.dense_net("fe", [8, 6])
    cls = nn.dense_net("cls", [6, 3])
    hyper = hn.HypernetSpec(target=hn.target_from_netspec(fe), embedding_dim=5, hidden_dim=7)
    return fs.ModelBundle(fe=fe, cls=cls, hyper=hyper)


def make_shards(m, n=24, seed=0):
    """``m`` client shards of ``n`` rows each, or of ``n[c]`` rows for client ``c``."""
    sizes = [n] * m if isinstance(n, int) else list(n)
    starts = np.cumsum([0] + sizes)
    ds = dk.synth_dataset(num_classes=3, dim=8, per_class=int(starts[-1]), separation=2.0, seed=seed)
    shards = []
    for c in range(m):
        shard = ds.subset(np.arange(starts[c], starts[c + 1]))
        shards.append(dk.train_test_split(shard, seed=seed + c))
    return shards


class RecordingWire(fs.Wire):
    """A wire that keeps every message it sends, for tests that read the traffic."""

    def __init__(self):
        self.messages = []

    def send(self, *args, **kwargs):
        msg = super().send(*args, **kwargs)
        self.messages.append(msg)
        return msg


def quick_cfg(**kw):
    base = dict(
        local_epochs=1,
        eta_g=nn.OptimConfig(0.1),
        eta_h=nn.OptimConfig(0.01),
        eta_v=nn.OptimConfig(0.01),
        batch_size=10,
        sampling_rate=1.0,
        total_rounds=2,
    )
    base.update(kw)
    return fs.RoundConfig(**base)


# -- aggregate ---------------------------------------------------------------


def test_aggregate_single_upload_identity_bitwise():
    u = {"a": RNG.normal(size=(3, 3)), "b": np.array([-0.0, 1.0])}
    out = fs.aggregate([u], [1.0])
    for k in u:
        assert out[k].tobytes() == u[k].tobytes()


def test_aggregate_two_uploads_halves():
    a = {"w": np.array([1.0, 3.0])}
    b = {"w": np.array([3.0, 5.0])}
    np.testing.assert_array_equal(fs.aggregate([a, b], [0.5, 0.5])["w"], np.array([2.0, 4.0]))


def test_aggregate_matches_bruteforce_weighted_sum():
    rng = np.random.default_rng(4)
    uploads = [{"w": rng.normal(size=(5, 4)), "b": rng.normal(size=6)} for _ in range(7)]
    sizes = rng.integers(50, 300, size=7).astype(np.float64)
    weights = sizes / sizes.sum()
    got = fs.aggregate(uploads, list(weights))
    for k in ("w", "b"):
        brute = sum(wi * u[k] for wi, u in zip(weights, uploads))
        assert np.max(np.abs(got[k] - brute)) < 1e-12


def test_aggregate_equal_sizes_give_uniform_weights():
    # all shards the same size: weights n_i / sum n_j collapse to 1/m
    uploads = [{"w": np.full((2,), float(i))} for i in range(4)]
    sizes = [600.0] * 4
    weights = [s / sum(sizes) for s in sizes]
    assert weights == [0.25] * 4
    np.testing.assert_allclose(fs.aggregate(uploads, weights)["w"], np.array([1.5, 1.5]))


def test_aggregate_identical_uploads_idempotent_bitwise():
    u = {"w": RNG.normal(size=(4, 4))}
    out = fs.aggregate([u, {"w": u["w"].copy()}, {"w": u["w"].copy()}], [0.2, 0.3, 0.5])
    assert out["w"].tobytes() == u["w"].tobytes()


def test_aggregate_output_within_elementwise_envelope():
    rng = np.random.default_rng(9)
    uploads = [{"w": rng.normal(size=(6, 6))} for _ in range(5)]
    w = rng.uniform(0.1, 1.0, size=5)
    w /= w.sum()
    out = fs.aggregate(uploads, list(w))["w"]
    stacked = np.stack([u["w"] for u in uploads])
    assert np.all(out >= stacked.min(axis=0) - 1e-12)
    assert np.all(out <= stacked.max(axis=0) + 1e-12)


def test_aggregate_weight_validation():
    u = {"w": np.ones(2)}
    with pytest.raises(ConsistencyError):
        fs.aggregate([u, u], [0.6, 0.5])  # sums to 1.1
    with pytest.raises(ConfigError):
        fs.aggregate([u, u], [1.5, -0.5])
    with pytest.raises(ConfigError):
        fs.aggregate([], [])
    with pytest.raises(DimensionError):
        fs.aggregate([u, {"w": np.ones(3)}], [0.5, 0.5])
    # tiny deviation renormalizes instead of failing
    out = fs.aggregate([u, u], [0.5, 0.5 + 1e-10])
    np.testing.assert_allclose(out["w"], np.ones(2), rtol=1e-12)


@pytest.mark.parametrize("fault", ["missing", "misshapen"])
@pytest.mark.parametrize("check", ["check_params", "check_phi", "hypernet_backward", "aggregate"])
def test_each_tree_check_refuses_a_fault_naming_the_tensor(check, fault):
    b = small_bundle()
    params = nn.init_params(b.fe, 0)
    phi, v = hn.init_hypernet(b.hyper, seed=0)
    tree, call = {
        "check_params": (params, lambda t: nn.check_params(t, b.fe)),
        "check_phi": (phi, lambda t: hn.check_phi(t, b.hyper)),
        "hypernet_backward": (params, lambda t: hn.hypernet_backward(t, v, phi, b.hyper)),
        "aggregate": (params, lambda t: fs.aggregate([params, t], [0.5, 0.5])),
    }[check]
    call(tree)  # the intact tree passes
    name = sorted(tree)[-1]
    bad = dict(tree)
    if fault == "missing":
        del bad[name]
    else:
        bad[name] = np.zeros(tree[name].shape + (1,))
    with pytest.raises(DimensionError, match=re.escape(name)):
        call(bad)


def anchored_mean(uploads, weights):
    """The anchored formula over a list, one tensor at a time: the reference for the fold."""
    w = np.asarray(weights, dtype=np.float64)
    w = w / float(w.sum())
    out = {}
    for k, a0 in uploads[0].items():
        acc = np.zeros_like(a0)
        for wi, u in zip(w, uploads):
            acc += wi * (u[k] - a0)
        out[k] = a0 + acc if np.any(acc) else a0.copy()
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.integers(min_value=1, max_value=6),
    shapes=st.lists(st.lists(st.integers(0, 4), max_size=3).map(tuple), min_size=1, max_size=3),
    identical=st.booleans(),
)
def test_aggregate_generator_input_matches_list_bitwise(seed, m, shapes, identical):
    rng = np.random.default_rng(seed)
    first = {f"t{i}": rng.normal(size=s) for i, s in enumerate(shapes)}
    for a in first.values():
        a.reshape(-1)[::2] = -0.0  # signed zeros must survive a single or identical set
    if identical:
        uploads = [{k: a.copy() for k, a in first.items()} for _ in range(m)]
    else:
        uploads = [first] + [{k: rng.normal(size=a.shape) for k, a in first.items()} for _ in range(m - 1)]
    weights = list(rng.uniform(0.01, 1.0, size=m))
    weights = [x / sum(weights) for x in weights]
    want = anchored_mean(uploads, weights)
    for got in (fs.aggregate(uploads, weights), fs.aggregate((u for u in uploads), weights)):
        assert got.keys() == want.keys()
        for k in want:
            assert got[k].shape == want[k].shape and got[k].tobytes() == want[k].tobytes()
    if identical or m == 1:
        assert all(want[k].tobytes() == first[k].tobytes() for k in first)


def test_aggregate_holds_one_upload_at_a_time():
    rng = np.random.default_rng(12)
    alive = []  # weak references to each upload's tensor, in arrival order

    def uploads():
        for i in range(6):
            # every upload but the anchor and the one just folded is gone
            assert [ref() is not None for ref in alive[1:-1]] == [False] * max(i - 2, 0)
            u = {"w": rng.normal(size=(3, 3))}
            alive.append(weakref.ref(u["w"]))
            yield u

    fs.aggregate(uploads(), [1 / 6] * 6)
    assert len(alive) == 6


U1 = {"w": np.ones(2)}


@pytest.mark.parametrize(
    "uploads, weights, error",
    [
        ([U1, U1], [0.6, 0.5], ConsistencyError),
        ([U1, U1], [1.5, -0.5], ConfigError),
        ([], [], ConfigError),
        ([U1, {"w": np.ones(3)}], [0.5, 0.5], DimensionError),
        ([U1, {"v": np.ones(2)}], [0.5, 0.5], DimensionError),
        ([U1, U1], [1.0], ConsistencyError),
        ([U1], [0.5, 0.5], ConsistencyError),
    ],
    ids=["sum", "negative", "empty", "shape", "names", "more-uploads", "fewer-uploads"],
)
def test_aggregate_generator_input_raises_like_a_list(uploads, weights, error):
    with pytest.raises(error):
        fs.aggregate(uploads, weights)
    with pytest.raises(error):
        fs.aggregate((u for u in uploads), weights)


# -- sampling ------------------------------------------------------------------


def test_sample_rate_one_returns_everyone():
    np.testing.assert_array_equal(
        fs.sample_clients(20, 1.0, np.random.default_rng(0)), np.arange(20)
    )


def test_sample_rate_point_three_of_hundred():
    picked = fs.sample_clients(100, 0.3, np.random.default_rng(1))
    assert picked.size == 30
    assert np.unique(picked).size == 30
    assert np.all(picked[:-1] < picked[1:])  # ascending


def test_sample_deterministic_and_force_full():
    a = fs.sample_clients(50, 0.2, np.random.default_rng(7))
    b = fs.sample_clients(50, 0.2, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        fs.sample_clients(50, 0.2, np.random.default_rng(7), force_full=True), np.arange(50)
    )


def test_sample_ceil_count():
    assert fs.sample_clients(8, 0.3, np.random.default_rng(0)).size == 3  # ceil(2.4)


# -- dp sanitize -------------------------------------------------------------------


def test_dp_identity_when_within_bound_and_sigma_zero():
    u = {"a": np.array([0.3, -0.4]), "b": np.array([[-0.0]]), "c": np.array(0.0)}  # norm 0.5
    out = fs.dp_sanitize(u, fs.DPConfig(clip_norm=1.0, sigma=0.0), np.random.default_rng(0))
    assert list(out) == list(u)
    for k in u:
        assert out[k].tobytes() == u[k].tobytes()
        assert out[k] is not u[k] and not np.shares_memory(out[k], u[k])  # fresh arrays, not the caller's


def test_dp_clips_norm_ten_to_exactly_one():
    rng = np.random.default_rng(3)
    u = {"w": rng.normal(size=(20,))}
    u = {"w": 10.0 * u["w"] / np.linalg.norm(u["w"])}
    assert nn.tree_norm(u) == pytest.approx(10.0, rel=1e-12)
    out = fs.dp_sanitize(u, fs.DPConfig(clip_norm=1.0, sigma=0.0), np.random.default_rng(0))
    assert nn.tree_norm(out) <= 1.0  # literal comparison, no tolerance
    assert nn.tree_norm(out) == pytest.approx(1.0, rel=1e-12)


def test_dp_clipped_norm_never_exceeds_bound():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        u = {"a": rng.normal(size=17) * 10.0, "b": rng.normal(size=(3, 5))}
        out = fs.dp_sanitize(u, fs.DPConfig(clip_norm=0.7, sigma=0.0), rng)
        assert nn.tree_norm(out) <= 0.7


def test_dp_noise_magnitude():
    u = {"w": np.zeros(200_000)}
    out = fs.dp_sanitize(u, fs.DPConfig(clip_norm=2.0, sigma=0.5), np.random.default_rng(11))
    assert np.std(out["w"]) == pytest.approx(1.0, rel=0.02)  # sigma * C


def per_tensor_noise(update, dp, rng):
    """dp_sanitize's output with its noise drawn tensor by tensor, one normal(0.0, sigma*C) each in name order.

    The clip is dp_sanitize's own with no noise; what this checks is the draw.
    """
    clipped = fs.dp_sanitize(update, fs.DPConfig(dp.clip_norm, 0.0), rng)
    return {k: a + rng.normal(0.0, dp.sigma * dp.clip_norm, size=a.shape) for k, a in clipped.items()}


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("clipped", [False, True], ids=["within-bound", "clipped"])
def test_dp_noise_is_bitwise_one_draw_per_tensor(seed, clipped):
    rng = np.random.default_rng(seed)
    shapes = [(3,)] + [tuple(rng.integers(0, 5, size=rng.integers(0, 4))) for _ in range(rng.integers(0, 5))]
    update = {f"t{i}": rng.normal(size=s) for i, s in enumerate(shapes)}  # keys in name order
    for a in update.values():
        a[rng.uniform(size=a.shape) < 0.3] = -0.0
    update["t0"][0] = 1.0  # a nonzero norm to clip
    norm = nn.tree_norm(update)
    clip = norm / 2 if clipped else norm * 2
    dp = fs.DPConfig(clip_norm=clip, sigma=float(rng.uniform(0.01, 2.0)))
    got = fs.dp_sanitize(update, dp, np.random.default_rng(seed + 100))
    want = per_tensor_noise(update, dp, np.random.default_rng(seed + 100))
    assert list(got) == list(want)
    for k in want:
        assert got[k].shape == want[k].shape and got[k].tobytes() == want[k].tobytes()


def test_dp_config_validation():
    with pytest.raises(ConfigError):
        fs.DPConfig(clip_norm=0.0)
    with pytest.raises(ConfigError):
        fs.DPConfig(clip_norm=1.0, sigma=-0.1)
    with pytest.raises(ConfigError):
        fs.DPConfig(clip_norm=math.inf, sigma=1e-5)
    fs.DPConfig(clip_norm=math.inf, sigma=0.0)  # the FedAvg-equivalent setting


# -- local training ------------------------------------------------------------------


def test_hyperfl_zero_learning_rates_change_nothing():
    bundle = small_bundle()
    shards = make_shards(1)
    server, clients = fs.init_experiment("hyperfl", bundle, shards, seed=5)
    client = clients[0]
    varphi = {k: a.copy() for k, a in server.varphi_bar.items()}
    cfg = quick_cfg(
        eta_g=nn.OptimConfig(0.0), eta_h=nn.OptimConfig(0.0), eta_v=nn.OptimConfig(0.0),
        local_epochs=3,
    )
    new_c, upload, _ = fs.local_train_hyperfl(client, varphi, bundle, cfg, np.random.default_rng(0))
    for k in varphi:
        assert upload[k].tobytes() == varphi[k].tobytes()
    assert new_c.v.tobytes() == client.v.tobytes()
    for k in client.phi_c:
        assert new_c.phi_c[k].tobytes() == client.phi_c[k].tobytes()
    for k in client.theta:
        assert new_c.theta[k].tobytes() == client.theta[k].tobytes()


def test_hyperfl_step1_matches_hand_composition():
    bundle = small_bundle()
    shards = make_shards(1, n=12)
    server, clients = fs.init_experiment("hyperfl", bundle, shards, seed=6)
    client = clients[0]
    varphi = server.varphi_bar
    # batch covers the whole shard; freeze step 2 with zero rates
    cfg = quick_cfg(
        batch_size=client.train.n,
        eta_h=nn.OptimConfig(0.0),
        eta_v=nn.OptimConfig(0.0),
        local_epochs=1,
    )
    new_c, _, _ = fs.local_train_hyperfl(client, varphi, bundle, cfg, np.random.default_rng(42))

    # hand composition with an identical rng: one permutation per epoch pass
    rng = np.random.default_rng(42)
    idx1 = rng.permutation(client.train.n)
    theta = hn.hypernet_forward(client.v, varphi, bundle.hyper)
    params = {**theta, **client.phi_c}
    _, grads = nn.loss_and_grad_params(params, bundle.full, client.train.x[idx1], client.train.y[idx1])
    g_cls = {k: grads[k] for k in client.phi_c}
    want_phi_c, _ = nn.sgd_step(client.phi_c, g_cls, cfg.eta_g)
    for k in want_phi_c:
        np.testing.assert_array_equal(new_c.phi_c[k], want_phi_c[k])


def test_hyperfl_step2_matches_hand_composition():
    bundle = small_bundle()
    shards = make_shards(1, n=10)
    server, clients = fs.init_experiment("hyperfl", bundle, shards, seed=7)
    client = clients[0]
    varphi = server.varphi_bar
    cfg = quick_cfg(batch_size=client.train.n, eta_g=nn.OptimConfig(0.0), local_epochs=1)
    new_c, upload, _ = fs.local_train_hyperfl(client, varphi, bundle, cfg, np.random.default_rng(9))

    rng = np.random.default_rng(9)
    idx1 = rng.permutation(client.train.n)  # step-1 pass (no-op: lr 0)
    idx2 = rng.permutation(client.train.n)
    theta = hn.hypernet_forward(client.v, varphi, bundle.hyper)
    params = {**theta, **client.phi_c}
    _, grads = nn.loss_and_grad_params(params, bundle.full, client.train.x[idx2], client.train.y[idx2])
    d_theta = {k: grads[k] for k in theta}
    d_phi, dv = hn.hypernet_backward(d_theta, client.v, varphi, bundle.hyper)
    want_phi_h, _ = nn.sgd_step(varphi, d_phi, cfg.eta_h)
    want_v = client.v - cfg.eta_v.learning_rate * dv
    # Step 2 keeps each head weight factored as s·W̄ + c·g aᵀ, which rounds
    # differently from the dense update; every other tensor stays bitwise
    heads = {f"hyper/head/{name}/W" for name, _ in bundle.hyper.target}
    for k in want_phi_h:
        if k in heads:
            np.testing.assert_allclose(upload[k], want_phi_h[k], rtol=1e-12, atol=0)
        else:
            np.testing.assert_array_equal(upload[k], want_phi_h[k])
    np.testing.assert_array_equal(new_c.v, want_v)
    want_theta = hn.hypernet_forward(want_v, want_phi_h, bundle.hyper)
    for k in want_theta:
        np.testing.assert_allclose(new_c.theta[k], want_theta[k], rtol=1e-12, atol=0)


def dense_hyper_epochs(client, varphi_bar, phi_c, bundle, cfg, rng):
    """HyperFL Step 2 with every hypernetwork tensor dense and stepped by ``sgd_step``.

    The reference :func:`fedsim._hyper_epochs` is checked against: same
    arguments, same returns, head weights formed in full at every step.
    """
    data, v, opt_v = client.train, client.v, client.opt_v
    phi_h, opt_h = nn.tree_copy(varphi_bar), None
    losses, sq_norms = [], []
    for _ in range(cfg.local_epochs):
        for idx in fs.minibatches(data.n, cfg.batch_size, rng):
            theta = hn.hypernet_forward(v, phi_h, bundle.hyper)
            loss, d_theta = nn.loss_and_grad_params(theta, bundle.full, data.x[idx], data.y[idx], phi_c)
            d_phi, dv = hn.hypernet_backward(d_theta, v, phi_h, bundle.hyper)
            losses.append(loss)
            sq_norms.append(nn.tree_sq_norm(d_phi) + nn.tree_sq_norm({"v": dv}))
            phi_h, opt_h = nn.sgd_step(phi_h, d_phi, cfg.eta_h, opt_h)
            vt, opt_v = nn.sgd_step({"v": v}, {"v": dv}, cfg.eta_v, opt_v)
            v = vt["v"]
    return phi_h, v, opt_v, losses, sq_norms


def assert_rel_close(got, want, rel=1e-12):
    """Largest deviation within ``rel`` of the reference's largest magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@settings(max_examples=30, deadline=None)
@given(
    widths=st.lists(st.integers(2, 5), min_size=1, max_size=3),
    batch_size=st.integers(2, 5),
    full_batches=st.integers(0, 3),
    short=st.integers(1, 4),
    epochs=st.integers(1, 3),
    lr=st.floats(1e-3, 0.2),
    mu=st.just(0.0) | st.floats(0.0, 0.9),
    wd=st.just(0.0) | st.floats(0.0, 0.05),
    seed=st.integers(0, 2**16),
)
def test_factored_step2_matches_dense_step2(widths, batch_size, full_batches, short, epochs, lr, mu, wd, seed):
    # one client-round both ways; every minibatch pass ends in a short batch
    n = full_batches * batch_size + min(short, batch_size - 1)
    fe = nn.dense_net("fe", [6, *widths])  # 1-3 layers: one head weight per tensor
    cls = nn.dense_net("cls", [widths[-1], 3])
    hyper = hn.HypernetSpec(target=hn.target_from_netspec(fe), embedding_dim=4, hidden_dim=7)
    bundle = fs.ModelBundle(fe=fe, cls=cls, hyper=hyper)
    ds = dk.synth_dataset(num_classes=3, dim=6, per_class=8, separation=2.0, seed=seed)
    rows = np.random.default_rng(seed).permutation(ds.n)
    server, clients = fs.init_experiment("hyperfl", bundle, [(ds.subset(rows[:n]), ds.subset(rows[n:]))], seed=seed)
    step = nn.OptimConfig(lr, mu, wd)
    cfg = quick_cfg(batch_size=batch_size, local_epochs=epochs, eta_h=step, eta_v=step)

    def client_round(step2):
        seen = []
        def spy(*args):
            seen.append(step2(*args))
            return seen[-1]
        with mock.patch.object(fs, "_hyper_epochs", spy):
            out = fs.local_train_hyperfl(clients[0], server.varphi_bar, bundle, cfg, np.random.default_rng(seed))
        return (*out, *seen)

    new_c, upload, stats, (_, _, opt_v, losses, sq_norms) = client_round(fs._hyper_epochs)
    want_c, want_upload, want_stats, (_, _, want_opt_v, want_losses, want_sq_norms) = client_round(dense_hyper_epochs)
    assert len(losses) == epochs * (full_batches + 1)
    for k in want_upload:
        assert_rel_close(upload[k], want_upload[k])
    for k in want_c.theta:
        assert_rel_close(new_c.theta[k], want_c.theta[k])
    assert_rel_close(new_c.v, want_c.v)
    assert_rel_close(opt_v["v"], want_opt_v["v"])
    np.testing.assert_allclose(losses, want_losses, rtol=1e-12, atol=0)
    np.testing.assert_allclose(sq_norms, want_sq_norms, rtol=1e-12, atol=0)
    assert stats.train_loss == pytest.approx(want_stats.train_loss, rel=1e-12)
    assert stats.grad_sq_norm == pytest.approx(want_stats.grad_sq_norm, rel=1e-12)
    for k in want_c.phi_c:  # Step 1 does not touch the hypernetwork
        np.testing.assert_array_equal(new_c.phi_c[k], want_c.phi_c[k])


def test_factored_head_refuses_a_non_finite_gradient():
    head = hn.LowRankHead("hyper/head/fe0/W/W", RNG.standard_normal((6, 4)), steps=3)
    cfg = nn.OptimConfig(0.1, 0.5, 1e-3)
    head.step(RNG.standard_normal(6), RNG.standard_normal(4), cfg)
    before = head.dense()
    for g, a in ((np.full(6, np.nan), np.ones(4)), (np.ones(6), np.array([1.0, np.inf, 0.0, 0.0]))):
        with pytest.raises(NumericError, match="hyper/head/fe0/W/W"):
            head.step(g, a, cfg)
        np.testing.assert_array_equal(head.dense(), before)  # refused before anything changed
    # the same refusal on the pair hypernet_backward returns for a factored head
    bundle = small_bundle()
    phi_h, v = hn.init_hypernet(bundle.hyper, seed=1)
    name = "hyper/head/fe0/W/W"
    phi_h[name] = hn.LowRankHead(name, phi_h[name], steps=1)
    d_theta = {k: np.full(shape, np.inf) for k, shape in bundle.hyper.target}
    with np.errstate(invalid="ignore"):  # inf - inf in the pullback, as in a real blow-up
        d_phi, _ = hn.hypernet_backward(d_theta, v, phi_h, bundle.hyper)
    with pytest.raises(NumericError, match=name):
        phi_h[name].step(*d_phi[name], cfg)


def test_fedavg_zero_lr_uploads_zero_delta():
    bundle = small_bundle()
    shards = make_shards(1)
    server, clients = fs.init_experiment("fedavg", bundle, shards, seed=1)
    cfg = quick_cfg(eta_g=nn.OptimConfig(0.0), local_epochs=2)
    new_c, delta, _ = fs.local_train_fedavg(
        clients[0], server.global_model, bundle, cfg, np.random.default_rng(0)
    )
    for k in delta:
        np.testing.assert_array_equal(delta[k], np.zeros_like(delta[k]))
        assert new_c.model[k].tobytes() == server.global_model[k].tobytes()


def test_fedavg_one_batch_matches_hand_composition():
    bundle = small_bundle()
    shards = make_shards(1, n=12)
    server, clients = fs.init_experiment("fedavg", bundle, shards, seed=2)
    client = clients[0]
    cfg = quick_cfg(batch_size=client.train.n, local_epochs=1)
    _, delta, _ = fs.local_train_fedavg(
        client, server.global_model, bundle, cfg, np.random.default_rng(3)
    )
    rng = np.random.default_rng(3)
    idx = rng.permutation(client.train.n)
    _, grads = nn.loss_and_grad_params(server.global_model, bundle.full, client.train.x[idx], client.train.y[idx])
    want, _ = nn.sgd_step(server.global_model, grads, cfg.eta_g)
    for k in want:
        np.testing.assert_array_equal(delta[k], want[k] - server.global_model[k])


# -- rounds ---------------------------------------------------------------------------


def test_single_client_round_aggregate_is_identity():
    bundle = small_bundle()
    shards = make_shards(1)
    server, clients = fs.init_experiment("hyperfl", bundle, shards, seed=3)
    cfg = quick_cfg(total_rounds=5)
    wire = RecordingWire()
    new_server, new_clients, _ = fs.run_round(
        server, clients, bundle, cfg, fs.DPConfig(), seed=3, wire=wire
    )
    (upload,) = [m.tensors() for m in wire.messages if m.kind == "upload"]
    for k in new_server.varphi_bar:
        assert new_server.varphi_bar[k].tobytes() == upload[k].tobytes()
    theta = hn.hypernet_forward(new_clients[0].v, new_server.varphi_bar, bundle.hyper)
    for k in theta:
        assert new_clients[0].theta[k].tobytes() == theta[k].tobytes()


def test_identical_clients_upload_identically():
    # same shard, same start state, same rng stream: the two local runs are
    # the same computation, and aggregating the pair returns the bytes of either
    bundle = small_bundle()
    one_train, one_test = make_shards(1, n=20)[0]
    shards = [(one_train, one_test), (one_train, one_test)]
    server, clients = fs.init_experiment("hyperfl", bundle, shards, seed=8)
    varphi = server.varphi_bar
    cfg = quick_cfg(local_epochs=2, batch_size=7)
    ups = []
    for c in clients:
        _, up, _ = fs.local_train_hyperfl(c, varphi, bundle, cfg, np.random.default_rng(77))
        ups.append(up)
    agg = fs.aggregate(ups, [0.5, 0.5])
    for k in ups[0]:
        assert ups[0][k].tobytes() == ups[1][k].tobytes()
        assert agg[k].tobytes() == ups[0][k].tobytes()


@pytest.mark.parametrize("algorithm", ["fedavg", "dp_fedavg"])
def test_round_memory_does_not_grow_with_sampled_uploads(algorithm):
    # a 64-256-128-10 model, about 400 KB; eight clients, of which a round
    # samples two or all eight
    fe = nn.dense_net("fe", [64, 256, 128])
    cls = nn.dense_net("cls", [128, 10])
    hyper = hn.HypernetSpec(target=hn.target_from_netspec(fe), embedding_dim=2, hidden_dim=2)
    bundle = fs.ModelBundle(fe=fe, cls=cls, hyper=hyper)
    ds = dk.synth_dataset(num_classes=10, dim=64, per_class=12, separation=2.0, seed=2)
    shards = [dk.train_test_split(ds.subset(np.arange(c * 15, (c + 1) * 15)), seed=c) for c in range(8)]
    dp = fs.DPConfig(clip_norm=1.0, sigma=0.01) if algorithm == "dp_fedavg" else fs.DPConfig()

    def round_peak(rate):
        server, clients = fs.init_experiment(algorithm, bundle, shards, seed=2)
        cfg = quick_cfg(total_rounds=3, sampling_rate=rate, batch_size=16)
        # the cyclic collector stays off: the peak counts what reference
        # counting alone frees, so a step's tape must die with its step
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            _, new_clients, _ = fs.run_round(server, clients, bundle, cfg, dp, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        return peak, new_clients

    few, _ = round_peak(0.25)
    many, new_clients = round_peak(1.0)
    model_bytes = sum(a.nbytes for a in new_clients[0].model.values())
    # a trained client's own new state: its model and its momentum
    new_state = model_bytes + sum(a.nbytes for a in new_clients[0].opt_c.values())
    per_client = (many - few) / 6
    # margin: a quarter of a model for allocator and bookkeeping noise; one
    # more copy of an upload per client (a kept payload or decoded upload)
    # would exceed it four times over
    assert per_client <= new_state + model_bytes / 4, (per_client, new_state)


def test_hyperfl_wire_carries_only_hypernet_names():
    bundle = small_bundle()
    shards = make_shards(3)
    server, clients = fs.init_experiment("hyperfl", bundle, shards, seed=4)
    wire = RecordingWire()
    cfg = quick_cfg(total_rounds=2)
    dp = fs.DPConfig()
    server, clients, _ = fs.run_round(server, clients, bundle, cfg, dp, seed=4, wire=wire)
    server, clients, _ = fs.run_round(server, clients, bundle, cfg, dp, seed=4, wire=wire)
    allowed = set(bundle.hyper.param_shapes())
    assert wire.messages, "rounds must actually exchange messages"
    for msg in wire.messages:
        assert set(msg.names) <= allowed
        assert set(msg.tensors().keys()) <= allowed


def test_wire_rejects_forbidden_tensor():
    wire = RecordingWire()
    with pytest.raises(PrivacyError):
        wire.send("client:0", "server", "upload", 1, {"cls0/W": np.ones((2, 2))}, {"hyper/trunk/W"})
    assert wire.messages == []  # nothing recorded on refusal


def test_local_mode_sends_nothing_and_diverges():
    bundle = small_bundle()
    shards = make_shards(2, n=20, seed=5)
    server, clients = fs.init_experiment("local", bundle, shards, seed=5)
    wire = RecordingWire()
    cfg = quick_cfg(total_rounds=2)
    server, clients, _ = fs.run_round(server, clients, bundle, cfg, fs.DPConfig(), seed=5, wire=wire)
    assert wire.messages == []
    assert server.global_model is None
    # different shards: personal models must differ
    assert clients[0].model["fe0/W"].tobytes() != clients[1].model["fe0/W"].tobytes()


def test_run_experiment_deterministic_across_runs():
    bundle = small_bundle()
    shards = make_shards(3, n=18)
    cfg = quick_cfg(total_rounds=2, batch_size=6)
    for algorithm in ("fedavg", "hyperfl", "pfedhn", "local"):
        _, _, r1 = fs.run_experiment(algorithm, bundle, shards, cfg, seed=31)
        _, _, r2 = fs.run_experiment(algorithm, bundle, shards, cfg, seed=31)
        assert r1 == r2, algorithm


def test_dp_with_zero_noise_matches_fedavg_records(tmp_path):
    bundle = small_bundle()
    shards = make_shards(3, n=18)
    cfg = quick_cfg(total_rounds=3, batch_size=6)
    _, _, r_fed = fs.run_experiment("fedavg", bundle, shards, cfg, seed=12)
    _, _, r_dp = fs.run_experiment(
        "dp_fedavg", bundle, shards, cfg, seed=12, dp=fs.DPConfig(clip_norm=math.inf, sigma=0.0)
    )
    assert r_fed == r_dp
    p1, p2 = tmp_path / "fed.csv", tmp_path / "dp.csv"
    mx.write_metrics_csv(p1, r_fed)
    mx.write_metrics_csv(p2, r_dp)
    assert p1.read_bytes() == p2.read_bytes()


def test_dp_with_noise_differs_from_fedavg():
    bundle = small_bundle()
    shards = make_shards(2, n=18)
    cfg = quick_cfg(total_rounds=2, batch_size=6)
    s_fed, _, _ = fs.run_experiment("fedavg", bundle, shards, cfg, seed=13)
    s_dp, _, _ = fs.run_experiment(
        "dp_fedavg", bundle, shards, cfg, seed=13, dp=fs.DPConfig(clip_norm=0.5, sigma=1e-3)
    )
    assert s_fed.global_model["fe0/W"].tobytes() != s_dp.global_model["fe0/W"].tobytes()


@pytest.mark.parametrize("algorithm", fs.ALGORITHMS)
def test_training_round_leaves_no_cyclic_garbage(algorithm):
    # every training step's tape dies with the step, by reference counting
    bundle = small_bundle()
    shards = make_shards(3, n=12)
    dp = fs.DPConfig(clip_norm=1.0, sigma=0.01)
    gc.collect()
    gc.disable()
    try:
        server, clients = fs.init_experiment(algorithm, bundle, shards, seed=1)
        fs.run_round(server, clients, bundle, quick_cfg(), dp, seed=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("algorithm", fs.ALGORITHMS)
def test_round_records_shape_and_nan_policy(algorithm):
    bundle = small_bundle()
    shards = make_shards(4, n=18)
    cfg = quick_cfg(total_rounds=4, sampling_rate=0.5, batch_size=6)
    dp = fs.DPConfig(clip_norm=1.0, sigma=0.01)
    _, _, records = fs.run_experiment(algorithm, bundle, shards, cfg, seed=17, dp=dp)
    # round 0 rows for everyone, then 4 clients per round
    assert len(records) == 4 + 4 * 4
    r0 = [r for r in records if r.round == 0]
    assert all(math.isnan(r.train_loss) and not math.isnan(r.test_acc) for r in r0)
    # sampling_rate 0.5 of 4 -> 2 sampled per round (except forced-full last)
    r2 = [r for r in records if r.round == 2]
    sampled = [r for r in r2 if not math.isnan(r.train_loss)]
    assert len(sampled) == 2
    assert all(not math.isnan(r.test_acc) for r in r2)
    last = [r for r in records if r.round == 4]
    assert sum(not math.isnan(r.train_loss) for r in last) == 4  # full participation
    trained = [r for r in records if not math.isnan(r.train_loss)]
    assert all(math.isfinite(r.extractor_drift) for r in trained)
    assert all(math.isfinite(r.grad_sq_norm) for r in trained)
    has_hypernet = algorithm in ("hyperfl", "pfedhn")
    assert all(math.isfinite(r.hypernet_drift) == has_hypernet for r in trained)
    # every row that did not train keeps NaN step metrics, drift included
    for r in records:
        if math.isnan(r.train_loss):
            assert math.isnan(r.grad_sq_norm)
            assert math.isnan(r.hypernet_drift) and math.isnan(r.extractor_drift)


@pytest.mark.parametrize("algorithm", fs.ALGORITHMS)
def test_run_experiment_evaluates_only_the_clients_each_round_trained(algorithm, monkeypatch):
    bundle, shards = small_bundle(), make_shards(4, n=18)
    cfg = quick_cfg(total_rounds=3, sampling_rate=0.5, batch_size=6)
    assert fs.accuracy is mx.accuracy
    calls = []
    monkeypatch.setattr(fs, "accuracy", lambda *args: calls.append(args) or mx.accuracy(*args))
    states = {}
    _, _, records = fs.run_experiment(
        algorithm, bundle, shards, cfg, seed=17, dp=fs.DPConfig(clip_norm=1.0, sigma=0.01),
        on_round=lambda t, server, clients: states.setdefault(t, clients),
    )
    trained = sum(not math.isnan(r.train_loss) for r in records)
    assert trained == 2 + 2 + 4  # the last round trains everyone
    assert len(calls) == len(shards) + trained  # round 0, then each trained client once
    for t, clients in states.items():
        got = [r.test_acc for r in records if r.round == t]
        assert np.array(got).tobytes() == np.array(fs.evaluate_clients(clients, bundle)).tobytes()


@pytest.mark.parametrize("algorithm", fs.ALGORITHMS)
def test_round_records_equal_values_recomputed_outside_the_round(algorithm):
    # replay one half-sampled round client by client on the same step streams,
    # then the server's new state from the replayed uploads in the same order
    # uneven shards and long steps, so the fold order shows: two equal
    # weights fold to the same bits either way, and small deltas vanish
    # into the global model they are added to
    bundle = small_bundle()
    shards = make_shards(4, n=(18, 24, 30, 36))
    cfg = quick_cfg(total_rounds=3, sampling_rate=0.5, batch_size=6, server_lr=0.05,
                    eta_g=nn.OptimConfig(0.3), eta_h=nn.OptimConfig(0.1))
    dp = fs.DPConfig(clip_norm=1.0, sigma=0.01)
    server, clients = fs.init_experiment(algorithm, bundle, shards, seed=23)
    new_server, new_clients, records = fs.run_round(server, clients, bundle, cfg, dp, seed=23)
    sampled = fs.sample_clients(4, 0.5, fs.derive_rng(23, fs._TAG_SAMPLE, 1)).tolist()
    assert len(sampled) == 2
    assert [r.test_acc for r in records] == fs.evaluate_clients(new_clients, bundle)

    def fe_norm(delta):  # the unsanitized delta, before any DP clipping or noise
        return nn.tree_norm({k: a for k, a in delta.items() if k in bundle.fe.param_shapes()})

    def h(v, phi):
        return hn.hypernet_forward(v, phi, bundle.hyper)

    def decoded(params):  # what the receiving side reads off the wire
        return ckpt.load_params(ckpt.dump_params(params))

    phi, embeddings, hyper = server.varphi_bar, dict(server.embeddings or {}), bundle.pfedhn_hyper()
    want, uploads = {}, []
    for cid in sampled:
        c, rng = clients[cid], fs.derive_rng(23, fs._TAG_STEP, cid, 1)
        if algorithm == "hyperfl":
            received = decoded(server.varphi_bar)
            new_c, upload, stats = fs.local_train_hyperfl(c, received, bundle, cfg, rng)
            # every client starts from the initial hypernetwork
            drifts = (nn.tree_norm(nn.tree_sub(upload, received)),
                      nn.tree_norm(nn.tree_sub(h(new_c.v, upload), h(c.v, server.varphi_bar))))
            uploads.append(decoded(upload))
        elif algorithm == "pfedhn":  # the server steps phi and v_cid after each client in turn
            v = embeddings[cid]
            received = decoded(hn.hypernet_forward(v, phi, hyper))
            _, delta, stats = fs.local_train_fedavg(c, received, bundle, cfg, rng)
            delta = decoded(delta)
            d_phi, dv = hn.hypernet_backward(nn.tree_scale(delta, -1.0), v, phi, hyper)
            phi, _ = nn.sgd_step(phi, d_phi, nn.OptimConfig(cfg.server_lr))
            embeddings[cid] = v - cfg.server_lr * dv
            drifts = (cfg.server_lr * nn.tree_norm(d_phi), fe_norm(delta))
        else:
            start = c.model if algorithm == "local" else decoded(server.global_model)
            _, delta, stats = fs.local_train_fedavg(c, start, bundle, cfg, rng)
            drifts = (math.nan, fe_norm(delta))
            if algorithm == "dp_fedavg":
                delta = fs.dp_sanitize(delta, dp, fs.derive_rng(23, fs._TAG_DPNOISE, cid, 1))
            uploads.append(decoded(delta))
        want[cid] = (stats.train_loss, stats.grad_sq_norm, *drifts)
    for r in records:
        got = (r.train_loss, r.grad_sq_norm, r.hypernet_drift, r.extractor_drift)
        # exact equality, NaN matching NaN: unsampled rows are NaN but for test_acc
        np.testing.assert_array_equal(got, want.get(int(r.client_id), (math.nan,) * 4))

    sizes = np.array([clients[cid].train.n for cid in sampled], dtype=np.float64)
    weights = list(sizes / sizes.sum())
    if algorithm == "pfedhn":
        fields = {"varphi_bar": phi, "embeddings": embeddings}
    elif algorithm == "hyperfl":
        fields = {"varphi_bar": fs.aggregate(uploads, weights)}
    elif algorithm == "local":
        fields = {}
    else:
        fields = {"global_model": nn.tree_add(server.global_model, fs.aggregate(uploads, weights))}
    want_server = dataclasses.replace(server, round_t=1, **fields)
    # bitwise: every stored tree of the new server state, in its stored order
    assert ckpt.dump_params(fs.state_to_tensors(new_server, new_clients, bundle)) == ckpt.dump_params(
        fs.state_to_tensors(want_server, new_clients, bundle)
    )


def test_hyperfl_extractor_drift_is_generated_extractor_change():
    bundle = small_bundle()
    shards = make_shards(3, n=18)
    cfg = quick_cfg(total_rounds=3, sampling_rate=0.5, batch_size=6)
    dp = fs.DPConfig()
    server, clients = fs.init_experiment("hyperfl", bundle, shards, seed=19)
    # the hypernetwork each client's last training ended with: its last upload
    ended_with = {c.id: server.varphi_bar for c in clients}

    def h(v, phi):
        return hn.hypernet_forward(v, phi, bundle.hyper)

    checked = 0
    for _ in range(cfg.total_rounds):
        wire = RecordingWire()
        server, new_clients, records = fs.run_round(server, clients, bundle, cfg, dp, seed=19, wire=wire)
        uploads = {int(m.sender.split(":")[1]): m.tensors() for m in wire.messages if m.kind == "upload"}
        for r in records:
            if math.isnan(r.train_loss):
                continue
            cid = int(r.client_id)
            new = h(new_clients[cid].v, uploads[cid])
            old = h(clients[cid].v, ended_with[cid])
            assert r.extractor_drift == nn.tree_norm(nn.tree_sub(new, old))
            assert r.extractor_drift > 0
            ended_with[cid] = uploads[cid]
            checked += 1
        clients = new_clients
    assert checked == 2 + 2 + 3  # two sampled per round, everyone in the last


def test_hyperfl_client_keeps_the_extractor_its_upload_generates():
    bundle = small_bundle()
    shards = make_shards(4, n=18)
    cfg = quick_cfg(total_rounds=3, sampling_rate=0.5, batch_size=6)
    server, clients = fs.init_experiment("hyperfl", bundle, shards, seed=29)
    wire = RecordingWire()
    _, new_clients, _ = fs.run_round(server, clients, bundle, cfg, fs.DPConfig(), seed=29, wire=wire)
    uploads = {int(m.sender.split(":")[1]): m.tensors() for m in wire.messages if m.kind == "upload"}
    assert len(uploads) == 2
    for old, new in zip(clients, new_clients):
        # a trained client keeps h(v; its upload); an untrained one keeps what it had
        want = hn.hypernet_forward(new.v, uploads[new.id], bundle.hyper) if new.id in uploads else old.theta
        assert new.theta.keys() == want.keys()
        for k in want:
            assert new.theta[k].tobytes() == want[k].tobytes()


def test_hyperfl_round_generates_each_extractor_once(monkeypatch):
    # per trained client: once for Step 1, once per Step 2 step and once for
    # the extractor it keeps; drift and evaluation reuse the kept one
    bundle = small_bundle()
    shards = make_shards(3, n=18)
    cfg = quick_cfg(local_epochs=2, batch_size=4)
    server, clients = fs.init_experiment("hyperfl", bundle, shards, seed=31)
    calls = []
    forward = fs.hypernet_forward
    monkeypatch.setattr(fs, "hypernet_forward", lambda *args: calls.append(1) or forward(*args))
    _, new_clients, _ = fs.run_round(server, clients, bundle, cfg, fs.DPConfig(), seed=31)
    steps = [cfg.local_epochs * math.ceil(c.train.n / cfg.batch_size) for c in clients]
    assert len(calls) == sum(2 + s for s in steps)
    calls.clear()
    fs.evaluate_clients(new_clients, bundle)
    assert calls == []


def test_hyperfl_clients_hold_no_hypernetwork_copy():
    bundle = small_bundle()
    shards = make_shards(2, n=12)
    server, clients = fs.init_experiment("hyperfl", bundle, shards, seed=37)
    _, clients, _ = fs.run_round(server, clients, bundle, quick_cfg(), fs.DPConfig(), seed=37)
    hyper_shapes = bundle.hyper.param_shapes()
    hyper_size = sum(math.prod(shape) for shape in hyper_shapes.values())
    for c in clients:
        held = [getattr(c, f.name) for f in dataclasses.fields(c) if f.name not in ("id", "train", "test")]
        trees = [x for x in held if isinstance(x, dict)]
        assert trees and all(tree.keys() != hyper_shapes.keys() for tree in trees)
        arrays = [x for x in held if isinstance(x, np.ndarray)] + [a for tree in trees for a in tree.values()]
        assert sum(a.size for a in arrays) < hyper_size


def test_last_round_forces_full_participation():
    rng = np.random.default_rng(0)
    picked = fs.sample_clients(10, 0.2, rng, force_full=False)
    assert picked.size == 2
    # inside run_round the final round passes force_full=True
    bundle = small_bundle()
    shards = make_shards(5, n=12)
    cfg = quick_cfg(total_rounds=1, sampling_rate=0.2, batch_size=6)
    _, _, records = fs.run_experiment("fedavg", bundle, shards, cfg, seed=2)
    last = [r for r in records if r.round == 1]
    assert sum(not math.isnan(r.train_loss) for r in last) == 5


# -- pfedhn ----------------------------------------------------------------------------


def test_pfedhn_zero_delta_leaves_server_unchanged():
    bundle = small_bundle()
    shards = make_shards(2, n=12)
    server, clients = fs.init_experiment("pfedhn", bundle, shards, seed=9)
    cfg = quick_cfg(eta_g=nn.OptimConfig(0.0), total_rounds=2)  # clients cannot move
    new_server, _, _ = fs.run_round(server, clients, bundle, cfg, fs.DPConfig(), seed=9)
    for k in server.varphi_bar:
        assert new_server.varphi_bar[k].tobytes() == server.varphi_bar[k].tobytes()
    for cid in server.embeddings:
        assert new_server.embeddings[cid].tobytes() == server.embeddings[cid].tobytes()


def test_pfedhn_server_update_matches_vjp_composition():
    bundle = small_bundle()
    shards = make_shards(1, n=12)
    server, clients = fs.init_experiment("pfedhn", bundle, shards, seed=10)
    hyper = bundle.pfedhn_hyper()
    cfg = quick_cfg(batch_size=clients[0].train.n, local_epochs=1, total_rounds=2, server_lr=0.05)

    new_server, _, _ = fs.run_round(server, clients, bundle, cfg, fs.DPConfig(), seed=10)

    # replay: the client sees h(v; phi), takes one full-batch step
    model_sent = hn.hypernet_forward(server.embeddings[0], server.varphi_bar, hyper)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(10, fs._TAG_STEP, 0, 1))
    )
    idx = rng.permutation(clients[0].train.n)
    _, grads = nn.loss_and_grad_params(model_sent, bundle.full, clients[0].train.x[idx], clients[0].train.y[idx])
    stepped, _ = nn.sgd_step(model_sent, grads, cfg.eta_g)
    delta = nn.tree_sub(stepped, model_sent)
    d_phi, dv = hn.hypernet_backward(nn.tree_scale(delta, -1.0), server.embeddings[0], server.varphi_bar, hyper)
    want_phi, _ = nn.sgd_step(server.varphi_bar, d_phi, nn.OptimConfig(0.05))
    want_v = server.embeddings[0] - 0.05 * dv
    for k in want_phi:
        np.testing.assert_array_equal(new_server.varphi_bar[k], want_phi[k])
    np.testing.assert_array_equal(new_server.embeddings[0], want_v)


def test_pfedhn_wire_exposes_full_model():
    bundle = small_bundle()
    shards = make_shards(2, n=12)
    server, clients = fs.init_experiment("pfedhn", bundle, shards, seed=11)
    wire = RecordingWire()
    cfg = quick_cfg(total_rounds=1)
    fs.run_round(server, clients, bundle, cfg, fs.DPConfig(), seed=11, wire=wire)
    full_names = set(bundle.full.param_shapes())
    broadcasts = [m for m in wire.messages if m.kind == "broadcast"]
    uploads = [m for m in wire.messages if m.kind == "upload"]
    assert broadcasts and uploads
    assert set(broadcasts[0].names) == full_names  # server knows client models
    assert set(uploads[0].names) == full_names


# -- init & snapshots ----------------------------------------------------------------------


def test_init_hyperfl_clients_share_embedding_and_classifier():
    bundle = small_bundle()
    shards = make_shards(3)
    server, clients = fs.init_experiment("hyperfl", bundle, shards, seed=14)
    theta = hn.hypernet_forward(clients[0].v, server.varphi_bar, bundle.hyper)
    for c in clients:
        assert c.v.tobytes() == clients[0].v.tobytes()
        for k in c.phi_c:
            assert c.phi_c[k].tobytes() == clients[0].phi_c[k].tobytes()
        assert c.theta.keys() == theta.keys()
        for k in theta:
            assert c.theta[k].tobytes() == theta[k].tobytes()


def test_init_validation():
    bundle = small_bundle()
    with pytest.raises(ConfigError):
        fs.init_experiment("nope", bundle, make_shards(1), seed=0)
    with pytest.raises(ConfigError):
        fs.init_experiment("fedavg", bundle, [], seed=0)


def test_bundle_validation():
    fe = nn.dense_net("fe", [8, 6])
    cls_bad = nn.dense_net("cls", [5, 3])
    hyper = hn.HypernetSpec(target=hn.target_from_netspec(fe), embedding_dim=4)
    with pytest.raises(DimensionError):
        fs.ModelBundle(fe=fe, cls=cls_bad, hyper=hyper)
    other = hn.HypernetSpec(target=(("zz", (2, 2)),), embedding_dim=4)
    with pytest.raises(DimensionError):
        fs.ModelBundle(fe=fe, cls=nn.dense_net("cls", [6, 3]), hyper=other)


def test_state_snapshot_round_trip_resumes_identically():
    bundle = small_bundle()
    # momentum 0 everywhere so optimizer state carries no information
    cfg = fs.RoundConfig(
        local_epochs=1,
        eta_g=nn.OptimConfig(0.1),
        eta_h=nn.OptimConfig(0.01),
        eta_v=nn.OptimConfig(0.01),
        batch_size=6,
        sampling_rate=1.0,
        total_rounds=6,
    )
    dp = fs.DPConfig()
    # at 11 clients, client/10 sorts before client/2; a loop, not
    # parametrization, so the test keeps its id
    for algorithm, n_clients in itertools.product(fs.ALGORITHMS, (2, 11)):
        shards = make_shards(n_clients, n=18)
        server, clients = fs.init_experiment(algorithm, bundle, shards, seed=33)
        for _ in range(2):
            server, clients, _ = fs.run_round(server, clients, bundle, cfg, dp, seed=33)

        blob = ckpt.dump_params(fs.state_to_tensors(server, clients, bundle))
        server2, clients2 = fs.tensors_to_state(ckpt.load_params(blob), shards, bundle)
        assert server2.round_t == server.round_t

        s_a, c_a, rec_a = fs.run_round(server, clients, bundle, cfg, dp, seed=33)
        s_b, c_b, rec_b = fs.run_round(server2, clients2, bundle, cfg, dp, seed=33)
        assert repr(rec_a) == repr(rec_b), (algorithm, n_clients)  # repr: NaN equals NaN, floats exactly
        after = [ckpt.dump_params(fs.state_to_tensors(s, c, bundle)) for s, c in ((s_a, c_a), (s_b, c_b))]
        assert after[0] == after[1], (algorithm, n_clients)


@pytest.mark.parametrize("algorithm", fs.ALGORITHMS)
def test_snapshot_layout_is_checked_against_the_bundle(algorithm):
    bundle = small_bundle()
    shards = make_shards(2, n=12)
    server, clients = fs.init_experiment(algorithm, bundle, shards, seed=1)
    server, clients, _ = fs.run_round(server, clients, bundle, quick_cfg(), fs.DPConfig(), seed=1)
    flat = fs.state_to_tensors(server, clients, bundle)
    rebuilt = fs.tensors_to_state(flat, shards, bundle)
    assert rebuilt[0].round_t == 1
    assert ckpt.dump_params(fs.state_to_tensors(*rebuilt, bundle)) == ckpt.dump_params(flat)
    extra = {**flat, "client/1/extra": np.zeros(2)}
    with pytest.raises(ConsistencyError, match="unexpected tensor 'client/1/extra'"):
        fs.tensors_to_state(extra, shards, bundle)
    misshapen = {**flat, "meta/round": np.array([1.0])}
    with pytest.raises(ConsistencyError, match="'meta/round' has shape"):
        fs.tensors_to_state(misshapen, shards, bundle)
    renamed = fs.ModelBundle(fe=bundle.fe, cls=nn.dense_net("head", [6, 3]), hyper=bundle.hyper)
    with pytest.raises(ConsistencyError, match="lacks tensor"):
        fs.tensors_to_state(flat, shards, renamed)


def test_inference_builds_no_tape_nodes(monkeypatch):
    """forward_logits, accuracy and every protocol's round-0 evaluation run off the tape."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("an autodiff node was built")

    bundle = small_bundle()
    shards = make_shards(3, n=12)
    monkeypatch.setattr(ad.Var, "__init__", refuse)
    for algorithm in fs.ALGORITHMS:
        _, clients = fs.init_experiment(algorithm, bundle, shards, seed=3)
        accs = fs.evaluate_clients(clients, bundle)
        assert len(accs) == 3 and all(0.0 <= a <= 1.0 for a in accs)
    params = nn.init_params(bundle.full, 0)
    test = shards[0][1]
    pred = np.argmax(nn.forward_logits(params, bundle.full, test.x), axis=1)
    assert mx.accuracy(params, bundle.full, test.x, test.y) == float(np.mean(pred == test.y))
    with pytest.raises(AssertionError, match="autodiff node"):  # the patch does bite
        nn.loss_and_grad_params(params, bundle.full, test.x, test.y)


def test_minibatches_cover_everything():
    rng = np.random.default_rng(0)
    batches = fs.minibatches(23, 5, rng)
    assert [len(b) for b in batches] == [5, 5, 5, 5, 3]
    assert sorted(np.concatenate(batches).tolist()) == list(range(23))


def test_round_config_validation():
    with pytest.raises(ConfigError):
        quick_cfg(local_epochs=0)
    with pytest.raises(ConfigError):
        quick_cfg(batch_size=0)
    with pytest.raises(ConfigError):
        quick_cfg(sampling_rate=0.0)
    with pytest.raises(ConfigError):
        quick_cfg(sampling_rate=1.5)


# -- the protocol table --------------------------------------------------------------

NAME_COMPARISON = re.compile(r"algorithm (==|!=|in|not in) |algo (==|!=|in) |view.algorithm (==|!=)")
# the checks that a name is known, and the attack's check that snapshot and config agree
ALLOWED_COMPARISONS = {
    ("fedsim.py", "ServerState.__post_init__"),
    ("fedsim.py", "init_experiment"),
    ("fedsim.py", "tensors_to_state"),
    ("cli.py", "cmd_attack"),
}


def function_spans(tree: ast.Module) -> list[tuple[int, int, str]]:
    """(first line, last line, qualified name) of every function, each before those nested in it."""
    spans = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef):
                    spans.append((child.lineno, child.end_lineno, prefix + child.name))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return spans


def test_no_module_compares_algorithm_names():
    """What a protocol does is read off fs.PROTOCOLS, never branched on by its name."""
    hits = []
    for path in sorted(Path(fs.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        spans = function_spans(ast.parse(text))
        for n, line in enumerate(text.splitlines(), start=1):
            if NAME_COMPARISON.search(line):
                inside = [name for first, last, name in spans if first <= n <= last]
                hits.append((path.name, inside[-1] if inside else "<module>"))
    assert len(hits) == len(set(hits)), hits
    assert set(hits) <= ALLOWED_COMPARISONS, set(hits) - ALLOWED_COMPARISONS


def seed_purpose_tags() -> list[tuple[int, str]]:
    """(tag, call site) for every SeedSequence built in src/, directly or through derive_rng.

    A stream's entropy is (seed, tag, ...); the tag is an integer literal or a
    module-level constant of the calling module.
    """
    sites = []
    for path in sorted(Path(fs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        consts = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
            if called == "derive_rng":
                tag = node.args[1]
            elif called == "SeedSequence":
                (entropy,) = [kw.value for kw in node.keywords if kw.arg == "entropy"]
                tag = entropy.elts[1]
            else:
                continue
            if isinstance(tag, ast.Name) and tag.id == "tag":  # derive_rng's own body
                continue
            value = tag.value if isinstance(tag, ast.Constant) else consts[tag.id]
            sites.append((value, f"{path.name}:{node.lineno}"))
    return sites


def test_seed_purpose_tags_are_distinct():
    # fedsim's rule for its tags, held across src/: never reuse one for a second purpose
    sites = seed_purpose_tags()
    assert {site.split(":")[0] for _, site in sites} == {"attack.py", "datakit.py", "fedsim.py", "hypernet.py"}
    by_tag: dict[int, list[str]] = {}
    for tag, site in sites:
        by_tag.setdefault(tag, []).append(site)
    assert {tag: where for tag, where in by_tag.items() if len(where) > 1} == {}
