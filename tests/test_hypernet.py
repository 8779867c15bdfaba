"""Weight generator: affine structure, exact VJPs, seeded init."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfl import autodiff as ad
from hyperfl import hypernet as hn
from hyperfl import network as nn
from hyperfl.errors import DimensionError
from tape_oracles import hypernet_forward_sym

RNG = np.random.default_rng(20240813)

FE = nn.dense_net("fe", [12, 10, 6])
SPEC = hn.HypernetSpec(target=hn.target_from_netspec(FE), embedding_dim=8, hidden_dim=13)


def random_phi(seed):
    rng = np.random.default_rng(seed)
    return {k: rng.normal(size=s) for k, s in SPEC.param_shapes().items()}


def straightline_forward(v, phi_h, spec):
    """Independent numpy reimplementation: two matmuls per target, plain loops."""
    hidden = np.maximum(phi_h["hyper/trunk/W"] @ v + phi_h["hyper/trunk/b"], 0.0)
    theta = {}
    for name, shape in spec.target:
        flat = phi_h[f"hyper/head/{name}/W"] @ hidden + phi_h[f"hyper/head/{name}/b"]
        theta[name] = flat.reshape(shape)
    return theta


def tape_backward(d_theta, v, phi_h, spec):
    """Reference VJP: ``ad.grad`` of <d_theta, theta> through the traced forward."""
    v_leaf = ad.Var(np.asarray(v, dtype=np.float64))
    phi_leaves = {name: ad.Var(np.asarray(val, dtype=np.float64)) for name, val in phi_h.items()}
    theta = hypernet_forward_sym(v_leaf, phi_leaves, spec)
    total = ad.constant(0.0)
    for name, _ in spec.target:
        cot = np.asarray(d_theta[name], dtype=np.float64)
        total = ad.add(total, ad.dot(theta[name], ad.constant(cot)))
    names = sorted(phi_leaves)
    grads = ad.grad(total, [phi_leaves[n] for n in names] + [v_leaf])
    d_phi = {n: g.data.copy() for n, g in zip(names, grads[:-1])}
    return d_phi, grads[-1].data.copy()


# -- forward ---------------------------------------------------------------------


def test_zero_phi_generates_zero_theta():
    phi = {k: np.zeros(s) for k, s in SPEC.param_shapes().items()}
    theta = hn.hypernet_forward(RNG.normal(size=8), phi, SPEC)
    for name, shape in SPEC.target:
        np.testing.assert_array_equal(theta[name], np.zeros(shape))


def test_zero_trunk_and_heads_passes_head_biases_through():
    phi = {k: np.zeros(s) for k, s in SPEC.param_shapes().items()}
    rng = np.random.default_rng(5)
    for name, shape in SPEC.target:
        phi[f"hyper/head/{name}/b"] = rng.normal(size=int(np.prod(shape)))
    theta = hn.hypernet_forward(RNG.normal(size=8), phi, SPEC)
    for name, shape in SPEC.target:
        np.testing.assert_array_equal(theta[name], phi[f"hyper/head/{name}/b"].reshape(shape))


def test_forward_matches_straightline_reimplementation():
    phi = random_phi(77)
    v = RNG.normal(size=8)
    got = hn.hypernet_forward(v, phi, SPEC)
    want = straightline_forward(v, phi, SPEC)
    for name, _ in SPEC.target:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12)


def test_forward_is_pure_and_deterministic():
    phi = random_phi(3)
    v = RNG.normal(size=8)
    v_snap, phi_snap = v.copy(), {k: a.copy() for k, a in phi.items()}
    t1 = hn.hypernet_forward(v, phi, SPEC)
    t2 = hn.hypernet_forward(v, phi, SPEC)
    for name in t1:
        np.testing.assert_array_equal(t1[name], t2[name])
    np.testing.assert_array_equal(v, v_snap)
    for k in phi:
        np.testing.assert_array_equal(phi[k], phi_snap[k])


def test_generated_theta_loads_into_extractor_netspec():
    phi, v = hn.init_hypernet(SPEC, seed=11)
    theta = hn.hypernet_forward(v, phi, SPEC)
    nn.check_params(theta, FE)  # shape closure: no reshaping needed
    x = RNG.normal(size=(3, 12))
    assert nn.forward_logits(theta, FE, x).shape == (3, 6)


def test_forward_shape_errors():
    phi = random_phi(1)
    with pytest.raises(DimensionError):
        hn.hypernet_forward(RNG.normal(size=9), phi, SPEC)
    missing = dict(phi)
    missing.pop("hyper/trunk/W")
    with pytest.raises(DimensionError):
        hn.hypernet_forward(RNG.normal(size=8), missing, SPEC)


# -- backward -----------------------------------------------------------------------


def test_backward_zero_cotangent_gives_zeros():
    phi = random_phi(9)
    v = RNG.normal(size=8)
    d_theta = {name: np.zeros(shape) for name, shape in SPEC.target}
    d_phi, dv = hn.hypernet_backward(d_theta, v, phi, SPEC)
    np.testing.assert_array_equal(dv, np.zeros(8))
    for k in phi:
        np.testing.assert_array_equal(d_phi[k], np.zeros_like(phi[k]))


def composite_loss(v, phi, spec):
    """Scalar probe: sum of squares of every generated tensor."""
    theta = hn.hypernet_forward(v, phi, spec)
    return 0.5 * sum(float(np.sum(t**2)) for t in theta.values())


def composite_cotangent(v, phi, spec):
    # dL/d theta for the probe above is theta itself.
    return hn.hypernet_forward(v, phi, spec)


def fd_grad_scalar(f, x, h=1e-5):
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-12)


def test_backward_matches_fd_on_embedding():
    phi = random_phi(21)
    v = RNG.uniform(0.1, 1.0, size=8)  # keep relu pre-activations away from 0
    d_theta = composite_cotangent(v, phi, SPEC)
    _, dv = hn.hypernet_backward(d_theta, v, phi, SPEC)
    want = fd_grad_scalar(lambda arr: composite_loss(arr, phi, SPEC), v)
    assert rel_err(dv, want) < 1e-5


def test_backward_matches_fd_on_every_phi_tensor():
    phi = random_phi(22)
    v = RNG.uniform(0.1, 1.0, size=8)
    d_theta = composite_cotangent(v, phi, SPEC)
    d_phi, _ = hn.hypernet_backward(d_theta, v, phi, SPEC)
    for name in phi:
        # the cotangent itself depends on phi; freeze it per FD evaluation
        def f_frozen(arr, name=name):
            trial = dict(phi)
            trial[name] = arr
            theta = hn.hypernet_forward(v, trial, SPEC)
            return sum(float(np.sum(d_theta[t] * theta[t])) for t in theta)

        want = fd_grad_scalar(f_frozen, phi[name])
        assert rel_err(d_phi[name], want) < 1e-5, name


def test_adjoint_identity():
    # <d_theta, J u> == <J^T d_theta, u> with J u taken by central differences.
    phi = random_phi(31)
    v = RNG.uniform(0.1, 1.0, size=8)
    u = RNG.normal(size=8)
    d_theta = {name: RNG.normal(size=shape) for name, shape in SPEC.target}

    h = 1e-6
    tp = hn.hypernet_forward(v + h * u, phi, SPEC)
    tm = hn.hypernet_forward(v - h * u, phi, SPEC)
    lhs = sum(float(np.sum(d_theta[n] * (tp[n] - tm[n]) / (2 * h))) for n in tp)

    _, dv = hn.hypernet_backward(d_theta, v, phi, SPEC)
    rhs = float(np.dot(dv, u))
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_backward_rejects_wrong_cotangent_names():
    phi = random_phi(2)
    v = RNG.normal(size=8)
    with pytest.raises(DimensionError):
        hn.hypernet_backward({"nope": np.zeros(3)}, v, phi, SPEC)


def zero_cotangent():
    return {name: np.zeros(shape) for name, shape in SPEC.target}


def test_backward_rejects_wrong_embedding_shape():
    with pytest.raises(DimensionError):
        hn.hypernet_backward(zero_cotangent(), RNG.normal(size=9), random_phi(2), SPEC)


def test_backward_rejects_wrong_cotangent_shape():
    d_theta = zero_cotangent()
    d_theta["fe1/W"] = np.zeros((10, 6))  # transposed
    with pytest.raises(DimensionError):
        hn.hypernet_backward(d_theta, RNG.normal(size=8), random_phi(2), SPEC)


@pytest.mark.parametrize("name", ["hyper/trunk/W", "hyper/trunk/b", "hyper/head/fe0/b/b"])
def test_backward_rejects_missing_or_misshapen_phi(name):
    v = RNG.normal(size=8)
    missing = random_phi(2)
    del missing[name]
    with pytest.raises(DimensionError):
        hn.hypernet_backward(zero_cotangent(), v, missing, SPEC)
    misshapen = random_phi(2)
    misshapen[name] = np.zeros(misshapen[name].shape + (1,))
    with pytest.raises(DimensionError):
        hn.hypernet_backward(zero_cotangent(), v, misshapen, SPEC)


@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=4),
    embedding_dim=st.integers(min_value=1, max_value=10),
    hidden_dim=st.integers(min_value=1, max_value=16),
    v_scale=st.sampled_from([0.0, 0.01, 1.0, 30.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_closed_form_is_bitwise_the_tape(widths, embedding_dim, hidden_dim, v_scale, seed):
    # 1-3 extractor layers; the v scale and a shifted trunk bias leave some
    # ReLUs dead
    fe = nn.dense_net("fe", widths)
    spec = hn.HypernetSpec(target=hn.target_from_netspec(fe), embedding_dim=embedding_dim, hidden_dim=hidden_dim)
    rng = np.random.default_rng(seed)
    phi = {k: rng.normal(size=s) for k, s in spec.param_shapes().items()}
    phi["hyper/trunk/b"] -= 0.5
    v = v_scale * rng.normal(size=embedding_dim)
    d_theta = {name: rng.normal(size=shape) for name, shape in spec.target}

    theta = hn.hypernet_forward(v, phi, spec)
    theta_sym = hypernet_forward_sym(v, phi, spec)
    assert list(theta) == list(theta_sym)
    for name, var in theta_sym.items():
        assert theta[name].shape == var.shape
        assert theta[name].tobytes() == var.data.tobytes(), name

    d_phi, dv = hn.hypernet_backward(d_theta, v, phi, spec)
    want_phi, want_v = tape_backward(d_theta, v, phi, spec)
    assert list(d_phi) == list(want_phi) == sorted(phi)
    for name, want in want_phi.items():
        assert d_phi[name].shape == want.shape
        assert d_phi[name].tobytes() == want.tobytes(), name
    assert dv.shape == want_v.shape
    assert dv.tobytes() == want_v.tobytes()


@settings(max_examples=30, deadline=None)
@given(steps=st.integers(0, 30), seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_low_rank_heads_agree_with_their_dense_form(steps, seed):
    # factored heads after arbitrary steps (folded past 13, the hidden width) against the same weights made dense
    rng = np.random.default_rng(seed)
    phi, heads = random_phi(seed), {f"hyper/head/{name}/W" for name, _ in SPEC.target}
    factored = {k: hn.LowRankHead(k, w, steps) if k in heads else w for k, w in phi.items()}
    cfg = nn.OptimConfig(0.3, 0.5, 0.01)
    for _ in range(steps):
        for k in heads:
            factored[k].step(rng.normal(size=factored[k].shape[0]), rng.normal(size=SPEC.hidden_dim), cfg)
    dense = {k: w.dense() if k in heads else w for k, w in factored.items()}
    for k in heads:  # W̄ is read, never written
        assert phi[k].tobytes() == random_phi(seed)[k].tobytes() and not np.shares_memory(dense[k], phi[k])
    v = RNG.normal(size=SPEC.embedding_dim)
    d_theta = {name: rng.normal(size=shape) for name, shape in SPEC.target}

    theta, want_theta = hn.hypernet_forward(v, factored, SPEC), hn.hypernet_forward(v, dense, SPEC)
    for name in want_theta:
        np.testing.assert_allclose(theta[name], want_theta[name], rtol=1e-12, atol=1e-12)
    d_phi, dv = hn.hypernet_backward(d_theta, v, factored, SPEC)
    want_phi, want_v = hn.hypernet_backward(d_theta, v, dense, SPEC)
    assert list(d_phi) == list(want_phi)
    for name, want in want_phi.items():
        got = np.outer(*d_phi[name]) if name in heads else d_phi[name]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dv, want_v, rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    width=st.integers(1, 6),
    steps=st.integers(1, 40),
    lr=st.floats(1e-3, 0.3),
    mu=st.just(0.0) | st.floats(0.0, 0.9),
    wd=st.just(0.0) | st.floats(0.0, 0.05),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_low_rank_head_steps_like_sgd_step(width, steps, lr, mu, wd, seed):
    # the coefficient recursions, folds included, against sgd_step on the dense outer products
    rng = np.random.default_rng(seed)
    w_bar = rng.normal(size=(9, width))
    head, cfg = hn.LowRankHead("w", w_bar, steps), nn.OptimConfig(lr, mu, wd)
    want, opt = {"w": w_bar}, None
    for _ in range(steps):
        g, a = rng.normal(size=9), rng.normal(size=width)
        head.step(g, a, cfg)
        want, opt = nn.sgd_step(want, {"w": np.outer(g, a)}, cfg, opt)
    scale = np.max(np.abs(want["w"]))
    assert np.max(np.abs(head.dense() - want["w"])) <= 1e-12 * scale
    h, g = rng.normal(size=(1, width)), rng.normal(size=(1, 9))
    np.testing.assert_allclose(head.apply(h), h @ want["w"].T, rtol=1e-11, atol=1e-12 * scale)
    np.testing.assert_allclose(head.pullback(g), g @ want["w"], rtol=1e-11, atol=1e-12 * scale)
    assert w_bar.flags.writeable and not np.shares_memory(head.dense(), w_bar)


def test_backward_returns_fresh_arrays():
    # the head-bias VJP equals the cotangent; it must not alias it
    phi = random_phi(4)
    d_theta = {name: RNG.normal(size=shape) for name, shape in SPEC.target}
    d_phi, _ = hn.hypernet_backward(d_theta, RNG.normal(size=8), phi, SPEC)
    d_phi["hyper/head/fe0/b/b"][:] = 0.0
    assert np.all(d_theta["fe0/b"] != 0.0)


# -- init ---------------------------------------------------------------------------


def test_init_deterministic_and_seed_sensitive():
    phi1, v1 = hn.init_hypernet(SPEC, seed=42)
    phi2, v2 = hn.init_hypernet(SPEC, seed=42)
    np.testing.assert_array_equal(v1, v2)
    for k in phi1:
        np.testing.assert_array_equal(phi1[k], phi2[k])
    phi3, v3 = hn.init_hypernet(SPEC, seed=43)
    assert not np.array_equal(v1, v3)
    assert not np.array_equal(phi1["hyper/trunk/W"], phi3["hyper/trunk/W"])


def test_init_shapes_match_spec():
    phi, v = hn.init_hypernet(SPEC, seed=0)
    assert v.shape == (8,)
    for k, s in SPEC.param_shapes().items():
        assert phi[k].shape == s


def test_init_head_scale_shrinks_with_target_fan_in():
    phi, _ = hn.init_hypernet(SPEC, seed=7)
    # fe0/W has fan_in 12, fe1/W has fan_in 10: wider fan-in, tighter bound
    w0 = np.max(np.abs(phi["hyper/head/fe0/W/W"]))
    assert w0 <= 1.0 / (np.sqrt(13) * np.sqrt(12)) + 1e-12
    w1 = np.max(np.abs(phi["hyper/head/fe1/W/W"]))
    assert w1 <= 1.0 / (np.sqrt(13) * np.sqrt(10)) + 1e-12


def test_generated_magnitude_comparable_to_direct_init():
    # Desk check for the documented head-scaling rationale.
    phi, v = hn.init_hypernet(SPEC, seed=19)
    theta = hn.hypernet_forward(v, phi, SPEC)
    direct = nn.init_params(FE, 19)
    for name in ("fe0/W", "fe1/W"):
        ratio = np.std(theta[name]) / np.std(direct[name])
        assert 0.05 < ratio < 20.0


def test_spec_validation():
    with pytest.raises(DimensionError):
        hn.HypernetSpec(target=(), embedding_dim=8)
    with pytest.raises(DimensionError):
        hn.HypernetSpec(target=(("a", (2, 2)), ("a", (3,))), embedding_dim=8)
    with pytest.raises(DimensionError):
        hn.HypernetSpec(target=(("a", (0,)),), embedding_dim=8)
    with pytest.raises(DimensionError):
        hn.HypernetSpec(target=(("a", (2,)),), embedding_dim=0)
