"""Dense-network core: losses, gradients, nested gradients, SGD.

Oracles used here: an independent straight-line numpy reimplementation of the
forward pass, central finite differences (h = 1e-5), and hand-unrolled
optimizer recurrences.  Input gradients are taken on the traced loss
(``forward_loss_sym`` plus ``autodiff.grad``); nested gradients go through
``tape_oracles.value_and_grads``, the helper that runs the gradient-matching
attack's traced oracle objective.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfl import autodiff as ad
from hyperfl import network as nn
from hyperfl.errors import CapabilityError, ConfigError, DimensionError, NumericError
from tape_oracles import forward_loss, grad_params_sym, value_and_grads

RNG = np.random.default_rng(20240812)


def straightline_loss(params, dims, x, y_idx, activation="relu"):
    """Hand-composed forward pass + softmax cross-entropy, no engine code."""
    h = np.asarray(x, dtype=np.float64)
    for i in range(len(dims) - 1):
        w = params[f"n{i}/W"]
        b = params[f"n{i}/b"]
        h = h @ w.T + b
        if i < len(dims) - 2:
            if activation == "relu":
                h = np.maximum(h, 0.0)
            else:
                h = np.where(h > 0, h, nn.LEAKY_SLOPE * h)
    m = h.max(axis=1, keepdims=True)
    lse = np.log(np.exp(h - m).sum(axis=1, keepdims=True)) + m
    picked = h[np.arange(len(y_idx)), np.asarray(y_idx)][:, None]
    return float(np.mean(lse - picked))


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
    denom = max(np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / denom


def input_grad(params, spec, x, y):
    """dL/dx of the mean cross-entropy, from the traced loss."""
    xv = ad.Var(np.asarray(x, dtype=np.float64))
    (g,) = ad.grad(nn.forward_loss_sym(params, spec, xv, y), [xv])
    return g.data


# -- spec construction ---------------------------------------------------------


def test_dense_net_builds_compatible_chain():
    spec = nn.dense_net("n", [8, 16, 4])
    assert spec.in_dim == 8 and spec.out_dim == 4
    assert [l.activation for l in spec.layers] == ["relu", "linear"]
    assert spec.param_shapes()["n0/W"] == (16, 8)
    assert spec.param_shapes()["n1/b"] == (4,)


def test_netspec_rejects_incompatible_dims_and_dup_names():
    with pytest.raises(DimensionError):
        nn.NetSpec((nn.LayerSpec("a", 4, 8), nn.LayerSpec("b", 9, 2)))
    with pytest.raises(ConfigError):
        nn.NetSpec((nn.LayerSpec("a", 4, 8), nn.LayerSpec("a", 8, 2)))
    with pytest.raises(DimensionError):
        nn.NetSpec(())


def test_concat_specs_checks_interface_dim():
    fe = nn.dense_net("fe", [6, 5])
    cls = nn.dense_net("cls", [5, 3])
    full = nn.concat_specs(fe, cls)
    assert full.in_dim == 6 and full.out_dim == 3
    with pytest.raises(DimensionError):
        nn.concat_specs(cls, fe)


def test_init_params_bounds_and_determinism():
    spec = nn.dense_net("n", [100, 50, 10])
    p1 = nn.init_params(spec, 7)
    p2 = nn.init_params(spec, 7)
    for k in p1:
        np.testing.assert_array_equal(p1[k], p2[k])
    assert np.max(np.abs(p1["n0/W"])) <= 1.0 / np.sqrt(100)
    assert np.max(np.abs(p1["n1/W"])) <= 1.0 / np.sqrt(50)
    assert nn.init_params(spec, 8)["n0/W"][0, 0] != p1["n0/W"][0, 0]


# -- forward loss ----------------------------------------------------------------


def test_zero_net_gives_log_k():
    spec = nn.dense_net("n", [12, 10])
    params = {k: np.zeros(s) for k, s in spec.param_shapes().items()}
    x = RNG.normal(size=(6, 12))
    y = RNG.integers(0, 10, size=6)
    assert forward_loss(params, spec, x, y) == pytest.approx(np.log(10.0), abs=1e-15)
    assert forward_loss(params, spec, x, y) == pytest.approx(2.302585092994046, abs=1e-12)


def test_uniform_logits_any_width_gives_log_k():
    for k in (2, 5, 17):
        spec = nn.dense_net("n", [4, k])
        params = {n: np.zeros(s) for n, s in spec.param_shapes().items()}
        # constant nonzero bias also yields uniform softmax
        params["n0/b"] = np.full(k, 3.25)
        loss = forward_loss(params, spec, RNG.normal(size=(3, 4)), np.zeros(3, dtype=int))
        assert loss == pytest.approx(np.log(k), rel=1e-14)


def test_loss_matches_straightline_reimplementation():
    dims = [9, 14, 6]
    spec = nn.dense_net("n", dims)
    params = nn.init_params(spec, 123)
    x = RNG.normal(size=(8, 9))
    y = RNG.integers(0, 6, size=8)
    got = forward_loss(params, spec, x, y)
    want = straightline_loss(params, dims, x, y)
    assert got == pytest.approx(want, abs=1e-12)


def test_loss_matches_straightline_with_leaky_relu():
    dims = [5, 7, 4]
    spec = nn.dense_net("n", dims, activation="leaky_relu")
    params = nn.init_params(spec, 5)
    x = RNG.normal(size=(4, 5))
    y = RNG.integers(0, 4, size=4)
    assert forward_loss(params, spec, x, y) == pytest.approx(
        straightline_loss(params, dims, x, y, activation="leaky_relu"), abs=1e-12
    )


def test_labels_are_index_vectors_only():
    # one-hot rows are refused, by one_hot and by the training loss alike
    spec = nn.dense_net("n", [6, 3])
    params = nn.init_params(spec, 2)
    x = RNG.normal(size=(5, 6))
    hot = nn.one_hot(RNG.integers(0, 3, size=5), 3)
    with pytest.raises(DimensionError, match="index vector"):
        nn.one_hot(hot, 3)
    with pytest.raises(DimensionError, match="index vector"):
        nn.loss_and_grad_params(params, spec, x, hot)


def test_loss_is_permutation_invariant_over_batch():
    spec = nn.dense_net("n", [7, 9, 4])
    params = nn.init_params(spec, 11)
    x = RNG.normal(size=(10, 7))
    y = RNG.integers(0, 4, size=10)
    base = forward_loss(params, spec, x, y)
    perm = RNG.permutation(10)
    assert forward_loss(params, spec, x[perm], y[perm]) == pytest.approx(base, abs=1e-12)


def test_validation_errors():
    spec = nn.dense_net("n", [4, 3])
    params = nn.init_params(spec, 0)
    with pytest.raises(DimensionError):
        forward_loss(params, spec, np.ones((2, 5)), np.zeros(2, dtype=int))
    bad = dict(params)
    bad["n0/W"] = np.full_like(params["n0/W"], np.nan)
    with pytest.raises(NumericError):
        forward_loss(bad, spec, np.ones((2, 4)), np.zeros(2, dtype=int))
    with pytest.raises(DimensionError):
        forward_loss(params, spec, np.ones((2, 4)), np.array([0, 3]))  # label out of range
    with pytest.raises(DimensionError):
        nn.check_params({"n0/W": params["n0/W"]}, spec)


@pytest.mark.parametrize("activation", ["relu", "leaky_relu", "linear"])
def test_forward_logits_bitwise_equals_the_traced_pass(activation):
    spec = nn.dense_net("n", [7, 9, 6, 4], activation=activation)
    params = nn.init_params(spec, 41)
    x = RNG.normal(size=(11, 7))
    want = nn.forward_logits_sym(params, spec, x).data
    assert nn.forward_logits(params, spec, x).tobytes() == want.tobytes()


def test_forward_logits_checks_input_shape():
    spec = nn.dense_net("n", [4, 3])
    params = nn.init_params(spec, 0)
    for x in (np.ones((2, 5)), np.ones(4), np.ones((1, 2, 4))):
        with pytest.raises(DimensionError, match=r"\[batch, 4\]"):
            nn.forward_logits(params, spec, x)


def test_only_network_imports_the_tape():
    """Within the package, the autodiff tape sits behind loss_and_grad_params alone."""
    importers = set()
    for path in Path(nn.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(m.split(".")[-1] == "autodiff" for m in modules):
                importers.add(path.name)
    assert importers == {"network.py"}


# -- gradients ---------------------------------------------------------------------


def test_grad_params_matches_finite_differences():
    spec = nn.dense_net("n", [6, 8, 5])
    params = nn.init_params(spec, 31)
    x = RNG.normal(size=(7, 6))
    y = RNG.integers(0, 5, size=7)
    _, grads = nn.loss_and_grad_params(params, spec, x, y)
    for name in params:
        def f(arr, name=name):
            trial = dict(params)
            trial[name] = arr
            return forward_loss(trial, spec, x, y)

        want = fd_grad_scalar(f, params[name])
        assert rel_err(grads[name], want) < 1e-5


def test_grad_input_matches_finite_differences():
    spec = nn.dense_net("n", [5, 6, 3], activation="leaky_relu")
    params = nn.init_params(spec, 17)
    x = RNG.normal(size=(4, 5))
    y = RNG.integers(0, 3, size=4)
    got = input_grad(params, spec, x, y)
    want = fd_grad_scalar(lambda arr: forward_loss(params, spec, arr, y), x)
    assert rel_err(got, want) < 1e-5


def test_grad_input_zero_for_constant_network():
    spec = nn.dense_net("n", [4, 3])
    params = {k: np.zeros(s) for k, s in spec.param_shapes().items()}
    g = input_grad(params, spec, RNG.normal(size=(2, 4)), np.zeros(2, dtype=int))
    np.testing.assert_array_equal(g, np.zeros((2, 4)))


def test_grad_input_scales_linearly_with_tiny_first_layer():
    # Near-zero logits keep softmax ~uniform, so dL/dx = (softmax - onehot) W
    # doubles when W doubles.
    spec = nn.dense_net("n", [6, 4])
    params = nn.init_params(spec, 3)
    params["n0/W"] = params["n0/W"] * 1e-6
    params["n0/b"] = np.zeros(4)
    x = RNG.normal(size=(3, 6))
    y = RNG.integers(0, 4, size=3)
    g1 = input_grad(params, spec, x, y)
    doubled = dict(params, **{"n0/W": 2.0 * params["n0/W"]})
    g2 = input_grad(doubled, spec, x, y)
    np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-4)


def test_batch_one_weight_grad_is_outer_product():
    spec = nn.dense_net("n", [10, 8, 4])
    params = nn.init_params(spec, 29)
    x = RNG.normal(size=(1, 10))
    y = np.array([2])
    _, grads = nn.loss_and_grad_params(params, spec, x, y)
    outer = np.outer(grads["n0/b"], x[0])
    np.testing.assert_allclose(grads["n0/W"], outer, rtol=0, atol=1e-12)


def test_saturated_softmax_gradients_vanish():
    # Push the true-class logit margin up; gradients must decay toward 0.
    spec = nn.dense_net("n", [3, 2])
    x = np.array([[1.0, 0.5, -0.25]])
    y = np.array([0])
    norms = []
    for scale in (1.0, 10.0, 40.0):
        params = {
            "n0/W": scale * np.array([[2.0, 1.0, 0.0], [-2.0, -1.0, 0.0]]),
            "n0/b": np.zeros(2),
        }
        _, g = nn.loss_and_grad_params(params, spec, x, y)
        norms.append(nn.tree_norm(g))
    assert norms[1] < norms[0] * 1e-3
    assert norms[2] < 1e-12


# -- nested gradients -----------------------------------------------------------------


def test_nested_grad_quadratic_closed_form():
    # f(w) = w^2/2, grad f = w; matching loss (w - g*)^2 has derivative 2(w - g*).
    g_star = 0.75

    def objective(w):
        f = ad.mul(ad.constant(0.5), ad.square(w))
        (gw,) = ad.grad(f, [w])
        return ad.square(ad.sub(gw, ad.constant(g_star)))

    _, got = value_and_grads(lambda leaves: objective(leaves["w"]), {"w": np.array(2.0)})
    assert got["w"] == pytest.approx(2.0 * (2.0 - g_star), abs=1e-15)


def test_nested_grad_matches_fd_on_gradient_matching_loss():
    spec = nn.dense_net("n", [4, 5, 3])
    params = nn.init_params(spec, 41)
    y = np.array([1])
    x_star = RNG.normal(size=(1, 4))
    _, g_star = nn.loss_and_grad_params(params, spec, x_star, y)

    def matching_loss_sym(xs):
        leaves = {n: ad.Var(v) for n, v in params.items()}
        grads = grad_params_sym(leaves, spec, xs["x"], y)
        total = ad.constant(0.0)
        for name in sorted(grads):
            diff = ad.sub(grads[name], ad.constant(g_star[name]))
            total = ad.add(total, ad.sum_(ad.square(diff)))
        return total

    x0 = RNG.normal(size=(1, 4))
    _, got = value_and_grads(matching_loss_sym, {"x": x0})

    def f(arr):
        _, g = nn.loss_and_grad_params(params, spec, arr, y)
        return sum(float(np.sum((g[n] - g_star[n]) ** 2)) for n in g)

    want = fd_grad_scalar(f, x0)
    assert rel_err(got["x"], want) < 1e-4


def test_nested_grad_zero_at_exact_match():
    spec = nn.dense_net("n", [3, 4, 2])
    params = nn.init_params(spec, 13)
    x0 = RNG.normal(size=(1, 3))
    y = np.array([0])
    _, g_star = nn.loss_and_grad_params(params, spec, x0, y)

    def objective(xs):
        leaves = {n: ad.Var(v) for n, v in params.items()}
        grads = grad_params_sym(leaves, spec, xs["x"], y)
        total = ad.constant(0.0)
        for name in sorted(grads):
            total = ad.add(total, ad.sum_(ad.square(ad.sub(grads[name], ad.constant(g_star[name])))))
        return total

    _, got = value_and_grads(objective, {"x": x0})
    np.testing.assert_allclose(got["x"], np.zeros_like(x0), atol=1e-18)


def test_nested_grad_without_inner_grad_reduces_to_grad_input():
    spec = nn.dense_net("n", [5, 4, 3])
    params = nn.init_params(spec, 21)
    x = RNG.normal(size=(2, 5))
    y = np.array([0, 2])

    _, got = value_and_grads(lambda xs: nn.forward_loss_sym(params, spec, xs["x"], y), {"x": x})
    np.testing.assert_array_equal(got["x"], input_grad(params, spec, x, y))


def test_nested_grad_rejects_numpy_escape():
    def objective(xs):
        return ad.constant(np.exp(xs["x"]))  # np.exp on a Var must raise

    with pytest.raises(CapabilityError) as err:
        value_and_grads(objective, {"x": np.array(1.0)})
    assert "primitives" in str(err.value)


# -- optimizer -----------------------------------------------------------------------


def test_sgd_basic_arithmetic():
    cfg = nn.OptimConfig(learning_rate=0.1)
    p, _ = nn.sgd_step({"w": np.array(1.0)}, {"w": np.array(2.0)}, cfg)
    assert p["w"] == pytest.approx(0.8, abs=1e-16)


def test_sgd_zero_lr_is_identity():
    cfg = nn.OptimConfig(learning_rate=0.0, momentum=0.5, weight_decay=5e-4)
    params = {"w": RNG.normal(size=(3, 3))}
    p, _ = nn.sgd_step(params, {"w": RNG.normal(size=(3, 3))}, cfg)
    np.testing.assert_array_equal(p["w"], params["w"])


def test_sgd_zero_grad_zero_wd_is_identity():
    cfg = nn.OptimConfig(learning_rate=0.3, momentum=0.5)
    params = {"w": RNG.normal(size=(4,))}
    state = nn.init_optim_state(params)
    p, s = nn.sgd_step(params, {"w": np.zeros(4)}, cfg, state)
    np.testing.assert_array_equal(p["w"], params["w"])
    np.testing.assert_array_equal(s["w"], np.zeros(4))


def test_sgd_momentum_two_step_matches_hand_unrolled():
    lr, mu, wd = 0.1, 0.5, 5e-4
    cfg = nn.OptimConfig(learning_rate=lr, momentum=mu, weight_decay=wd)
    p0 = np.array(1.0)
    g1, g2 = np.array(2.0), np.array(-1.0)

    m1 = g1 + wd * p0
    p1 = p0 - lr * m1
    m2 = mu * m1 + (g2 + wd * p1)
    p2 = p1 - lr * m2

    params, state = nn.sgd_step({"w": p0}, {"w": g1}, cfg)
    params, state = nn.sgd_step(params, {"w": g2}, cfg, state)
    assert params["w"] == pytest.approx(p2, abs=1e-12)
    assert state["w"] == pytest.approx(m2, abs=1e-12)


def test_sgd_momentum_simple_frozen_values():
    # mu=0.5, wd=0, lr=1, p0=0, grads 1 then 0: m1=1, p1=-1, m2=0.5, p2=-1.5
    cfg = nn.OptimConfig(learning_rate=1.0, momentum=0.5)
    params, state = nn.sgd_step({"w": np.array(0.0)}, {"w": np.array(1.0)}, cfg)
    assert params["w"] == -1.0
    params, state = nn.sgd_step(params, {"w": np.array(0.0)}, cfg, state)
    assert params["w"] == -1.5


def test_sgd_refuses_nan_gradient():
    cfg = nn.OptimConfig(learning_rate=0.1)
    params = {"w": np.array([1.0, 2.0])}
    with pytest.raises(NumericError):
        nn.sgd_step(params, {"w": np.array([np.nan, 0.0])}, cfg)
    np.testing.assert_array_equal(params["w"], np.array([1.0, 2.0]))


def test_sgd_does_not_mutate_inputs():
    cfg = nn.OptimConfig(learning_rate=0.1, momentum=0.5)
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([2.0])}
    state = {"w": np.array([0.5])}
    snap = (params["w"].copy(), grads["w"].copy(), state["w"].copy())
    nn.sgd_step(params, grads, cfg, state)
    np.testing.assert_array_equal(params["w"], snap[0])
    np.testing.assert_array_equal(grads["w"], snap[1])
    np.testing.assert_array_equal(state["w"], snap[2])


def test_optim_config_validation():
    with pytest.raises(ConfigError):
        nn.OptimConfig(learning_rate=-0.1)
    with pytest.raises(ConfigError):
        nn.OptimConfig(learning_rate=0.1, momentum=1.0)
    with pytest.raises(ConfigError):
        nn.OptimConfig(learning_rate=0.1, weight_decay=-1e-4)


# -- parameter-tree helpers -----------------------------------------------------------


def test_tree_arithmetic_and_norms():
    a = {"x": np.array([3.0, 4.0]), "y": np.array([[1.0]])}
    b = {"x": np.array([1.0, 1.0]), "y": np.array([[2.0]])}
    assert nn.tree_norm(a) == pytest.approx(np.sqrt(26.0))
    np.testing.assert_array_equal(nn.tree_add(a, b)["x"], np.array([4.0, 5.0]))
    np.testing.assert_array_equal(nn.tree_sub(a, b)["y"], np.array([[-1.0]]))
    np.testing.assert_array_equal(nn.tree_scale(a, 2.0)["x"], np.array([6.0, 8.0]))
    with pytest.raises(DimensionError):
        nn.tree_add(a, {"x": b["x"]})


_NORM_BITS_SCRIPT = """
import numpy as np
from hyperfl import network as nn
rng = np.random.default_rng(5)
for n in (51_200, 51_200, 51_200, 60_000, 100_000):
    a = {"w": rng.normal(size=n)}
    b = {"w": rng.normal(size=n)}
    print(nn.tree_sq_norm(a).hex(), nn.tree_norm(a).hex(), nn.tree_sq_norm(b).hex())
"""


def test_tree_norms_independent_of_blas_threads():
    # vectors the size of HyperFL's largest head gradient, where OpenBLAS ddot
    # splits the sum across threads
    src_dir = str(Path(nn.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _NORM_BITS_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0].count("\n") == 5
    assert outputs[0] == outputs[1]


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_loss_nonnegative_and_log_k_at_zero(batch, k, seed):
    rng = np.random.default_rng(seed)
    spec = nn.dense_net("n", [5, k])
    zero = {n: np.zeros(s) for n, s in spec.param_shapes().items()}
    rand = nn.init_params(spec, seed)
    x = rng.normal(size=(batch, 5))
    y = rng.integers(0, k, size=batch)
    assert forward_loss(zero, spec, x, y) == pytest.approx(np.log(k), rel=1e-13)
    assert forward_loss(rand, spec, x, y) >= 0.0


# -- frozen tensors and buffer ownership ----------------------------------------------


def _split_net():
    spec = nn.concat_specs(nn.dense_net("fe", [6, 8, 5]), nn.dense_net("cls", [5, 4]))
    params = nn.init_params(spec, 57)
    x = RNG.normal(size=(7, 6))
    y = RNG.integers(0, 4, size=7)
    return spec, params, x, y


@pytest.mark.parametrize("prefix", ["fe", "cls"])
def test_frozen_grads_are_bitwise_the_matching_subset(prefix):
    spec, params, x, y = _split_net()
    trained = {n: v for n, v in params.items() if n.startswith(prefix)}
    frozen = {n: v for n, v in params.items() if not n.startswith(prefix)}
    loss_all, grads_all = nn.loss_and_grad_params(params, spec, x, y)
    loss, grads = nn.loss_and_grad_params(trained, spec, x, y, frozen=frozen)
    assert loss == loss_all
    assert list(grads) == sorted(trained)
    for name, g in grads.items():
        assert g.tobytes() == grads_all[name].tobytes()


def test_frozen_name_also_trained_is_refused():
    spec, params, x, y = _split_net()
    frozen = {"cls0/b": params["cls0/b"]}
    with pytest.raises(DimensionError):
        nn.loss_and_grad_params(params, spec, x, y, frozen=frozen)


def test_frozen_and_params_together_must_cover_the_spec():
    spec, params, x, y = _split_net()
    trained = {n: v for n, v in params.items() if n.startswith("fe")}
    with pytest.raises(DimensionError):
        nn.loss_and_grad_params(trained, spec, x, y, frozen={"cls0/W": params["cls0/W"]})


def test_returned_gradients_share_no_memory_with_inputs():
    spec, params, x, y = _split_net()
    trained = {n: v for n, v in params.items() if n.startswith("fe")}
    frozen = {n: v for n, v in params.items() if n.startswith("cls")}
    inputs = [x, *params.values()]
    _, grads = nn.loss_and_grad_params(trained, spec, x, y, frozen=frozen)
    _, grads_all = nn.loss_and_grad_params(params, spec, x, y)

    def objective(xs):
        leaves = {**params, "fe0/W": xs["w"]}
        inner = grad_params_sym(leaves, spec, xs["x"], y)
        return ad.dot(inner["fe0/W"], inner["fe0/W"])

    _, nested = value_and_grads(objective, {"x": x, "w": params["fe0/W"]})
    for out in [*grads.values(), *grads_all.values(), *nested.values()]:
        assert not any(np.shares_memory(out, a) for a in inputs)


# -- optimizer against its formula -------------------------------------------------------


def sgd_step_formula(params, grads, cfg, state):
    """The update as one plain expression per tensor: six fresh arrays each."""
    new_params, new_state = {}, {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        m = cfg.momentum * state[name] + (g + cfg.weight_decay * p)
        new_state[name] = m
        new_params[name] = p - cfg.learning_rate * m
    return new_params, new_state


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    lr=st.floats(min_value=0.0, max_value=2.0),
    mu=st.floats(min_value=0.0, max_value=0.99),
    wd=st.floats(min_value=0.0, max_value=0.1),
)
def test_sgd_step_bitwise_equals_formula(seed, lr, mu, wd):
    rng = np.random.default_rng(seed)
    cfg = nn.OptimConfig(learning_rate=lr, momentum=mu, weight_decay=wd)
    params = {"W": rng.normal(size=(5, 3)), "b": rng.normal(size=(5,)), "s": np.array(0.5)}
    state = {k: rng.normal(size=v.shape) for k, v in params.items()}
    for _ in range(3):
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        got_p, got_s = nn.sgd_step(params, grads, cfg, state)
        want_p, want_s = sgd_step_formula(params, grads, cfg, state)
        for k in params:
            assert got_p[k].tobytes() == want_p[k].tobytes()
            assert got_s[k].tobytes() == want_s[k].tobytes()
        params, state = got_p, got_s
