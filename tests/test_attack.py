"""Inversion toolkit: TV prior, analytic oracle, searches, transcripts, reports.

The analytic batch-1 recovery doubles as the ground-truth oracle for the
iterative attack: both must agree with the planted input.  The bilevel
attack's closed-form objectives are checked against their traced forms,
kept here as oracles, and against finite differences.
"""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfl import attack as atk
from hyperfl import autodiff as ad
from hyperfl import datakit as dk
from hyperfl import fedsim as fs
from hyperfl import hypernet as hn
from hyperfl import metrics as mx
from hyperfl import network as nn
from hyperfl.errors import (
    CapabilityError,
    ConfigError,
    ConsistencyError,
    DimensionError,
    NumericError,
)
from tape_oracles import (
    gradient_loss_sym,
    hypernet_forward_sym,
    matching_objective_sym,
    per_key_adam,
    total_variation_sym,
    value_and_grads,
)


def stripe_image(h, w, seed):
    rng = np.random.default_rng(seed)
    base = np.where(((np.arange(w) // 2) % 2)[None, :].repeat(h, 0) == 0, 0.1, 0.9)
    return np.clip(base + 0.05 * rng.standard_normal((h, w)), 0.0, 1.0)


H = W = 8
FE = nn.dense_net("fe", [H * W, 12])
CLS = nn.dense_net("cls", [12, 3])
FULL = nn.concat_specs(FE, CLS)
PARAMS = nn.init_params(FULL, np.random.default_rng(5))
HYPER = hn.HypernetSpec(target=hn.target_from_netspec(FE), embedding_dim=8, hidden_dim=16)
PHI_H, V0 = hn.init_hypernet(HYPER, seed=3)
PHI_C = nn.init_params(CLS, np.random.default_rng(6))


def fedavg_tr(img_seed=0, y=0):
    img = stripe_image(H, W, img_seed)
    return img, atk.fedavg_transcript(PARAMS, FULL, img, y)


def hyperfl_tr(img_seed=0, y=0):
    img = stripe_image(H, W, img_seed)
    return img, atk.hyperfl_transcript(V0, PHI_H, PHI_C, HYPER, FE, CLS, img, y)


# -- total variation ------------------------------------------------------------


def test_tv_constant_image_is_zero():
    assert atk.total_variation(np.full((5, 7), 0.3)) == 0.0


def test_tv_two_by_two_example():
    assert atk.total_variation(np.array([[0.0, 1.0], [0.0, 1.0]])) == 2.0


def test_tv_homogeneity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 6))
    base = atk.total_variation(x)
    for c in (-2.5, 0.0, 0.7, 4.0):
        assert atk.total_variation(c * x) == pytest.approx(abs(c) * base, rel=1e-12)


def test_tv_rejects_non_image():
    with pytest.raises(DimensionError):
        atk.total_variation(np.ones(12))
    with pytest.raises(DimensionError):
        atk.total_variation(np.ones((2, 3, 4)))


def test_tv_symbolic_matches_numeric_and_fd():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 5))
    xv = ad.Var(x)
    out = total_variation_sym(xv)
    assert float(out.data) == pytest.approx(atk.total_variation(x), rel=1e-12)
    (g,) = ad.grad(out, [xv])
    h = 1e-6
    for idx in [(0, 0), (2, 3), (3, 4)]:
        bumped = x.copy()
        bumped[idx] += h
        dipped = x.copy()
        dipped[idx] -= h
        fd = (atk.total_variation(bumped) - atk.total_variation(dipped)) / (2 * h)
        assert g.data[idx] == pytest.approx(fd, abs=1e-6)


# -- config ---------------------------------------------------------------------


def test_attack_config_defaults_and_validation():
    cfg = atk.AttackConfig()
    assert cfg.iterations == 10_000
    assert cfg.step_size == 0.1
    assert cfg.tv_coeff == 1e-6
    with pytest.raises(ConfigError):
        atk.AttackConfig(iterations=-1)
    with pytest.raises(ConfigError):
        atk.AttackConfig(step_size=0.0)
    with pytest.raises(ConfigError):
        atk.AttackConfig(tv_coeff=-1e-9)


# -- analytic oracle --------------------------------------------------------------


def test_analytic_recovery_from_hand_built_gradients():
    rng = np.random.default_rng(2)
    x = rng.uniform(size=9)
    db = rng.normal(size=4)
    dw = np.outer(db, x)
    got = atk.analytic_input_recovery(dw, db)
    assert np.max(np.abs(got - x)) <= 1e-12


def test_analytic_recovery_on_real_gradients():
    for seed in range(5):
        img, tr = fedavg_tr(img_seed=seed, y=seed % 3)
        got = atk.analytic_input_recovery(tr.view.observed["fe0/W"], tr.view.observed["fe0/b"])
        assert np.max(np.abs(got - img.ravel())) <= 1e-10


def test_analytic_recovery_degenerate_gradient():
    with pytest.raises(NumericError):
        atk.analytic_input_recovery(np.zeros((4, 9)), np.zeros(4))
    with pytest.raises(NumericError):
        atk.analytic_input_recovery(np.ones((4, 9)) * 1e-13, np.full(4, 1e-12))


def test_analytic_recovery_shape_checks():
    with pytest.raises(DimensionError):
        atk.analytic_input_recovery(np.ones((4, 9)), np.ones(5))
    with pytest.raises(DimensionError):
        atk.analytic_input_recovery(np.ones(9), np.ones(4))


def test_analytic_hyperfl_recovery_from_head_bias_gradients():
    for seed in range(5):
        img, tr = hyperfl_tr(img_seed=seed, y=seed % 3)
        got = atk.analytic_hyperfl_recovery(tr.public())
        assert np.max(np.abs(got - img.ravel())) <= 1e-10


def test_analytic_hyperfl_recovery_refusals():
    img, tr = hyperfl_tr()
    with pytest.raises(CapabilityError):
        atk.analytic_hyperfl_recovery(tr)
    with pytest.raises(CapabilityError):
        atk.analytic_hyperfl_recovery(fedavg_tr()[1].public())
    missing = dataclasses.replace(
        tr.view, observed={k: v for k, v in tr.view.observed.items() if k != "hyper/head/fe0/b/b"}
    )
    with pytest.raises(ConsistencyError):
        atk.analytic_hyperfl_recovery(missing)
    zero = dataclasses.replace(tr.view, observed={k: np.zeros_like(v) for k, v in tr.view.observed.items()})
    with pytest.raises(NumericError):
        atk.analytic_hyperfl_recovery(zero)


def test_gradient_from_delta_inverts_one_step():
    img, tr = fedavg_tr()
    grads = tr.view.observed
    opt = nn.OptimConfig(0.1, momentum=0.9, weight_decay=5e-4)  # fresh state: momentum irrelevant
    stepped, _ = nn.sgd_step(PARAMS, grads, opt)
    delta = nn.tree_sub(stepped, PARAMS)
    back = atk.gradient_from_delta(delta, PARAMS, opt)
    for k in grads:
        assert np.max(np.abs(back[k] - grads[k])) <= 1e-10
    with pytest.raises(ConfigError):
        atk.gradient_from_delta(delta, PARAMS, nn.OptimConfig(0.0))


# -- iterative attack ---------------------------------------------------------------


def test_ig_attack_zero_iterations_returns_init():
    _, tr = fedavg_tr()
    cfg = atk.AttackConfig(iterations=0, seed=3)
    x_hat, trace = atk.ig_attack(tr.public(), cfg)
    assert np.array_equal(x_hat, atk._init_image((H, W), cfg))
    assert x_hat.min() >= 0.0 and x_hat.max() < 1.0
    assert len(trace) == 1 and trace[0].iteration == 0


def test_ig_attack_reconstructs_batch1_input():
    img, tr = fedavg_tr()
    x_hat, _ = atk.ig_attack(tr.public(), atk.AttackConfig(iterations=400, seed=0))
    assert mx.psnr(x_hat, img) >= 20.0  # typically lands far above this


def test_ig_attack_best_so_far_non_increasing():
    _, tr = fedavg_tr()
    _, trace = atk.ig_attack(tr.public(), atk.AttackConfig(iterations=350, seed=2))
    best = [r.best_loss for r in trace]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    iters = [r.iteration for r in trace]
    assert iters == [0, 100, 200, 300, 350]


def test_ig_attack_cosine_scale_invariance():
    # scaling the observed gradient by a power of two must not move a single bit
    _, tr = fedavg_tr()
    cfg = atk.AttackConfig(iterations=30, seed=1)
    x1, _ = atk.ig_attack(tr.public(), cfg)
    scaled = dataclasses.replace(
        tr.view, observed={k: 4.0 * v for k, v in tr.view.observed.items()}
    )
    x2, _ = atk.ig_attack(scaled, cfg)
    assert x1.tobytes() == x2.tobytes()


def test_cosine_loss_of_a_gradient_with_itself_is_zero_to_rounding():
    # obs_sq is summed like the tape sums sim_sq; another summation order
    # (e.g. network.tree_sq_norm's einsum) leaves several ulp of self-distance
    rng = np.random.default_rng(254)
    eps = np.finfo(float).eps
    for _ in range(50):
        sizes = rng.integers(10, 60_001, size=4)
        obs = {f"g{i}": rng.normal(size=int(n)) for i, n in enumerate(sizes)}
        loss = gradient_loss_sym({k: ad.Var(o) for k, o in obs.items()}, obs)
        assert abs(float(loss.data)) <= eps


def test_ig_attack_refuses_hyperfl_transcript():
    _, tr = hyperfl_tr()
    with pytest.raises(CapabilityError):
        atk.ig_attack(tr.public(), atk.AttackConfig(iterations=1))


def test_attacks_refuse_unredacted_transcript():
    _, tr = fedavg_tr()
    with pytest.raises(CapabilityError):
        atk.ig_attack(tr, atk.AttackConfig(iterations=1))
    _, trh = hyperfl_tr()
    with pytest.raises(CapabilityError):
        atk.hyperfl_bilevel_attack(trh, atk.AttackConfig(iterations=1))


def test_ig_attack_checks_observed_names():
    _, tr = fedavg_tr()
    broken = dataclasses.replace(
        tr.view, observed={k: v for k, v in tr.view.observed.items() if "cls" not in k}
    )
    with pytest.raises(ConsistencyError):
        atk.ig_attack(broken, atk.AttackConfig(iterations=1))


def test_ig_attack_deterministic():
    _, tr = fedavg_tr()
    cfg = atk.AttackConfig(iterations=50, seed=9)
    x1, t1 = atk.ig_attack(tr.public(), cfg)
    x2, t2 = atk.ig_attack(tr.public(), cfg)
    assert x1.tobytes() == x2.tobytes()
    assert t1 == t2


# -- the Adam loop -------------------------------------------------------------------


def random_objective(shapes, nan_from=None, seed=0):
    """A nonconvex objective over named arrays, with matmuls on the arrays it is
    handed; its loss is NaN from its ``nan_from``-th evaluation on.  Returns the
    objective and its evaluation count, a one-item list."""
    rng = np.random.default_rng(seed)
    mats = {k: rng.normal(size=(3, math.prod(s))) for k, s in shapes.items()}
    targets = {k: rng.normal(size=3) for k in shapes}
    calls = [0]

    def value_and_grads(xs):
        calls[0] += 1
        loss, grads = 0.0, {}
        for k, x in xs.items():
            flat = x.reshape(-1)
            r = mats[k] @ flat - targets[k]
            loss += float(r @ r) + 0.1 * float(np.sum(flat**4))
            grads[k] = (2.0 * (r @ mats[k]) + 0.4 * flat**3).reshape(x.shape)
        return (math.nan if nan_from is not None and calls[0] >= nan_from else loss), grads

    return value_and_grads, calls


def bits(trace):
    return [(r.iteration, np.float64(r.loss).tobytes(), np.float64(r.best_loss).tobytes()) for r in trace]


@settings(max_examples=30, deadline=None)
@given(
    shapes=st.lists(st.lists(st.integers(min_value=1, max_value=4), max_size=2), min_size=1, max_size=4),
    iterations=st.sampled_from([0, 1, 8, 100, 101, 300]),
    step_size=st.sampled_from([0.01, 0.1, 1.0]),
    nan_from=st.one_of(st.none(), st.integers(min_value=1, max_value=120)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_flat_adam_is_bitwise_the_per_key_loop(shapes, iterations, step_size, nan_from, seed):
    # across the decay milestones, 0-d to 2-d arrays, and NaN turning up
    # before, at or after the last iteration
    shapes = {f"k{i}": tuple(s) for i, s in enumerate(shapes)}
    rng = np.random.default_rng(seed)
    init = {k: rng.normal(size=s) for k, s in shapes.items()}
    cfg = atk.AttackConfig(iterations=iterations, step_size=step_size)
    best, loss, trace = atk._optimize(random_objective(shapes, nan_from, seed)[0], init, cfg)
    want_best, want_loss, want_trace = per_key_adam(random_objective(shapes, nan_from, seed)[0], init, cfg)
    assert best.keys() == want_best.keys()
    for k, w in want_best.items():
        assert best[k].shape == w.shape and best[k].tobytes() == w.tobytes(), k
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    if nan_from is not None and nan_from <= iterations:
        # the one exception: the early-stop row names the iteration that stopped
        assert bits(trace[:-1]) == bits(want_trace[:-1])
        assert trace[-1].iteration == nan_from - 1 and want_trace[-1].iteration == iterations
        assert math.isnan(trace[-1].loss) and math.isnan(want_trace[-1].loss)
        assert np.float64(trace[-1].best_loss).tobytes() == np.float64(want_trace[-1].best_loss).tobytes()
    else:
        assert bits(trace) == bits(want_trace)


def test_optimize_early_stop_reports_the_iteration_it_stopped_at():
    # the 6th evaluation, at iteration 5, is NaN: the search stops there and
    # evaluates nothing more
    f, calls = random_objective({"x": (3,)}, nan_from=6)
    _, best_loss, trace = atk._optimize(f, {"x": np.ones(3)}, atk.AttackConfig(iterations=50))
    assert calls[0] == 6
    assert trace[-1].iteration == 5 and math.isnan(trace[-1].loss)
    assert trace[-1].best_loss == best_loss and math.isfinite(best_loss)


def test_optimize_early_stop_keeps_a_finite_lower_loss_as_best():
    # from the 4th evaluation on the gradient is infinite while the loss is
    # finite and lower than before: that iterate is the best
    seen, losses = [], []

    def f(xs):
        x = xs["x"]
        seen.append(x.copy())
        losses.append(float(np.sum(x * x)))
        return losses[-1], {"x": 2.0 * x if len(losses) < 4 else np.full_like(x, np.inf)}

    best, best_loss, trace = atk._optimize(f, {"x": np.array([1.0, -2.0])}, atk.AttackConfig(iterations=50))
    assert len(losses) == 4 and losses[3] < min(losses[:3])
    assert best_loss == losses[3] and np.array_equal(best["x"], seen[3])
    assert trace[-1] == atk.TraceRow(3, losses[3], losses[3])


# -- closed-form objectives against the tape ------------------------------------------


def embedding_objective_sym(phi_params, obs, spec):
    """recover_embedding's objective traced through the tape (second order)."""
    phi_names = sorted(phi_params)

    def objective(leaves):
        phi = {k: ad.Var(np.asarray(phi_params[k], dtype=np.float64)) for k in phi_names}
        gen = hypernet_forward_sym(leaves["v"], phi, spec)
        inner = None
        for name, _ in spec.target:
            term = ad.sum_(ad.square(ad.sub(gen[name], leaves[f"theta/{name}"])))
            inner = term if inner is None else ad.add(inner, term)
        inner = ad.mul(ad.constant(np.float64(0.5)), inner)
        sim = dict(zip(phi_names, ad.grad(inner, [phi[k] for k in phi_names])))
        total = None
        for k in sorted(obs):
            term = ad.sum_(ad.square(ad.sub(sim[k], ad.constant(obs[k]))))
            total = term if total is None else ad.add(total, term)
        return total

    return objective


def inversion_objective_sym(theta, spec, target_row, tv_coeff):
    """The bilevel attack's stage-two objective traced through the tape."""

    def objective(leaves):
        x_row = ad.reshape(leaves["x"], (1, spec.in_dim))
        feats = nn.forward_logits_sym({k: ad.constant(v) for k, v in theta.items()}, spec, x_row)
        out = ad.sum_(ad.square(ad.sub(feats, ad.constant(target_row))))
        if tv_coeff > 0:
            tv = ad.mul(ad.constant(np.float64(tv_coeff)), total_variation_sym(leaves["x"]))
            out = ad.add(out, tv)
        return out

    return objective


def assert_matches_tape(closed_form, traced, xs):
    loss, grads = closed_form(xs)
    want_loss, want = value_and_grads(traced, xs)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grads.keys() == want.keys()
    for k, g in want.items():
        assert grads[k].shape == g.shape, k
        assert np.max(np.abs(grads[k] - g)) <= 1e-12 * max(np.max(np.abs(g)), 1e-300), k


def central_differences(value_and_grads, xs, key, h=1e-6):
    """Finite-difference directional derivative along a fixed random direction."""
    rng = np.random.default_rng(0)
    d = rng.normal(size=xs[key].shape)
    up = {**xs, key: xs[key] + h * d}
    down = {**xs, key: xs[key] - h * d}
    return (value_and_grads(up)[0] - value_and_grads(down)[0]) / (2 * h), d


def random_hyper(widths, embedding_dim, hidden_dim, seed):
    fe = nn.dense_net("fe", widths)
    spec = hn.HypernetSpec(target=hn.target_from_netspec(fe), embedding_dim=embedding_dim, hidden_dim=hidden_dim)
    rng = np.random.default_rng(seed)
    phi = {k: rng.normal(size=s) for k, s in spec.param_shapes().items()}
    phi["hyper/trunk/b"] -= 0.5
    obs = {k: rng.normal(size=s) for k, s in spec.param_shapes().items()}
    return spec, phi, obs, rng


@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=4),
    embedding_dim=st.integers(min_value=1, max_value=10),
    hidden_dim=st.integers(min_value=1, max_value=16),
    v_scale=st.sampled_from([0.0, 0.01, 1.0, 30.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_embedding_objective_matches_tape(widths, embedding_dim, hidden_dim, v_scale, seed):
    # 1-3 extractor layers; the v scale and the shifted trunk bias leave some
    # hidden ReLUs dead
    spec, phi, obs, rng = random_hyper(widths, embedding_dim, hidden_dim, seed)
    xs = {"v": v_scale * rng.normal(size=embedding_dim)}
    for name, shape in spec.target:
        xs[f"theta/{name}"] = rng.normal(size=shape)
    closed = atk._embedding_objective(phi, obs, spec)
    assert_matches_tape(closed, embedding_objective_sym(phi, obs, spec), xs)


@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=4),
    activation=st.sampled_from(["relu", "leaky_relu"]),
    tv_coeff=st.sampled_from([0.0, 1e-6, 0.3]),
    bias_shift=st.sampled_from([0.0, -1.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_inversion_objective_matches_tape(widths, activation, tv_coeff, bias_shift, seed):
    # 1-3 layers; the shifted biases leave some units of each hidden layer dead
    rng = np.random.default_rng(seed)
    h = int(rng.integers(1, 4))
    spec = nn.dense_net("fe", [h * widths[0], *widths[1:]], activation=activation)
    theta = nn.init_params(spec, rng)
    for layer in spec.layers:
        theta[f"{layer.name}/b"] = theta[f"{layer.name}/b"] + bias_shift
    target_row = rng.normal(size=(1, spec.out_dim))
    xs = {"x": rng.uniform(0.0, 1.0, size=(h, widths[0]))}
    closed = atk._inversion_objective(theta, spec, target_row, tv_coeff)
    assert_matches_tape(closed, inversion_objective_sym(theta, spec, target_row, tv_coeff), xs)


@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=4),
    classes=st.integers(min_value=2, max_value=5),
    bias_shift=st.sampled_from([0.0, -1.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_matching_objective_matches_tape(widths, classes, bias_shift, seed):
    # 1-3 hidden layers under every activation and three TV weights; the
    # shifted biases leave some hidden units dead
    rng = np.random.default_rng(seed)
    h = int(rng.integers(1, 4))
    xs = {"x": rng.uniform(0.0, 1.0, size=(h, widths[0]))}
    for activation in ("relu", "leaky_relu", "linear"):
        spec = nn.dense_net("n", [h * widths[0], *widths[1:], classes], activation=activation)
        params = nn.init_params(spec, rng)
        for layer in spec.layers[:-1]:
            params[f"{layer.name}/b"] = params[f"{layer.name}/b"] + bias_shift
        obs = {k: rng.normal(size=shape) for k, shape in spec.param_shapes().items()}
        label = int(rng.integers(classes))
        for tv_coeff in (0.0, 1e-6, 0.3):
            closed = atk._matching_objective(params, spec, obs, label, tv_coeff)
            traced = matching_objective_sym(params, spec, obs, label, tv_coeff)
            assert_matches_tape(closed, traced, xs)


def test_matching_objective_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    spec = nn.dense_net("n", [12, 7, 5, 3], activation="leaky_relu")
    params = nn.init_params(spec, rng)
    obs = {k: rng.normal(size=shape) for k, shape in spec.param_shapes().items()}
    closed = atk._matching_objective(params, spec, obs, 2, 0.01)
    xs = {"x": rng.uniform(0.0, 1.0, size=(3, 4))}
    _, grads = closed(xs)
    fd, d = central_differences(closed, xs, "x")
    assert np.sum(grads["x"] * d) == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TapeReached(Exception):
    pass


def test_attacks_never_reach_the_tape(monkeypatch):
    # transcripts are built on the tape (loss_and_grad_params); the attacks are not
    img = stripe_image(H, W, 1)
    dp = fs.DPConfig(clip_norm=1.0, sigma=0.01)
    full_model = [
        atk.fedavg_transcript(PARAMS, FULL, img, 1),
        atk.dp_fedavg_transcript(PARAMS, FULL, img, 1, dp, np.random.default_rng(0)),
        atk.pfedhn_transcript(PARAMS, FULL, img, 1),
    ]
    _, tr_h = hyperfl_tr(img_seed=1, y=1)

    def refuse(*args, **kwargs):
        raise TapeReached

    monkeypatch.setattr(ad, "grad", refuse)
    with pytest.raises(TapeReached):  # the patch is live
        nn.loss_and_grad_params(PARAMS, FULL, img.reshape(1, -1), np.array([1]))
    cfg = atk.AttackConfig(iterations=5, seed=2)
    for tr in full_model:
        atk.ig_attack(tr.public(), cfg)
        atk.attack_transcript(tr.public(), cfg)
    atk.hyperfl_bilevel_attack(tr_h.public(), atk.AttackConfig(iterations=5, seed=2))


@pytest.mark.parametrize("activation", ["relu", "leaky_relu", "linear"])
def test_matching_loss_vanishes_at_the_true_input(activation):
    # the simulated gradient at the true input is bitwise the transcript's, so
    # every adjoint of the cosine loss cancels exactly there
    rng = np.random.default_rng(17)
    spec = nn.dense_net("n", [H * W, 10, 6, 4], activation=activation)
    params = nn.init_params(spec, rng)
    eps = np.finfo(float).eps
    for seed in range(5):
        img = stripe_image(H, W, seed)
        view = atk.fedavg_transcript(params, spec, img, seed % 4).public()
        xs = {"x": img}
        loss, grads = atk._matching_objective(params, spec, view.observed, view.label, 0.0)(xs)
        assert abs(loss) <= eps and not np.any(grads["x"])


def test_embedding_objective_gradients_match_finite_differences():
    spec, phi, obs, rng = random_hyper([6, 5, 3], 4, 7, seed=11)
    xs = {"v": rng.normal(size=4), **{f"theta/{n}": rng.normal(size=s) for n, s in spec.target}}
    closed = atk._embedding_objective(phi, obs, spec)
    _, grads = closed(xs)
    for key in xs:
        fd, d = central_differences(closed, xs, key)
        assert np.sum(grads[key] * d) == pytest.approx(fd, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
def test_inversion_objective_gradients_match_finite_differences(activation):
    rng = np.random.default_rng(12)
    spec = nn.dense_net("fe", [12, 7, 5], activation=activation)
    theta = nn.init_params(spec, rng)
    closed = atk._inversion_objective(theta, spec, rng.normal(size=(1, 5)), 0.01)
    xs = {"x": rng.uniform(0.0, 1.0, size=(3, 4))}
    _, grads = closed(xs)
    fd, d = central_differences(closed, xs, "x")
    assert np.sum(grads["x"] * d) == pytest.approx(fd, rel=1e-6, abs=1e-6)


# -- embedding recovery ------------------------------------------------------------


def planted_view():
    """Observed hypernet gradient synthesized from a known (v*, theta*)."""
    rng = np.random.default_rng(7)
    v_star = rng.standard_normal(HYPER.embedding_dim)
    theta_star = {name: rng.standard_normal(shape) for name, shape in HYPER.target}
    gen = hn.hypernet_forward(v_star, PHI_H, HYPER)
    cot = {k: gen[k] - theta_star[k] for k in gen}
    d_phi, _ = hn.hypernet_backward(cot, v_star, PHI_H, HYPER)
    _, tr = hyperfl_tr()
    return dataclasses.replace(tr.view, observed=d_phi), v_star, theta_star


def test_recover_embedding_planted_optimum_has_zero_residual():
    view, v_star, theta_star = planted_view()
    v_hat, theta_hat, residual = atk.recover_embedding(
        view, atk.AttackConfig(iterations=0), init_v=v_star, init_theta=theta_star
    )
    assert residual <= 1e-20
    assert np.array_equal(v_hat, v_star)
    for name, _ in HYPER.target:
        assert np.array_equal(theta_hat[name], theta_star[name])


def test_recover_embedding_random_init_stays_far_from_planted():
    view, v_star, theta_star = planted_view()
    _, _, planted = atk.recover_embedding(
        view, atk.AttackConfig(iterations=0), init_v=v_star, init_theta=theta_star
    )
    floor = 10 * max(planted, 1e-25)
    high = sum(
        atk.recover_embedding(view, atk.AttackConfig(iterations=150, seed=s))[2] > floor
        for s in range(10)
    )
    assert high >= 8


def test_recover_embedding_zero_iterations_returns_init():
    view, _, _ = planted_view()
    cfg = atk.AttackConfig(iterations=0, seed=4)
    v1, th1, _ = atk.recover_embedding(view, cfg)
    v2, th2, _ = atk.recover_embedding(view, cfg)
    assert v1.tobytes() == v2.tobytes()
    for name, shape in HYPER.target:
        assert np.array_equal(th1[name], np.zeros(shape))  # default target init


def test_recover_embedding_refuses_wrong_algorithm():
    _, tr = fedavg_tr()
    with pytest.raises(CapabilityError):
        atk.recover_embedding(tr.public(), atk.AttackConfig(iterations=1))
    # the refusal keys on what the view holds, not on its "hyperfl" label
    _, tr = hyperfl_tr()
    no_spec = dataclasses.replace(tr.public(), hyper_spec=None)
    assert no_spec.algorithm == "hyperfl"
    with pytest.raises(CapabilityError):
        atk.recover_embedding(no_spec, atk.AttackConfig(iterations=1))


# -- bi-level attack ----------------------------------------------------------------


def test_bilevel_attack_zero_budget_is_the_floor():
    img, tr = hyperfl_tr()
    cfg = atk.AttackConfig(iterations=0, seed=1)
    x_hat, report = atk.hyperfl_bilevel_attack(tr.public(), cfg)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(1, atk._TAG_INIT)))
    assert np.array_equal(x_hat, rng.uniform(0.0, 1.0, size=(H, W)))
    assert set(report) == {"embedding_residual", "inversion_loss", "trace"}


def test_bilevel_attack_stays_far_below_positive_control():
    img, tr_h = hyperfl_tr()
    _, tr_f = fedavg_tr()
    cfg = atk.AttackConfig(iterations=200, seed=1)
    x_h, _ = atk.hyperfl_bilevel_attack(tr_h.public(), cfg)
    x_f, _ = atk.ig_attack(tr_f.public(), cfg)
    assert mx.psnr(x_f, img) >= mx.psnr(x_h, img) + 10.0


def test_bilevel_refuses_full_model_transcripts():
    _, tr = fedavg_tr()
    with pytest.raises(CapabilityError):
        atk.hyperfl_bilevel_attack(tr.public(), atk.AttackConfig(iterations=1))


def test_attack_router():
    img, tr_f = fedavg_tr()
    cfg = atk.AttackConfig(iterations=30, seed=3)
    x_route, _ = atk.attack_transcript(tr_f.public(), cfg)
    x_direct, _ = atk.ig_attack(tr_f.public(), cfg)
    assert x_route.tobytes() == x_direct.tobytes()
    _, tr_h = hyperfl_tr()
    x_h, trace = atk.attack_transcript(tr_h.public(), atk.AttackConfig(iterations=10, seed=3))
    assert x_h.shape == (H, W) and trace


# -- redaction ---------------------------------------------------------------------


def test_sentinel_ground_truth_cannot_influence_attack():
    # two transcripts identical except for planted ground truth; identical outputs
    img, tr = fedavg_tr()
    poisoned = dataclasses.replace(tr, x_true=np.full((H, W), 123456.0), y_true=999)
    cfg = atk.AttackConfig(iterations=40, seed=5)
    x1, _ = atk.ig_attack(tr.public(), cfg)
    x2, _ = atk.ig_attack(poisoned.public(), cfg)
    assert x1.tobytes() == x2.tobytes()

    _, trh = hyperfl_tr()
    poisoned_h = dataclasses.replace(trh, x_true=np.full((H, W), -777.0))
    y1, _ = atk.hyperfl_bilevel_attack(trh.public(), atk.AttackConfig(iterations=10, seed=5))
    y2, _ = atk.hyperfl_bilevel_attack(poisoned_h.public(), atk.AttackConfig(iterations=10, seed=5))
    assert y1.tobytes() == y2.tobytes()


def test_view_carries_no_ground_truth_fields():
    _, tr = fedavg_tr()
    names = {f.name for f in dataclasses.fields(tr.public())}
    assert "x_true" not in names and "y_true" not in names


# -- transcript builders -----------------------------------------------------------


def test_pfedhn_transcript_observed_matches_true_gradients():
    img = stripe_image(H, W, 3)
    tr = atk.pfedhn_transcript(PARAMS, FULL, img, y=1)
    _, true = nn.loss_and_grad_params(PARAMS, FULL, img.reshape(1, -1), np.array([1]))
    for k in true:
        assert np.max(np.abs(tr.view.observed[k] - true[k])) <= 1e-10
    assert tr.view.algorithm == "pfedhn"


def test_dp_transcript_sanitizes_observation():
    img = stripe_image(H, W, 4)
    dp = fs.DPConfig(clip_norm=0.01, sigma=0.0)
    tr = atk.dp_fedavg_transcript(PARAMS, FULL, img, 2, dp, np.random.default_rng(0))
    assert nn.tree_norm(dict(tr.view.observed)) <= 0.01


def test_hyperfl_transcript_contents():
    img, tr = hyperfl_tr(img_seed=6, y=2)
    assert set(tr.view.params) == set(HYPER.param_shapes())
    assert set(tr.view.observed) == set(HYPER.param_shapes())
    assert tr.view.model_spec is FE
    assert tr.y_true == 2 and tr.view.label == 2


def merged_pass_observation(v, phi_h, phi_c, hyper, fe, cls, img, y):
    """θ's gradient cut from one pass over every tensor, classifier included."""
    theta = hn.hypernet_forward(v, phi_h, hyper)
    full = nn.concat_specs(fe, cls)
    _, grads = nn.loss_and_grad_params({**theta, **phi_c}, full, img.reshape(1, -1), np.array([y]))
    d_phi, _ = hn.hypernet_backward({k: grads[k] for k in theta}, v, phi_h, hyper)
    return d_phi


@pytest.mark.parametrize("seed", range(20))
def test_hyperfl_transcript_observed_bitwise_equals_merged_pass(seed):
    rng = np.random.default_rng(seed)
    h, w = (int(d) for d in rng.integers(2, 5, size=2))
    act = str(rng.choice(["relu", "leaky_relu"]))
    fe = nn.dense_net("fe", [h * w, *rng.integers(2, 9, size=rng.integers(1, 3))], activation=act)
    cls = nn.dense_net("cls", [fe.out_dim, int(rng.integers(2, 5))], activation=act)
    hyper = hn.HypernetSpec(
        target=hn.target_from_netspec(fe),
        embedding_dim=int(rng.integers(2, 6)),
        hidden_dim=int(rng.integers(3, 10)),
    )
    phi_h, v = hn.init_hypernet(hyper, seed=seed)
    phi_c = nn.init_params(cls, rng)
    img = rng.uniform(0.0, 1.0, size=(h, w))
    y = int(rng.integers(cls.out_dim))

    tr = atk.hyperfl_transcript(v, phi_h, phi_c, hyper, fe, cls, img, y)
    want = merged_pass_observation(v, phi_h, phi_c, hyper, fe, cls, img, y)
    assert list(tr.view.observed) == list(want)
    for k, g in want.items():
        assert tr.view.observed[k].tobytes() == g.tobytes()


def test_transcript_builders_validate_image():
    with pytest.raises(DimensionError):
        atk.fedavg_transcript(PARAMS, FULL, np.ones(H * W), 0)  # not 2-D
    with pytest.raises(DimensionError):
        atk.fedavg_transcript(PARAMS, FULL, np.ones((3, 3)), 0)  # wrong pixel count


# -- snapshot transcripts ------------------------------------------------------------


DP = fs.DPConfig(clip_norm=1.0, sigma=0.01)
OPT = nn.OptimConfig(0.1, 0.5, 5e-4)


def snapshot_state(algorithm):
    """A two-client state after one round of ``algorithm`` on 8x8 images."""
    bundle = fs.ModelBundle(fe=FE, cls=CLS, hyper=HYPER)
    rng = np.random.default_rng(8)
    shards = []
    for _ in range(2):
        x, y = rng.uniform(size=(10, H * W)), rng.integers(0, 3, size=10)
        shards.append((dk.Dataset(x[:6], y[:6], 3), dk.Dataset(x[6:], y[6:], 3)))
    cfg = fs.RoundConfig(local_epochs=1, batch_size=3, total_rounds=1)
    server, clients = fs.init_experiment(algorithm, bundle, shards, seed=4)
    server, clients, _ = fs.run_round(server, clients, bundle, cfg, DP, seed=4)
    return server, clients, bundle


def direct_transcript(server, clients, bundle, i, seed):
    """What snapshot_transcript should build for sample i, spelled out per protocol."""
    client = clients[i % 2]
    img, y = client.train.x[i // 2].reshape(H, W), int(client.train.y[i // 2])
    if server.algorithm == "fedavg":
        return atk.fedavg_transcript(server.global_model, FULL, img, y)
    if server.algorithm == "dp_fedavg":
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, atk._TAG_DP, i)))
        return atk.dp_fedavg_transcript(server.global_model, FULL, img, y, DP, rng)
    if server.algorithm == "pfedhn":
        model = hn.hypernet_forward(server.embeddings[client.id], server.varphi_bar, bundle.pfedhn_hyper())
        return atk.pfedhn_transcript(model, FULL, img, y, opt=OPT)
    return atk.hyperfl_transcript(client.v, server.varphi_bar, client.phi_c, HYPER, FE, CLS, img, y)


@pytest.mark.parametrize("algorithm", ["fedavg", "dp_fedavg", "pfedhn", "hyperfl"])
def test_snapshot_transcript_equals_a_direct_builder_call(algorithm):
    server, clients, bundle = snapshot_state(algorithm)
    got = atk.snapshot_transcript(server, clients, bundle, 3, (H, W), DP, OPT, seed=9)
    want = direct_transcript(server, clients, bundle, 3, seed=9)
    assert got.view.algorithm == want.view.algorithm == algorithm
    for field in ("model_spec", "label", "image_shape", "hyper_spec"):
        assert getattr(got.view, field) == getattr(want.view, field)
    for tree in ("params", "observed"):
        a, b = getattr(got.view, tree), getattr(want.view, tree)
        assert a.keys() == b.keys() and all(a[k].tobytes() == b[k].tobytes() for k in a)
    assert got.x_true.tobytes() == want.x_true.tobytes() and got.y_true == want.y_true


@pytest.mark.parametrize("seed", range(4))
def test_hyperfl_transcript_observes_what_step_two_uploads(seed):
    # one client, one sample, one Step-2 step from a fresh optimizer: the server
    # inverts the uploaded hypernetwork's step and gets the transcript's gradient
    rng = np.random.default_rng(seed)
    shard = dk.Dataset(rng.uniform(size=(1, H * W)), rng.integers(0, 3, size=1), 3)
    bundle = fs.ModelBundle(fe=FE, cls=CLS, hyper=HYPER)
    server, (client,) = fs.init_experiment("hyperfl", bundle, [(shard, shard)], seed=seed)
    cfg = fs.RoundConfig(local_epochs=1, batch_size=1)
    phi_h, *_ = fs._hyper_epochs(client, server.varphi_bar, client.phi_c, bundle, cfg, rng)
    observed = atk.gradient_from_delta(nn.tree_sub(phi_h, server.varphi_bar), server.varphi_bar, cfg.eta_h)
    img, y = shard.x[0].reshape(H, W), int(shard.y[0])
    view = atk.hyperfl_transcript(client.v, server.varphi_bar, client.phi_c, HYPER, FE, CLS, img, y).view
    assert observed.keys() == view.observed.keys()
    for k, want in view.observed.items():  # the step's rounding, relative to each tensor's scale
        assert np.max(np.abs(observed[k] - want)) <= 1e-10 * np.max(np.abs(want)), k


def test_snapshot_transcript_refuses_a_sample_past_the_shard():
    server, clients, bundle = snapshot_state("fedavg")
    with pytest.raises(ConfigError, match="holds only 6 samples"):
        atk.snapshot_transcript(server, clients, bundle, 12, (H, W), DP, OPT, seed=0)


# the functions the benchmark's tracer times by rebinding module attributes
TRACED = {
    fs: ("local_train_hyperfl", "local_train_fedavg", "dp_sanitize"),
    atk: ("hyperfl_transcript", "hyperfl_bilevel_attack"),
}
# calls per round of snapshot_state (two trained clients), then per attacked sample
ROUND_CALLS = {
    "hyperfl": {"local_train_hyperfl": 2},
    "fedavg": {"local_train_fedavg": 2},
    "dp_fedavg": {"local_train_fedavg": 2, "dp_sanitize": 2},
    "local": {"local_train_fedavg": 2},
    "pfedhn": {"local_train_fedavg": 2},
}
ATTACK_CALLS = {
    "hyperfl": {"hyperfl_transcript": 1, "hyperfl_bilevel_attack": 1},
    "fedavg": {},
    "dp_fedavg": {"dp_sanitize": 1},
    "pfedhn": {},
}


def count_traced_calls(monkeypatch) -> dict[str, int]:
    """Rebind every package binding of the traced functions to a counting wrapper, as the tracer does."""
    calls = {}
    modules = [m for name, m in sys.modules.items() if name == "hyperfl" or name.startswith("hyperfl.")]
    for owner, names in TRACED.items():
        for name in names:
            fn, calls[name] = getattr(owner, name), 0

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("algorithm", fs.ALGORITHMS)
def test_each_protocol_reaches_the_traced_functions_through_module_attributes(algorithm, monkeypatch):
    """A protocol calls each function the benchmark times through a module attribute.

    The tracer times a function by rebinding the module attributes that hold
    it; a function held anywhere else (a table row, a default argument) would
    run untimed, and its span would report no calls.
    """
    calls = count_traced_calls(monkeypatch)
    server, clients, bundle = snapshot_state(algorithm)
    assert calls == {name: ROUND_CALLS[algorithm].get(name, 0) for name in calls}
    calls.update(dict.fromkeys(calls, 0))
    if algorithm not in ATTACK_CALLS:
        with pytest.raises(CapabilityError, match="nothing to attack"):
            atk.snapshot_transcript(server, clients, bundle, 0, (H, W), DP, OPT, seed=0)
    else:
        transcript = atk.snapshot_transcript(server, clients, bundle, 0, (H, W), DP, OPT, seed=0)
        atk.attack_transcript(transcript.public(), atk.AttackConfig(iterations=0))
    assert calls == {name: ATTACK_CALLS.get(algorithm, {}).get(name, 0) for name in calls}


def test_analytic_psnr_is_exact_on_noiseless_batch1_transcripts():
    img = stripe_image(H, W, 2)
    for tr in (
        atk.fedavg_transcript(PARAMS, FULL, img, 1),
        atk.pfedhn_transcript(PARAMS, FULL, img, 1),
        hyperfl_tr(img_seed=2, y=1)[1],
    ):
        assert atk.score_reconstruction(tr, np.zeros((H, W)))["analytic_psnr"] == mx.PSNR_CAP_DB


def test_analytic_psnr_is_nan_when_every_bias_entry_is_zero():
    _, tr = fedavg_tr()
    observed = {**tr.view.observed, "fe0/b": np.zeros(12)}
    flat = dataclasses.replace(tr, view=dataclasses.replace(tr.view, observed=observed))
    assert math.isnan(atk.score_reconstruction(flat, tr.x_true)["analytic_psnr"])
    _, trh = hyperfl_tr()
    observed = {**trh.view.observed, "hyper/head/fe0/b/b": np.zeros(12)}
    flat = dataclasses.replace(trh, view=dataclasses.replace(trh.view, observed=observed))
    assert math.isnan(atk.score_reconstruction(flat, trh.x_true)["analytic_psnr"])


# -- reports -----------------------------------------------------------------------


def test_attack_report_round_trip(tmp_path):
    img, tr = fedavg_tr()
    cfg = atk.AttackConfig(iterations=20, seed=0)
    x_hat, trace = atk.ig_attack(tr.public(), cfg)
    scores = atk.score_reconstruction(tr, x_hat)
    rec = atk.sample_record(0, "fedavg", x_hat, scores, trace)
    path = tmp_path / "report.json"
    atk.write_attack_report(path, cfg, [rec])
    loaded = json.loads(path.read_text())
    assert loaded["config"]["iterations"] == 20
    assert loaded["samples"][0]["psnr"] == pytest.approx(scores["psnr"])
    got = np.array(loaded["samples"][0]["reconstruction"]).reshape(H, W)
    assert np.array_equal(got, x_hat)

    csv_path = tmp_path / "summary.csv"
    atk.write_attack_summary_csv(csv_path, [rec])
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "sample,algorithm,psnr,analytic_psnr"
    assert lines[1].startswith("0,fedavg,")


def test_attack_summary_empty_has_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    atk.write_attack_summary_csv(path, [])
    assert path.read_text() == "sample,algorithm,psnr,analytic_psnr\n"


def test_attack_summary_round_trip_keeps_nan_analytic_psnr(tmp_path):
    scores = [{"psnr": 0.1 + 0.2, "analytic_psnr": math.nan}, {"psnr": 12.5, "analytic_psnr": 7.25}]
    recs = [atk.sample_record(i, "hyperfl", np.zeros((2, 2)), s, []) for i, s in enumerate(scores)]
    path = tmp_path / "summary.csv"
    atk.write_attack_summary_csv(path, recs)
    back = atk.read_attack_summary_csv(path)
    assert [(r["sample"], r["algorithm"]) for r in back] == [(0, "hyperfl"), (1, "hyperfl")]
    assert [r["psnr"] for r in back] == [0.1 + 0.2, 12.5]  # repr cells read back exactly
    assert math.isnan(back[0]["analytic_psnr"]) and back[1]["analytic_psnr"] == 7.25


def test_score_reconstruction_gives_psnr_and_the_analytic_control():
    img, tr = fedavg_tr()
    scores = atk.score_reconstruction(tr, tr.x_true)
    assert scores == {"psnr": 100.0, "analytic_psnr": 100.0}
