"""Gradient-inversion toolkit for an honest-but-curious server.

What the server can try depends on what a protocol leaks:

* full-model gradients (plain weight averaging, or a server-side
  hypernetwork whose generated models it knows): iterative gradient
  matching (`ig_attack`) plus an exact batch-1 oracle
  (`analytic_input_recovery`) that serves as the positive control;
* hypernetwork gradients only: the bilevel search recovers the embedding
  first (`recover_embedding`), then inverts the extractor it generates
  (`hyperfl_bilevel_attack`).  No success is guaranteed; the residuals
  and scores are the experiment's outcome, not an error condition.  The
  head-bias gradients still carry a batch-1 input exactly
  (`analytic_hyperfl_recovery`), so HyperFL's control is as strong as
  FedAvg's.

Every attack objective is closed-form numpy, with no autodiff tape: it
returns its loss and exact gradients in one pass.  Gradient matching
differentiates a gradient, so `ig_attack` runs a reverse pass over the
network's backprop.  The tests keep each traced objective as an oracle.

Server views and both scores are built here: `snapshot_transcript` builds
what a snapshot's protocol shows the server, and `score_reconstruction`
scores the search and the exact batch-1 control.  A `Transcript` keeps the
true sample for scoring; attacks accept only its redacted `TranscriptView`,
so reconstruction code cannot touch ground truth even by accident.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import hypernet as hn
from . import metrics as mx
from . import network as nn
from .checkpoint import write_atomic, write_json
from .errors import CapabilityError, ConfigError, ConsistencyError, DimensionError, FormatError, NumericError
from .fedsim import ClientState, DPConfig, LayoutRow, ModelBundle, ServerState, dp_sanitize
from .hypernet import HypernetSpec
from .network import NetSpec, OptimConfig, ParamSet

_TAG_INIT = 0x41545443
_TAG_EMBED = 0x52454D42
_TAG_PROBE = 0x50524F42
_TAG_DP = 0x4450414B

GRAD_LOSSES = ("cosine", "l2")

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class AttackConfig:
    """Reconstruction-search settings.

    Defaults are the strong published configuration of Geiping et al.,
    "Inverting Gradients" (arXiv:2003.14053): 10,000 iterations of
    adaptive-moment updates at step 0.1 (decayed by 0.1 at 3/8, 5/8 and 7/8
    of the budget), cosine gradient loss, total-variation weight 1e-6.  The
    update rule (Adam) and the seeded uniform init are fixed, not settings.
    """

    iterations: int = 10_000
    step_size: float = 0.1
    grad_loss: str = "cosine"
    tv_coeff: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 0:
            raise ConfigError(f"iterations must be nonnegative, got {self.iterations}")
        if not self.step_size > 0:
            raise ConfigError(f"step_size must be positive, got {self.step_size}")
        if self.tv_coeff < 0:
            raise ConfigError(f"tv_coeff must be nonnegative, got {self.tv_coeff}")
        if self.grad_loss not in GRAD_LOSSES:
            raise ConfigError(f"grad_loss must be one of {GRAD_LOSSES}, got {self.grad_loss!r}")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    loss: float
    best_loss: float


@dataclass(frozen=True)
class TranscriptView:
    """What the server legitimately knows about one client round.

    ``params`` are the parameter values the server sent or can rebuild;
    ``observed`` are the gradient tensors it recovered from the upload.
    For protocols that expose the full model, ``model_spec`` describes it
    and ``observed`` is keyed by its tensor names.  For the
    hypernetwork-only protocol, ``params``/``observed`` hold hypernetwork
    tensors, ``hyper_spec`` describes them, and ``model_spec`` is the
    architecture of the generated feature extractor (weights unknown).
    """

    algorithm: str
    model_spec: NetSpec
    params: Mapping[str, np.ndarray]
    observed: Mapping[str, np.ndarray]
    label: int
    image_shape: tuple[int, int]
    hyper_spec: Optional[HypernetSpec] = None


@dataclass(frozen=True)
class Transcript:
    """A view plus the ground truth kept aside for scoring.

    Attack operations refuse this type; hand them ``public()`` instead.
    """

    view: TranscriptView
    x_true: np.ndarray
    y_true: int

    def public(self) -> TranscriptView:
        return self.view


def _require_view(view) -> TranscriptView:
    if isinstance(view, Transcript):
        raise CapabilityError("attacks take the redacted view; call transcript.public() first")
    if not isinstance(view, TranscriptView):
        raise CapabilityError(f"expected a TranscriptView, got {type(view).__name__}")
    return view


# -- priors ---------------------------------------------------------------


def total_variation(x) -> float:
    """Anisotropic total variation of a 2-D image.

    Sum of absolute differences between vertically and horizontally
    adjacent pixels.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"total_variation expects an H x W image, got shape {x.shape}")
    return float(_tv_value_and_grad(x)[0])


def _tv_value_and_grad(x: np.ndarray):
    """Total variation of an image and its gradient, sign(0) taken as 0."""
    dv = x[1:, :] - x[:-1, :]
    dh = x[:, 1:] - x[:, :-1]
    sv, sh = np.sign(dv), np.sign(dh)
    g = np.zeros_like(x)
    g[1:, :] += sv
    g[:-1, :] -= sv
    g[:, 1:] += sh
    g[:, :-1] -= sh
    return np.sum(np.abs(dv)) + np.sum(np.abs(dh)), g


# -- optimizer loop ---------------------------------------------------------


def _decay_milestones(n: int) -> set[int]:
    return {(n * 3) // 8, (n * 5) // 8, (n * 7) // 8} if n > 0 else set()


def _optimize(value_and_grads, init: Mapping[str, np.ndarray], cfg: AttackConfig):
    """Minimize a scalar objective over a dict of arrays with Adam.

    ``value_and_grads(xs)`` returns the loss at ``xs`` and a dict of its
    gradients, one per key of ``xs``.  Returns (best iterate, best loss,
    trace).  The trace records loss and best-so-far every 100 iterations
    and once at the end.  A non-finite objective or gradient stops the
    search early; the best finite iterate found so far is returned rather
    than raising, because attack failure is a result to report.
    """
    xs = {k: np.array(v, dtype=np.float64, copy=True) for k, v in init.items()}
    best = {k: v.copy() for k, v in xs.items()}
    best_loss = math.inf
    trace: list[TraceRow] = []

    if cfg.iterations == 0:
        loss, _ = value_and_grads(xs)
        trace.append(TraceRow(0, loss, loss))
        return xs, loss, trace

    m = {k: np.zeros_like(v) for k, v in xs.items()}
    u = {k: np.zeros_like(v) for k, v in xs.items()}
    lr = cfg.step_size
    milestones = _decay_milestones(cfg.iterations)

    for t in range(cfg.iterations):
        if t > 0 and t in milestones:
            lr *= 0.1
        loss, grads = value_and_grads(xs)
        if not math.isfinite(loss) or any(not np.all(np.isfinite(g)) for g in grads.values()):
            break
        if loss < best_loss:
            best_loss = loss
            best = {k: v.copy() for k, v in xs.items()}
        if t % 100 == 0:
            trace.append(TraceRow(t, loss, best_loss))
        step = t + 1
        for k, g in grads.items():
            m[k] = _ADAM_BETA1 * m[k] + (1.0 - _ADAM_BETA1) * g
            u[k] = _ADAM_BETA2 * u[k] + (1.0 - _ADAM_BETA2) * np.square(g)
            m_hat = m[k] / (1.0 - _ADAM_BETA1**step)
            u_hat = u[k] / (1.0 - _ADAM_BETA2**step)
            xs[k] = xs[k] - lr * m_hat / (np.sqrt(u_hat) + _ADAM_EPS)

    final_loss, _ = value_and_grads(xs)
    if math.isfinite(final_loss) and final_loss < best_loss:
        best_loss = final_loss
        best = {k: v.copy() for k, v in xs.items()}
    trace.append(TraceRow(cfg.iterations, final_loss, best_loss))
    return best, best_loss, trace


def _init_image(shape: tuple[int, int], cfg: AttackConfig) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, _TAG_INIT)))
    return rng.uniform(0.0, 1.0, size=shape)


# -- closed-form objectives over an image ---------------------------------------


def _matching_objective(params: ParamSet, spec: NetSpec, obs, label: int, grad_loss: str, tv_coeff: float):
    """ig_attack's objective D(s(x), obs) + tv_coeff · TV(x) as ``value_and_grads``.

    D is the cosine or squared-l2 distance; s is the batch-1 gradient, backprop
    from softmax − onehot: s[W_i] = δ_iᵀ h_i, s[b_i] = δ_i.  The reverse pass
    takes D's adjoints to the δs and layer inputs h_i, then to x.
    """
    layers = nn.dense_layers(params, spec)
    onehot = nn.one_hot(np.array([label]), spec.out_dim)
    names = sorted(obs)
    if grad_loss == "cosine":
        # summed like sim_sq below (not tree_sq_norm's einsum): cos(o, o) stays within 1 eps
        obs_norm = math.sqrt(float(sum(np.sum(np.square(o)) for o in obs.values())))
        if obs_norm == 0.0:
            raise ConsistencyError("observed gradient is identically zero; cosine loss undefined")

    def value_and_grads(xs: Mapping[str, np.ndarray]):
        x = xs["x"]
        logits, inputs, factors = nn.dense_forward(layers, x.reshape(1, -1))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = (1.0 / e.sum(axis=1, keepdims=True)) * e
        deltas, _ = nn.dense_backprop(layers, factors, p - onehot)
        sim = {}
        for layer, d, h in zip(spec.layers, deltas, inputs):
            sim[f"{layer.name}/W"], sim[f"{layer.name}/b"] = d.T * h, d.reshape(-1)
        if grad_loss == "l2":
            diff = {k: sim[k] - obs[k] for k in names}
            loss = sum(np.sum(diff[k] * diff[k]) for k in names)
            adj = {k: 2.0 * diff[k] for k in names}
        else:
            num = sum(np.sum(sim[k] * obs[k]) for k in names)
            sim_sq = sum(np.sum(sim[k] * sim[k]) for k in names)
            denom = np.sqrt(sim_sq) * obs_norm
            loss = 1.0 - num / denom
            adj = {k: (num / sim_sq * sim[k] - obs[k]) / denom for k in names}

        # reverse over the backprop: δ_0 was computed last, so it comes first
        h_adj, carry = [], 0.0
        for i, (layer, d, h) in enumerate(zip(spec.layers, deltas, inputs)):
            h_adj.append(d @ adj[f"{layer.name}/W"])
            d_adj = h @ adj[f"{layer.name}/W"].T + adj[f"{layer.name}/b"] + carry
            if factors[i] is not None:
                d_adj = d_adj * factors[i]
            if i + 1 < len(layers):
                carry = d_adj @ layers[i + 1][1]
        _, g = nn.dense_backprop(layers, factors, p * (d_adj - np.sum(d_adj * p)), h_adj)
        return _with_tv(loss, g.reshape(x.shape), x, tv_coeff)

    return value_and_grads


def _with_tv(loss, g: np.ndarray, x: np.ndarray, tv_coeff: float):
    """An objective's return value with tv_coeff · TV(x) added to the loss and gradient."""
    if tv_coeff > 0:
        tv, tv_grad = _tv_value_and_grad(x)
        loss = loss + tv_coeff * tv
        g = g + tv_coeff * tv_grad
    return float(loss), {"x": g}


# -- the generic attack (full-model gradients) -------------------------------------


def ig_attack(view: TranscriptView, cfg: AttackConfig):
    """Reconstruct the input from full-model batch-1 gradients.

    Minimizes gradient-matching loss plus a total-variation prior over
    the image, with the label taken as known.  Returns the best iterate
    by loss and the loss trace.
    """
    view = _require_view(view)
    if view.algorithm == "hyperfl":
        raise CapabilityError(
            "full-model gradients are not observable for hyperfl transcripts "
            "(the classifier never leaves the client); use hyperfl_bilevel_attack"
        )
    spec = view.model_spec
    expected = set(spec.param_shapes())
    if set(view.observed) != expected:
        raise ConsistencyError("observed gradients do not cover the model's tensors")
    h_px, w_px = view.image_shape
    if h_px * w_px != spec.in_dim:
        raise DimensionError(
            f"image shape {view.image_shape} does not match model input dim {spec.in_dim}"
        )
    obs = {k: np.asarray(v, dtype=np.float64) for k, v in view.observed.items()}
    objective = _matching_objective(view.params, spec, obs, view.label, cfg.grad_loss, cfg.tv_coeff)
    best, _, trace = _optimize(objective, {"x": _init_image(view.image_shape, cfg)}, cfg)
    return best["x"], trace


def analytic_input_recovery(d_weight: np.ndarray, d_bias: np.ndarray, threshold: float = 1e-10) -> np.ndarray:
    """Exact batch-1 input from the first dense layer's gradients.

    With one sample, the weight gradient is the outer product of the bias
    gradient and the input, so any row with a usable bias entry yields x
    by division.  Raises a degenerate-gradient error when every bias
    entry is below ``threshold`` in magnitude.
    """
    d_weight = np.asarray(d_weight, dtype=np.float64)
    d_bias = np.asarray(d_bias, dtype=np.float64)
    if d_weight.ndim != 2 or d_bias.ndim != 1 or d_weight.shape[0] != d_bias.shape[0]:
        raise DimensionError(
            f"need matching [out, in] weight and [out] bias gradients, got {d_weight.shape} and {d_bias.shape}"
        )
    i = int(np.argmax(np.abs(d_bias)))
    if not abs(d_bias[i]) > threshold:
        raise NumericError("degenerate gradient: all bias entries below threshold, input unrecoverable")
    return d_weight[i] / d_bias[i]


def gradient_from_delta(delta: ParamSet, params: ParamSet, opt: OptimConfig) -> ParamSet:
    """Invert one fresh SGD step: recover the loss gradient from the update.

    Valid for the first step after an optimizer reset (no accumulated
    momentum), which is exactly what a server sees after a one-step round.
    """
    if opt.learning_rate <= 0:
        raise ConfigError("cannot invert a step taken with learning rate 0")
    out = {}
    for k, d in delta.items():
        out[k] = -np.asarray(d, dtype=np.float64) / opt.learning_rate - opt.weight_decay * np.asarray(
            params[k], dtype=np.float64
        )
    return out


# -- the hypernetwork-only attack --------------------------------------------------

def _embedding_objective(phi: Mapping[str, np.ndarray], obs: Mapping[str, np.ndarray], spec: HypernetSpec):
    """recover_embedding's objective as ``value_and_grads`` over (v, θ̂).

    L(v, θ̂) = Σ_k ‖s_k − obs_k‖², where s = ∂/∂φ ½‖h(v; φ) − θ̂‖².  With
    r = h(v) − θ̂ per target, hidden = mask · (W_t v + b_t) and
    d = mask · Σ W_nᵀ r_n, the inner gradient is s[head W] = r hiddenᵀ,
    s[head b] = r, s[trunk W] = d vᵀ and s[trunk b] = d (hypernet_backward's
    math).  The mask is piecewise constant, so the outer derivatives are the
    matmuls and outer products below.  Everything that depends on φ alone is
    prepared here, once per attack.
    """
    names = sorted(obs)
    trunk_w = np.ascontiguousarray(phi["hyper/trunk/W"], dtype=np.float64)
    trunk_wt = trunk_w.T.copy()
    trunk_b = np.asarray(phi["hyper/trunk/b"], dtype=np.float64).reshape(1, spec.hidden_dim)
    heads = []
    for name, shape in spec.target:
        w = np.ascontiguousarray(phi[f"hyper/head/{name}/W"], dtype=np.float64)
        b = np.asarray(phi[f"hyper/head/{name}/b"], dtype=np.float64).reshape(1, -1)
        heads.append((name, shape, w, w.T.copy(), b, np.empty(w.shape)))

    def value_and_grads(xs: Mapping[str, np.ndarray]):
        v = xs["v"]
        row = v.reshape(1, spec.embedding_dim)
        pre = row @ trunk_wt + trunk_b
        mask = (pre > 0.0).astype(np.float64)
        hidden = pre * mask

        # err[k] = s_k - obs_k; the head-W error is built in a buffer kept per attack
        err: dict[str, np.ndarray] = {}
        residuals = []
        d_hidden = None
        for name, shape, w, wt, b, e_w in heads:
            # the tape's cotangent is 0.5·r + 0.5·r, which is r for any normal r
            r = ((hidden @ wt + b).reshape(shape) - xs[f"theta/{name}"]).reshape(1, -1)
            residuals.append(r)
            np.multiply(r.T, hidden, out=e_w)
            err[f"hyper/head/{name}/W"] = np.subtract(e_w, obs[f"hyper/head/{name}/W"], out=e_w)
            err[f"hyper/head/{name}/b"] = r.reshape(-1) - obs[f"hyper/head/{name}/b"]
            contrib = r @ w
            d_hidden = contrib if d_hidden is None else d_hidden + contrib
        d_pre = d_hidden * mask
        err["hyper/trunk/W"] = d_pre.T * row - obs["hyper/trunk/W"]
        err["hyper/trunk/b"] = d_pre.reshape(-1) - obs["hyper/trunk/b"]
        loss = sum(np.sum(err[k] * err[k]) for k in names)

        # dL/ds_k = 2 err_k; the factor 2 is applied once at the end
        g_pre = (err["hyper/trunk/W"] @ v + err["hyper/trunk/b"]) * mask[0]
        grads: dict[str, np.ndarray] = {}
        g_hidden = np.zeros(spec.hidden_dim)
        for (name, shape, w, _, _, e_w), r in zip(heads, residuals):
            g_r = e_w @ hidden[0] + err[f"hyper/head/{name}/b"] + w @ g_pre
            grads[f"theta/{name}"] = (-2.0 * g_r).reshape(shape)
            g_hidden += r[0] @ e_w + g_r @ w
        grads["v"] = 2.0 * (d_pre[0] @ err["hyper/trunk/W"] + (g_hidden * mask[0]) @ trunk_w)
        return float(loss), grads

    return value_and_grads


def _inversion_objective(theta: ParamSet, spec: NetSpec, target_row: np.ndarray, tv_coeff: float):
    """The bilevel attack's stage-two objective as ``value_and_grads`` over x.

    ‖f(x; θ) − target‖² + tv_coeff · TV(x) for the generated extractor f,
    differentiated by plain input backprop through its dense layers.
    """
    layers = nn.dense_layers(theta, spec)

    def value_and_grads(xs: Mapping[str, np.ndarray]):
        x = xs["x"]
        h, _, factors = nn.dense_forward(layers, x.reshape(1, -1))
        err = h - target_row
        _, g = nn.dense_backprop(layers, factors, err + err)
        return _with_tv(np.sum(err * err), g.reshape(x.shape), x, tv_coeff)

    return value_and_grads


def recover_embedding(
    view: TranscriptView,
    cfg: AttackConfig,
    init_v: Optional[np.ndarray] = None,
    init_theta: Optional[ParamSet] = None,
):
    """Search for the client embedding behind observed hypernetwork gradients.

    The classifier is private, so the true local loss cannot be formed;
    instead both the embedding v and the regression target theta are
    optimized jointly so that the gradient of 1/2 ||h(v) - theta||^2 with
    respect to the hypernetwork weights matches the observed gradient.  The
    objective and its gradients are closed-form (no autodiff tape).
    The residual is always the squared-L2 mismatch (an absolute quantity
    comparable across runs).  Returns (v_hat, theta_hat, residual);
    failure to reach a small residual is an outcome, not an error.
    """
    view = _require_view(view)
    if view.algorithm != "hyperfl":
        raise CapabilityError("embedding recovery applies to hyperfl transcripts only")
    spec = view.hyper_spec
    if spec is None:
        raise ConsistencyError("hyperfl transcript lacks its hypernetwork description")
    if set(view.observed) != set(spec.param_shapes()):
        raise ConsistencyError("observed gradients do not cover the hypernetwork's tensors")
    hn.check_phi(view.params, spec)
    hn.check_phi(view.observed, spec)
    obs = {k: np.asarray(v, dtype=np.float64) for k, v in view.observed.items()}

    if init_v is None:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, _TAG_EMBED)))
        init_v = rng.standard_normal(spec.embedding_dim)
    if init_theta is None:
        init_theta = {name: np.zeros(shape) for name, shape in spec.target}

    start = {"v": np.asarray(init_v, dtype=np.float64)}
    if start["v"].shape != (spec.embedding_dim,):
        raise DimensionError(f"embedding must have shape ({spec.embedding_dim},), got {start['v'].shape}")
    for name, shape in spec.target:
        t = np.asarray(init_theta[name], dtype=np.float64)
        if t.shape != shape:
            raise DimensionError(f"init theta {name} has shape {t.shape}, expected {shape}")
        start[f"theta/{name}"] = t

    best, residual, _ = _optimize(_embedding_objective(view.params, obs, spec), start, cfg)
    v_hat = best["v"]
    theta_hat = {name: best[f"theta/{name}"] for name, _ in spec.target}
    return v_hat, theta_hat, residual


def hyperfl_bilevel_attack(view: TranscriptView, cfg: AttackConfig):
    """Two-stage reconstruction against hypernetwork-only transcripts.

    Stage one recovers an embedding candidate; stage two materializes the
    extractor it generates and inverts that extractor by matching its mean
    response to random probes, under a total-variation prior.  Both stages
    use closed-form objectives and gradients (no autodiff tape).  The true
    local loss cannot be rebuilt without the private classifier, so this
    activation-matching inversion is a deliberately weak stand-in for a
    full model-inversion attack; reported scores measure what this search
    finds, not what the transcript leaks (`analytic_hyperfl_recovery`
    reads a batch-1 input off the head-bias gradients exactly).  Each
    stage gets the full configured iteration budget.
    """
    view = _require_view(view)
    if view.algorithm != "hyperfl":
        raise CapabilityError("the bi-level attack applies to hyperfl transcripts only")
    fe_spec = view.model_spec
    h_px, w_px = view.image_shape
    if h_px * w_px != fe_spec.in_dim:
        raise DimensionError(
            f"image shape {view.image_shape} does not match extractor input dim {fe_spec.in_dim}"
        )

    v_hat, _, residual = recover_embedding(view, cfg)
    theta_gen = hn.hypernet_forward(v_hat, dict(view.params), view.hyper_spec)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, _TAG_PROBE)))
    probes = rng.uniform(0.0, 1.0, size=(16, fe_spec.in_dim))
    target = nn.forward_logits(theta_gen, fe_spec, probes).mean(axis=0)

    objective = _inversion_objective(theta_gen, fe_spec, target.reshape(1, -1), cfg.tv_coeff)
    best, upper_loss, trace = _optimize(objective, {"x": _init_image(view.image_shape, cfg)}, cfg)
    report = {
        "algorithm": view.algorithm,
        "embedding_residual": residual,
        "inversion_loss": upper_loss,
        "iterations": {"lower": cfg.iterations, "upper": cfg.iterations},
        "trace": trace,
    }
    return best["x"], report


def analytic_hyperfl_recovery(view: TranscriptView) -> np.ndarray:
    """Exact batch-1 input from a HyperFL transcript's head-bias gradients.

    A head's bias gradient is the cotangent on the tensor it generates, so
    the first extractor layer's weight and bias gradients sit in the
    observed ``hyper/head/<first>/W/b`` and ``hyper/head/<first>/b/b``;
    :func:`analytic_input_recovery` reads the input off them.
    """
    view = _require_view(view)
    if view.algorithm != "hyperfl":
        raise CapabilityError("head-bias recovery applies to hyperfl transcripts only")
    first = view.model_spec.layers[0]
    keys = (f"hyper/head/{first.name}/W/b", f"hyper/head/{first.name}/b/b")
    if any(k not in view.observed for k in keys):
        raise ConsistencyError(f"observed gradients lack the first layer's head biases {keys}")
    d_weight = np.asarray(view.observed[keys[0]], dtype=np.float64)
    if d_weight.size != first.out_dim * first.in_dim:
        raise DimensionError(
            f"{keys[0]} has {d_weight.size} values, expected {first.out_dim} x {first.in_dim}"
        )
    return analytic_input_recovery(d_weight.reshape(first.out_dim, first.in_dim), view.observed[keys[1]])


def attack_transcript(view: TranscriptView, cfg: AttackConfig):
    """Route a transcript to the applicable attack; returns (x_hat, trace)."""
    view = _require_view(view)
    if view.algorithm == "hyperfl":
        x_hat, report = hyperfl_bilevel_attack(view, cfg)
        return x_hat, report["trace"]
    return ig_attack(view, cfg)


# -- transcript builders ---------------------------------------------------------

# These run client-side: they see the private sample and package what the
# server would observe, keeping the sample on the Transcript for scoring.


def _check_image(spec: NetSpec, x_img: np.ndarray) -> np.ndarray:
    x_img = np.asarray(x_img, dtype=np.float64)
    if x_img.ndim != 2:
        raise DimensionError(f"expected an H x W image, got shape {x_img.shape}")
    if x_img.size != spec.in_dim:
        raise DimensionError(f"image has {x_img.size} pixels, model expects {spec.in_dim}")
    return x_img


def _batch1_grads(params: ParamSet, spec: NetSpec, x_img: np.ndarray, y: int, frozen=None) -> ParamSet:
    y_row = np.array([y], dtype=np.int64)
    return nn.loss_and_grad_params(params, spec, x_img.reshape(1, -1), y_row, frozen=frozen)[1]


def _transcript(algorithm, spec, params, observed, x_img, y, hyper_spec=None) -> Transcript:
    """The server's view of one sample (a copy of ``params``), with the sample kept aside."""
    view = TranscriptView(algorithm, spec, nn.tree_copy(params), observed, int(y), x_img.shape, hyper_spec)
    return Transcript(view=view, x_true=x_img.copy(), y_true=int(y))


def fedavg_transcript(params: ParamSet, spec: NetSpec, x_img: np.ndarray, y: int) -> Transcript:
    """One client, one sample, full model shared: the server sees everything."""
    x_img = _check_image(spec, x_img)
    return _transcript("fedavg", spec, params, _batch1_grads(params, spec, x_img, y), x_img, y)


def pfedhn_transcript(
    params: ParamSet, spec: NetSpec, x_img: np.ndarray, y: int, opt: OptimConfig = OptimConfig(0.1)
) -> Transcript:
    """Server-side hypernetwork baseline: the server generated the client
    model itself, so it inverts the returned one-step delta into gradients."""
    x_img = _check_image(spec, x_img)
    stepped, _ = nn.sgd_step(params, _batch1_grads(params, spec, x_img, y), opt)
    observed = gradient_from_delta(nn.tree_sub(stepped, params), params, opt)
    return _transcript("pfedhn", spec, params, observed, x_img, y)


def dp_fedavg_transcript(
    params: ParamSet, spec: NetSpec, x_img: np.ndarray, y: int, dp: DPConfig, rng: np.random.Generator
) -> Transcript:
    """Full model shared but the upload was clipped and noised first."""
    x_img = _check_image(spec, x_img)
    observed = dp_sanitize(_batch1_grads(params, spec, x_img, y), dp, rng)
    return _transcript("dp_fedavg", spec, params, observed, x_img, y)


def hyperfl_transcript(
    v: np.ndarray, phi_h: ParamSet, phi_c: ParamSet, hyper_spec: HypernetSpec,
    fe_spec: NetSpec, cls_spec: NetSpec, x_img: np.ndarray, y: int,
) -> Transcript:
    """Hypernetwork protocol: the wire carries hypernetwork tensors only.

    The observed gradient is what one joint training step would push
    through the hypernetwork: the loss gradient at the generated extractor
    (computed with the client's private classifier) pulled back through
    the generator.
    """
    x_img = _check_image(fe_spec, x_img)
    theta = hn.hypernet_forward(v, phi_h, hyper_spec)
    d_theta = _batch1_grads(theta, nn.concat_specs(fe_spec, cls_spec), x_img, y, frozen=phi_c)
    d_phi, _ = hn.hypernet_backward(d_theta, v, phi_h, hyper_spec)
    return _transcript("hyperfl", fe_spec, phi_h, d_phi, x_img, y, hyper_spec=hyper_spec)


TRANSCRIPT_CLIENT_FIELDS = ("v", "phi_c")


def transcript_reads(layout: Sequence[LayoutRow]) -> Callable[[str], bool]:
    """Whether :func:`snapshot_transcript` reads a tensor of a snapshot laid out as ``layout``.

    It reads the ``meta/`` tensors, the server's trees, and a HyperFL
    client's embedding ``v`` and classifier ``phi_c``: the private inputs from
    which its transcript rebuilds the upload the server receives.  Generated
    extractors (``theta``) and local models (``model``) are never read.
    """
    rows = [row for row in layout if row.cid is None or row.field in TRANSCRIPT_CLIENT_FIELDS]
    names = {name for row in rows for name in row.names()}
    return lambda name: name.startswith("meta/") or name in names


def snapshot_transcript(
    server: ServerState, clients: Sequence[ClientState], bundle: ModelBundle,
    i: int, shape: tuple[int, int], dp: DPConfig, opt: OptimConfig, seed: int,
) -> Transcript:
    """Sample ``i`` of a snapshot as its protocol's server sees it: client (i mod m)'s
    (i div m)-th training sample as a ``shape`` image.  ``dp`` sanitizes a dp_fedavg
    upload with noise drawn from ``(seed, i)``; pfedhn's server inverts an ``opt`` step."""
    j, cid = divmod(i, len(clients))
    train = clients[cid].train
    if j >= train.n:
        raise ConfigError(f"sample {i} needs item {j} of client {cid}, which holds only {train.n} samples")
    img, y = train.x[j].reshape(shape), int(train.y[j])
    algo = server.algorithm
    if algo == "fedavg":
        return fedavg_transcript(server.global_model, bundle.full, img, y)
    if algo == "dp_fedavg":
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, _TAG_DP, i)))
        return dp_fedavg_transcript(server.global_model, bundle.full, img, y, dp, rng)
    if algo == "pfedhn":
        model = hn.hypernet_forward(server.embeddings[cid], server.varphi_bar, bundle.pfedhn_hyper())
        return pfedhn_transcript(model, bundle.full, img, y, opt=opt)
    if algo == "hyperfl":
        c = clients[cid]
        return hyperfl_transcript(c.v, server.varphi_bar, c.phi_c, bundle.hyper, bundle.fe, bundle.cls, img, y)
    raise CapabilityError(f"algorithm {algo!r} shares no model parameters; nothing to attack")


# -- scoring and reports ---------------------------------------------------------


def score_reconstruction(transcript: Transcript, x_hat: np.ndarray) -> dict[str, float]:
    """PSNR/SSIM of a reconstruction against the transcript's ground truth, and
    ``analytic_psnr`` of the exact batch-1 recovery (the positive control) from the
    first layer's or HyperFL's head-bias gradients, NaN if every bias entry is degenerate."""
    x_true = transcript.x_true
    p = mx.psnr(x_hat, x_true)
    try:
        s = mx.ssim(x_hat, x_true)
    except DimensionError:  # image smaller than the SSIM window
        s = math.nan
    view = transcript.public()
    try:
        if view.algorithm == "hyperfl":
            x = analytic_hyperfl_recovery(view)
        else:
            first = view.model_spec.layers[0].name
            x = analytic_input_recovery(view.observed[f"{first}/W"], view.observed[f"{first}/b"])
    except NumericError:
        analytic = math.nan
    else:
        analytic = mx.psnr(x.reshape(x_true.shape), x_true)
    return {"psnr": p, "ssim": s, "analytic_psnr": analytic}


def sample_record(sample_id, algorithm, x_hat, scores, trace) -> dict:
    """Flat JSON-ready record of one attacked sample; a missing ``analytic_psnr`` score is NaN."""
    return {
        "sample": int(sample_id),
        "algorithm": str(algorithm),
        "psnr": float(scores["psnr"]),
        "ssim": float(scores["ssim"]),
        "analytic_psnr": float(scores.get("analytic_psnr", math.nan)),
        "trace": [[r.iteration, r.loss, r.best_loss] for r in trace] if trace else [],
        "reconstruction": np.asarray(x_hat, dtype=np.float64).ravel().tolist(),
    }


def write_attack_report(path, cfg: AttackConfig, samples: Sequence[Mapping]) -> None:
    """Settings and per-sample records as JSON, written atomically."""
    write_json(path, {"config": asdict(cfg), "samples": list(samples)})


_SUMMARY_FIELDS = ("sample", "algorithm", "psnr", "ssim", "analytic_psnr")
_SUMMARY_HEADER = ",".join(_SUMMARY_FIELDS)


def write_attack_summary_csv(path, samples: Sequence[Mapping]) -> None:
    """Per-sample score table, written atomically; the analytic column is the exact-recovery control."""
    lines = [_SUMMARY_HEADER]
    for s in samples:
        lines.append(
            f"{int(s['sample'])},{s['algorithm']},{repr(float(s['psnr']))},"
            f"{repr(float(s['ssim']))},{repr(float(s.get('analytic_psnr', math.nan)))}"
        )
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_attack_summary_csv(path) -> list[dict]:
    """Rows of a score table as written above; :class:`FormatError` names the
    line of a wrong header, a wrong field count or a value that is no number."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != _SUMMARY_HEADER:
        raise FormatError(f"{path} line 1: expected header {_SUMMARY_HEADER!r}")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(_SUMMARY_FIELDS):
            raise FormatError(f"{path} line {n}: {len(cells)} fields, expected {len(_SUMMARY_FIELDS)}")
        try:
            scores = {k: float(c) for k, c in zip(_SUMMARY_FIELDS[2:], cells[2:])}
            rows.append({"sample": int(cells[0]), "algorithm": cells[1], **scores})
        except ValueError as e:
            raise FormatError(f"{path} line {n}: {e}") from None
    return rows
