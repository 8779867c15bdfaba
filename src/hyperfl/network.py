"""Dense networks, softmax cross-entropy, and SGD with momentum.

A network is described by a :class:`NetSpec` (ordered dense layers with an
activation between them; the final layer emits logits).  Parameters live in a
plain ``dict`` mapping layer-qualified names to float64 arrays, which keeps
them trivially serializable and lets federated code treat them as opaque
trees.

Weight convention: ``W`` has shape ``[out_dim, in_dim]`` and a layer computes
``x @ W.T + b``.  With batch size 1 this makes ``dL/dW`` the exact outer
product of ``dL/db`` with the input, a structure the attack module exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError, NumericError

ParamSet = dict[str, np.ndarray]

_ACTIVATIONS = ("relu", "leaky_relu", "linear")
LEAKY_SLOPE = 0.01


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: ``activation(x @ W.T + b)``."""

    name: str
    in_dim: int
    out_dim: int
    activation: str = "linear"

    def __post_init__(self):
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise DimensionError(f"layer {self.name!r} has non-positive dims")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class NetSpec:
    """Ordered dense layers; the last layer's output is the logit vector."""

    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not self.layers:
            raise DimensionError("a network needs at least one dense layer")
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate layer names in {names}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise DimensionError(
                    f"layer {nxt.name!r} expects in_dim {nxt.in_dim}, "
                    f"but {prev.name!r} emits {prev.out_dim}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        shapes: dict[str, tuple[int, ...]] = {}
        for layer in self.layers:
            shapes[f"{layer.name}/W"] = (layer.out_dim, layer.in_dim)
            shapes[f"{layer.name}/b"] = (layer.out_dim,)
        return shapes


def dense_net(prefix: str, dims: Sequence[int], activation: str = "relu") -> NetSpec:
    """Chain of dense layers ``dims[0] -> ... -> dims[-1]``.

    Hidden layers use ``activation``; the final layer stays linear so its
    output can feed softmax cross-entropy.
    """
    if len(dims) < 2:
        raise DimensionError("dense_net needs at least an input and an output dim")
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        act = activation if i < len(dims) - 2 else "linear"
        layers.append(LayerSpec(f"{prefix}{i}", d_in, d_out, act))
    return NetSpec(tuple(layers))


def concat_specs(head: NetSpec, tail: NetSpec) -> NetSpec:
    """Feed ``head``'s output into ``tail``; layer names must not collide."""
    if head.out_dim != tail.in_dim:
        raise DimensionError(
            f"cannot chain: head emits {head.out_dim}, tail expects {tail.in_dim}"
        )
    return NetSpec(head.layers + tail.layers)


# -- parameter trees ----------------------------------------------------------


def init_params(spec: NetSpec, rng: np.random.Generator | int) -> ParamSet:
    """Uniform ±1/sqrt(fan_in) per layer, drawn in layer order (W then b)."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    params: ParamSet = {}
    for layer in spec.layers:
        bound = 1.0 / np.sqrt(layer.in_dim)
        params[f"{layer.name}/W"] = rng.uniform(-bound, bound, size=(layer.out_dim, layer.in_dim))
        params[f"{layer.name}/b"] = rng.uniform(-bound, bound, size=(layer.out_dim,))
    return params


def check_tree(tree: Mapping, shapes: Mapping[str, tuple[int, ...]], what: str) -> None:
    """Raise :class:`DimensionError` unless ``tree`` has exactly the names in ``shapes``,
    each with the shape given there, as ``np.shape`` reads it (a ``LowRankHead`` by its
    ``shape``)."""
    if tree.keys() != shapes.keys():
        raise DimensionError(f"{what} names {sorted(tree)} do not match {sorted(shapes)}")
    for name, shape in shapes.items():
        if np.shape(tree[name]) != shape:
            raise DimensionError(f"{what} {name}: expected shape {shape}, got {np.shape(tree[name])}")


def check_params(params: Mapping[str, np.ndarray], spec: NetSpec) -> None:
    shapes = spec.param_shapes()
    check_tree(params, shapes, "parameter")
    for name in shapes:
        if not np.all(np.isfinite(params[name])):
            raise NumericError(f"{name} contains non-finite values")


def tree_map(fn: Callable[..., np.ndarray], *trees: Mapping[str, np.ndarray]) -> ParamSet:
    keys = trees[0].keys()
    for t in trees[1:]:
        if t.keys() != keys:
            raise DimensionError("parameter trees have different key sets")
    return {k: np.asarray(fn(*(t[k] for t in trees)), dtype=np.float64) for k in keys}


def tree_add(a, b) -> ParamSet:
    return tree_map(np.add, a, b)


def tree_sub(a, b) -> ParamSet:
    return tree_map(np.subtract, a, b)


def tree_scale(a, c: float) -> ParamSet:
    return {k: np.asarray(v, dtype=np.float64) * c for k, v in a.items()}


def _dot(a, b) -> float:
    # numpy's own einsum loop, not BLAS ddot: ddot's summation order (and so
    # the last bits of the result) changes with the BLAS thread count
    return float(np.einsum("i,i->", np.ravel(a), np.ravel(b)))


def tree_sq_norm(a) -> float:
    """Sum of squares over every tensor, accumulated in the tree's key order."""
    return float(sum(_dot(v, v) for v in a.values()))


def tree_norm(a) -> float:
    return math.sqrt(tree_sq_norm(a))


def tree_copy(a) -> ParamSet:
    return {k: np.array(v, dtype=np.float64, copy=True) for k, v in a.items()}


# -- forward passes -------------------------------------------------------------

# forward_logits and the attack objectives run these numpy passes; the autodiff
# tape sits only behind loss_and_grad_params, through the _sym functions.


def dense_layers(params: Mapping[str, np.ndarray], spec: NetSpec):
    """Each layer's (W, Wᵀ, bias row, activation), laid out as the tape lays them out."""
    layers = []
    for layer in spec.layers:
        w = np.ascontiguousarray(params[f"{layer.name}/W"], dtype=np.float64)
        b = np.asarray(params[f"{layer.name}/b"], dtype=np.float64).reshape(1, layer.out_dim)
        layers.append((w, w.T.copy(), b, layer.activation))
    return layers


def dense_forward(layers, h: np.ndarray):
    """Output of [batch, in] rows, each layer's input and activation factor (None if
    linear), in the tape's operation order: each result is bitwise the traced one."""
    inputs, factors = [], []
    for _, wt, b, activation in layers:
        inputs.append(h)
        h, factor = h @ wt + b, None
        if activation != "linear":
            factor = np.where(h > 0.0, 1.0, LEAKY_SLOPE if activation == "leaky_relu" else 0.0)
            h = h * factor
        factors.append(factor)
    return h, inputs, factors


def dense_backprop(layers, factors, g: np.ndarray, extra=None):
    """Pull an output adjoint back to the input rows, adding ``extra[i]`` on layer
    i's input; returns each layer's pre-activation adjoint and the input's."""
    pre = [None] * len(layers)
    for i in reversed(range(len(layers))):
        if factors[i] is not None:
            g = g * factors[i]
        pre[i] = g
        g = g @ layers[i][0]
        if extra is not None:
            g = g + extra[i]
    return pre, g


def forward_logits_sym(params: Mapping[str, "ad.Var | np.ndarray"], spec: NetSpec, x) -> ad.Var:
    h = ad.as_var(x)
    for layer in spec.layers:
        w = ad.as_var(params[f"{layer.name}/W"])
        b = ad.as_var(params[f"{layer.name}/b"])
        h = ad.add(ad.matmul(h, ad.transpose(w)), ad.reshape(b, (1, layer.out_dim)))
        if layer.activation == "relu":
            h = ad.relu(h)
        elif layer.activation == "leaky_relu":
            h = ad.leaky_relu(h, LEAKY_SLOPE)
    return h


def one_hot(y: np.ndarray, num_classes: int) -> np.ndarray:
    """Index labels -> one-hot rows."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise DimensionError(f"labels must be a [batch] index vector, got shape {y.shape}")
    idx = y.astype(np.int64)
    if idx.min() < 0 or idx.max() >= num_classes:
        raise DimensionError(f"label index out of range [0, {num_classes})")
    out = np.zeros((y.shape[0], num_classes), dtype=np.float64)
    out[np.arange(y.shape[0]), idx] = 1.0
    return out


def forward_loss_sym(params, spec: NetSpec, x, y) -> ad.Var:
    logits = forward_logits_sym(params, spec, x)
    targets = one_hot(y, spec.out_dim)
    if targets.shape[0] != logits.shape[0]:
        raise DimensionError(
            f"batch size mismatch: {logits.shape[0]} inputs vs {targets.shape[0]} labels"
        )
    lse = ad.logsumexp_rows(logits)
    picked = ad.sum_(ad.mul(logits, ad.constant(targets)), axis=1, keepdims=True)
    return ad.mean_(ad.sub(lse, picked))


# -- public numpy-facing operations -------------------------------------------


def _validate(params, spec, x):
    check_params(params, spec)
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NumericError("input batch contains non-finite values")
    if x.ndim != 2 or x.shape[1] != spec.in_dim:
        raise DimensionError(f"expected input of shape [batch, {spec.in_dim}], got {x.shape}")
    return x


def forward_logits(params: ParamSet, spec: NetSpec, x) -> np.ndarray:
    x = _validate(params, spec, x)
    return dense_forward(dense_layers(params, spec), x)[0]


def loss_and_grad_params(
    params: ParamSet, spec: NetSpec, x, y, frozen: ParamSet | None = None
) -> tuple[float, ParamSet]:
    """Loss and its parameter gradients from one traced forward pass.

    ``frozen`` tensors, if given, complete ``params`` to the network's full
    parameter set and enter the pass as constants: gradients come back for
    ``params`` only, in sorted name order.  A name in both raises
    :class:`DimensionError`.
    """
    frozen = frozen or {}
    shared = params.keys() & frozen.keys()
    if shared:
        raise DimensionError(f"parameters {sorted(shared)} are both trained and frozen")
    x = _validate({**frozen, **params}, spec, x)
    leaves = {n: ad.Var(v) for n, v in params.items()}
    loss = forward_loss_sym({**frozen, **leaves}, spec, x, y)
    names = sorted(leaves)
    grads = ad.grad(loss, [leaves[n] for n in names])
    return float(loss.data), {n: g.data.copy() for n, g in zip(names, grads)}


# -- optimizer -----------------------------------------------------------------


@dataclass(frozen=True)
class OptimConfig:
    """SGD hyperparameters; ``learning_rate`` 0 is allowed and is a no-op step."""

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be nonnegative, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be nonnegative, got {self.weight_decay}")


OptimState = dict[str, np.ndarray]


def init_optim_state(params: Mapping[str, np.ndarray]) -> OptimState:
    return {k: np.zeros_like(np.asarray(v, dtype=np.float64)) for k, v in params.items()}


def sgd_step(
    params: ParamSet,
    grads: Mapping[str, np.ndarray],
    cfg: OptimConfig,
    state: OptimState | None = None,
) -> tuple[ParamSet, OptimState]:
    """One SGD update: m' = mu*m + (g + wd*p); p' = p - lr*m'.

    Refuses to step on non-finite gradients so a numeric blow-up cannot
    silently poison the parameters.  Inputs are never mutated.
    """
    if params.keys() != grads.keys():
        raise DimensionError("gradient names do not match parameter names")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}; step refused")
    if state is None:
        state = init_optim_state(params)

    new_params: ParamSet = {}
    new_state: OptimState = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        # the formula's operations in its order, with two fresh arrays
        m, new_p = np.empty(g.shape), np.empty(g.shape)
        np.multiply(cfg.weight_decay, p, out=m)
        np.add(g, m, out=m)
        np.multiply(cfg.momentum, state[name], out=new_p)
        np.add(new_p, m, out=m)
        np.multiply(cfg.learning_rate, m, out=new_p)
        np.subtract(p, new_p, out=new_p)
        new_state[name] = m
        new_params[name] = new_p
    return new_params, new_state
