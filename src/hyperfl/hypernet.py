"""Client hypernetwork: embedding -> feature-extractor parameters.

The map ``h(v; phi_h)`` is a one-hidden-layer ReLU net with one linear head
per target tensor.  Given an embedding ``v`` of dimension ``d``:

    hidden = relu(v @ W_t.T + b_t)              # trunk, d -> hidden_dim
    theta[name] = (hidden @ W_name.T + b_name)  # head, reshaped to the
                                                # target tensor's shape

:func:`hypernet_forward` and :func:`hypernet_backward` are closed-form numpy:
the backward pass returns the exact vector-Jacobian products into both
``phi_h`` and ``v``, so a task loss can be trained end to end while only
``phi_h`` ever leaves the client.  On dense heads both repeat, operation for
operation, the forward pass built from ``hyperfl.autodiff`` primitives; the
tests keep that traced form as the oracle and check both functions bitwise
against it.

A head weight may also be a :class:`LowRankHead`, the factored form local
training keeps it in.  Both functions then apply it without forming the
dense matrix, and the backward pass returns its gradient as the rank-1 pair
``(g, a)``; these results agree with the dense ones to rounding, not bitwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DimensionError, NumericError
from .network import NetSpec, OptimConfig, ParamSet, check_tree

TargetSpec = tuple[tuple[str, tuple[int, ...]], ...]


def target_from_netspec(spec: NetSpec) -> TargetSpec:
    """TargetSpec mirroring a feature extractor's parameter tensors."""
    return tuple((name, shape) for name, shape in spec.param_shapes().items())


@dataclass(frozen=True)
class HypernetSpec:
    """Architecture of the weight generator.

    The trunk always has a bias.  Head widths are implied by the target
    shapes: one row per generated value.
    """

    target: TargetSpec
    embedding_dim: int = 64
    hidden_dim: int = 100

    def __post_init__(self):
        if self.embedding_dim <= 0 or self.hidden_dim <= 0:
            raise DimensionError("embedding_dim and hidden_dim must be positive")
        if not self.target:
            raise DimensionError("hypernetwork needs at least one target tensor")
        names = [name for name, _ in self.target]
        if len(set(names)) != len(names):
            raise DimensionError(f"duplicate target names in {names}")
        for name, shape in self.target:
            if not shape or any(d <= 0 for d in shape):
                raise DimensionError(f"target {name!r} has invalid shape {shape}")

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        h, d = self.hidden_dim, self.embedding_dim
        shapes: dict[str, tuple[int, ...]] = {"hyper/trunk/W": (h, d), "hyper/trunk/b": (h,)}
        for name, shape in self.target:
            size = int(np.prod(shape))
            shapes[f"hyper/head/{name}/W"] = (size, self.hidden_dim)
            shapes[f"hyper/head/{name}/b"] = (size,)
        return shapes


@functools.cache
def _phi_shapes(spec: HypernetSpec) -> MappingProxyType:
    """Read-only ``spec.param_shapes()``, built once per spec."""
    return MappingProxyType(spec.param_shapes())


def check_phi(phi_h, spec: HypernetSpec) -> None:
    """Raise :class:`DimensionError` unless ``phi_h`` has exactly the spec's tensors and shapes."""
    check_tree(phi_h, _phi_shapes(spec), "hypernet parameter")


def _target_fan_in(shape: tuple[int, ...]) -> int:
    # Weight matrices report their input width; 1-d tensors fall back to
    # their own length so the scale stays a pure function of the shape.
    return shape[-1] if len(shape) >= 2 else shape[0]


def _trunk(v, phi_h, spec: HypernetSpec) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Checked float64 inputs and the hidden layer: (row, hidden, phi)."""
    check_phi(phi_h, spec)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (spec.embedding_dim,):
        raise DimensionError(f"embedding must have shape ({spec.embedding_dim},), got {v.shape}")
    phi = {n: w if isinstance(w, LowRankHead) else np.asarray(w, dtype=np.float64) for n, w in phi_h.items()}
    # the traced forward pass's operations, in its order
    row = v.reshape(1, spec.embedding_dim)
    hidden = row @ phi["hyper/trunk/W"].T.copy() + phi["hyper/trunk/b"].reshape(1, spec.hidden_dim)
    hidden = hidden * (hidden > 0.0).astype(np.float64)
    return row, hidden, phi


class LowRankHead:
    """A head weight held as s·W̄ + t·M̄ + Σᵢ cᵢ gᵢaᵢᵀ through one round of local SGD.

    Every head-weight gradient is the outer product g aᵀ of the head's
    cotangent and the hidden layer, and φ_h's optimizer starts from zero
    each round.  So from the received W̄, the weight and its momentum stay
    W = s·W̄ + Σ cᵢ gᵢaᵢᵀ and M = σ·W̄ + Σ dᵢ gᵢaᵢᵀ, and each :meth:`step`
    appends one pair.  W̄ is kept read-only and not copied.  A held pair
    costs O(out + in) in every later pass, so at most ``in`` (the hidden
    width) are held: a step that finds the buffers full first folds them
    into dense W̄ := W and M̄ := M, after which W = s·W̄ + t·M̄ + Σ cᵢ gᵢaᵢᵀ
    and M = σ·W̄ + τ·M̄ + Σ dᵢ gᵢaᵢᵀ.  The dense matrix is otherwise formed
    only by :meth:`dense`.
    """

    def __init__(self, name: str, w_bar: np.ndarray, steps: int):
        self.name = name
        self.shape = w_bar.shape
        self._w_bar = w_bar.view()
        self._w_bar.flags.writeable = False
        self._m_bar: np.ndarray | None = None  # M̄, once pairs have been folded
        rank = min(steps, self.shape[1])
        self._g, self._a = np.empty((rank, self.shape[0])), np.empty((rank, self.shape[1]))
        self._c, self._d = np.zeros(rank), np.zeros(rank)
        self._s, self._t, self._sigma, self._tau, self._n = 1.0, 0.0, 0.0, 0.0, 0

    def apply(self, hidden: np.ndarray) -> np.ndarray:
        """hidden @ Wᵀ for a [1, in] row: s·(hidden W̄ᵀ) [+ t·(hidden M̄ᵀ)] + (c ∘ (A hidden)) U."""
        n = self._n
        out = self._s * (hidden @ self._w_bar.T) + ((hidden @ self._a[:n].T) * self._c[:n]) @ self._g[:n]
        if self._m_bar is not None:
            out += self._t * (hidden @ self._m_bar.T)
        return out

    def pullback(self, g: np.ndarray) -> np.ndarray:
        """g @ W for a [1, out] row: s·(g W̄) [+ t·(g M̄)] + (c ∘ (U g)) A."""
        n = self._n
        out = self._s * (g @ self._w_bar) + ((g @ self._g[:n].T) * self._c[:n]) @ self._a[:n]
        if self._m_bar is not None:
            out += self._t * (g @ self._m_bar)
        return out

    def step(self, g: np.ndarray, a: np.ndarray, cfg: OptimConfig) -> None:
        """``sgd_step``'s update for the gradient g aᵀ, on the coefficients.

        m' = μm + (g aᵀ + wd·W) and W' = W − lr·m' become σ' = μσ + wd·s,
        τ' = μτ + wd·t, d' = μd + wd·c (and 1 for the new pair),
        s' = s − lr·σ', t' = t − lr·τ', c' = c − lr·d'.
        """
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(a))):
            raise NumericError(f"non-finite gradient for {self.name}; step refused")
        if self._n == len(self._c):
            self._fold()
        k = self._n
        self._g[k], self._a[k] = g, a
        c, d = self._c[: k + 1], self._d[: k + 1]
        mu, wd, lr = cfg.momentum, cfg.weight_decay, cfg.learning_rate
        self._sigma, self._tau = mu * self._sigma + wd * self._s, mu * self._tau + wd * self._t
        d *= mu
        d += wd * c
        d[k] += 1.0
        self._s, self._t = self._s - lr * self._sigma, self._t - lr * self._tau
        c -= lr * d
        self._n = k + 1

    def _combine(self, s: float, t: float, c: np.ndarray) -> np.ndarray:
        """s·W̄ + t·M̄ + Σ cᵢ gᵢaᵢᵀ as one fresh [out, in] array."""
        n = self._n
        w = s * self._w_bar
        w += (self._g[:n].T * c[:n]) @ self._a[:n]  # in place: one [out, in] temporary fewer
        if self._m_bar is not None:
            w += t * self._m_bar
        return w

    def _fold(self) -> None:
        """Make W and M the dense W̄ and M̄, and empty the pair buffers."""
        self._w_bar, self._m_bar = (
            self._combine(self._s, self._t, self._c),
            self._combine(self._sigma, self._tau, self._d),
        )
        self._s, self._t, self._sigma, self._tau, self._n = 1.0, 0.0, 0.0, 1.0, 0
        self._c[:] = 0.0
        self._d[:] = 0.0

    def dense(self) -> np.ndarray:
        """The weight as one fresh [out, in] array."""
        return self._combine(self._s, self._t, self._c)


def hypernet_forward(v: np.ndarray, phi_h: ParamSet, spec: HypernetSpec) -> ParamSet:
    """θ = h(v; φ_h); with dense heads, bitwise equal to the traced forward pass's data."""
    _, hidden, phi = _trunk(v, phi_h, spec)
    theta: ParamSet = {}
    for name, shape in spec.target:
        w, b = phi[f"hyper/head/{name}/W"], phi[f"hyper/head/{name}/b"]
        flat = w.apply(hidden) if isinstance(w, LowRankHead) else hidden @ w.T.copy()
        theta[name] = (flat + b.reshape(1, -1)).reshape(shape)
    return theta


def hypernet_backward(
    d_theta: ParamSet, v: np.ndarray, phi_h: ParamSet, spec: HypernetSpec
) -> tuple[ParamSet, np.ndarray]:
    """Pull a cotangent on θ back to (φ_h, v): exact VJPs, in closed form.

    Returns ``(d_phi, dv)`` with ``d_phi`` in sorted name order.  With dense
    heads every tensor is bitwise equal to ``autodiff.grad`` of ⟨d_theta, θ⟩
    through the traced forward pass: the trunk is recomputed with the same
    operations, and per-head contributions to the hidden layer are summed
    in ``spec.target`` order, as the tape sums them.  A :class:`LowRankHead`
    weight's gradient g aᵀ comes back as the pair ``(g, a)`` of flat
    arrays, and its pullback agrees with the dense one to rounding.
    """
    check_tree(d_theta, dict(spec.target), "cotangent")
    row, hidden, phi = _trunk(v, phi_h, spec)

    d_phi: ParamSet = {}
    d_hidden = None
    for name, _ in spec.target:
        cot = np.asarray(d_theta[name], dtype=np.float64)
        g, w = cot.reshape(1, -1), phi[f"hyper/head/{name}/W"]
        if isinstance(w, LowRankHead):
            d_phi[f"hyper/head/{name}/W"] = (cot.flatten(), hidden.reshape(-1))
            contrib = w.pullback(g)
        else:
            d_phi[f"hyper/head/{name}/W"] = g.T @ hidden
            contrib = g @ np.ascontiguousarray(w)
        d_phi[f"hyper/head/{name}/b"] = cot.flatten()
        d_hidden = contrib if d_hidden is None else d_hidden + contrib

    d_pre = d_hidden * (hidden > 0.0)
    d_phi["hyper/trunk/W"] = d_pre.T @ row
    d_phi["hyper/trunk/b"] = d_pre.reshape(spec.hidden_dim)
    dv = (d_pre @ np.ascontiguousarray(phi["hyper/trunk/W"])).reshape(spec.embedding_dim)
    # tree_sq_norm sums in dict order: keep the tape's sorted order
    return {name: d_phi[name] for name in sorted(d_phi)}, dv


def init_hypernet(spec: HypernetSpec, seed: int) -> tuple[ParamSet, np.ndarray]:
    """Seeded (phi_h, v) pair.

    The trunk follows the usual ±1/sqrt(fan_in) dense init.  Each head is
    shrunk by an extra 1/sqrt(fan_in(target)) so the generated tensors start
    at magnitudes comparable to a directly initialized network; without the
    extra factor the generated weights start an order of magnitude too large
    and early training stalls.

    The embedding is one Gaussian draw from its own substream.  Callers that
    simulate many clients hand every client this same initial ``v``.
    """
    ss = np.random.SeedSequence(entropy=(seed, 0x48594E45))  # module-local tag
    phi_stream, v_stream = [np.random.default_rng(s) for s in ss.spawn(2)]

    phi_h: ParamSet = {}
    trunk_bound = 1.0 / math.sqrt(spec.embedding_dim)
    phi_h["hyper/trunk/W"] = phi_stream.uniform(
        -trunk_bound, trunk_bound, size=(spec.hidden_dim, spec.embedding_dim)
    )
    phi_h["hyper/trunk/b"] = phi_stream.uniform(-trunk_bound, trunk_bound, size=spec.hidden_dim)
    for name, shape in spec.target:
        size = int(np.prod(shape))
        bound = 1.0 / (math.sqrt(spec.hidden_dim) * math.sqrt(_target_fan_in(shape)))
        phi_h[f"hyper/head/{name}/W"] = phi_stream.uniform(
            -bound, bound, size=(size, spec.hidden_dim)
        )
        phi_h[f"hyper/head/{name}/b"] = phi_stream.uniform(-bound, bound, size=size)

    v = v_stream.standard_normal(spec.embedding_dim)
    return phi_h, v
