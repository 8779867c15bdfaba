"""Client hypernetwork: embedding -> feature-extractor parameters.

The map ``h(v; phi_h)`` is a one-hidden-layer ReLU net with one linear head
per target tensor.  Given an embedding ``v`` of dimension ``d``:

    hidden = relu(v @ W_t.T + b_t)              # trunk, d -> hidden_dim
    theta[name] = (hidden @ W_name.T + b_name)  # head, reshaped to the
                                                # target tensor's shape

:func:`hypernet_forward` and :func:`hypernet_backward` are closed-form numpy:
the backward pass returns the exact vector-Jacobian products into both
``phi_h`` and ``v``, so a task loss can be trained end to end while only
``phi_h`` ever leaves the client.  Both repeat, operation for operation, the
forward pass built from ``hyperfl.autodiff`` primitives; the tests keep that
traced form as the oracle and check both functions bitwise against it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DimensionError
from .network import NetSpec, ParamSet

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
    shapes = _phi_shapes(spec)
    if phi_h.keys() != shapes.keys():
        raise DimensionError(
            f"hypernet parameter names {sorted(phi_h)} do not match spec {sorted(shapes)}"
        )
    for name, shape in shapes.items():
        val = phi_h[name]
        got = val.shape if isinstance(val, np.ndarray) else np.shape(val)
        if got != shape:
            raise DimensionError(f"{name}: expected shape {shape}, got {got}")


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
    phi = {name: np.asarray(val, dtype=np.float64) for name, val in phi_h.items()}
    # the traced forward pass's operations, in its order
    row = v.reshape(1, spec.embedding_dim)
    hidden = row @ phi["hyper/trunk/W"].T.copy() + phi["hyper/trunk/b"].reshape(1, spec.hidden_dim)
    hidden = hidden * (hidden > 0.0).astype(np.float64)
    return row, hidden, phi


def hypernet_forward(v: np.ndarray, phi_h: ParamSet, spec: HypernetSpec) -> ParamSet:
    """θ = h(v; φ_h), bitwise equal to the traced forward pass's data."""
    _, hidden, phi = _trunk(v, phi_h, spec)
    theta: ParamSet = {}
    for name, shape in spec.target:
        w, b = phi[f"hyper/head/{name}/W"], phi[f"hyper/head/{name}/b"]
        theta[name] = (hidden @ w.T.copy() + b.reshape(1, -1)).reshape(shape)
    return theta


def hypernet_backward(
    d_theta: ParamSet, v: np.ndarray, phi_h: ParamSet, spec: HypernetSpec
) -> tuple[ParamSet, np.ndarray]:
    """Pull a cotangent on θ back to (φ_h, v): exact VJPs, in closed form.

    Returns ``(d_phi, dv)`` with ``d_phi`` in sorted name order.  Every
    tensor is bitwise equal to ``autodiff.grad`` of ⟨d_theta, θ⟩ through the
    traced forward pass: the trunk is recomputed with the same operations,
    and per-head contributions to the hidden layer are summed in
    ``spec.target`` order, as the tape sums them.
    """
    target_names = {name for name, _ in spec.target}
    if d_theta.keys() != target_names:
        raise DimensionError(
            f"cotangent names {sorted(d_theta)} do not match target names {sorted(target_names)}"
        )
    row, hidden, phi = _trunk(v, phi_h, spec)

    d_phi: ParamSet = {}
    d_hidden = None
    for name, shape in spec.target:
        cot = np.asarray(d_theta[name], dtype=np.float64)
        if cot.shape != shape:
            raise DimensionError(f"cotangent {name}: expected shape {shape}, got {cot.shape}")
        g = cot.reshape(1, -1)
        d_phi[f"hyper/head/{name}/W"] = g.T @ hidden
        d_phi[f"hyper/head/{name}/b"] = cot.flatten()
        contrib = g @ np.ascontiguousarray(phi[f"hyper/head/{name}/W"])
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
