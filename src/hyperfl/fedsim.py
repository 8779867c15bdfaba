"""Federated protocol engine: HyperFL plus Local-only / FedAvg / DP-FedAvg /
pFedHN baselines.

Wire discipline
---------------
Every value that crosses the client/server boundary goes through a
:class:`Wire` as serialized container bytes, and the receiving side decodes
those bytes; there is no side channel.  Each message is checked against the
exact set of tensor names the protocol allows in that direction; a classifier
tensor or an embedding showing up in a HyperFL message raises
:class:`~hyperfl.errors.PrivacyError` before anything is encoded.

Nothing keeps a payload once it is decoded: the wire holds no log, and each
upload folds into the running aggregate as it arrives (pFedHN: goes into one
server step), so a round holds one upload at a time however many clients it
samples.

Determinism
-----------
Every random decision draws from a stream derived by hashing
``(experiment_seed, purpose tag, client id, round)`` through numpy's
SeedSequence.  Client training is a pure function of (state, received bytes,
stream), and sampled clients train one after another in ascending client id,
so a seeded run is bit-identical on every rerun.

Round records
-------------
A trained client's :class:`~hyperfl.metrics.RoundRecord` is built in one
place, :func:`run_round`'s client loop, where its loss, gradient norm and
drift are computed, for every protocol.  :func:`evaluate_clients` is the only
evaluation path.  Round 0 evaluates every client; each later round of
:func:`run_experiment` evaluates only the clients it trained, and a client
that sat out keeps its ``test_acc`` from the round before, since its state
is the same object and its test set the same.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import checkpoint
from .datakit import Dataset
from .errors import ConfigError, ConsistencyError, DimensionError, PrivacyError
from .hypernet import HypernetSpec, LowRankHead, hypernet_forward, hypernet_backward
from .hypernet import init_hypernet, target_from_netspec
from .metrics import RoundRecord, accuracy
from .network import (
    NetSpec,
    OptimConfig,
    OptimState,
    ParamSet,
    check_tree,
    concat_specs,
    init_optim_state,
    init_params,
    loss_and_grad_params,
    sgd_step,
    tree_add,
    tree_copy,
    tree_norm,
    tree_scale,
    tree_sq_norm,
    tree_sub,
)


class Protocol(NamedTuple):
    """What one protocol does, each behaviour named once; plain data, no functions."""

    tree: str | None  # the ServerState field broadcast and folded into; None: nothing crosses the wire
    hyper: bool = False  # clients keep v, theta and phi_c, run HyperFL's two steps and upload phi_h
    sanitizes: bool = False  # each upload is clipped and noised by dp_sanitize before it is sent
    server_steps: bool = False  # the server generates each client's model and steps on each upload


PROTOCOLS = {
    "hyperfl": Protocol("varphi_bar", hyper=True),
    "fedavg": Protocol("global_model"),
    "dp_fedavg": Protocol("global_model", sanitizes=True),
    "local": Protocol(None),
    "pfedhn": Protocol("varphi_bar", server_steps=True),
}
ALGORITHMS = tuple(PROTOCOLS)

# rng purpose tags; never reuse one for a second purpose
_TAG_INIT = 0x494E4954
_TAG_SAMPLE = 0x53414D50
_TAG_STEP = 0x53544550
_TAG_DPNOISE = 0x44504E53


def derive_rng(seed: int, tag: int, *rest: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, tag, *rest)))


# -- model bundle ------------------------------------------------------------------


@dataclass(frozen=True)
class ModelBundle:
    """The three architectures one experiment is built from."""

    fe: NetSpec
    cls: NetSpec
    hyper: HypernetSpec

    def __post_init__(self):
        if self.fe.out_dim != self.cls.in_dim:
            raise DimensionError(
                f"extractor emits {self.fe.out_dim}, classifier expects {self.cls.in_dim}"
            )
        want = target_from_netspec(self.fe)
        if self.hyper.target != want:
            raise DimensionError("hypernetwork target does not match the feature extractor")

    @property
    def full(self) -> NetSpec:
        return concat_specs(self.fe, self.cls)

    def pfedhn_hyper(self) -> HypernetSpec:
        """Server-side generator for pFedHN: targets the full client model."""
        return HypernetSpec(
            target=target_from_netspec(self.full),
            embedding_dim=self.hyper.embedding_dim,
            hidden_dim=self.hyper.hidden_dim,
        )


@dataclass(frozen=True)
class RoundConfig:
    """Per-round training recipe.

    ``eta_g`` drives the classifier in HyperFL Step 1 and the whole model in
    the FedAvg-family baselines; ``eta_h``/``eta_v`` drive the hypernetwork
    and embedding in Step 2.
    """

    local_epochs: int = 5
    eta_g: OptimConfig = field(default_factory=lambda: OptimConfig(0.1, 0.5, 5e-4))
    eta_h: OptimConfig = field(default_factory=lambda: OptimConfig(0.01, 0.5, 5e-4))
    eta_v: OptimConfig = field(default_factory=lambda: OptimConfig(0.01, 0.5, 5e-4))
    batch_size: int = 50
    sampling_rate: float = 1.0
    total_rounds: int = 200
    server_lr: float = 0.01  # pfedhn only

    def __post_init__(self):
        if self.local_epochs < 1:
            raise ConfigError(f"local_epochs must be at least 1, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if not (0.0 < self.sampling_rate <= 1.0):
            raise ConfigError(f"sampling_rate must lie in (0, 1], got {self.sampling_rate}")
        if self.total_rounds < 0:
            raise ConfigError(f"total_rounds must be nonnegative, got {self.total_rounds}")
        if self.server_lr < 0:
            raise ConfigError(f"server_lr must be nonnegative, got {self.server_lr}")


@dataclass(frozen=True)
class DPConfig:
    """Upload sanitization: clip to L2 norm ``clip_norm``, add N(0, (sigma*C)^2)."""

    clip_norm: float = math.inf
    sigma: float = 0.0

    def __post_init__(self):
        if not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be nonnegative, got {self.sigma}")
        if self.sigma > 0 and not math.isfinite(self.clip_norm):
            raise ConfigError("noise std sigma*C needs a finite clip_norm when sigma > 0")


# -- states -----------------------------------------------------------------------


@dataclass(frozen=True)
class ClientState:
    """One client's private state; algorithm-dependent fields default None.

    HyperFL clients carry their embedding ``v``, classifier ``phi_c`` and
    ``theta``, the feature extractor h(v; phi_h) generated from the
    hypernetwork their last local training ended with (the initial one
    before any training); the hypernetwork itself is uploaded, not kept.
    FedAvg-family clients carry the whole model in ``model``.
    """

    id: int
    train: Dataset
    test: Dataset
    v: np.ndarray | None = None
    theta: ParamSet | None = None
    phi_c: ParamSet | None = None
    model: ParamSet | None = None
    opt_c: OptimState | None = None
    opt_v: OptimState | None = None

    def __post_init__(self):
        if self.train.n < 1:
            raise ConfigError(f"client {self.id} has an empty shard")


@dataclass(frozen=True)
class ServerState:
    algorithm: str
    round_t: int = 0
    varphi_bar: ParamSet | None = None  # hyperfl: aggregated hypernetwork
    global_model: ParamSet | None = None  # fedavg / dp_fedavg
    embeddings: dict[int, np.ndarray] | None = None  # pfedhn; its server steps keep no momentum

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; pick one of {ALGORITHMS}")


# -- wire --------------------------------------------------------------------------


@dataclass(frozen=True)
class Message:
    sender: str
    receiver: str
    kind: str  # "broadcast" | "upload"
    round_t: int
    payload: bytes  # checkpoint container bytes
    names: tuple[str, ...]

    def tensors(self) -> ParamSet:
        return checkpoint.load_params(self.payload)


class Wire:
    """The one path every message takes: polices which tensor names may cross.

    ``send`` checks the names, encodes the payload and returns the
    :class:`Message`; the wire keeps nothing.  A caller that wants a log of
    the traffic subclasses it and records what ``send`` returns.
    """

    def send(
        self,
        sender: str,
        receiver: str,
        kind: str,
        round_t: int,
        payload: ParamSet,
        allowed_names: set[str],
    ) -> Message:
        illegal = set(payload.keys()) - allowed_names
        if illegal:
            raise PrivacyError(
                f"{sender} -> {receiver}: tensors {sorted(illegal)} are not allowed on the wire"
            )
        return Message(
            sender=sender,
            receiver=receiver,
            kind=kind,
            round_t=round_t,
            payload=checkpoint.dump_params(payload),
            names=tuple(sorted(payload.keys())),
        )


# -- batching ----------------------------------------------------------------------


def minibatches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled index batches covering all n samples; last batch may be short."""
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


# -- local training ------------------------------------------------------------------


@dataclass(frozen=True)
class LocalStats:
    train_loss: float
    grad_sq_norm: float  # mean over the round's SGD steps


def _sgd_epochs(
    params: ParamSet,
    frozen: ParamSet,
    opt: OptimState | None,
    data: Dataset,
    spec: NetSpec,
    cfg: RoundConfig,
    epochs: int,
    rng: np.random.Generator,
) -> tuple[ParamSet, OptimState, list[float], list[float]]:
    """``epochs`` shuffled passes of ``cfg.eta_g`` SGD on ``params``, ``frozen`` held fixed.

    Returns (params, optimizer state, per-step losses, per-step gradient
    squared norms); the inputs are not mutated.
    """
    losses: list[float] = []
    sq_norms: list[float] = []
    for _ in range(epochs):
        for idx in minibatches(data.n, cfg.batch_size, rng):
            loss, grads = loss_and_grad_params(params, spec, data.x[idx], data.y[idx], frozen)
            losses.append(loss)
            sq_norms.append(tree_sq_norm(grads))
            params, opt = sgd_step(params, grads, cfg.eta_g, opt)
    return params, opt, losses, sq_norms


def _hyper_epochs(
    client: ClientState,
    varphi_bar: ParamSet,
    phi_c: ParamSet,
    bundle: ModelBundle,
    cfg: RoundConfig,
    rng: np.random.Generator,
) -> tuple[ParamSet, np.ndarray, OptimState, list[float], list[float]]:
    """HyperFL Step 2: ``cfg.local_epochs`` passes moving φ_h and the client's v, ``phi_c`` frozen.

    φ_h starts from ``varphi_bar`` with a fresh optimizer.  Each head weight
    is a :class:`~hyperfl.hypernet.LowRankHead` over the received tensor,
    stepped on its rank-1 gradient pair (g, a), which adds ‖g‖²‖a‖² to the
    step's gradient squared norm; the trunk and the head biases go through
    ``sgd_step``.  Returns (dense φ_h, v, embedding optimizer state,
    per-step losses, per-step gradient squared norms).
    """
    data, v, opt_v = client.train, client.v, client.opt_v
    steps = cfg.local_epochs * math.ceil(data.n / cfg.batch_size)
    names = [f"hyper/head/{t}/W" for t, _ in bundle.hyper.target]
    heads = {n: LowRankHead(n, varphi_bar[n], steps) for n in names}
    dense = {n: w for n, w in varphi_bar.items() if n not in heads}
    opt_h = init_optim_state(dense)
    full_spec = bundle.full
    losses: list[float] = []
    sq_norms: list[float] = []
    for _ in range(cfg.local_epochs):
        for idx in minibatches(data.n, cfg.batch_size, rng):
            phi_h = {**dense, **heads}
            theta = hypernet_forward(v, phi_h, bundle.hyper)
            loss, d_theta = loss_and_grad_params(theta, full_spec, data.x[idx], data.y[idx], phi_c)
            d_phi, dv = hypernet_backward(d_theta, v, phi_h, bundle.hyper)
            d_dense = {n: d_phi[n] for n in dense}
            a_sq = tree_sq_norm({"a": d_phi[names[0]][1]})  # every head's a is the same hidden row
            head_sq = sum(tree_sq_norm({"g": d_phi[n][0]}) * a_sq for n in heads)
            losses.append(loss)
            sq_norms.append(tree_sq_norm(d_dense) + head_sq + tree_sq_norm({"v": dv}))
            dense, opt_h = sgd_step(dense, d_dense, cfg.eta_h, opt_h)
            for name, head in heads.items():
                head.step(*d_phi[name], cfg.eta_h)
            vt, opt_v = sgd_step({"v": v}, {"v": dv}, cfg.eta_v, opt_v)
            v = vt["v"]
    phi_h = {n: heads[n].dense() if n in heads else dense[n] for n in varphi_bar}
    return phi_h, v, opt_v, losses, sq_norms


def local_train_hyperfl(
    client: ClientState,
    varphi_bar: ParamSet,
    bundle: ModelBundle,
    cfg: RoundConfig,
    rng: np.random.Generator,
) -> tuple[ClientState, ParamSet, LocalStats]:
    """Two-phase personal update; returns (new state, phi_h upload, stats).

    The upload is the final hypernetwork, and the new state's ``theta`` is
    the extractor it generates from the final embedding.

    Step 1: one epoch on the classifier with the received hypernetwork and
    the embedding frozen (the generated extractor is computed once, since its
    inputs cannot change during this phase).  Step 2 (:func:`_hyper_epochs`):
    ``local_epochs`` epochs moving the hypernetwork and the embedding
    jointly, classifier frozen.  Its head weights stay factored as the
    received weight plus one rank-1 term per step (folded into dense form
    whenever ``hidden_dim`` terms are held), and the dense
    hypernetwork is formed once, for the upload; the per-step gradients it
    was built from never leave the client.  Hypernetwork optimizer state
    starts fresh each round because the incoming aggregate overwrites the
    parameters it belonged to; classifier and embedding momentum persist
    across rounds.
    """
    # Step 1: classifier only
    theta = hypernet_forward(client.v, varphi_bar, bundle.hyper)
    phi_c, opt_c, losses, step_sq_norms = _sgd_epochs(
        client.phi_c, theta, client.opt_c, client.train, bundle.full, cfg, 1, rng
    )

    # Step 2: hypernetwork + embedding, classifier frozen
    phi_h, v, opt_v, losses2, sq_norms2 = _hyper_epochs(client, varphi_bar, phi_c, bundle, cfg, rng)

    theta = hypernet_forward(v, phi_h, bundle.hyper)
    new_client = replace(client, v=v, theta=theta, phi_c=phi_c, opt_c=opt_c, opt_v=opt_v)
    stats = LocalStats(float(np.mean(losses + losses2)), float(np.mean(step_sq_norms + sq_norms2)))
    return new_client, phi_h, stats


def local_train_fedavg(
    client: ClientState,
    global_model: ParamSet,
    bundle: ModelBundle,
    cfg: RoundConfig,
    rng: np.random.Generator,
) -> tuple[ClientState, ParamSet, LocalStats]:
    """E epochs of SGD on the whole model; the upload is the parameter delta.

    Local-only mode reuses this with the client's own model in place of a
    global one (and no aggregation afterwards).
    """
    model, opt, losses, step_sq_norms = _sgd_epochs(
        global_model, {}, client.opt_c, client.train, bundle.full, cfg, cfg.local_epochs, rng
    )
    new_client = replace(client, model=model, opt_c=opt)
    stats = LocalStats(float(np.mean(losses)), float(np.mean(step_sq_norms)))
    return new_client, tree_sub(model, global_model), stats


def dp_sanitize(update: ParamSet, dp: DPConfig, rng: np.random.Generator) -> ParamSet:
    """Clip the whole update to L2 norm <= clip_norm, then add Gaussian noise.

    The clip bound is enforced literally: after the min(1, C/norm) scaling a
    rounding-error overshoot is corrected by a further tiny multiply, so the
    returned norm is <= C in exact float comparison.  The noise is one
    ``standard_normal`` draw over every entry, split in the update's key
    order and added in place into its slices, so each tensor gets bitwise
    what a ``normal(0.0, sigma*C)`` draw per tensor in that order gives.
    The result is always in fresh arrays; with sigma == 0 and a norm already
    within the bound it holds the update's values bitwise.
    """
    norm = tree_norm(update)
    out = update
    if math.isfinite(dp.clip_norm) and norm > dp.clip_norm:
        out = tree_scale(out, dp.clip_norm / norm)
        for _ in range(4):
            post = tree_norm(out)
            if post <= dp.clip_norm:
                break
            out = tree_scale(out, dp.clip_norm / post)
    if dp.sigma == 0.0:
        return tree_copy(out) if out is update else out
    noise = rng.standard_normal(sum(np.size(a) for a in out.values()))
    noise *= dp.sigma * dp.clip_norm
    noise += 0.0  # normal(0.0, s) returns 0.0 + s*z, which makes a -0.0 noise entry +0.0
    noisy, start = {}, 0
    for k, a in out.items():
        n = noise[start : start + np.size(a)].reshape(np.shape(a))
        noisy[k] = np.add(a, n, out=n)
        start += n.size
    return noisy


# -- aggregation ---------------------------------------------------------------------


def aggregate(uploads: Iterable[ParamSet], weights: Sequence[float]) -> ParamSet:
    """Weighted elementwise mean of parameter sets, folded in as they arrive.

    ``uploads`` may be any iterable; it is consumed lazily, one upload at a
    time, so only the first upload, the running sum, one scratch buffer per
    tensor (where each w_i (u_i - u0) is formed in place) and the current
    upload are held.  Weights must be nonnegative with sum within 1e-9 of 1 (they
    are then renormalized exactly).  Computed as u0 + sum_i w_i (u_i - u0),
    summed elementwise in upload order, which makes a single upload (and any
    set of identical uploads) return the common value bitwise.  Checks run
    in this order: no upload, the weights, each upload's names and shapes
    as it arrives, and last the count, which shows only when the input
    outruns the weights or runs out.
    """
    uploads = iter(uploads)
    anchor = next(uploads, None)
    if anchor is None:
        raise ConfigError("aggregate needs at least one upload")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ConfigError("aggregation weights must be nonnegative")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-9:
        raise ConsistencyError(f"aggregation weights sum to {total}, expected 1 within 1e-9")
    w = w / total

    shapes = {k: np.shape(a) for k, a in anchor.items()}
    acc = {k: np.zeros_like(anchor[k], dtype=np.float64) for k in shapes}
    scratch = {k: np.empty_like(a) for k, a in acc.items()}
    n = 0
    for u in itertools.chain([anchor], uploads):
        if n == len(w):
            raise ConsistencyError(f"more than {len(w)} uploads but {len(w)} weights")
        check_tree(u, shapes, f"upload {n}")
        for k in shapes:
            d = np.subtract(u[k], anchor[k], out=scratch[k], dtype=np.float64)
            d *= w[n]
            acc[k] += d
        n += 1
    if n != len(w):
        raise ConsistencyError(f"{n} uploads but {len(w)} weights")

    # skip the final add when the correction is identically zero so that
    # single or identical uploads come back bitwise (adding 0.0 would flip
    # the sign of -0.0 entries)
    return {
        k: anchor[k] + acc[k] if np.any(acc[k]) else np.array(anchor[k], dtype=np.float64, copy=True)
        for k in shapes
    }


def sample_clients(
    m: int, rate: float, rng: np.random.Generator, force_full: bool = False
) -> np.ndarray:
    """ceil(rate*m) distinct ids, ascending; force_full overrides to everyone."""
    if not (0.0 < rate <= 1.0):
        raise ConfigError(f"sampling rate must lie in (0, 1], got {rate}")
    if force_full or rate == 1.0:
        return np.arange(m, dtype=np.int64)
    k = math.ceil(rate * m)
    return np.sort(rng.choice(m, size=k, replace=False)).astype(np.int64)


# -- initialization ------------------------------------------------------------------


def init_experiment(
    algorithm: str,
    bundle: ModelBundle,
    shards: Sequence[tuple[Dataset, Dataset]],
    seed: int,
) -> tuple[ServerState, list[ClientState]]:
    """Seeded initial states; every client starts from identical parameters.

    HyperFL: one hypernetwork draw becomes varphi_bar, one embedding draw is
    shared by all clients, one classifier draw is shared by all clients.
    FedAvg-family: one full-model draw.  pFedHN: the server draws its own
    (full-model-targeted) hypernetwork and gives every client the same
    initial embedding copy, stored server-side.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; pick one of {ALGORITHMS}")
    if not shards:
        raise ConfigError("need at least one client shard")
    init_rng = derive_rng(seed, _TAG_INIT)
    proto = PROTOCOLS[algorithm]

    clients: list[ClientState] = []
    if proto.hyper:
        phi_h0, v0 = init_hypernet(bundle.hyper, seed)
        phi_c0 = init_params(bundle.cls, init_rng)
        theta0 = hypernet_forward(v0, phi_h0, bundle.hyper)
        for cid, (train, test) in enumerate(shards):
            clients.append(
                ClientState(
                    id=cid,
                    train=train,
                    test=test,
                    v=v0.copy(),
                    theta=tree_copy(theta0),
                    phi_c=tree_copy(phi_c0),
                )
            )
        return ServerState(algorithm=algorithm, varphi_bar=tree_copy(phi_h0)), clients
    if proto.server_steps:
        hyper = bundle.pfedhn_hyper()
        phi_h0, v0 = init_hypernet(hyper, seed)
        model0 = hypernet_forward(v0, phi_h0, hyper)
        trees = {proto.tree: phi_h0, "embeddings": {cid: v0.copy() for cid in range(len(shards))}}
    else:  # the FedAvg family, local included
        model0 = init_params(bundle.full, init_rng)
        trees = {} if proto.tree is None else {proto.tree: model0}
    for cid, (train, test) in enumerate(shards):
        clients.append(ClientState(id=cid, train=train, test=test, model=tree_copy(model0)))
    return ServerState(algorithm=algorithm, **trees), clients


# -- evaluation ----------------------------------------------------------------------


def evaluate_clients(clients: Sequence[ClientState], bundle: ModelBundle) -> list[float]:
    """Test accuracy per client, each with the parameters it would infer with now.

    FedAvg-family clients use ``model``; HyperFL clients use their generated
    extractor ``theta`` under their own classifier.
    """
    return [
        accuracy(
            c.model if c.model is not None else {**c.theta, **c.phi_c},
            bundle.full,
            c.test.x,
            c.test.y,
        )
        for c in clients
    ]


def _records(
    t: int, clients: Sequence[ClientState], accs: Sequence[float], trained: dict[int, RoundRecord]
) -> list[RoundRecord]:
    """One row per client: its trained row, or all-NaN step metrics if it did not train."""
    rows = [trained.get(c.id, RoundRecord(t, str(c.id))) for c in clients]
    return [replace(row, test_acc=acc) for row, acc in zip(rows, accs)]


def _extractor_norm(delta: ParamSet, bundle: ModelBundle) -> float:
    """L2 norm of the feature-extractor tensors of a full-model delta."""
    fe_names = bundle.fe.param_shapes()
    return tree_norm({k: a for k, a in delta.items() if k in fe_names})


# -- the round --------------------------------------------------------------------------


def run_round(
    server: ServerState,
    clients: Sequence[ClientState],
    bundle: ModelBundle,
    cfg: RoundConfig,
    dp: DPConfig,
    seed: int,
    wire: Wire | None = None,
    last_acc: Mapping[int, float] | None = None,
) -> tuple[ServerState, list[ClientState], list[RoundRecord]]:
    """One communication round; returns one record per client.

    Sampled clients train one after another in ascending id; each one's row
    is built right after its training, from its loss, gradient norm and
    drift, and its upload folds into :func:`aggregate` before the next
    client trains.  pFedHN instead broadcasts h(v_cid; phi) from the
    server's current hypernetwork, and each upload goes into one server
    step on phi and v_cid; that step's size is the row's hypernet drift.
    Unsampled clients keep NaN step metrics.  One :func:`evaluate_clients`
    call then gives ``test_acc`` to each client that trained and each whose
    id ``last_acc`` (client id -> last round's accuracy) lacks; every other
    client did not change, so it keeps its ``last_acc``.
    """
    wire = wire if wire is not None else Wire()
    t = server.round_t + 1
    sample_rng = derive_rng(seed, _TAG_SAMPLE, t)
    last_round = t == cfg.total_rounds  # everyone takes part in the last round
    sampled = sample_clients(len(clients), cfg.sampling_rate, sample_rng, last_round).tolist()
    proto = PROTOCOLS[server.algorithm]
    new_clients = list(clients)
    trained: dict[int, RoundRecord] = {}  # each trained client's row, test_acc still NaN
    changes: dict = {}  # server fields this round replaces
    upload_names = set((bundle.hyper if proto.hyper else bundle.full).param_shapes())
    train = local_train_hyperfl if proto.hyper else local_train_fedavg
    if proto.server_steps:  # stepped after each upload, before the next client trains
        hyper, server_cfg = bundle.pfedhn_hyper(), OptimConfig(learning_rate=cfg.server_lr)
        changes = {"varphi_bar": server.varphi_bar, "embeddings": dict(server.embeddings)}

    def train_client(cid: int) -> ParamSet:
        """Train one sampled client and record its row; its upload as the server decodes it."""
        client = clients[cid]
        if proto.tree is None:  # no broadcast, train from own model
            received = client.model
        else:  # decoded from wire bytes on the "client side"
            if proto.server_steps:  # h(v_cid; phi) from the server's current hypernetwork
                sent = hypernet_forward(changes["embeddings"][cid], changes["varphi_bar"], hyper)
            else:
                sent = getattr(server, proto.tree)
            received = wire.send("server", f"client:{cid}", "broadcast", t, sent, upload_names).tensors()
        step_rng = derive_rng(seed, _TAG_STEP, cid, t)
        new_c, upload, stats = train(client, received, bundle, cfg, step_rng)
        new_clients[cid] = new_c
        if proto.hyper:
            hdrift = tree_norm(tree_sub(upload, received))
            edrift = tree_norm(tree_sub(new_c.theta, client.theta))
        else:  # the unsanitized upload is the model delta
            hdrift, edrift = math.nan, _extractor_norm(upload, bundle)
        if proto.sanitizes:
            upload = dp_sanitize(upload, dp, derive_rng(seed, _TAG_DPNOISE, cid, t))
        if proto.tree is not None:
            upload = wire.send(f"client:{cid}", "server", "upload", t, upload, upload_names).tensors()
        if proto.server_steps:
            # one descent step on 1/2 ||h(v; phi) - model_trained||^2 in phi and v_cid
            v, phi = changes["embeddings"][cid], changes["varphi_bar"]
            d_phi, dv = hypernet_backward(tree_scale(upload, -1.0), v, phi, hyper)
            changes["varphi_bar"], _ = sgd_step(phi, d_phi, server_cfg)
            changes["embeddings"][cid] = sgd_step({"v": v}, {"v": dv}, server_cfg)[0]["v"]
            hdrift = tree_norm(d_phi) * cfg.server_lr
        trained[cid] = RoundRecord(
            t, str(cid), train_loss=stats.train_loss, grad_sq_norm=stats.grad_sq_norm,
            hypernet_drift=hdrift, extractor_drift=edrift,
        )
        return upload

    if proto.tree is None or proto.server_steps:
        for cid in sampled:
            train_client(cid)
    else:
        # each upload folds into the aggregate as it arrives, in ascending
        # client id, weights n_i over the sampled subset; a HyperFL upload is
        # the hypernetwork itself, a FedAvg-family one the model delta
        sizes = np.array([clients[cid].train.n for cid in sampled], dtype=np.float64)
        merged = aggregate((train_client(cid) for cid in sampled), list(sizes / sizes.sum()))
        changes = {proto.tree: merged if proto.hyper else tree_add(getattr(server, proto.tree), merged)}

    last_acc = last_acc or {}
    stale = [c for c in new_clients if c.id in trained or c.id not in last_acc]
    accs = {**last_acc, **dict(zip((c.id for c in stale), evaluate_clients(stale, bundle)))}
    records = _records(t, new_clients, [accs[c.id] for c in new_clients], trained)
    return replace(server, round_t=t, **changes), new_clients, records


# -- experiment loop -----------------------------------------------------------------------


def run_experiment(
    algorithm: str,
    bundle: ModelBundle,
    shards: Sequence[tuple[Dataset, Dataset]],
    cfg: RoundConfig,
    seed: int,
    dp: DPConfig | None = None,
    wire: Wire | None = None,
    on_round: Callable[[int, ServerState, list[ClientState]], None] | None = None,
) -> tuple[ServerState, list[ClientState], list[RoundRecord]]:
    """Initialize, run ``cfg.total_rounds`` rounds, collect all records.

    ``on_round`` (if given) fires after the initial state (round 0) and after
    every round with the fresh states; snapshotting hooks in there.
    """
    dp = dp or DPConfig()
    server, clients = init_experiment(algorithm, bundle, shards, seed)
    records = _records(0, clients, evaluate_clients(clients, bundle), {})
    if on_round is not None:
        on_round(0, server, clients)
    for _ in range(cfg.total_rounds):
        last_acc = {c.id: r.test_acc for c, r in zip(clients, records[-len(clients):])}
        server, clients, round_records = run_round(server, clients, bundle, cfg, dp, seed, wire, last_acc)
        records.extend(round_records)
        if on_round is not None:
            on_round(server.round_t, server, clients)
    return server, clients, records


# -- state serialization ---------------------------------------------------------------------


class LayoutRow(NamedTuple):
    """One tree a snapshot stores: the tree's entry ``key`` is the tensor ``f"{prefix}{key}"``."""

    prefix: str
    cid: int | None  # the client whose state holds the tree; None for the server's
    field: str  # the ServerState or ClientState field it fills
    shapes: dict  # the tree's key -> tensor shape, in the tree's key order

    def names(self) -> list[str]:
        return [f"{self.prefix}{key}" for key in self.shapes]


def state_layout(algorithm: str, bundle: ModelBundle, n_clients: int) -> list[LayoutRow]:
    """Every tree a snapshot of this protocol and bundle stores, the server's first.

    The one definition of the snapshot layout: :func:`state_to_tensors`
    writes these rows, :func:`tensors_to_state` checks a snapshot against
    them and rebuilds from them, and ``hyperfl attack`` picks the tensors it
    loads from them.  A HyperFL client's embedding ``v`` is a one-tensor
    tree, and pFedHN's server keys its embeddings by client id.
    """
    proto = PROTOCOLS[algorithm]
    embedding = (bundle.hyper.embedding_dim,)
    rows = []
    if proto.tree == "varphi_bar":
        hyper = bundle.hyper if proto.hyper else bundle.pfedhn_hyper()
        rows.append(LayoutRow("server/varphi/", None, "varphi_bar", hyper.param_shapes()))
    elif proto.tree == "global_model":
        rows.append(LayoutRow("server/model/", None, "global_model", bundle.full.param_shapes()))
    if proto.server_steps:
        embeddings = dict.fromkeys(range(n_clients), embedding)
        rows.append(LayoutRow("server/embedding/", None, "embeddings", embeddings))
    for cid in range(n_clients):
        base = f"client/{cid}/"
        if proto.hyper:
            rows += [
                LayoutRow(base, cid, "v", {"v": embedding}),
                LayoutRow(base + "theta/", cid, "theta", bundle.fe.param_shapes()),
                LayoutRow(base + "phi_c/", cid, "phi_c", bundle.cls.param_shapes()),
            ]
        else:
            rows.append(LayoutRow(base + "model/", cid, "model", bundle.full.param_shapes()))
    return rows


def state_to_tensors(server: ServerState, clients: Sequence[ClientState], bundle: ModelBundle) -> ParamSet:
    """Flatten an experiment state into one name -> tensor map.

    ``meta/round``, ``meta/algorithm`` (code point array) and
    ``meta/clients``, then every tree :func:`state_layout` lists.  Shards are
    not serialized: they are reproducible from the experiment config.
    """
    flat: ParamSet = {
        "meta/round": np.array(float(server.round_t)),
        "meta/algorithm": np.array([float(ord(ch)) for ch in server.algorithm]),
        "meta/clients": np.array(float(len(clients))),
    }
    for row in state_layout(server.algorithm, bundle, len(clients)):
        value = getattr(server if row.cid is None else clients[row.cid], row.field)
        tree = {"v": value} if row.field == "v" else value
        flat.update(zip(row.names(), (tree[key] for key in row.shapes)))
    return flat


def tensors_to_state(
    flat: ParamSet, shards: Sequence[tuple[Dataset, Dataset]], bundle: ModelBundle
) -> tuple[ServerState, list[ClientState]]:
    """Rebuild (server, clients) from a flattened snapshot plus data shards.

    The snapshot must hold the ``meta/`` tensors and exactly the tensors
    :func:`state_layout` lists for its protocol, ``bundle`` and the shards'
    clients; the first misshapen, missing or extra tensor raises
    :class:`ConsistencyError`.  Trees come back in the layout's key order, a
    fresh run's.  A :class:`checkpoint.Skipped` entry, one the container
    parser checked but did not load, passes by its shape alone and leaves
    its tree None, so any later use fails loudly.  A HyperFL snapshot from
    before clients kept ``theta`` holds a hypernetwork copy per client in its
    place, so it raises like any other.  Client momentum (``opt_c``,
    ``opt_v``) is not stored: resuming starts it fresh.  The pFedHN server
    keeps no momentum at all.
    """
    meta = ("meta/algorithm", "meta/clients", "meta/round")
    missing = [name for name in meta if name not in flat or isinstance(flat[name], checkpoint.Skipped)]
    if missing:
        raise ConsistencyError(f"snapshot lacks {missing}")
    try:
        algorithm = "".join(chr(int(x)) for x in np.asarray(flat["meta/algorithm"]).ravel())
    except (OverflowError, ValueError):  # a code point chr() rejects, or NaN
        algorithm = None
    if algorithm not in ALGORITHMS:
        raise ConsistencyError(f"snapshot meta/algorithm does not name one of {ALGORITHMS}")
    layout = state_layout(algorithm, bundle, len(shards))
    want = {"meta/algorithm": (len(algorithm),), "meta/clients": (), "meta/round": ()}
    for row in layout:
        want.update(zip(row.names(), row.shapes.values()))
    for name in sorted(want.keys() & flat.keys()):
        got = np.shape(flat[name])
        if got != want[name]:
            raise ConsistencyError(
                f"{algorithm} snapshot tensor {name!r} has shape {got}, expected {want[name]}"
            )
    n_clients = _meta_count(flat, "meta/clients")
    if n_clients != len(shards):
        raise ConsistencyError(f"snapshot has {n_clients} clients, got {len(shards)} shards")
    for kind, names in (("lacks", want.keys() - flat), ("has unexpected", flat.keys() - want)):
        if names:
            raise ConsistencyError(f"{algorithm} snapshot {kind} tensor {min(names)!r}")
    round_t = _meta_count(flat, "meta/round")

    fields = {cid: {} for cid in [None, *range(len(shards))]}
    for row in layout:
        tensors = [flat[name] for name in row.names()]
        if not any(isinstance(a, checkpoint.Skipped) for a in tensors):
            tree = {key: np.asarray(a) for key, a in zip(row.shapes, tensors)}
            fields[row.cid][row.field] = tree["v"] if row.field == "v" else tree
    server = fields.pop(None)
    clients = [ClientState(cid, train, test, **fields[cid]) for cid, (train, test) in enumerate(shards)]
    return ServerState(algorithm, round_t, **server), clients


def _meta_count(flat: ParamSet, name: str) -> int:
    """A snapshot's ``meta/clients`` or ``meta/round``: a count a float64 holds exactly."""
    x = float(flat[name])
    if not (0 <= x < 2.0**53 and x.is_integer()):  # NaN fails every comparison
        raise ConsistencyError(f"snapshot {name} is {x!r}, expected an integer in [0, 2**53)")
    return int(x)
