"""Datasets: synthesis, IDX ingestion, and dominant-class partitioning.

Shards are sampled *with* reuse across clients but *without* replacement
inside a client, so shard size never couples to the global inventory through
the number of clients.  Partition manifests (client id -> sample indices)
can be exported to JSON for auditing exactly which rows each client saw.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import write_json
from .errors import (
    CapacityError,
    ConfigError,
    ConsistencyError,
    DimensionError,
    FormatError,
    NumericError,
)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# features are checked for finiteness this many elements at a time, so the
# check's boolean scratch stays at 64 KiB however large the dataset
_FINITE_BLOCK = 1 << 16


@dataclass(frozen=True)
class Dataset:
    """Feature matrix [N, D] with integer labels [N] in [0, num_classes)."""

    x: np.ndarray
    y: np.ndarray
    num_classes: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2 or x.shape[0] == 0:
            raise DimensionError(f"features must be a non-empty [N, D] matrix, got {x.shape}")
        if y.shape != (x.shape[0],):
            raise ConsistencyError(f"{x.shape[0]} feature rows but {y.shape} labels")
        rows = max(1, _FINITE_BLOCK // max(1, x.shape[1]))
        if not all(np.isfinite(x[i : i + rows]).all() for i in range(0, x.shape[0], rows)):
            raise NumericError("features contain non-finite values")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be at least 2, got {self.num_classes}")
        if y.min() < 0 or y.max() >= self.num_classes:
            raise ConsistencyError(f"labels outside [0, {self.num_classes})")

    @property
    def n(self) -> int:
        return int(self.x.shape[0])

    @property
    def dim(self) -> int:
        return int(self.x.shape[1])

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.x[idx].copy(), self.y[idx].copy(), self.num_classes)


# -- synthesis ---------------------------------------------------------------


def synth_dataset(
    num_classes: int, dim: int, per_class: int, separation: float, seed: int
) -> Dataset:
    """Gaussian blobs around mutually orthogonal class means.

    Means are ``separation`` times orthonormal directions drawn from a seeded
    rotation (requires num_classes <= dim; falls back to normalized random
    directions otherwise).  Unit noise is added, then every feature column is
    min-max rescaled to [0, 1].  ``separation=0`` collapses all classes onto
    one distribution.
    """
    if num_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {num_classes}")
    if dim < 1 or per_class < 1:
        raise ConfigError("dim and per_class must be positive")
    if separation < 0:
        raise ConfigError("separation must be nonnegative")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x53594E54)))
    if num_classes <= dim:
        q, _ = np.linalg.qr(rng.standard_normal((dim, num_classes)))
        means = separation * q.T
    else:
        raw = rng.standard_normal((num_classes, dim))
        means = separation * raw / np.linalg.norm(raw, axis=1, keepdims=True)

    y = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    x = means[y] + rng.standard_normal((y.size, dim))

    perm = rng.permutation(y.size)
    x, y = x[perm], y[perm]

    lo = x.min(axis=0, keepdims=True)
    span = x.max(axis=0, keepdims=True) - lo
    span[span == 0.0] = 1.0
    return Dataset((x - lo) / span, y, num_classes)


def pattern_dataset(num_classes: int, side: int, per_class: int, seed: int) -> Dataset:
    """High-contrast striped images, one stripe layout per class.

    Each sample is a ``side x side`` image with near-binary pixels (0.05 /
    0.95) plus mild seeded noise, so per-image pixel variance stays large.
    Useful wherever reconstruction quality is measured: flat, low-contrast
    features make failed reconstructions look spuriously good under MSE-based
    scores.
    """
    if side < 4:
        raise ConfigError(f"side must be at least 4, got {side}")
    if num_classes < 2 or per_class < 1:
        raise ConfigError("need at least 2 classes and 1 sample per class")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x50415454)))
    rows = np.arange(side)[:, None]
    cols = np.arange(side)[None, :]

    images = np.empty((num_classes * per_class, side * side), dtype=np.float64)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    i = 0
    for k in range(num_classes):
        period = 2 + (k // 2) % 3  # stripe widths cycle over 2, 3, 4
        for _ in range(per_class):
            phase = int(rng.integers(0, period))
            axis = rows if k % 2 == 0 else cols
            img = np.where(((axis + phase) // period) % 2 == 0, 0.95, 0.05)
            img = np.broadcast_to(img, (side, side)).copy()
            img += 0.05 * rng.standard_normal((side, side))
            images[i] = np.clip(img, 0.0, 1.0).ravel()
            labels[i] = k
            i += 1

    perm = rng.permutation(images.shape[0])
    return Dataset(images[perm], labels[perm], num_classes)


# -- IDX files -----------------------------------------------------------------


def _read_exact(data: memoryview, pos: int, count: int, what: str) -> memoryview:
    if pos + count > len(data):
        raise FormatError(f"{what}: truncated ({len(data) - pos} of {count} bytes)")
    return data[pos : pos + count]


def load_idx(images_path: str | Path, labels_path: str | Path, num_classes: int | None = None) -> Dataset:
    """Read an images/labels IDX file pair into a flat [N, rows*cols] dataset.

    Headers are big-endian: magic, then one u32 per dimension.  Pixels are
    unsigned bytes, scaled to [0, 1] by division by 255.
    """
    # memoryview slices share the file's bytes instead of copying them
    img_data = memoryview(Path(images_path).read_bytes())
    (magic,) = struct.unpack(">I", _read_exact(img_data, 0, 4, "image header"))
    if magic != IDX_IMAGES_MAGIC:
        raise FormatError(f"image magic 0x{magic:08X}, expected 0x{IDX_IMAGES_MAGIC:08X}")
    n, rows, cols = struct.unpack(">III", _read_exact(img_data, 4, 12, "image dims"))
    payload = _read_exact(img_data, 16, n * rows * cols, "image payload")
    if len(img_data) != 16 + n * rows * cols:
        raise FormatError(f"image file has {len(img_data) - 16 - n * rows * cols} trailing bytes")

    lbl_data = memoryview(Path(labels_path).read_bytes())
    (magic,) = struct.unpack(">I", _read_exact(lbl_data, 0, 4, "label header"))
    if magic != IDX_LABELS_MAGIC:
        raise FormatError(f"label magic 0x{magic:08X}, expected 0x{IDX_LABELS_MAGIC:08X}")
    (n_labels,) = struct.unpack(">I", _read_exact(lbl_data, 4, 4, "label dims"))
    labels = _read_exact(lbl_data, 8, n_labels, "label payload")
    if len(lbl_data) != 8 + n_labels:
        raise FormatError(f"label file has {len(lbl_data) - 8 - n_labels} trailing bytes")

    if n != n_labels:
        raise ConsistencyError(f"{n} images but {n_labels} labels")
    if n == 0:
        raise ConsistencyError("empty dataset (N=0)")

    x = np.frombuffer(payload, dtype=np.uint8).astype(np.float64).reshape(n, rows * cols)
    np.divide(x, 255.0, out=x)
    y = np.frombuffer(labels, dtype=np.uint8).astype(np.int64)
    k = int(y.max()) + 1 if num_classes is None else num_classes
    return Dataset(x, y, max(k, 2))


# -- partitioning -----------------------------------------------------------------


@dataclass(frozen=True)
class PartitionSpec:
    """Non-IID shard recipe: s% uniform, the rest from a dominant-class set.

    Clients are divided evenly (in id order) over ``groups``; each group
    shares one dominant set.  ``samples_per_client`` is exact for every
    client.
    """

    groups: tuple[tuple[int, ...], ...]
    samples_per_client: int
    uniform_percent: float = 20.0

    def __post_init__(self):
        if not (0.0 <= self.uniform_percent <= 100.0):
            raise ConfigError(f"uniform_percent must lie in [0, 100], got {self.uniform_percent}")
        if self.samples_per_client < 1:
            raise ConfigError("samples_per_client must be positive")
        if not self.groups or any(len(g) == 0 for g in self.groups):
            raise ConfigError("groups must be non-empty class sets")

    def uniform_count(self) -> int:
        return int(round(self.uniform_percent * self.samples_per_client / 100.0))


def consecutive_groups(num_classes: int, n_groups: int, set_size: int) -> tuple[tuple[int, ...], ...]:
    """Evenly spaced starts, consecutive members, wrapping modulo num_classes.

    10 classes in 5 groups of 3 gives starts 0, 2, 4, 6, 8 and the last set
    wraps to {8, 9, 0}.
    """
    if n_groups < 1 or set_size < 1 or num_classes < 1:
        raise ConfigError("num_classes, n_groups and set_size must be positive")
    starts = [round(i * num_classes / n_groups) for i in range(n_groups)]
    return tuple(tuple((s + j) % num_classes for j in range(set_size)) for s in starts)


def group_of_client(client: int, m: int, n_groups: int) -> int:
    """Even division of clients over groups, in client-id order."""
    if not (0 <= client < m):
        raise ConfigError(f"client {client} outside [0, {m})")
    bounds = np.array_split(np.arange(m), n_groups)
    for gi, block in enumerate(bounds):
        if block.size and block[0] <= client <= block[-1]:
            return gi
    raise ConfigError(f"client {client} not covered by {n_groups} groups")  # unreachable


def partition_indices(ds: Dataset, spec: PartitionSpec, m: int, seed: int) -> list[np.ndarray]:
    """Per-client sample indices: round(s%*n) uniform + the rest dominant.

    Sampling is without replacement within a client; the pool is reused
    across clients.  Deterministic per (seed, client): adding clients never
    reshuffles earlier shards.
    """
    if m < 1:
        raise ConfigError(f"need at least one client, got {m}")
    for g in spec.groups:
        for cls in g:
            if not (0 <= cls < ds.num_classes):
                raise ConfigError(f"dominant class {cls} outside [0, {ds.num_classes})")

    n = spec.samples_per_client
    n_uniform = spec.uniform_count()
    n_dominant = n - n_uniform
    by_group = {gi: np.flatnonzero(np.isin(ds.y, list(g))) for gi, g in enumerate(spec.groups)}

    if n_uniform > ds.n:
        raise CapacityError(f"uniform draw of {n_uniform} exceeds dataset size {ds.n}")

    shards: list[np.ndarray] = []
    root = np.random.SeedSequence(entropy=(seed, 0x50415254))
    streams = root.spawn(m)
    for client in range(m):
        rng = np.random.default_rng(streams[client])
        gi = group_of_client(client, m, len(spec.groups))

        uniform = rng.choice(ds.n, size=n_uniform, replace=False)
        taken = set(uniform.tolist())
        pool = by_group[gi]
        candidates = pool[~np.isin(pool, uniform)]
        if candidates.size < n_dominant:
            raise CapacityError(
                f"client {client}: dominant set {spec.groups[gi]} has {candidates.size} "
                f"unused samples, needs {n_dominant}"
            )
        dominant = rng.choice(candidates, size=n_dominant, replace=False)
        assert len(taken.intersection(dominant.tolist())) == 0
        shards.append(np.concatenate([uniform, dominant]).astype(np.int64))
    return shards


def partition(ds: Dataset, spec: PartitionSpec, m: int, seed: int) -> list[Dataset]:
    return [ds.subset(idx) for idx in partition_indices(ds, spec, m, seed)]


def train_test_split(ds: Dataset, seed: int, test_fraction: float = 1.0 / 6.0) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then split; default 5:1 train:test."""
    if not (0.0 < test_fraction < 1.0):
        raise ConfigError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n_test = int(round(ds.n * test_fraction))
    n_test = min(max(n_test, 1), ds.n - 1)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x53504C54)))
    perm = rng.permutation(ds.n)
    return ds.subset(perm[n_test:]), ds.subset(perm[:n_test])


def write_manifest(path: str | Path, shards: Sequence[np.ndarray]) -> None:
    """JSON audit record: client id -> the exact sample indices it received."""
    payload = {str(c): np.asarray(idx).tolist() for c, idx in enumerate(shards)}
    write_json(path, payload)
