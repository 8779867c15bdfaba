"""Data synthesis, IDX ingestion, and the dominant-class partitioner.

The separability claim for synthetic blobs is verified with an independent
nearest-class-mean (LDA with shared identity covariance) baseline, not with
any model from this package.
"""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfl import datakit as dk
from hyperfl.errors import (
    CapacityError,
    ConfigError,
    ConsistencyError,
    DimensionError,
    FormatError,
    NumericError,
)


def nearest_mean_accuracy(train: dk.Dataset, test: dk.Dataset) -> float:
    """Closed-form LDA with identity covariance: classify by nearest class mean."""
    means = np.stack([train.x[train.y == k].mean(axis=0) for k in range(train.num_classes)])
    scores = test.x @ means.T - 0.5 * np.sum(means**2, axis=1)
    return float(np.mean(np.argmax(scores, axis=1) == test.y))


# -- synthetic blobs -----------------------------------------------------------


def test_synth_separated_blobs_are_linearly_separable():
    ds = dk.synth_dataset(num_classes=3, dim=32, per_class=400, separation=3.0, seed=1)
    train, test = dk.train_test_split(ds, seed=1)
    assert nearest_mean_accuracy(train, test) > 0.95


def test_synth_zero_separation_is_chance_level():
    ds = dk.synth_dataset(num_classes=4, dim=16, per_class=500, separation=0.0, seed=2)
    train, test = dk.train_test_split(ds, seed=2)
    acc = nearest_mean_accuracy(train, test)
    assert abs(acc - 0.25) < 0.08


def test_synth_deterministic_and_scaled():
    a = dk.synth_dataset(3, 8, 50, 2.0, seed=9)
    b = dk.synth_dataset(3, 8, 50, 2.0, seed=9)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.y.tobytes() == b.y.tobytes()
    assert a.x.min() >= 0.0 and a.x.max() <= 1.0
    c = dk.synth_dataset(3, 8, 50, 2.0, seed=10)
    assert a.x.tobytes() != c.x.tobytes()


def test_synth_shapes_and_label_balance():
    ds = dk.synth_dataset(num_classes=5, dim=7, per_class=30, separation=1.0, seed=0)
    assert ds.x.shape == (150, 7)
    assert np.bincount(ds.y, minlength=5).tolist() == [30] * 5


def test_synth_validates_arguments():
    with pytest.raises(ConfigError):
        dk.synth_dataset(1, 8, 10, 1.0, seed=0)
    with pytest.raises(ConfigError):
        dk.synth_dataset(3, 0, 10, 1.0, seed=0)
    with pytest.raises(ConfigError):
        dk.synth_dataset(3, 8, 10, -1.0, seed=0)


def test_pattern_dataset_has_high_pixel_contrast():
    ds = dk.pattern_dataset(num_classes=4, side=16, per_class=10, seed=3)
    assert ds.x.shape == (40, 256)
    per_image_std = ds.x.std(axis=1)
    assert per_image_std.min() > 0.25
    assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0
    again = dk.pattern_dataset(num_classes=4, side=16, per_class=10, seed=3)
    assert ds.x.tobytes() == again.x.tobytes()


def test_pattern_classes_are_distinguishable():
    ds = dk.pattern_dataset(num_classes=4, side=12, per_class=60, seed=5)
    train, test = dk.train_test_split(ds, seed=5)
    assert nearest_mean_accuracy(train, test) > 0.9


# -- dataset invariants ------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(ConsistencyError):
        dk.Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int), 2)
    with pytest.raises(ConsistencyError):
        dk.Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), 2)
    with pytest.raises(DimensionError):
        dk.Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
    with pytest.raises(Exception):
        dk.Dataset(np.full((2, 2), np.nan), np.zeros(2, dtype=int), 2)


def test_finiteness_check_allocates_no_dataset_sized_mask():
    rng = np.random.default_rng(0)
    x, y = rng.uniform(size=(5000, 784)), np.arange(5000) % 10  # 30 MiB of features
    tracemalloc.start()
    try:
        dk.Dataset(x, y, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one boolean per feature would be 3.7 MiB
    assert peak < 1024 * 1024, peak


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_in_the_last_partial_block_is_caught(value):
    dim = 300
    rows = dk._FINITE_BLOCK // dim
    x = np.zeros((2 * rows + 3, dim))  # two whole row blocks and three rows
    x[-1, -1] = value
    with pytest.raises(NumericError, match="non-finite"):
        dk.Dataset(x, np.arange(len(x)) % 2, 2)
    x[-1, -1] = 0.0
    dk.Dataset(x, np.arange(len(x)) % 2, 2)


def test_subset_copies():
    ds = dk.synth_dataset(2, 4, 10, 1.0, seed=1)
    sub = ds.subset(np.array([0, 1, 2]))
    sub.x[0, 0] = 123.0
    assert ds.x[0, 0] != 123.0


# -- IDX files -----------------------------------------------------------------------


def idx_pair(tmp_path, pixels, labels, rows=2, cols=2, img_magic=dk.IDX_IMAGES_MAGIC,
             lbl_magic=dk.IDX_LABELS_MAGIC, clip=None):
    n = len(labels)
    img = struct.pack(">IIII", img_magic, n, rows, cols) + bytes(pixels)
    lbl = struct.pack(">II", lbl_magic, n) + bytes(labels)
    if clip is not None:
        img = img[:clip]
    ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
    ip.write_bytes(img)
    lp.write_bytes(lbl)
    return ip, lp


def test_load_idx_division_by_255(tmp_path):
    ip, lp = idx_pair(tmp_path, [0, 128, 255, 64], [3])
    ds = dk.load_idx(ip, lp, num_classes=4)
    np.testing.assert_array_equal(
        ds.x[0], np.array([0.0, 0.5019607843137255, 1.0, 0.25098039215686274])
    )
    assert ds.y[0] == 3


def test_load_idx_flattens_and_counts(tmp_path):
    ip, lp = idx_pair(tmp_path, list(range(8)), [0, 1], rows=2, cols=2)
    ds = dk.load_idx(ip, lp)
    assert ds.x.shape == (2, 4)
    assert ds.num_classes == 2


def test_load_idx_holds_one_float_copy_of_the_pixels(tmp_path):
    rng = np.random.default_rng(2)
    n, rows, cols = 1000, 28, 28
    ip, lp = idx_pair(tmp_path, rng.integers(0, 256, n * rows * cols).tolist(), [i % 10 for i in range(n)],
                      rows=rows, cols=cols)
    tracemalloc.start()
    try:
        ds = dk.load_idx(ip, lp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the file's bytes plus the float64 result, divided in place: no slice
    # copy of the payload and no second float64 array
    assert peak <= 1.3 * ds.x.nbytes, (peak, ds.x.nbytes)


def test_load_idx_bad_magic(tmp_path):
    ip, lp = idx_pair(tmp_path, [0, 0, 0, 0], [0], img_magic=0x00000801)
    with pytest.raises(FormatError):
        dk.load_idx(ip, lp)
    ip, lp = idx_pair(tmp_path, [0, 0, 0, 0], [0], lbl_magic=0x00000803)
    with pytest.raises(FormatError):
        dk.load_idx(ip, lp)


def test_load_idx_truncation(tmp_path):
    ip, lp = idx_pair(tmp_path, [0, 0, 0, 0], [0], clip=17)
    with pytest.raises(FormatError):
        dk.load_idx(ip, lp)


def test_load_idx_count_mismatch(tmp_path):
    n = 2
    img = struct.pack(">IIII", dk.IDX_IMAGES_MAGIC, n, 2, 2) + bytes(8)
    lbl = struct.pack(">II", dk.IDX_LABELS_MAGIC, 3) + bytes([0, 1, 0])
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    ip.write_bytes(img)
    lp.write_bytes(lbl)
    with pytest.raises(ConsistencyError):
        dk.load_idx(ip, lp)


def test_load_idx_empty_payload(tmp_path):
    img = struct.pack(">IIII", dk.IDX_IMAGES_MAGIC, 0, 2, 2)
    lbl = struct.pack(">II", dk.IDX_LABELS_MAGIC, 0)
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    ip.write_bytes(img)
    lp.write_bytes(lbl)
    with pytest.raises(ConsistencyError):
        dk.load_idx(ip, lp)


# -- partitioner -----------------------------------------------------------------------


def big_dataset(seed=0):
    return dk.synth_dataset(num_classes=10, dim=6, per_class=800, separation=1.0, seed=seed)


def test_partition_counts_match_recipe_exactly():
    ds = big_dataset()
    spec = dk.PartitionSpec(
        groups=dk.consecutive_groups(10, 5, 3), samples_per_client=600, uniform_percent=20.0
    )
    shards = dk.partition_indices(ds, spec, m=5, seed=11)
    for client, idx in enumerate(shards):
        assert idx.size == 600
        assert np.unique(idx).size == 600  # without replacement within a client
        labels = ds.y[idx]
        dom = spec.groups[client]  # 5 clients, 5 groups: client i in group i
        # first 120 drawn uniformly, remaining 480 all from the dominant set
        assert np.all(np.isin(labels[120:], dom))


def test_partition_dominant_floor_holds():
    ds = big_dataset()
    spec = dk.PartitionSpec(
        groups=dk.consecutive_groups(10, 5, 3), samples_per_client=600, uniform_percent=20.0
    )
    for client, shard in enumerate(dk.partition(ds, spec, m=10, seed=3)):
        gi = dk.group_of_client(client, 10, 5)
        in_dom = np.isin(shard.y, spec.groups[gi]).sum()
        assert in_dom >= 480  # (100 - s)% * n exactly by construction


def test_consecutive_groups_wraparound():
    groups = dk.consecutive_groups(10, 5, 3)
    assert groups == ((0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (8, 9, 0))


def test_partition_s100_is_uniform():
    ds = big_dataset()
    spec = dk.PartitionSpec(groups=((0,),), samples_per_client=500, uniform_percent=100.0)
    shards = dk.partition(ds, spec, m=3, seed=5)
    for shard in shards:
        counts = np.bincount(shard.y, minlength=10) / 500
        assert np.max(np.abs(counts - 0.1)) < 0.06  # loose: one uniform draw


def test_partition_deterministic_and_stable_under_extra_clients():
    ds = big_dataset()
    spec = dk.PartitionSpec(groups=dk.consecutive_groups(10, 5, 3), samples_per_client=100)
    a = dk.partition_indices(ds, spec, m=5, seed=7)
    b = dk.partition_indices(ds, spec, m=5, seed=7)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert not np.array_equal(a[0], dk.partition_indices(ds, spec, m=5, seed=8)[0])


def test_partition_capacity_error():
    ds = dk.synth_dataset(num_classes=4, dim=3, per_class=50, separation=1.0, seed=1)
    spec = dk.PartitionSpec(groups=((0,),), samples_per_client=120, uniform_percent=0.0)
    # dominant pool has only 50 samples of class 0; 120 needed
    with pytest.raises(CapacityError):
        dk.partition_indices(ds, spec, m=1, seed=0)


def test_partition_uniform_capacity_error():
    ds = dk.synth_dataset(num_classes=2, dim=3, per_class=10, separation=1.0, seed=1)
    spec = dk.PartitionSpec(groups=((0,), (1,)), samples_per_client=30, uniform_percent=100.0)
    with pytest.raises(CapacityError):
        dk.partition_indices(ds, spec, m=2, seed=0)


def test_group_assignment_is_even_split_in_order():
    assert [dk.group_of_client(c, 6, 3) for c in range(6)] == [0, 0, 1, 1, 2, 2]
    assert [dk.group_of_client(c, 5, 2) for c in range(5)] == [0, 0, 0, 1, 1]


def test_manifest_round_trip(tmp_path):
    ds = big_dataset()
    spec = dk.PartitionSpec(groups=dk.consecutive_groups(10, 5, 3), samples_per_client=60)
    shards = dk.partition_indices(ds, spec, m=4, seed=2)
    path = tmp_path / "manifest.json"
    dk.write_manifest(path, shards)
    back = json.loads(path.read_text())
    assert list(back) == ["0", "1", "2", "3"]
    for a, b in zip(shards, back.values()):
        np.testing.assert_array_equal(a, b)


def test_train_test_split_sizes_and_disjointness():
    ds = dk.synth_dataset(3, 4, 50, 1.0, seed=4)  # N=150
    train, test = dk.train_test_split(ds, seed=1)
    assert train.n == 125 and test.n == 25
    joint = np.vstack([train.x, test.x])
    assert joint.shape[0] == ds.n
    # same multiset of rows as the original
    assert sorted(map(tuple, joint)) == sorted(map(tuple, ds.x))


@settings(max_examples=20, deadline=None)
@given(
    s=st.integers(min_value=0, max_value=100),
    n=st.integers(min_value=5, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_partition_sizes_exact_for_any_s(s, n, seed):
    ds = dk.synth_dataset(num_classes=4, dim=3, per_class=200, separation=1.0, seed=0)
    spec = dk.PartitionSpec(
        groups=dk.consecutive_groups(4, 2, 2), samples_per_client=n, uniform_percent=float(s)
    )
    shards = dk.partition_indices(ds, spec, m=4, seed=seed)
    n_uniform = spec.uniform_count()
    for client, idx in enumerate(shards):
        assert idx.size == n
        assert np.unique(idx).size == n
        gi = dk.group_of_client(client, 4, 2)
        labels = ds.y[idx]
        assert np.isin(labels, spec.groups[gi]).sum() >= n - n_uniform
