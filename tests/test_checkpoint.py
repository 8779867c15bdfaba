"""Tensor container: bit-exact round trips, format policing, atomic writes."""

import io
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfl import attack as atk
from hyperfl import checkpoint as ckpt
from hyperfl import datakit as dk
from hyperfl import metrics as mx
from hyperfl.errors import FormatError


def test_round_trip_preserves_bits():
    params = {
        "fe0/W": np.random.default_rng(0).normal(size=(8, 5)),
        "fe0/b": np.zeros(8),
        "odd": np.array([np.nan, np.inf, -np.inf, -0.0, np.pi]),
        "scalar": np.array(1.5),
    }
    back = ckpt.load_params(ckpt.dump_params(params))
    assert set(back) == set(params)
    for name in params:
        a = np.asarray(params[name], dtype=np.float64)
        b = back[name]
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # NaN payloads and -0.0 included


def test_serialization_is_order_canonical():
    a = {"x": np.array([1.0]), "y": np.array([2.0])}
    b = {"y": np.array([2.0]), "x": np.array([1.0])}
    assert ckpt.dump_params(a) == ckpt.dump_params(b)


def test_double_round_trip_is_stable():
    params = {"w": np.random.default_rng(3).normal(size=(4, 4, 2))}
    blob1 = ckpt.dump_params(params)
    blob2 = ckpt.dump_params(ckpt.load_params(blob1))
    assert blob1 == blob2


def test_file_round_trip(tmp_path):
    path = tmp_path / "state.tensors"
    params = {"a/W": np.random.default_rng(1).normal(size=(3, 7))}
    ckpt.write_checkpoint(path, params)
    back = ckpt.read_checkpoint(path)
    assert back["a/W"].tobytes() == params["a/W"].astype(np.float64).tobytes()


@pytest.mark.parametrize("stage", ["encode_chunks", "mid_write", "replace"])
def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, stage):
    path = tmp_path / "round_0001.hfl"
    ckpt.write_checkpoint(path, {"a": np.arange(4.0)})
    before = path.read_bytes()
    encode = ckpt.encode_chunks

    def crash(*args):
        raise OSError("disk full")

    def crash_after_first_chunk(params):
        chunks = encode(params)
        yield next(chunks)
        assert [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")], "the temporary file is open"
        raise OSError("disk full")

    if stage == "replace":
        monkeypatch.setattr(ckpt.os, "replace", crash)
    else:
        monkeypatch.setattr(ckpt, "encode_chunks", crash if stage == "encode_chunks" else crash_after_first_chunk)
    with pytest.raises(OSError):
        ckpt.write_checkpoint(path, {"a": np.zeros(4)})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["round_0001.hfl"]


def reference_container(params):
    """The container built eagerly from ``tobytes`` copies: the oracle for the streamed encoder."""
    out = [b"HFLTNSR1", struct.pack("<I", len(params))]
    for name in sorted(params):
        raw = name.encode("utf-8")
        arr = np.asarray(params[name], dtype=np.float64)
        out += [struct.pack("<H", len(raw)), raw, struct.pack("<B", arr.ndim), struct.pack(f"<{arr.ndim}I", *arr.shape)]
        out.append(arr.astype("<f8").tobytes(order="C"))
    return b"".join(out)


SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -2.25])


@st.composite
def tensors(draw):
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    values = draw(st.lists(SPECIAL | st.floats(width=64), min_size=math.prod(shape), max_size=math.prod(shape)))
    arr = np.array(values, dtype=np.float64).reshape(shape)
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided", "big-endian", "scalar"]))
    if layout == "transposed":
        return arr.T
    if layout == "strided" and arr.ndim:
        return np.repeat(arr, 2, axis=-1)[..., ::2]  # same values, every other element of a buffer
    if layout == "big-endian":
        return arr.astype(">f8")
    if layout == "scalar":
        return float(arr.reshape(-1)[0]) if arr.size else np.float64(-0.0)
    return arr


@settings(max_examples=80, deadline=None)
@given(params=st.dictionaries(st.text(st.characters(codec="utf-8"), max_size=6), tensors(), max_size=4))
def test_written_file_equals_dump_params(tmp_path_factory, params):
    path = tmp_path_factory.mktemp("sink") / "state.hfl"
    ckpt.write_checkpoint(path, params)
    blob = ckpt.dump_params(params)
    assert path.read_bytes() == blob == reference_container(params)
    back, want = ckpt.read_checkpoint(path), ckpt.load_params(blob)
    assert list(back) == list(want)
    for name in want:
        assert back[name].shape == want[name].shape and back[name].tobytes() == want[name].tobytes()


def test_write_checkpoint_streams_without_copying_the_container(tmp_path):
    rng = np.random.default_rng(4)
    params = {f"t{i}": rng.normal(size=(64, 512)) for i in range(8)}  # 256 KiB each
    size = len(ckpt.dump_params(params))
    tracemalloc.start()
    try:
        ckpt.write_checkpoint(tmp_path / "state.hfl", params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # contiguous float64 tensors go to the file from their own buffers: the
    # peak stays below one tensor, let alone one copy of the 2 MiB container
    assert peak < size // 8, (peak, size)


def test_read_checkpoint_streams_without_copying_the_container(tmp_path):
    rng = np.random.default_rng(4)
    params = {f"t{i}": rng.normal(size=(64, 512)) for i in range(8)}  # 256 KiB each
    path = tmp_path / "state.hfl"
    ckpt.write_checkpoint(path, params)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        back = ckpt.read_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result = sum(arr.nbytes for arr in back.values())
    # each payload is read straight into its array: besides the result, the
    # peak holds less than one tensor, let alone a copy of the 2 MiB file
    assert peak < result + size // 8, (peak, result, size)
    assert all(back[k].tobytes() == params[k].tobytes() for k in params)


SAMPLE = atk.sample_record(0, "fedavg", np.zeros((2, 2)), {"psnr": 1.0, "analytic_psnr": 2.0}, [])
RESULT_WRITERS = {
    "metrics.csv": lambda p: mx.write_metrics_csv(p, [mx.RoundRecord(round=0, client_id="0")]),
    "timings.csv": lambda p: mx.write_timings_csv(p, [(0, 0.5)]),
    "attack_report.json": lambda p: atk.write_attack_report(p, atk.AttackConfig(), [SAMPLE]),
    "attack_summary.csv": lambda p: atk.write_attack_summary_csv(p, [SAMPLE]),
    "partition.json": lambda p: dk.write_manifest(p, [np.arange(3)]),
}


@pytest.mark.parametrize("name", sorted(RESULT_WRITERS))
def test_failed_result_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, name):
    # the result files share write_checkpoint's temp-file-then-replace path
    path = tmp_path / name
    path.write_bytes(b"previous run\n")

    def crash(*args):
        raise OSError("disk full")

    monkeypatch.setattr(ckpt.os, "replace", crash)
    with pytest.raises(OSError):
        RESULT_WRITERS[name](path)
    assert path.read_bytes() == b"previous run\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_csv_table_is_written_as_documented_and_read_back(tmp_path):
    path = tmp_path / "t.csv"
    ckpt.write_csv(path, ("n", "x"), [[1, 0.1 + 0.2], [2, math.nan], [3, "a,b"]])
    assert path.read_bytes() == b'n,x\n1,0.30000000000000004\n2,nan\n3,"a,b"\n'
    assert ckpt.read_csv(path, ("n", "x"), tuple) == [("1", "0.30000000000000004"), ("2", "nan"), ("3", "a,b")]


@pytest.mark.parametrize(
    "data, line",
    [
        (b"", 1),
        (b"n,y\n1,2\n", 1),  # wrong header
        (b"n,x\n1,2\n3\n", 3),  # short row
        (b"n,x\n1,2\n3,4,5\n", 3),  # long row
        (b"n,x\n1,2\n3,abc\n", 3),  # rejected by the parser
        (b"n,x\n1,2\n3,\xff\n", 3),  # not UTF-8
    ],
    ids=["empty", "wrong-header", "short-row", "long-row", "not-a-number", "not-utf8"],
)
def test_read_csv_names_the_file_and_line_of_a_fault(tmp_path, data, line):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))} line {line}: "):
        ckpt.read_csv(path, ("n", "x"), lambda row: (int(row[0]), float(row[1])))


def test_rewrite_replaces_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "state.hfl"
    ckpt.write_checkpoint(path, {"a": np.arange(4.0)})
    ckpt.write_checkpoint(path, {"b": np.ones((2, 2))})
    assert sorted(ckpt.read_checkpoint(path)) == ["b"]
    assert [p.name for p in tmp_path.iterdir()] == ["state.hfl"]


def test_header_layout_is_as_documented():
    blob = ckpt.dump_params({"ab": np.array([1.0, 2.0])})
    assert blob[:8] == b"HFLTNSR1"
    assert struct.unpack_from("<I", blob, 8) == (1,)
    assert struct.unpack_from("<H", blob, 12) == (2,)
    assert blob[14:16] == b"ab"
    assert blob[16] == 1  # ndim
    assert struct.unpack_from("<I", blob, 17) == (2,)
    assert struct.unpack_from("<d", blob, 21) == (1.0,)
    assert struct.unpack_from("<d", blob, 29) == (2.0,)
    assert len(blob) == 37


def test_empty_container_round_trips():
    assert ckpt.load_params(ckpt.dump_params({})) == {}


class SeekLog(io.BytesIO):
    """Container bytes that record the position every seek lands on."""

    def __init__(self, blob):
        super().__init__(blob)
        self.landed = []

    def seek(self, offset, whence=io.SEEK_SET):
        pos = super().seek(offset, whence)
        self.landed.append(pos)
        return pos


def skip_everything(blob):
    """The parser checking every entry of ``blob`` and loading none of them."""
    stream = SeekLog(blob)
    try:
        return ckpt.load_params(stream, lambda name: False)
    finally:
        # a payload skip must never be the first thing to notice a short stream
        assert all(pos <= len(blob) for pos in stream.landed), (stream.landed, len(blob))


def all_sources(tmp_path):
    """Three parsers of container bytes: ``load_params`` on the bytes, ``read_checkpoint``
    on a file holding them, and ``load_params`` skipping every entry."""

    def from_file(blob):
        path = tmp_path / "state.hfl"
        path.write_bytes(blob)
        return ckpt.read_checkpoint(path)

    return [ckpt.load_params, from_file, skip_everything]


def test_bad_magic_rejected(tmp_path):
    blob = bytearray(ckpt.dump_params({"x": np.array(1.0)}))
    blob[0] ^= 0xFF
    for load in all_sources(tmp_path):
        with pytest.raises(FormatError):
            load(bytes(blob))


def test_truncation_rejected_at_every_boundary(tmp_path):
    blob = ckpt.dump_params({"x": np.array([1.0, 2.0, 3.0])})
    for load in all_sources(tmp_path):
        for cut in (4, 11, 13, 15, 18, len(blob) - 1):
            with pytest.raises(FormatError):
                load(blob[:cut])


def test_trailing_bytes_rejected(tmp_path):
    blob = ckpt.dump_params({"x": np.array(1.0)})
    for load in all_sources(tmp_path):
        with pytest.raises(FormatError):
            load(blob + b"\x00")


def test_duplicate_names_rejected(tmp_path):
    one = ckpt.dump_params({"x": np.array(1.0)})
    entry = one[12:]  # everything after magic+count
    forged = b"HFLTNSR1" + struct.pack("<I", 2) + entry + entry
    for load in all_sources(tmp_path):
        with pytest.raises(FormatError):
            load(forged)


def test_forged_huge_dims_rejected_before_allocation(tmp_path):
    # 40 bytes whose one entry claims (2**32 - 1)**2 float64 values
    forged = b"HFLTNSR1" + struct.pack("<IH1sB2I", 1, 1, b"x", 2, 2**32 - 1, 2**32 - 1) + bytes(16)
    assert len(forged) == 40
    for load in all_sources(tmp_path):
        with pytest.raises(FormatError, match="payload truncated"):
            load(forged)


@settings(max_examples=60, deadline=None)
@given(
    params=st.dictionaries(st.text(st.characters(codec="utf-8"), max_size=6), tensors(), max_size=5),
    keep_seed=st.integers(0, 2**32 - 1),
)
def test_kept_entries_equal_a_full_load(tmp_path_factory, params, keep_seed):
    path = tmp_path_factory.mktemp("keep") / "state.hfl"
    ckpt.write_checkpoint(path, params)
    full = ckpt.read_checkpoint(path)
    kept = set(np.random.default_rng(keep_seed).permutation(sorted(full))[: len(full) // 2])
    part = ckpt.read_checkpoint(path, kept.__contains__)
    assert list(part) == list(full)
    for name, arr in full.items():
        if name in kept:
            assert part[name].shape == arr.shape and part[name].tobytes() == arr.tobytes()
        else:  # a record of the shape, which is what a layout check reads
            assert part[name] == ckpt.Skipped(arr.shape) and np.shape(part[name]) == arr.shape


def test_skipped_payloads_are_never_allocated(tmp_path):
    rng = np.random.default_rng(4)
    params = {f"t{i}": rng.normal(size=(64, 512)) for i in range(8)}  # 256 KiB each
    path = tmp_path / "state.hfl"
    ckpt.write_checkpoint(path, params)
    tracemalloc.start()
    try:
        back = ckpt.read_checkpoint(path, lambda name: name == "t3")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the one kept tensor, and far less than one more beside it
    assert back["t3"].nbytes <= peak < back["t3"].nbytes + 64 * 1024, peak


def test_loaded_arrays_are_writable_copies():
    blob = ckpt.dump_params({"x": np.array([1.0, 2.0])})
    out = ckpt.load_params(blob)
    out["x"][0] = 99.0  # must not raise: not a frozen frombuffer view
    assert out["x"][0] == 99.0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tensors=st.integers(min_value=0, max_value=5),
)
def test_random_trees_round_trip(seed, n_tensors):
    rng = np.random.default_rng(seed)
    params = {}
    for i in range(n_tensors):
        ndim = int(rng.integers(0, 4))
        shape = tuple(int(d) for d in rng.integers(1, 5, size=ndim))
        params[f"t{i}/x"] = rng.normal(size=shape)
    back = ckpt.load_params(ckpt.dump_params(params))
    assert set(back) == set(params)
    for k, v in params.items():
        assert back[k].shape == np.asarray(v).shape
        assert back[k].tobytes() == np.asarray(v, dtype=np.float64).tobytes()
