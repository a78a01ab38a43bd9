"""Estimate files: lossless round trip, loud rejection, no payload copies."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fimlab import estimators as est
from fimlab.cli import main

from helpers import random_instance

# any float64 bit pattern, with NaN payloads, infinities, -0.0 and subnormals
# (exponent 0 or 0x7FF) drawn far more often than uniform bits would
FLOAT_BITS = st.builds(
    lambda sign, exponent, mantissa: (sign << 63) | (exponent << 52) | mantissa,
    st.integers(0, 1),
    st.sampled_from([0, 0x7FF, 1, 0x3FF, 0x7FE]) | st.integers(0, 0x7FF),
    st.integers(0, (1 << 52) - 1),
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def estimates(draw):
    n = draw(st.integers(0, 6))
    storage = draw(st.sampled_from(["dense", "diagonal"]))
    shape = (n, n) if storage == "dense" else (n,)
    bits = draw(arrays(np.uint64, shape, elements=FLOAT_BITS))
    meta = draw(st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=6))
    kind = draw(st.sampled_from(["exact_def", "efim", "hutch_lowrank"]))
    return est.FimEstimate(kind, storage, bits.view(np.float64), draw(st.sampled_from(["sum", "mean"])), meta)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(e=estimates())
def test_round_trip_is_bit_exact_with_full_meta(tmp_path, e):
    path = tmp_path / "e.fim"
    est.save_estimate(e, path)
    loaded = est.load_estimate(path)
    assert (loaded.kind, loaded.storage, loaded.normalization) == (e.kind, e.storage, e.normalization)
    assert loaded.values.shape == e.values.shape
    assert np.array_equal(loaded.values.view(np.uint64), e.values.view(np.uint64))
    assert loaded.meta == e.meta
    assert loaded.values.flags.writeable and loaded.values.flags.owndata
    # the payload is the little-endian bytes of the array, right after the header line
    assert path.read_bytes().split(b"\n", 1)[1] == e.values.astype("<f8").tobytes()


def test_probe_estimate_keeps_every_meta_key(tmp_path):
    net, theta, X = random_instance(np.random.default_rng(4), (2, 4), "none", n_samples=3)
    e = est.hutchinson_fim(net, theta, X, "lowrank", rng=np.random.default_rng(0), k=2,
                           eigen="full", storage="diagonal")
    e.meta.update(seed=5, dataset_id="blobs", lr=0.05)
    path = tmp_path / "lowrank.fim"
    est.save_estimate(e, path)
    meta = est.load_estimate(path).meta
    assert meta == e.meta
    for key in ("backward_passes", "k", "eigen", "lr", "seed", "dataset_id", "probe_count"):
        assert key in meta


def saved(tmp_path, shape=(3,)):
    path = tmp_path / "e.fim"
    storage = "dense" if len(shape) == 2 else "diagonal"
    est.save_estimate(est.FimEstimate("exact_def", storage, np.arange(np.prod(shape), dtype=float).reshape(shape),
                                      "sum", {"n_samples": 4}), path)
    raw = path.read_bytes()
    return path, raw, raw.index(b"\n") + 1


@pytest.mark.parametrize("cut", range(1, 9))
def test_truncated_payload_is_rejected(tmp_path, cut):
    path, raw, _ = saved(tmp_path, (2, 2))
    path.write_bytes(raw[:-cut])
    with pytest.raises(ValueError, match=rf"{path}: truncated payload: {32 - cut} bytes, shape \[2, 2\] needs 32"):
        est.load_estimate(path)


def test_padded_payload_is_rejected(tmp_path):
    path, raw, _ = saved(tmp_path)
    path.write_bytes(raw + b"\0")
    with pytest.raises(ValueError, match=rf"{path}: padded payload: 25 bytes, shape \[3\] needs 24"):
        est.load_estimate(path)


def test_header_only_file_is_rejected(tmp_path):
    path, raw, start = saved(tmp_path)
    path.write_bytes(raw[:start])
    with pytest.raises(ValueError, match=rf"{path}: truncated payload: 0 bytes, shape \[3\] needs 24"):
        est.load_estimate(path)


def test_header_without_newline_is_rejected(tmp_path):
    path, raw, start = saved(tmp_path)
    path.write_bytes(raw[:start - 1])
    for read in (est.load_estimate, est.read_header):
        with pytest.raises(ValueError, match=rf"{path}: no newline ends the header line"):
            read(path)


@pytest.mark.parametrize("header", [
    {"format": 2, "kind": "exact_def", "storage": "diagonal", "normalization": "sum", "shape": [3], "meta": {}},
    {"format": "1", "kind": "exact_def", "storage": "diagonal", "normalization": "sum", "shape": [3], "meta": {}},
    # JSON true and 1.0 compare equal to 1, yet neither is the integer format 1
    {"format": True, "kind": "exact_def", "storage": "diagonal", "normalization": "sum", "shape": [3], "meta": {}},
    {"format": 1.0, "kind": "exact_def", "storage": "diagonal", "normalization": "sum", "shape": [3], "meta": {}},
    # no format at all: the unversioned header, with four meta keys at its top level
    {"kind": "hutch_full", "storage": "diagonal", "normalization": "sum", "shape": [3],
     "seed": 7, "probe_count": 1, "probe_dist": "rademacher", "dataset_id": None},
])
def test_unknown_format_is_rejected(tmp_path, capsys, header):
    path = tmp_path / "future.fim"
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(24))
    message = rf"{path}: unknown estimate format {header.get('format')!r} "
    for read in (est.load_estimate, est.read_header):
        with pytest.raises(ValueError, match=rf"^{message}"):
            read(path)
    assert main(["inspect", "--in", str(path)]) == 2
    assert re.match(rf"^error: {message}", capsys.readouterr().err)


@pytest.mark.parametrize("line, problem", [
    (b"not json\n", "is not JSON"),
    (b"[1, 2]\n", "not a JSON object"),
    (b'{"format": 1, "kind": "efim", "storage": "diagonal", "normalization": "sum", "shape": [-1], "meta": {}}\n',
     "bad shape"),
    (b'{"format": 1, "kind": "efim", "storage": "diagonal", "normalization": "sum", "shape": [0]}\n',
     "has no 'meta'"),
    (b'{"format": 1, "kind": "efim", "storage": "dense", "normalization": "sum", "shape": [0], "meta": {}}\n',
     "dense storage needs a square matrix"),
    (b'{"format": 1, "kind": "efim", "storage": "diagonal", "normalization": "avg", "shape": [0], "meta": {}}\n',
     "unknown normalization 'avg'"),
    (b'{"format": 1, "kind": "efim", "storage": "sparse", "normalization": "sum", "shape": [0], "meta": {}}\n',
     "unknown storage 'sparse'"),
    (b'{"format": 1, "kind": "efim", "storage": "diagonal", "normalization": "sum", "shape": [0, 0], "meta": {}}\n',
     "diagonal storage needs a vector"),
    (b'{"format": 1, "kind": 5, "storage": "diagonal", "normalization": "sum", "shape": [0], "meta": {}}\n',
     "kind 5 is not a string"),
    (b'{"format": 1, "kind": "efim", "storage": "diagonal", "normalization": "sum", "shape": [0], "meta": 5}\n',
     "meta 5 is not a JSON object"),
])
def test_malformed_header_is_rejected(tmp_path, line, problem):
    path = tmp_path / "bad.fim"
    path.write_bytes(line)
    with pytest.raises(ValueError, match=rf"{path}: .*{problem}"):
        est.load_estimate(path)


@pytest.mark.parametrize("meta, key", [
    ({"seed": 1, "bad_key": np.int64(3)}, "'bad_key'"),
    ({"seed": 1, "bad_key": float("nan")}, "'bad_key'"),
    ({"seed": 1, "bad_key": (1, 2)}, "'bad_key'"),  # would come back as a list
    ({"seed": 1, "bad_key": {1: "a"}}, "'bad_key'"),  # inner key would come back as "1"
    ({"seed": 1, "bad_key": object()}, "'bad_key'"),
    ({"seed": 1, "bad_key": [float("inf")]}, "'bad_key'"),
    ({"seed": 1, 3: "three"}, "3"),
])
def test_meta_that_json_cannot_hold_is_rejected_by_key(tmp_path, meta, key):
    path = tmp_path / "e.fim"
    e = est.FimEstimate("efim", "diagonal", np.ones(2), "sum", meta)
    with pytest.raises(ValueError, match=f"meta key {key}:"):
        est.save_estimate(e, path)
    assert not path.exists()


def test_io_makes_no_copy_of_the_payload(tmp_path):
    path = tmp_path / "big.fim"
    e = est.FimEstimate("exact_def", "dense", np.ones((1000, 1000)), "sum", {"n_samples": 2})
    payload = e.values.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        est.save_estimate(e, path)
        save_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        loaded = est.load_estimate(path)
        load_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert save_peak < 1 << 20
    assert load_peak <= payload + (1 << 20)
    assert np.array_equal(loaded.values, e.values)


def test_inspect_prints_the_header_without_reading_the_payload(tmp_path, capsys):
    path, raw, start = saved(tmp_path)
    assert main(["inspect", "--in", str(path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == json.loads(raw[:start])
    assert printed["format"] == est.ESTIMATE_FORMAT
    assert printed["meta"] == {"n_samples": 4}
    path.write_bytes(raw[:start + 5])  # a payload the loader rejects
    assert main(["inspect", "--in", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == printed
    path.write_bytes(raw[:start - 1])
    assert main(["inspect", "--in", str(path)]) == 2
    assert "no newline" in capsys.readouterr().err
