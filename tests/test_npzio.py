"""Tests for the .npz codec: streamed entries, byte parity and memory use."""

import io
import json
import tracemalloc
import zipfile

import numpy as np
import pytest

from hybridrank.npzio import _EPOCH, deterministic_savez, load_npz

FORMAT = "test-v1"


def writestr_savez(path, header: dict, **arrays) -> None:
    """Reference writer: each whole .npy built in memory, then ``writestr``."""
    arrays["header"] = np.frombuffer(json.dumps(header, sort_keys=True).encode("utf-8"),
                                     dtype=np.uint8)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(arrays[name], order="C"),
                                      allow_pickle=False)
            zf.writestr(zipfile.ZipInfo(name + ".npy", date_time=_EPOCH),
                        buf.getvalue())


CASES = {
    "float64_2d_and_int32_1d": dict(
        a=np.random.default_rng(0).normal(size=(37, 5)),
        b=np.arange(-50, 50, dtype=np.int32)),
    "bool": dict(mask=np.array([[True, False, True], [False, False, True]])),
    "empty": dict(empty=np.zeros((0, 3))),
    "zero_d": dict(scalar=np.array(2.5)),
    "fortran_order": dict(f=np.asfortranarray(np.arange(24.0).reshape(4, 6))),
}


def _both(tmp_path, header, arrays):
    ours, ref = tmp_path / "ours.npz", tmp_path / "ref.npz"
    deterministic_savez(ours, header, **arrays)
    writestr_savez(ref, header, **arrays)
    return ours, ref


@pytest.mark.parametrize("case", sorted(CASES))
def test_bytes_equal_writestr_and_round_trip(tmp_path, case):
    arrays = CASES[case]
    ours, ref = _both(tmp_path, {"format": FORMAT, "case": case}, arrays)
    assert ours.read_bytes() == ref.read_bytes()
    header, loaded = load_npz(ours, FORMAT)
    assert header == {"format": FORMAT, "case": case}
    assert sorted(loaded) == sorted(arrays)
    for name, arr in arrays.items():
        expected = np.asarray(arr, order="C")  # a 0-d value loads as shape (), as with np.savez
        assert loaded[name].dtype == expected.dtype
        assert loaded[name].shape == expected.shape
        assert np.array_equal(loaded[name], expected)


def test_non_ascii_header_bytes_equal_and_round_trip(tmp_path):
    header = {"format": FORMAT, "ids": ["café", "日本", "ü"]}
    ours, ref = _both(tmp_path, header, {"x": np.ones(3)})
    assert ours.read_bytes() == ref.read_bytes()
    assert load_npz(ours, FORMAT)[0] == header


def test_zip64_entries_match_writestr(tmp_path, monkeypatch):
    # With the limit lowered, the "big" entry (128-byte .npy header plus
    # 8,192 data bytes) is zip64 under writestr's size * 1.05 rule, though its
    # data alone is not; the small one, written first, is not zip64.
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 8700)
    arrays = {"a_small": np.arange(4), "big": np.arange(1024, dtype=np.float64)}
    ours, ref = _both(tmp_path, {"format": FORMAT}, arrays)
    assert ours.read_bytes() == ref.read_bytes()
    with zipfile.ZipFile(ours) as zf:
        assert zf.getinfo("big.npy").extract_version == zipfile.ZIP64_VERSION
        assert zf.getinfo("a_small.npy").extract_version < zipfile.ZIP64_VERSION
    _, loaded = load_npz(ours, FORMAT)
    assert np.array_equal(loaded["big"], arrays["big"])


def test_save_allocates_no_copy_of_the_array(tmp_path):
    arr = np.ones(1 << 20)  # 8 MiB
    tracemalloc.start()
    try:
        deterministic_savez(tmp_path / "big.npz", {"format": FORMAT}, big=arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
