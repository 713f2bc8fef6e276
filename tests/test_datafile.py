import hashlib
import math
import os
import struct

import numpy as np
import pytest

from fedrf import datafile
from fedrf.config import DatasetConfig


def test_generate_counts_and_labels():
    ds = datafile.generate_dataset(DatasetConfig(2, 3, 16, 10.0, 42))
    assert len(ds) == 6
    assert sorted(ds.labels.tolist()) == [0, 0, 0, 1, 1, 1]
    assert ds.window_len == 16
    assert ds.iq.shape == (6, 16)


def test_generate_full_scale_shape():
    ds = datafile.generate_dataset(DatasetConfig(163, 10, 256, 10.0, 1))
    assert len(ds) == 1630
    assert ds.num_transmitters == 163
    assert ds.window_len == 256
    assert np.all(np.bincount(ds.labels, minlength=163) == 10)


def test_generate_deterministic():
    a = datafile.generate_dataset(DatasetConfig(3, 4, 32, 10.0, 9))
    b = datafile.generate_dataset(DatasetConfig(3, 4, 32, 10.0, 9))
    assert np.array_equal(a.iq, b.iq)
    assert np.array_equal(a.labels, b.labels)


def test_generate_validation():
    with pytest.raises(ValueError):
        datafile.generate_dataset(DatasetConfig(1, 3, 16, 10.0, 0))
    with pytest.raises(ValueError):
        datafile.generate_dataset(DatasetConfig(2, 0, 16, 10.0, 0))
    with pytest.raises(ValueError):
        datafile.generate_dataset(DatasetConfig(2, 3, 1, 10.0, 0))
    # labels are u16, so the check comes before any record is generated
    with pytest.raises(ValueError, match="need 2 to 65536 transmitters"):
        datafile.generate_dataset(DatasetConfig((1 << 16) + 1, 1, 2, 10.0, 0))


# sha256 of write_dataset(generate_dataset(DatasetConfig(*args))): records are generated
# from per-record streams, so these bytes must not change
GOLDEN_DIGESTS = [
    # the shipped desk_noniid dataset
    ((16, 200, 64, 10.0, 7), "4d61a331df27e0ba1ff49485d7cbe0c2e06ef1e6f856974a0512557a33db7f79"),
    ((4, 20, 33, 0.0, 1), "0847bef63579d7f8488da9ce78cbbb893b1934ea4c73c6704ab7f3e5c0ce6b5e"),
    ((3, 5, 16, math.inf, 2), "e593a9cc451e0f8c57615cfd20cd68fbcd709579a2af6110ed654085c4133c6b"),
    ((5, 1, 64, 10.0, 3), "9ea1978ae73fcb193d4d7f92a93ca8da031919d6c528c40c35ef4a250f84b69e"),
    ((3, 5, 33, -3.0, 9), "7a15e1630871397b16ef0bbb6f84944af32a464873428b9f8de8d31ddd8d2452"),
]


def counted_forks(monkeypatch, cpus):
    """Give this process the CPU affinity ``cpus``; returns the list that
    gets one entry for each process forked from it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    fork, forks = os.fork, []

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("args, digest", GOLDEN_DIGESTS)
def test_generated_file_bytes_are_pinned(tmp_path, monkeypatch, args, digest):
    # one CPU generates every transmitter here; two fork the dataset helper
    for cpus in ({0}, {0, 1}):
        forks = counted_forks(monkeypatch, cpus)
        path = tmp_path / "d.rfds"
        datafile.write_dataset(datafile.generate_dataset(DatasetConfig(*args)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert len(forks) == len(cpus) - 1


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf, 4000.0, -4000.0])
def test_generate_rejects_unusable_snr(snr_db):
    with pytest.raises(ValueError, match="snr_db must be Infinity"):
        datafile.generate_dataset(DatasetConfig(2, 3, 16, snr_db, 0))


def test_generate_rejects_snr_beyond_float32_range():
    with pytest.raises(ValueError, match="beyond the float32 range"):
        datafile.generate_dataset(DatasetConfig(2, 3, 16, -1000.0, 0))


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one_process", "helper"])
def test_overflow_in_the_helpers_transmitters_gives_the_one_process_error(monkeypatch, cpus):
    # at this snr_db only transmitter 3 of 4 leaves the float32 range, and
    # two CPUs generate it in the helper
    forks = counted_forks(monkeypatch, cpus)
    error = "snr_db -764.0 puts samples beyond the float32 range"
    with pytest.raises(ValueError, match=f"^{error}$"):
        datafile.generate_dataset(DatasetConfig(4, 3, 16, -764.0, 4))
    assert len(forks) == len(cpus) - 1
    assert np.isfinite(datafile.generate_dataset(DatasetConfig(3, 3, 16, -764.0, 4)).iq).all()


def test_round_trip_bit_exact(tmp_path):
    for window_len in (24, 33):
        ds = datafile.generate_dataset(DatasetConfig(4, 5, window_len, 8.0, 3))
        path = tmp_path / "data.rfds"
        datafile.write_dataset(ds, path)
        back = datafile.read_dataset(path)
        assert back.num_transmitters == ds.num_transmitters
        assert back.window_len == ds.window_len
        assert np.array_equal(back.labels, ds.labels)
        assert back.iq.tobytes() == ds.iq.tobytes()
        # a record's samples, 2 bytes after its label, are the iq row's bytes
        records = np.frombuffer(path.read_bytes(), np.uint8, offset=24).reshape(len(ds), -1)
        assert records[:, 2:].tobytes() == back.iq.astype("<c8").tobytes()
        # a native copy, not the unaligned record field
        assert back.iq.dtype == np.complex64
        assert back.iq.flags.c_contiguous and back.iq.flags.aligned
        # writing again yields identical bytes, from non-contiguous rows too
        wide = np.zeros((len(ds), 2 * window_len), np.complex64)
        wide[:, ::2] = ds.iq
        for iq in (back.iq, wide[:, ::2], np.asfortranarray(ds.iq)):
            path2 = tmp_path / "data2.rfds"
            datafile.write_dataset(
                datafile.DatasetFile(ds.num_transmitters, window_len, ds.labels, iq), path2
            )
            assert path.read_bytes() == path2.read_bytes()


def test_bad_magic(tmp_path):
    ds = datafile.generate_dataset(DatasetConfig(2, 2, 8, 10.0, 0))
    path = tmp_path / "d.rfds"
    datafile.write_dataset(ds, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(datafile.BadMagicError):
        datafile.read_dataset(path)


def test_version_mismatch(tmp_path):
    ds = datafile.generate_dataset(DatasetConfig(2, 2, 8, 10.0, 0))
    path = tmp_path / "d.rfds"
    datafile.write_dataset(ds, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(datafile.UnsupportedVersionError):
        datafile.read_dataset(path)


def test_truncated(tmp_path):
    ds = datafile.generate_dataset(DatasetConfig(2, 2, 8, 10.0, 0))
    path = tmp_path / "d.rfds"
    datafile.write_dataset(ds, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-7])  # cut into the final record
    with pytest.raises(datafile.TruncatedFileError):
        datafile.read_dataset(path)
    path.write_bytes(raw[:10])  # cut into the header
    with pytest.raises(datafile.TruncatedFileError):
        datafile.read_dataset(path)


def test_truncated_at_every_offset(tmp_path):
    path = tmp_path / "d.rfds"
    datafile.write_dataset(datafile.generate_dataset(DatasetConfig(2, 2, 8, 10.0, 0)), path)
    raw = path.read_bytes()
    for size in range(len(raw)):
        path.write_bytes(raw[:size])
        with pytest.raises(datafile.TruncatedFileError):
            datafile.read_dataset(path)


def test_trailing_bytes(tmp_path):
    ds = datafile.generate_dataset(DatasetConfig(2, 2, 8, 10.0, 0))
    path = tmp_path / "d.rfds"
    datafile.write_dataset(ds, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(datafile.DatasetFormatError):
        datafile.read_dataset(path)


def test_label_bound_enforced():
    with pytest.raises(ValueError):
        datafile.DatasetFile(
            num_transmitters=2,
            window_len=4,
            labels=np.array([0, 2], dtype=np.uint16),
            iq=np.zeros((2, 4), dtype=np.complex64),
        )


@pytest.mark.parametrize("num_transmitters, labels", [
    (1 << 16, np.array([0, 65537])),  # would wrap to 1 as u16
    (1 << 16, np.array([0, -65535])),  # would wrap to 1 as u16
    (4, np.array([0, -1])),
    (4, np.array([0, 1.7])),  # would truncate to 1
])
def test_labels_checked_before_u16_cast(num_transmitters, labels):
    with pytest.raises(ValueError, match="label"):
        datafile.DatasetFile(
            num_transmitters=num_transmitters,
            window_len=2,
            labels=labels,
            iq=np.zeros((2, 2), dtype=np.complex64),
        )


def test_more_transmitters_than_u16_labels_rejected():
    with pytest.raises(ValueError, match="at most 65536 transmitters"):
        datafile.DatasetFile(
            num_transmitters=70_000,
            window_len=2,
            labels=np.array([0, 1]),
            iq=np.zeros((2, 2), dtype=np.complex64),
        )


def patched_dataset(tmp_path, offset, fmt, value):
    """A valid 2-transmitter file with one field overwritten in place."""
    path = tmp_path / "d.rfds"
    datafile.write_dataset(datafile.generate_dataset(DatasetConfig(2, 2, 8, 10.0, 0)), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))
    return path


def test_header_with_one_transmitter_rejected(tmp_path):
    path = patched_dataset(tmp_path, 8, "<I", 1)
    with pytest.raises(datafile.BadHeaderError, match="1 transmitters, need at least 2"):
        datafile.read_dataset(path)


def test_header_with_too_many_transmitters_rejected(tmp_path):
    path = patched_dataset(tmp_path, 8, "<I", 70_000)
    with pytest.raises(datafile.BadHeaderError, match="70000 transmitters, at most 65536"):
        datafile.read_dataset(path)


def test_header_with_short_window_rejected(tmp_path):
    path = patched_dataset(tmp_path, 12, "<I", 1)
    with pytest.raises(datafile.BadHeaderError, match="window_len 1, need at least 2"):
        datafile.read_dataset(path)


def test_label_beyond_declared_transmitters_rejected(tmp_path):
    # the first record's label sits right after the 24-byte header
    path = patched_dataset(tmp_path, 24, "<H", 2)
    with pytest.raises(datafile.BadRecordError, match="record 0 has label 2"):
        datafile.read_dataset(path)


def test_non_finite_sample_rejected(tmp_path):
    # second record: 24-byte header, one 2 + 8*2*4 byte record, then its label
    path = patched_dataset(tmp_path, 24 + 66 + 2 + 4, "<f", float("nan"))
    with pytest.raises(datafile.BadRecordError, match="record 1 has a non-finite sample"):
        datafile.read_dataset(path)
