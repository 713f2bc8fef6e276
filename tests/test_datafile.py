import struct

import numpy as np
import pytest

from fedrf import datafile


def test_generate_counts_and_labels():
    ds = datafile.generate_dataset(2, 3, 16, 10.0, 42)
    assert len(ds) == 6
    assert sorted(ds.labels.tolist()) == [0, 0, 0, 1, 1, 1]
    assert ds.window_len == 16
    assert ds.iq.shape == (6, 16)


def test_generate_full_scale_shape():
    ds = datafile.generate_dataset(163, 10, 256, 10.0, 1)
    assert len(ds) == 1630
    assert ds.num_transmitters == 163
    assert ds.window_len == 256
    assert np.all(np.bincount(ds.labels, minlength=163) == 10)


def test_generate_deterministic():
    a = datafile.generate_dataset(3, 4, 32, 10.0, 9)
    b = datafile.generate_dataset(3, 4, 32, 10.0, 9)
    assert np.array_equal(a.iq, b.iq)
    assert np.array_equal(a.labels, b.labels)


def test_generate_validation():
    with pytest.raises(ValueError):
        datafile.generate_dataset(1, 3, 16, 10.0, 0)
    with pytest.raises(ValueError):
        datafile.generate_dataset(2, 0, 16, 10.0, 0)
    with pytest.raises(ValueError):
        datafile.generate_dataset(2, 3, 1, 10.0, 0)


def test_round_trip_bit_exact(tmp_path):
    ds = datafile.generate_dataset(4, 5, 24, 8.0, 3)
    path = tmp_path / "data.rfds"
    datafile.write_dataset(ds, path)
    back = datafile.read_dataset(path)
    assert back.num_transmitters == ds.num_transmitters
    assert back.window_len == ds.window_len
    assert np.array_equal(back.labels, ds.labels)
    assert back.iq.tobytes() == ds.iq.tobytes()
    # writing again yields identical bytes
    path2 = tmp_path / "data2.rfds"
    datafile.write_dataset(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_bad_magic(tmp_path):
    ds = datafile.generate_dataset(2, 2, 8, 10.0, 0)
    path = tmp_path / "d.rfds"
    datafile.write_dataset(ds, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(datafile.BadMagicError):
        datafile.read_dataset(path)


def test_version_mismatch(tmp_path):
    ds = datafile.generate_dataset(2, 2, 8, 10.0, 0)
    path = tmp_path / "d.rfds"
    datafile.write_dataset(ds, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(datafile.UnsupportedVersionError):
        datafile.read_dataset(path)


def test_truncated(tmp_path):
    ds = datafile.generate_dataset(2, 2, 8, 10.0, 0)
    path = tmp_path / "d.rfds"
    datafile.write_dataset(ds, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-7])  # cut into the final record
    with pytest.raises(datafile.TruncatedFileError):
        datafile.read_dataset(path)
    path.write_bytes(raw[:10])  # cut into the header
    with pytest.raises(datafile.TruncatedFileError):
        datafile.read_dataset(path)


def test_trailing_bytes(tmp_path):
    ds = datafile.generate_dataset(2, 2, 8, 10.0, 0)
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


def patched_dataset(tmp_path, offset, fmt, value):
    """A valid 2-transmitter file with one field overwritten in place."""
    path = tmp_path / "d.rfds"
    datafile.write_dataset(datafile.generate_dataset(2, 2, 8, 10.0, 0), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))
    return path


def test_header_with_one_transmitter_rejected(tmp_path):
    path = patched_dataset(tmp_path, 8, "<I", 1)
    with pytest.raises(datafile.BadHeaderError, match="1 transmitters, need at least 2"):
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
