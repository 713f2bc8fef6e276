"""Labeled waveform datasets and their on-disk binary format.

File layout (little endian):

    magic   4 bytes  b"RFDS"
    version u32      currently 1
    |A|     u32      transmitter count
    len     u32      samples per waveform
    count   u64      record count
    records count x (u16 label, len x 2 float32 interleaved I/Q)

Waveforms are generated in float64 and quantized to float32 on packing, so
the in-memory dataset equals its on-disk representation bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from . import waveforms

MAGIC = b"RFDS"
VERSION = 1
_HEADER = struct.Struct("<4sIIIQ")


class DatasetFormatError(Exception):
    """Base class for malformed dataset files."""


class BadMagicError(DatasetFormatError):
    pass


class UnsupportedVersionError(DatasetFormatError):
    pass


class TruncatedFileError(DatasetFormatError):
    pass


class BadHeaderError(DatasetFormatError):
    """A header field no dataset can have."""


class BadRecordError(DatasetFormatError):
    """A record whose label or samples the header does not allow."""


@dataclass
class DatasetFile:
    """In-memory dataset: one complex64 row per record plus uint16 labels."""

    num_transmitters: int
    window_len: int
    labels: np.ndarray  # (n,) uint16
    iq: np.ndarray  # (n, window_len) complex64

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint16)
        self.iq = np.asarray(self.iq, dtype=np.complex64)
        if self.iq.ndim != 2 or self.iq.shape != (len(self.labels), self.window_len):
            raise ValueError("iq array shape must be (record count, window_len)")
        if len(self.labels) and int(self.labels.max()) >= self.num_transmitters:
            raise ValueError("label exceeds declared transmitter count")

    def __len__(self) -> int:
        return len(self.labels)


def generate_dataset(
    num_transmitters: int,
    per_tx_count: int,
    window_len: int,
    snr_db: float,
    master_seed: int,
) -> DatasetFile:
    """Generate a labeled dataset of fingerprinted noisy waveforms.

    Records are fully deterministic given ``master_seed``: each record draws
    from its own stream keyed by (seed, transmitter, record index), so
    generation order does not matter. Each transmitter's records go through
    the impairment chain and the channel as one batch.
    """
    if not 2 <= num_transmitters <= 1 << 16:
        raise ValueError("need 2 to 65536 transmitters (labels are u16)")
    if per_tx_count < 1:
        raise ValueError("per_tx_count must be >= 1")
    if window_len < 2:
        raise ValueError("window_len must be >= 2")
    waveforms.snr_ratio(snr_db)

    iq = np.empty((num_transmitters, per_tx_count, window_len), dtype=np.complex64)
    for tx in range(num_transmitters):
        profile = waveforms.synth_transmitter_profile(master_seed, tx)
        symbols, normals = waveforms.record_draws(master_seed, tx, per_tx_count, window_len)
        wf = waveforms.apply_fingerprint(profile, symbols, normals[0])
        # a float32 overflow would write inf samples that read_dataset rejects
        with np.errstate(over="raise"):
            try:
                iq[tx] = waveforms.add_awgn(wf, snr_db, normals[1:])
            except FloatingPointError:
                raise ValueError(
                    f"snr_db {snr_db} puts samples beyond the float32 range"
                ) from None
    return DatasetFile(
        num_transmitters=num_transmitters,
        window_len=window_len,
        labels=np.repeat(np.arange(num_transmitters), per_tx_count),
        iq=iq.reshape(-1, window_len),
    )


def _record_dtype(window_len: int) -> np.dtype:
    return np.dtype([("label", "<u2"), ("iq", "<f4", (2 * window_len,))])


def write_dataset(ds: DatasetFile, path) -> None:
    path = Path(path)
    rec_dtype = _record_dtype(ds.window_len)
    records = np.empty(len(ds), dtype=rec_dtype)
    records["label"] = ds.labels
    flat = np.empty((len(ds), 2 * ds.window_len), dtype=np.float32)
    flat[:, 0::2] = ds.iq.real
    flat[:, 1::2] = ds.iq.imag
    records["iq"] = flat
    header = _HEADER.pack(MAGIC, VERSION, ds.num_transmitters, ds.window_len, len(ds))
    path.write_bytes(header + records.tobytes())


def read_dataset(path) -> DatasetFile:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise TruncatedFileError("file shorter than header")
    magic, version, num_tx, window_len, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    if num_tx < 2:
        raise BadHeaderError(f"header declares {num_tx} transmitters, need at least 2")
    if window_len < 2:
        raise BadHeaderError(f"header declares window_len {window_len}, need at least 2")
    rec_dtype = _record_dtype(window_len)
    body = data[_HEADER.size :]
    expected = count * rec_dtype.itemsize
    if len(body) < expected:
        raise TruncatedFileError(
            f"record section truncated: expected {expected} bytes, found {len(body)}"
        )
    if len(body) > expected:
        raise DatasetFormatError("trailing bytes after final record")
    records = np.frombuffer(body, dtype=rec_dtype, count=count)
    labels = records["label"]
    bad = labels >= num_tx
    if bad.any():
        row = int(np.argmax(bad))
        raise BadRecordError(
            f"record {row} has label {labels[row]}, but the header declares "
            f"{num_tx} transmitters"
        )
    flat = records["iq"]
    bad = ~np.isfinite(flat).all(axis=1)
    if bad.any():
        raise BadRecordError(f"record {int(np.argmax(bad))} has a non-finite sample")
    iq = np.empty((count, window_len), dtype=np.complex64)
    iq.real = flat[:, 0::2]
    iq.imag = flat[:, 1::2]
    return DatasetFile(
        num_transmitters=num_tx,
        window_len=window_len,
        labels=labels.astype(np.uint16),
        iq=iq,
    )
