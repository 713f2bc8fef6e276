"""Labeled waveform datasets and their on-disk binary format.

File layout (little endian):

    magic   4 bytes  b"RFDS"
    version u32      currently 1
    |A|     u32      transmitter count
    len     u32      samples per waveform
    count   u64      record count
    records count x (u16 label, len x complex64)

A record's samples are the little-endian bytes of its complex64 values, float32
(re, im) pairs. Waveforms are generated in float64 and stored as complex64, so
the in-memory dataset equals its on-disk representation bit for bit.
"""

from __future__ import annotations

import math
import mmap
import struct
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from . import helper, waveforms

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
        if self.num_transmitters > 1 << 16:
            raise ValueError("at most 65536 transmitters (labels are u16)")
        # checked before the u16 cast, which would wrap them silently
        labels = np.asarray(self.labels)
        if labels.size:
            if labels.dtype.kind not in "iu":
                raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
            if labels.min() < 0 or labels.max() >= self.num_transmitters:
                raise ValueError("label outside [0, declared transmitter count)")
        self.labels = labels.astype(np.uint16, copy=False)
        self.iq = np.asarray(self.iq, dtype=np.complex64)
        if self.iq.ndim != 2 or self.iq.shape != (len(self.labels), self.window_len):
            raise ValueError("iq array shape must be (record count, window_len)")

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
    the impairment chain and the channel as one batch, into an anonymous
    shared mapping; when ``helper.two_cpus()``, a forked helper process
    generates transmitters ``[T//2:]`` while this process generates the rest.
    """
    if not 2 <= num_transmitters <= 1 << 16:
        raise ValueError("need 2 to 65536 transmitters (labels are u16)")
    if per_tx_count < 1:
        raise ValueError("per_tx_count must be >= 1")
    if window_len < 2:
        raise ValueError("window_len must be >= 2")
    waveforms.snr_ratio(snr_db)

    shape = (num_transmitters, per_tx_count, window_len)
    iq = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.complex64).reshape(shape)

    @np.errstate(over="ignore")
    def work(task: bytes, t: int, txs: range) -> None:
        for tx in txs:
            profile = waveforms.synth_transmitter_profile(master_seed, tx)
            symbols, normals = waveforms.record_draws(master_seed, tx, per_tx_count, window_len)
            wf = waveforms.apply_fingerprint(profile, symbols, normals[0])
            iq[tx] = waveforms.add_awgn(wf, snr_db, normals[1:])

    fork = helper.two_cpus()
    cut = num_transmitters // 2 if fork else num_transmitters
    with helper.tasks(work, (range(cut),), (range(cut, num_transmitters),), fork,
                      "dataset", "generation") as run:
        run(b"G", 0)
    # a float32 overflow writes inf samples, which read_dataset would reject
    if not np.isfinite(iq).all():
        raise ValueError(f"snr_db {snr_db} puts samples beyond the float32 range")
    return DatasetFile(
        num_transmitters=num_transmitters,
        window_len=window_len,
        labels=np.repeat(np.arange(num_transmitters), per_tx_count),
        iq=iq.reshape(-1, window_len),
    )


def _record_dtype(window_len: int) -> np.dtype:
    return np.dtype([("label", "<u2"), ("iq", "<c8", (window_len,))])


def write_dataset(ds: DatasetFile, path) -> None:
    records = np.empty(len(ds), dtype=_record_dtype(ds.window_len))
    records["label"] = ds.labels
    records["iq"] = ds.iq
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, ds.num_transmitters, ds.window_len, len(ds)))
        f.write(records.data)


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
    if num_tx > 1 << 16:
        raise BadHeaderError(
            f"header declares {num_tx} transmitters, at most 65536 (labels are u16)"
        )
    if window_len < 2:
        raise BadHeaderError(f"header declares window_len {window_len}, need at least 2")
    rec_dtype = _record_dtype(window_len)
    found = len(data) - _HEADER.size
    expected = count * rec_dtype.itemsize
    if found < expected:
        raise TruncatedFileError(
            f"record section truncated: expected {expected} bytes, found {found}"
        )
    if found > expected:
        raise DatasetFormatError("trailing bytes after final record")
    records = np.frombuffer(data, dtype=rec_dtype, count=count, offset=_HEADER.size)
    labels = records["label"]
    bad = labels >= num_tx
    if bad.any():
        row = int(np.argmax(bad))
        raise BadRecordError(
            f"record {row} has label {labels[row]}, but the header declares "
            f"{num_tx} transmitters"
        )
    # the field sits 2 bytes into each record: copy it once, aligned and native
    iq = records["iq"].astype(np.complex64)
    bad = ~np.isfinite(iq.view(np.float32)).all(axis=1)
    if bad.any():
        raise BadRecordError(f"record {int(np.argmax(bad))} has a non-finite sample")
    return DatasetFile(
        num_transmitters=num_tx,
        window_len=window_len,
        labels=labels.astype(np.uint16),
        iq=iq,
    )
