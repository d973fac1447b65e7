"""Binary checkpoint container for named float64 parameter arrays.

Layout (all integers little-endian unsigned 32-bit, values little-endian
float64, no padding):

    magic   4 bytes  b"AGCP"
    version u32      currently 3 (versions 1 and 2 stored the LSTM one tensor
                     per gate; version 1 also the unused graph.bias)
    count   u32      number of parameters
    then per parameter, in ascending name order:
        name_len u32
        name     UTF-8 bytes
        ndim     u32
        dims     u32 * ndim
        data     f64 * prod(dims), row-major

Writing the same parameter dict always produces identical bytes, so file
hashes double as reproducibility checks. Training never stores a NaN or an
infinity, so a file that holds one is refused.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataError

MAGIC = b"AGCP"
VERSION = 3


def save_checkpoint(path, params: dict) -> None:
    """``params`` maps names to arrays or Tensors (anything with ``values``)."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(params)))
        for name in sorted(params):
            arr = params[name]
            values = np.asarray(getattr(arr, "values", arr), dtype=np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", values.ndim))
            fh.write(struct.pack(f"<{values.ndim}I", *values.shape))
            fh.write(values.astype("<f8").tobytes(order="C"))


def load_checkpoint(path) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    try:
        return _parse(data, path)
    except (struct.error, ValueError) as exc:
        raise DataError(f"{path}: truncated or corrupt checkpoint: {exc}") from exc


def _parse(data: bytes, path) -> dict:
    version, count = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise DataError(f"{path}: checkpoint version {version}, this program reads "
                        f"version {VERSION}; rerun train")
    out = {}
    offset = 12
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", data, offset)
        offset += 4
        name = data[offset:offset + name_len].decode("utf-8")
        offset += name_len
        (ndim,) = struct.unpack_from("<I", data, offset)
        offset += 4
        shape = struct.unpack_from(f"<{ndim}I", data, offset)
        offset += 4 * ndim
        n = int(np.prod(shape)) if ndim else 1
        values = np.frombuffer(data, dtype="<f8", count=n, offset=offset).reshape(shape)
        offset += 8 * n
        if not np.all(np.isfinite(values)):
            raise DataError(f"{path}: parameter {name} holds a non-finite value; rerun train")
        out[name] = values.astype(np.float64)
    if offset != len(data):
        raise DataError(f"{path}: {len(data) - offset} trailing bytes")
    return out
