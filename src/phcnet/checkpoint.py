"""Binary checkpoint files.

Layout: the magic bytes ``PHCK1\\n``, an 8-byte little-endian header
length, a UTF-8 JSON header, then the raw little-endian tensor payloads
back to back.  The header carries the format version, the model config and
a tensor index mapping each dotted name to dtype, shape, byte offset and
byte length.  Serialization is canonical (sorted names, compact JSON), so
save -> load -> save reproduces files bit for bit.  Loading rejects a
tensor with a value that is not finite, and a batch-norm ``running_var``
with a negative entry, so a damaged file fails here and not in a model.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import CheckpointError

MAGIC = b"PHCK1\n"
FORMAT_VERSION = 1

_DTYPES = {"float32": "<f4", "float64": "<f8"}


def save(path, state: dict[str, np.ndarray], model_config: dict) -> None:
    index = {}
    payloads = []
    offset = 0
    for name in sorted(state):
        arr = np.ascontiguousarray(state[name])
        dtype = arr.dtype.name
        if dtype not in _DTYPES:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        raw = arr.astype(_DTYPES[dtype], copy=False).tobytes()
        index[name] = {
            "dtype": dtype,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
        }
        payloads.append(raw)
        offset += len(raw)
    header = json.dumps(
        {
            "format-version": FORMAT_VERSION,
            "model-config": model_config,
            "tensors": index,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for raw in payloads:
            fh.write(raw)


def _tensor(path, name, meta, payload) -> np.ndarray:
    """One tensor of the payload, after checking every field of its entry."""
    fields = ("dtype", "shape", "offset", "nbytes")
    if not isinstance(meta, dict) or not all(k in meta for k in fields):
        raise CheckpointError(f"{path}: tensor {name!r} lacks dtype, shape, offset or nbytes")
    dtype, shape, offset, nbytes = (meta[k] for k in fields)
    if dtype not in tuple(_DTYPES) or not isinstance(shape, list) or not all(
            type(v) is int and v >= 0 for v in (*shape, offset, nbytes)):
        raise CheckpointError(f"{path}: tensor {name!r} bad dtype, shape, offset or nbytes")
    raw = payload[offset : offset + nbytes]
    if len(raw) != nbytes or nbytes != math.prod(shape) * np.dtype(_DTYPES[dtype]).itemsize:
        raise CheckpointError(f"{path}: tensor {name!r} truncated or not of shape {shape}")
    arr = np.frombuffer(raw, dtype=_DTYPES[dtype]).reshape(shape).astype(dtype)
    if not np.isfinite(arr).all():
        raise CheckpointError(f"{path}: tensor {name!r} holds a value that is not finite")
    if name.endswith(".running_var") and (arr < 0).any():
        raise CheckpointError(f"{path}: tensor {name!r} holds a negative variance")
    return arr


def load(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:len(MAGIC)]!r}")
    start = len(MAGIC) + 8
    if len(raw) < start:
        raise CheckpointError(f"{path}: truncated before the header length")
    (hlen,) = struct.unpack_from("<Q", raw, len(MAGIC))
    if len(raw) < start + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[start : start + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format-version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: not a format version {FORMAT_VERSION} header")
    tensors, config = header.get("tensors"), header.get("model-config")
    if not isinstance(tensors, dict) or not isinstance(config, dict):
        raise CheckpointError(f"{path}: header lacks the tensors or model-config object")
    payload = memoryview(raw)[start + hlen :]
    return {name: _tensor(path, name, meta, payload) for name, meta in tensors.items()}, config
