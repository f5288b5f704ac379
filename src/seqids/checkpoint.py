"""Deterministic binary checkpoints: named arrays plus a JSON metadata block.

Layout (all integers little-endian):

    bytes 0..7    magic ``b"SEQIDS\\x00\\x01"`` (last byte = format version)
    bytes 8..15   uint64 header length in bytes
    header        UTF-8 JSON: {"format_version", "dtype", "arrays": [{"name",
                  "shape", "offset", "count"}...], "meta": {...}}
    payload       raw array data, concatenated in header order

The writer sorts keys and avoids timestamps, so identical inputs produce
byte-identical files. The reader validates the header's keys, types and
version and each entry's shape against its count, and raises ``InputError``
naming the file.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import InputError

MAGIC = b"SEQIDS\x00\x01"
FORMAT_VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write into a temporary file beside ``path``, then rename it over
    ``path``, so a failed write leaves any earlier checkpoint intact."""
    names = list(arrays)
    dtype = np.dtype(np.float64)
    if names:
        dtype = np.result_type(*[arrays[n].dtype for n in names])
    entries = []
    offset = 0
    for name in names:
        arr = np.asarray(arrays[name], dtype=dtype)
        entries.append({"name": name, "shape": list(arr.shape),
                        "offset": offset, "count": int(arr.size)})
        offset += arr.size
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "dtype": dtype.name,
         "arrays": entries, "meta": meta},
        sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for name in names:
                fh.write(np.ascontiguousarray(arrays[name], dtype=dtype).data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _header_dtype(path, header) -> np.dtype:
    """Check a parsed header's keys, types, version and entries; return its dtype."""
    try:
        dtype, meta = np.dtype(header["dtype"]), header["meta"]
        if header["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {header['format_version']!r}")
        bad = [e for e in header["arrays"] if not (
            isinstance(e["name"], str)
            and all(type(n) is int and n >= 0 for n in [e["offset"], e["count"], *e["shape"]])
            and math.prod(e["shape"]) == e["count"])]
        if bad or dtype.kind not in "biufc" or not isinstance(meta, dict):
            raise ValueError(f"dtype {dtype}, meta type {type(meta).__name__}, bad entries {bad}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed checkpoint header: {exc!r}") from None
    return dtype


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    raw = Path(path).read_bytes()
    if raw[:len(MAGIC)] != MAGIC:
        raise InputError(f"{path}: not a seqids checkpoint (bad magic)")
    hlen = int.from_bytes(raw[len(MAGIC):len(MAGIC) + 8], "little")
    start = len(MAGIC) + 8
    if start + hlen > len(raw):
        raise InputError(f"{path}: truncated checkpoint: the {hlen}-byte header runs past "
                         f"the end of the {len(raw)}-byte file")
    try:
        header = json.loads(raw[start:start + hlen].decode("utf-8"))
    except ValueError as exc:
        raise InputError(f"{path}: checkpoint header is not valid JSON ({exc})") from None
    dtype = _header_dtype(path, header)
    payload = raw[start + hlen:]
    needed = max((e["offset"] + e["count"] for e in header["arrays"]), default=0)
    if len(payload) < needed * dtype.itemsize:
        raise InputError(f"{path}: truncated checkpoint: the payload holds "
                         f"{len(payload) // dtype.itemsize} values, its arrays need {needed}")
    payload = np.frombuffer(payload, dtype=dtype, count=needed)
    arrays = {}
    for entry in header["arrays"]:
        chunk = payload[entry["offset"]:entry["offset"] + entry["count"]]
        arrays[entry["name"]] = chunk.reshape(entry["shape"]).copy()
    return arrays, header["meta"]
