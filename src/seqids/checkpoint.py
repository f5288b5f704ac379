"""Deterministic binary checkpoints: named arrays plus a JSON metadata block.

Layout (all integers little-endian):

    bytes 0..7    magic ``b"SEQIDS\\x00\\x01"`` (last byte = format version)
    bytes 8..15   uint64 header length in bytes
    header        UTF-8 JSON: {"dtype", "arrays": [{"name", "shape",
                  "offset", "count"}...], "meta": {...}}
    payload       raw array data, concatenated in header order

The writer sorts keys and avoids timestamps, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InputError

MAGIC = b"SEQIDS\x00\x01"
FORMAT_VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    names = list(arrays)
    dtype = np.dtype(np.float64)
    if names:
        dtype = np.result_type(*[arrays[n].dtype for n in names])
    entries = []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(arrays[name], dtype=dtype)
        entries.append({"name": name, "shape": list(arr.shape),
                        "offset": offset, "count": int(arr.size)})
        offset += arr.size
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "dtype": dtype.name,
         "arrays": entries, "meta": meta},
        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header).to_bytes(8, "little"))
        fh.write(header)
        for name in names:
            fh.write(np.ascontiguousarray(arrays[name], dtype=dtype)
                     .tobytes(order="C"))


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
    dtype = np.dtype(header["dtype"])
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
