"""Deterministic binary checkpoints: named arrays, each in its own dtype, plus
a JSON metadata block.

Layout, format 2 (integers little-endian):

    bytes 0..7    magic ``b"SEQIDS\\x00\\x02"`` (the last byte is the format version)
    bytes 8..15   uint64 header length in bytes
    header        UTF-8 JSON: {"arrays": [name, ...], "meta": {...}}
    records       one ``.npy`` record per name, in header order, as
                  ``numpy.lib.format.write_array`` writes it (NEP 1): each
                  record holds its array's dtype, shape and data

The writer sorts keys and avoids timestamps, so identical inputs produce
byte-identical files. The reader takes numeric arrays only, never a pickle;
a malformed header or record, or a file of another format version (format 1
stored one dtype and an offset table; retrain to replace it), is an
``InputError`` naming the file.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from .errors import InputError

MAGIC = b"SEQIDS\x00\x02"


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write into a temporary file beside ``path``, then rename it over
    ``path``, so a failed write leaves any earlier checkpoint intact."""
    header = json.dumps({"arrays": list(arrays), "meta": meta},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for a in arrays.values():
                npy.write_array(fh, np.asarray(a), allow_pickle=False)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    fh = io.BytesIO(Path(path).read_bytes())
    magic = fh.read(len(MAGIC))
    if magic[:-1] != MAGIC[:-1]:
        raise InputError(f"{path}: not a seqids checkpoint (bad magic)")
    if magic != MAGIC:
        raise InputError(f"{path}: checkpoint format {magic[-1]}, but this version reads format "
                         f"{MAGIC[-1]} only: retrain to write a new checkpoint")
    hlen = int.from_bytes(fh.read(8), "little")
    text = fh.read(hlen)
    try:
        header = json.loads(text)
        names, meta = header["arrays"], header["meta"]
        if type(meta) is not dict or type(names) is not list or {type(n) for n in names} - {str}:
            raise TypeError(f"meta {type(meta).__name__}, array names {names!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed checkpoint header ({len(text)} of its {hlen} bytes "
                         f"read): {exc!r}") from None
    arrays = {}
    for name in names:
        try:
            arrays[name] = npy.read_array(fh, allow_pickle=False)
            if arrays[name].dtype.kind not in "biufc":
                raise ValueError(f"dtype {arrays[name].dtype} is not numeric")
        except (ValueError, OverflowError, MemoryError) as exc:  # MemoryError: a huge shape
            raise InputError(f"{path}: array {name!r}: bad npy record: {exc!r}") from None
    return arrays, meta
