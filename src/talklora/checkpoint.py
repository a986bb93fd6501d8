"""Binary checkpoints: bit-exact save/load of an adapter stack.

Layout: magic bytes ``TLKL``, little-endian u32 format version, u32 header
length, a JSON header, then raw tensor payloads in header order.  Each
tensor is stored as little-endian float64 row-major bytes with a CRC-32
recorded in the header; shared B matrices are stored once, and an alias
table maps every layer-level view onto its shared handle so loading
restores the aliasing exactly.

Only trainable tensors are stored, and only finite ones: a stack holding
NaN or infinity is not saved, and a payload holding one is corrupt.  The
frozen host model and datasets are regenerated from the echoed run
configuration (everything is seeded), which keeps checkpoints small and
still bit-reproducible.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from ._fields import REQUIRED, read_fields
from .adapters import (
    ADAPTER_FIELDS, AdapterConfig, AdapterStack, LayerSlot, alias_table, stack_layout,
)
from .linalg import _all_finite

MAGIC = b"TLKL"
FORMAT_VERSION = 1
_PREFIX = struct.Struct("<4sII")  # magic, format version, header length
_HEADER_FIELDS = (("format_version", int, REQUIRED), ("run_config", object, REQUIRED),
                  ("method", str, REQUIRED), ("adapter_config", dict, REQUIRED),
                  ("slots", list[dict], REQUIRED), ("tensors", list[dict], REQUIRED),
                  ("alias_table", dict, REQUIRED))
_SLOT_FIELDS = (("layer", int, REQUIRED), ("tag", str, REQUIRED), ("d_in", int, REQUIRED),
                ("d_out", int, REQUIRED))
_RECORD_FIELDS = (("handle", str, REQUIRED), ("rows", int, REQUIRED), ("cols", int, REQUIRED),
                  ("crc32", int, REQUIRED))


class CorruptCheckpointError(Exception):
    """Bad magic, an unsupported format version, malformed header, checksum
    mismatch, or a non-finite payload."""


def encode_checkpoint(stack: AdapterStack, run_config: dict) -> list:
    """The checkpoint file of ``stack`` in pieces: prefix, header, then each tensor.

    Each tensor is a little-endian float64 C-order array, the parameter
    view itself where it is one already, so encoding copies no payload.
    """
    arrays = [(handle, np.ascontiguousarray(arr, dtype="<f8"))
              for handle, arr in stack.named_parameters()]
    records = [
        {"handle": handle, "rows": int(arr.shape[0]), "cols": int(arr.shape[1]),
         "crc32": zlib.crc32(arr) & 0xFFFFFFFF}
        for handle, arr in arrays
    ]
    header = {
        "format_version": FORMAT_VERSION,
        "run_config": run_config,
        "method": stack.method,
        "adapter_config": {name: getattr(stack.cfg, name) for name, _, _ in ADAPTER_FIELDS},
        "slots": [{"layer": s.layer, "tag": s.tag, "d_in": s.d_in, "d_out": s.d_out}
                  for s in stack.slots],
        "tensors": records,
        "alias_table": alias_table(stack.layout),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = _PREFIX.pack(MAGIC, FORMAT_VERSION, len(header_bytes))
    return [prefix, header_bytes, *(arr for _, arr in arrays)]


def _check_finite(stack: AdapterStack, error) -> None:
    """Raise ``error`` naming the first tensor that holds NaN or infinity.
    Reads ``flat`` once, and each tensor only when ``flat`` is not finite."""
    if not _all_finite(stack.flat):
        handle = next(handle for handle, arr in stack.named_parameters() if not _all_finite(arr))
        raise error(f"tensor {handle!r} holds a non-finite value")


def save_checkpoint(path, stack: AdapterStack, run_config: dict) -> None:
    """Write the pieces :func:`encode_checkpoint` gives to ``path``; a stack
    with a non-finite tensor raises ValueError before the file is opened."""
    _check_finite(stack, ValueError)
    with open(path, "wb") as fh:
        fh.writelines(encode_checkpoint(stack, run_config))


def _malformed(message: str) -> CorruptCheckpointError:
    return CorruptCheckpointError(f"malformed header: {message}")


def _read_header(fh) -> dict:
    """Read the fixed prefix and the JSON header, leaving ``fh`` at the payloads.

    Checks the kind of every field, down to each slot's and tensor record's,
    so every reader of a header can index it without further checks.
    """
    prefix = fh.read(_PREFIX.size)
    if prefix[:4] != MAGIC:
        raise CorruptCheckpointError(
            f"bad magic bytes {prefix[:4]!r} in {Path(fh.name).name}"
        )
    if len(prefix) != _PREFIX.size:
        raise CorruptCheckpointError("truncated file: incomplete fixed-size prefix")
    _, version, header_len = _PREFIX.unpack(prefix)
    if version != FORMAT_VERSION:
        raise CorruptCheckpointError(
            f"checkpoint format version {version} does not match supported "
            f"version {FORMAT_VERSION}"
        )
    raw = fh.read(header_len)
    if len(raw) != header_len:
        raise CorruptCheckpointError("truncated header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpointError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise _malformed(f"the header must be an object, got {type(header).__name__}")
    header = read_fields(header, _HEADER_FIELDS, "", _malformed)
    if header["format_version"] != version:
        raise _malformed(f"format_version {header['format_version']} does not match "
                         f"the prefix's version {version}")
    header["adapter_config"] = read_fields(
        header["adapter_config"], ADAPTER_FIELDS, "adapter_config.", _malformed, required=True
    )
    for name, fields in (("slots", _SLOT_FIELDS), ("tensors", _RECORD_FIELDS)):
        header[name] = [read_fields(doc, fields, f"{name}[{i}].", _malformed)
                        for i, doc in enumerate(header[name])]
    return header


def read_header(path) -> dict:
    """Parse and return the JSON header without loading tensor payloads."""
    with open(path, "rb") as fh:
        return _read_header(fh)


def _check_layout(header: dict, payload_bytes: int) -> tuple:
    """The header's adapter config, slots and layout, checked before anything
    is allocated.

    Method, config and slots imply every tensor's handle and shape and the
    alias table (:func:`stack_layout`, which also checks each slot's dims).
    The records must list exactly those handles and shapes in order, the
    alias table must be the implied one, and the records must account for
    every payload byte.  The walk stops at the first implied handle that no
    record matches, so a forged size is reported here, not by a failed
    allocation of the size it names.
    """
    cfg = AdapterConfig(**header["adapter_config"])
    slots = [LayerSlot(**slot) for slot in header["slots"]]
    records = [(rec["handle"], (rec["rows"], rec["cols"])) for rec in header["tensors"]]
    sites, i = [], 0
    for site in stack_layout(header["method"], cfg, slots):
        sites.append(site)
        for _, handle, shape in site.handles() if site.first else ():
            if i == len(records) or records[i] != (handle, shape):
                found = " ".join(map(str, records[i])) if i < len(records) else "missing"
                raise CorruptCheckpointError(
                    f"slot {site.slot.name} (d_in {site.slot.d_in}, d_out {site.slot.d_out}) at "
                    f"total_rank {cfg.total_rank} and {cfg.experts} experts implies {handle} "
                    f"{shape}, but tensor record {i} is {found}"
                )
            i += 1
    if len(records) > i:
        raise CorruptCheckpointError(f"tensor record {i} is not implied by the slots")
    if header["alias_table"] != alias_table(sites):
        raise CorruptCheckpointError("alias table does not match the one the slots imply")
    recorded = 8 * sum(math.prod(shape) for _, shape in records)
    if recorded != payload_bytes:
        problem = "truncated payload" if payload_bytes < recorded else "trailing bytes"
        raise CorruptCheckpointError(
            f"{problem}: the tensor records hold {recorded} bytes, "
            f"the file {payload_bytes} after the header"
        )
    return cfg, slots, sites


def load_checkpoint(path) -> tuple[AdapterStack, dict]:
    """Read the payloads into a new ``flat`` and build the stack on it.

    The records are in buffer order, so once :func:`_check_layout` has
    checked them, the whole payload is read into ``flat`` in one pass and
    each record's CRC-32 is checked over its own slice.  The stack adopts
    that buffer; nothing is drawn, and the roundtrip is bit-identical.  A
    header with a missing, ill-typed or rejected field, or a payload that
    holds NaN or infinity, is reported as corrupt.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh)
        payload_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        try:
            cfg, slots, layout = _check_layout(header, payload_bytes)
        except ValueError as exc:  # a value the config or the layout walk rejects
            raise _malformed(str(exc)) from exc
        flat = np.empty(payload_bytes // 8, dtype="<f8")
        if fh.readinto(flat) != payload_bytes:
            raise CorruptCheckpointError("truncated payload: the file shrank while it was read")
    start = 0
    for rec in header["tensors"]:
        stop = start + rec["rows"] * rec["cols"]
        if (zlib.crc32(flat[start:stop]) & 0xFFFFFFFF) != rec["crc32"]:
            raise CorruptCheckpointError(f"checksum mismatch for tensor {rec['handle']!r}")
        start = stop
    flat = flat.astype(np.float64, copy=False)  # a no-op on little-endian hosts
    stack = AdapterStack(header["method"], cfg, slots, layout, flat)
    _check_finite(stack, CorruptCheckpointError)
    return stack, header["run_config"]
