"""Binary checkpoints: bit-exact save/load of an adapter stack.

Layout: magic bytes ``TLKL``, little-endian u32 format version, u32 header
length, a JSON header, then raw tensor payloads in header order.  Each
tensor is stored as little-endian float64 row-major bytes with a CRC-32
recorded in the header; shared B matrices are stored once, and an alias
table maps every layer-level view onto its shared handle so loading
restores the aliasing exactly.

Only trainable tensors are stored.  The frozen host model and datasets
are regenerated from the echoed run configuration (everything is seeded),
which keeps checkpoints small and still bit-reproducible.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .adapters import AdapterConfig, AdapterStack, LayerSlot, build_stack_from_slots
from .linalg import RngState

MAGIC = b"TLKL"
FORMAT_VERSION = 1
_PREFIX = struct.Struct("<4sII")  # magic, format version, header length
_HEADER_KEYS = (
    "adapter_config", "alias_table", "format_version", "method", "run_config",
    "slots", "tensors",
)
_RECORD_FIELDS = (("handle", str), ("rows", int), ("cols", int), ("crc32", int))


class CorruptCheckpointError(Exception):
    """Bad magic, malformed header, or checksum mismatch."""


class VersionMismatchError(Exception):
    def __init__(self, found: int, expected: int):
        self.found = found
        self.expected = expected
        super().__init__(
            f"checkpoint format version {found} does not match supported "
            f"version {expected}"
        )


def config_to_dict(cfg, drop=("input_dim", "output_dim")) -> dict:
    """``asdict(cfg)`` without the fields in ``drop``.

    The default drops an adapter config's dims: they are per slot, and
    checkpoints record them on the slots.
    """
    return {key: value for key, value in asdict(cfg).items() if key not in drop}


def _alias_table(stack: AdapterStack) -> dict:
    table = {}
    for i, slot in enumerate(stack.slots):
        for role, handle, _ in stack.slot_handles(i):
            if handle.startswith("shared."):
                table[f"{slot.name}.{role}"] = handle
    return table


def save_checkpoint(path, stack: AdapterStack, run_config: dict) -> None:
    """Serialize every trainable tensor plus the structural header."""
    tensors = stack.named_parameters()
    records = []
    payloads = []
    for handle, arr in tensors:
        payload = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        records.append(
            {
                "handle": handle,
                "rows": int(arr.shape[0]),
                "cols": int(arr.shape[1]),
                "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
            }
        )
        payloads.append(payload)
    header = {
        "format_version": FORMAT_VERSION,
        "run_config": run_config,
        "method": stack.method,
        "adapter_config": config_to_dict(stack.cfg),
        "slots": [
            {"layer": s.layer, "tag": s.tag, "d_in": s.d_in, "d_out": s.d_out}
            for s in stack.slots
        ],
        "tensors": records,
        "alias_table": _alias_table(stack),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for payload in payloads:
            fh.write(payload)


def _read_header(fh) -> dict:
    """Read the fixed prefix and the JSON header, leaving ``fh`` at the payloads.

    Checks the header's fields down to the tensor records, so every reader
    of a header can index them without further checks.
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
        raise VersionMismatchError(version, FORMAT_VERSION)
    raw = fh.read(header_len)
    if len(raw) != header_len:
        raise CorruptCheckpointError("truncated header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpointError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict) or any(key not in header for key in _HEADER_KEYS):
        raise CorruptCheckpointError(f"header lacks one of the fields {_HEADER_KEYS}")
    if not isinstance(header["slots"], list) or not isinstance(header["tensors"], list):
        raise CorruptCheckpointError("malformed header: slots and tensors must be lists")
    if not isinstance(header["alias_table"], dict):
        raise CorruptCheckpointError("malformed header: alias_table must be an object")
    for i, rec in enumerate(header["tensors"]):
        if not isinstance(rec, dict) or any(
            type(rec.get(key)) is not kind for key, kind in _RECORD_FIELDS
        ):
            raise CorruptCheckpointError(
                f"malformed header: tensor record {i} needs a string handle "
                f"and integer rows, cols and crc32"
            )
    return header


def read_header(path) -> dict:
    """Parse and return the JSON header without loading tensor payloads."""
    with open(path, "rb") as fh:
        return _read_header(fh)


def _check_sizes(header: dict, cfg: AdapterConfig, slots: list, payload_bytes: int) -> None:
    """Reject a header whose sizes disagree, before anything they size is allocated.

    Each slot must be a valid low-rank site for ``cfg`` and its dims and
    rank must match its A0 and B0 records, and the records must account
    for every payload byte in the file.  So a forged dimension is caught
    here, not by a failed allocation of the size it names.
    """
    shapes = {rec["handle"]: (rec["rows"], rec["cols"]) for rec in header["tensors"]}
    rank = cfg.total_rank if header["method"] == "lora" else cfg.expert_rank
    for slot in slots:
        cfg.with_dims(slot.d_in, slot.d_out)  # positive dims, total_rank <= both
        b0 = f"{slot.name}.B0"
        found = (shapes.get(f"{slot.name}.A0"), shapes.get(header["alias_table"].get(b0, b0)))
        if found != ((rank, slot.d_in), (slot.d_out, rank)):
            raise CorruptCheckpointError(
                f"slot {slot.name} (d_in {slot.d_in}, d_out {slot.d_out}, rank {rank}) "
                f"does not match its A0 and B0 records {found}"
            )
    recorded = 8 * sum(rec["rows"] * rec["cols"] for rec in header["tensors"])
    if recorded != payload_bytes:
        problem = "truncated payload" if payload_bytes < recorded else "trailing bytes"
        raise CorruptCheckpointError(
            f"{problem}: the tensor records hold {recorded} bytes, "
            f"the file {payload_bytes} after the header"
        )


def _rebuild(header: dict, payload_bytes: int) -> tuple[AdapterStack, list]:
    """Fresh stack with the header's structure, and its (handle, shape, crc) records.

    Structure (slots, sharing) is reconstructed from the header, which
    restores the aliasing; the records must name exactly the stack's handles.
    """
    cfg = AdapterConfig(input_dim=None, output_dim=None, **header["adapter_config"])
    slots = [
        LayerSlot(s["layer"], s["tag"], s["d_in"], s["d_out"])
        for s in header["slots"]
    ]
    _check_sizes(header, cfg, slots, payload_bytes)
    stack = build_stack_from_slots(header["method"], cfg, slots, RngState(0))
    if _alias_table(stack) != header["alias_table"]:
        raise CorruptCheckpointError("alias table does not match the rebuilt stack")
    records = [
        (rec["handle"], (rec["rows"], rec["cols"]), rec["crc32"])
        for rec in header["tensors"]
    ]
    recorded = {handle for handle, _, _ in records}
    expected = set(stack.handles)
    if recorded != expected:
        raise CorruptCheckpointError(
            f"tensor handles do not match the rebuilt stack: "
            f"missing {sorted(expected - recorded)[:3]}, "
            f"unexpected {sorted(recorded - expected)[:3]}"
        )
    return stack, records


def load_checkpoint(path) -> tuple[AdapterStack, dict]:
    """Rebuild the stack and overwrite every tensor from the payloads.

    Payload bytes replace the fresh initialization of the rebuilt stack,
    so the roundtrip is bit-identical.  Every payload is checksum-validated;
    a header with missing or ill-typed fields is reported as corrupt.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh)
        payload_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        try:
            stack, records = _rebuild(header, payload_bytes)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptCheckpointError(f"malformed header: {exc!r}") from exc
        for handle, shape, crc in records:
            arr = stack.parameter(handle)
            if arr.shape != shape:
                raise CorruptCheckpointError(f"shape mismatch for tensor {handle!r}")
            payload = fh.read(arr.nbytes)
            if len(payload) != arr.nbytes:
                raise CorruptCheckpointError(f"truncated payload for tensor {handle!r}")
            if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                raise CorruptCheckpointError(f"checksum mismatch for tensor {handle!r}")
            arr[:] = np.frombuffer(payload, dtype="<f8").reshape(shape)
    return stack, header["run_config"]
