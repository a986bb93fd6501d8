"""The one decoder and typed reader of the JSON documents the program reads:
the run config, the geometry fixture and the checkpoint header.

A field table lists each field's (name, JSON kind, default).  A kind is
``bool``, ``int``, ``float``, ``str``, ``dict`` (an object), ``list[str]``,
``list[dict]`` or ``object`` (any JSON value).
"""

from __future__ import annotations

import json
import math

REQUIRED = object()  # the default of a field that must be present
_ABSENT = object()
_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
          dict: "an object", list[str]: "a list of strings", list[dict]: "a list of objects"}


def _fits(value, kind) -> bool:
    """Whether ``value`` has JSON kind ``kind``: bools are never numbers, and a
    float field takes any number."""
    if type(value) is kind or kind is object:
        return True
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float))
    if kind in (list[str], list[dict]):
        return isinstance(value, list) and all(isinstance(v, kind.__args__) for v in value)
    return isinstance(value, kind)


def read_json(raw: bytes, error, what: str):
    """The JSON value that strict-UTF-8 ``raw`` holds, else ``error(f"{what}: {reason}")``."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, a huge integer, a deep nest
        raise error(f"{what}: {exc}") from exc


def read_fields(doc: dict, fields, where: str, error, required: bool = False) -> dict:
    """Each field of ``fields`` in ``doc``, checked against its kind, as a new dict.

    An absent field takes its default, unless it has none or ``required`` is
    set; a field whose default is None may be null.  A float field's value
    is stored as a finite float, and a key no field names is rejected.  A
    failure raises ``error(message)``, naming the field as ``where + name``.
    """
    values = {}
    for name, kind, default in fields:
        value = doc.get(name, _ABSENT)
        if value is _ABSENT:
            if default is REQUIRED or required:
                raise error(f"missing required field {where}{name}")
            value = default
        elif value is None and default is None:
            pass
        elif not _fits(value, kind):
            raise error(f"{where}{name} must be {_KINDS[kind]}, got {type(value).__name__}")
        elif kind is float:
            try:
                value = float(value)
            except OverflowError:
                raise error(f"{where}{name} is out of float range") from None
            if not math.isfinite(value):
                raise error(f"{where}{name} must be a finite number, got {value}")
        values[name] = value
    if not doc.keys() <= values.keys():
        raise error(f"unknown field {where}{min(doc.keys() - values.keys())}")
    return values
