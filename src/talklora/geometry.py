"""Host-model geometries used for parameter accounting.

A geometry records the per-projection input/output dimensions and the
total parameter count of a published transformer, loaded from small JSON
fixture files.  Bundled fixtures cover Qwen2.5-7B, LLaMA2-7B and
LLaMA3-8B, and :func:`bundled_geometry` alone resolves their names; each
carries a ``source`` note naming where the values come from (public model
cards / config files).  Each rule on a geometry names its field.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ._fields import REQUIRED, read_fields, read_json

BUNDLED_GEOMETRIES = ("llama3-8b", "llama2-7b", "qwen2.5-7b")


@dataclass(frozen=True)
class Projection:
    tag: str
    d_in: int
    d_out: int


@dataclass(frozen=True)
class ModelGeometry:
    name: str
    total_params: int
    layers: int
    projections: tuple[Projection, ...]

    def __post_init__(self):
        for i, p in enumerate(self.projections):
            if p.tag in (q.tag for q in self.projections[:i]):
                raise ValueError(f"projections repeats tag {p.tag!r}")
            for field, value in (("d_in", p.d_in), ("d_out", p.d_out)):
                if value < 1:
                    raise ValueError(f"projections[{i}].{field} must be positive, got {value}")
        for field, value in (("total_params", self.total_params), ("layers", self.layers)):
            if value < 1:
                raise ValueError(f"{field} must be positive, got {value}")


_FIXTURE_FIELDS = (("name", str, REQUIRED), ("total_params", int, REQUIRED),
                   ("layers", int, REQUIRED), ("projections", list[dict], REQUIRED),
                   ("source", str, None))
_PROJECTION_FIELDS = (("tag", str, REQUIRED), ("d_in", int, REQUIRED), ("d_out", int, REQUIRED))


def _bad_fixture(message: str) -> ValueError:
    return ValueError(f"geometry fixture {message}")


def _read_fixture(raw: bytes, name) -> ModelGeometry:
    """Build a geometry from the bytes of fixture ``name``, checking every field's type."""
    doc = read_json(raw, _bad_fixture, f"{name} is not valid JSON")
    if not isinstance(doc, dict):
        raise _bad_fixture(f"must be an object, got {type(doc).__name__}")
    fields = read_fields(doc, _FIXTURE_FIELDS, "", _bad_fixture)
    projections = tuple(
        Projection(**read_fields(p, _PROJECTION_FIELDS, f"projections[{i}].", _bad_fixture))
        for i, p in enumerate(fields["projections"])
    )
    try:
        return ModelGeometry(fields["name"], fields["total_params"], fields["layers"], projections)
    except ValueError as exc:
        raise _bad_fixture(str(exc)) from exc


def load_geometry(path: str | Path) -> ModelGeometry:
    """Load a geometry fixture from a JSON file."""
    return _read_fixture(Path(path).read_bytes(), path)


def bundled_geometry(name: str) -> ModelGeometry:
    """Load one of the geometries shipped with the package, named as in
    ``BUNDLED_GEOMETRIES`` in any case and with ``_`` for ``-``; any other
    string raises KeyError."""
    key = name.lower().replace("_", "-")
    if key not in BUNDLED_GEOMETRIES:
        raise KeyError(f"no bundled geometry {name!r}; "
                       f"available: {', '.join(BUNDLED_GEOMETRIES)}")
    ref = resources.files("talklora.fixtures").joinpath(key + ".json")
    return _read_fixture(ref.read_bytes(), f"{key}.json")
