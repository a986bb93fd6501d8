"""Host-model geometries used for parameter accounting.

A geometry records the per-projection input/output dimensions and the
total parameter count of a published transformer, loaded from small JSON
fixture files.  Bundled fixtures cover Qwen2.5-7B, LLaMA2-7B and
LLaMA3-8B; each fixture carries a ``source`` note naming where the values
come from (public model cards / config files).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ._fields import REQUIRED, read_fields

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
        tags = [p.tag for p in self.projections]
        if len(set(tags)) != len(tags):
            raise ValueError(f"duplicate projection tags in geometry {self.name!r}")
        for p in self.projections:
            if p.d_in < 1 or p.d_out < 1:
                raise ValueError(f"projection {p.tag!r} has non-positive dims")
        if self.total_params < 1 or self.layers < 1:
            raise ValueError("total_params and layers must be positive")

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(p.tag for p in self.projections)

    def projection(self, tag: str) -> Projection:
        for p in self.projections:
            if p.tag == tag:
                return p
        raise KeyError(f"geometry {self.name!r} has no projection {tag!r}")


_FIXTURE_FIELDS = (("name", str, REQUIRED), ("total_params", int, REQUIRED),
                   ("layers", int, REQUIRED), ("projections", list[dict], REQUIRED),
                   ("source", str, None))
_PROJECTION_FIELDS = (("tag", str, REQUIRED), ("d_in", int, REQUIRED), ("d_out", int, REQUIRED))


def _bad_fixture(message: str) -> ValueError:
    return ValueError(f"geometry fixture {message}")


def geometry_from_dict(doc: dict) -> ModelGeometry:
    """Build a geometry from a parsed fixture document, checking every field's type."""
    if not isinstance(doc, dict):
        raise _bad_fixture(f"must be an object, got {type(doc).__name__}")
    fields = read_fields(doc, _FIXTURE_FIELDS, "", _bad_fixture)
    projections = tuple(
        Projection(**read_fields(p, _PROJECTION_FIELDS, f"projections[{i}].", _bad_fixture))
        for i, p in enumerate(fields["projections"])
    )
    return ModelGeometry(fields["name"], fields["total_params"], fields["layers"], projections)


def load_geometry(path: str | Path) -> ModelGeometry:
    """Load a geometry fixture from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return geometry_from_dict(json.load(fh))


def bundled_geometry(name: str) -> ModelGeometry:
    """Load one of the geometries shipped with the package."""
    fname = name.lower().replace("_", "-") + ".json"
    ref = resources.files("talklora.fixtures").joinpath(fname)
    if not ref.is_file():
        raise KeyError(
            f"no bundled geometry {name!r}; available: {', '.join(BUNDLED_GEOMETRIES)}"
        )
    return geometry_from_dict(json.loads(ref.read_text(encoding="utf-8")))
