"""Timing wrappers installed from outside the program.

The tracer replaces a function on every module attribute that holds it,
because callers look functions up in their own module's namespace: a name
imported into several modules is wrapped in each.  A method is wrapped on
its class.  Each call then appends a span ``[name, tag, start, end,
parent]`` to an in-memory list; nothing is written until the run ends.

A target that no longer exists is recorded in ``Tracer.missing`` and
reported by the benchmark, never skipped silently.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One function to time.

    ``name`` is ``<module>.<function>`` or ``<module>.<Class>.<method>``,
    relative to the package.  ``tag`` maps the call's ``(args, kwargs)`` to
    a sub-key recorded with the span (for example the adapter family).
    ``observe`` runs after the call as ``observe(tracer, args, kwargs,
    result)`` and may update ``tracer.counters`` or ``tracer.captured``.
    """

    name: str
    tag: Optional[Callable] = None
    observe: Optional[Callable] = None


class Tracer:
    def __init__(self, package: str = "talklora"):
        self.package = package
        self.spans: list = []
        self.counters: dict = {}
        self.captured: list = []
        self.missing: list = []
        self._stack: list = []
        self._undo: list = []

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block, then restore."""
        try:
            for target in targets:
                self._install(target)
            yield self
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()

    def _install(self, target: Target) -> None:
        module_name, _, path = target.name.partition(".")
        try:
            owner = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            self.missing.append(target.name)
            return
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if not callable(original):
            self.missing.append(target.name)
            return
        wrapper = self._wrap(target, original)
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            sites = [
                (module, key)
                for module in self._package_modules()
                for key, value in list(vars(module).items())
                if value is original
            ]
        for site, key in sites:
            self._undo.append((site, key, getattr(site, key)))
            setattr(site, key, wrapper)

    def _package_modules(self) -> list:
        prefix = self.package + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def _wrap(self, target: Target, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, tag, observe = target.name, target.tag, target.observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, tag(args, kwargs) if tag else None, 0.0, 0.0,
                      stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper


def write_spans(path, tracers) -> int:
    """Write the spans of several tracers to one CSV; returns the row count."""
    rows = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["pass", "index", "name", "tag", "start_s", "end_s", "parent"])
        for label, tracer in tracers:
            for i, (name, tag, start, end, parent) in enumerate(tracer.spans):
                out.writerow([label, i, name, tag or "", repr(start), repr(end), parent])
                rows += 1
    return rows
