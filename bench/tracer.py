"""In-memory span tracer that wraps library functions from the outside.

Every public module-level function of the traced package is replaced, at
every module attribute that binds it, by a wrapper that records a span:
its name, start, end and the span that was open when it was called. A
function imported by name into another module (``from .covariance import
cost_gradient``) is bound there as well, so all of its callers are seen.
``uninstall`` puts the original objects back.

Only the standard library is used, so the tracer adds no dependency to
the program it measures.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: dict | None = None


class Tracer:
    """Records nested spans; a span's self time is its duration minus the
    durations of its direct children."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        index = len(self.spans)
        record = Span(name, 0.0, stack[-1] if stack else None)
        self.spans.append(record)
        stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, probe=None):
        """Wrapper of ``fn`` that records a span; ``probe(args, kwargs,
        result)`` may return a dict stored as the span's attributes."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if probe is not None:
                record.attrs = probe(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------
    def install(self, package: str, probes: dict | None = None) -> list[str]:
        """Wrap every public function defined in a submodule of ``package``.

        Span names are ``<submodule>.<function>``. ``probes`` maps a span
        name to a probe (see ``wrap``). Returns the span names installed.
        """
        probes = probes or {}
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == package or name.startswith(package + "."))}
        wrappers: dict[int, tuple[object, object]] = {}
        names = []
        for mod_name, mod in modules.items():
            short = mod_name[len(package) + 1:]
            if not short:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod_name):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(name, obj, probes.get(name)))
                names.append(name)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.patch(mod, attr, hit[1])
        return names

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until ``uninstall``."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def parent_name(self, span: Span) -> str | None:
        return None if span.parent is None else self.spans[span.parent].name

    def dump(self, path) -> None:
        """Write all spans as one JSON document (times relative to the
        first span)."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, **({"attrs": s.attrs} if s.attrs else {})}
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)
