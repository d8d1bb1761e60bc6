"""In-memory span tracer that patches branchfall's public callables.

Each public function and method of the library modules is wrapped so that a
call records a span (id, parent id, name, start, end, tag).  The wrapper
replaces the callable at every place it is looked up: in its defining
module and in every module that imported it with `from .x import y`.
Methods are patched once, on their class.  Span names use the defining
module and the qualified name (`dynamics.Propagator.step_elements`), so a
call reads the same whichever module it came through.  `uninstall` puts
every original back.

The cli module is not wrapped: its own time is the `cli.main` span, opened
by the benchmark around each run, minus its library children.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

LIBRARY = (
    "qstate", "dynamics", "pointer", "branching", "mechanisms",
    "ehrenfest", "reduction", "config",
)
IMPORTERS = LIBRARY + ("cli",)

ROOT = 0  # parent id of a span opened outside any other span


class Tracer:
    """Records spans while installed; `hooks` maps span names to
    (tag, observe) pairs: tag(args) is stored on the span, observe(args,
    result, error) sees each call's outcome."""

    def __init__(self, package, hooks=None):
        self.package = package
        self.hooks = hooks or {}
        self.spans: list[tuple] = []
        self._stack = [ROOT]
        self._next_id = 1
        self._patches: list[tuple] = []

    # --- recording --------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    @contextmanager
    def span(self, name: str, tag=None):
        """A span around a block of benchmark code."""
        sid, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, tag))

    def _wrap(self, name: str, fn):
        tag, observe = self.hooks.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._enter()
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, tag(args) if tag else None))
                if observe is not None:
                    observe(args, result, error)

        return traced

    # --- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: getattr(self.package, name) for name in IMPORTERS}
        library = {f"{self.package.__name__}.{name}" for name in LIBRARY}
        wrapped = {}  # original function -> its wrapper, shared by all importers
        for mod in [self.package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in library:
                    if obj not in wrapped:
                        short = obj.__module__.rsplit(".", 1)[1]
                        wrapped[obj] = self._wrap(f"{short}.{obj.__qualname__}", obj)
                    self._set(mod, attr, wrapped[obj])
        for mod in modules.values():
            if mod.__name__ not in library:
                continue
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, cls in list(vars(mod).items()):
                if inspect.isclass(cls) and cls.__module__ == mod.__name__ \
                        and not attr.startswith("_") and not issubclass(cls, BaseException):
                    self._patch_class(short, cls)

    def _patch_class(self, short: str, cls) -> None:
        is_dataclass = "__dataclass_fields__" in cls.__dict__
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_")
            # a hand-written constructor is a layer boundary (Propagator build)
            ctor = attr == "__init__" and not is_dataclass
            if not (public or ctor):
                continue
            name = f"{short}.{cls.__qualname__}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[tuple]:
        """Return the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    covered: dict[int, float] = {}
    for _sid, parent, _name, start, end, _tag in spans:
        covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - covered.get(sid, 0.0) for sid, _p, _n, start, end, _t in spans}


def nesting_errors(spans) -> list[str]:
    """Spans whose interval is not inside their parent's interval."""
    by_id = {s[0]: s for s in spans}
    errors = []
    for sid, parent, name, start, end, _tag in spans:
        if end < start:
            errors.append(f"span {sid} {name} ends before it starts")
        if parent == ROOT:
            continue
        if parent not in by_id:
            errors.append(f"span {sid} {name} has unknown parent {parent}")
            continue
        _, _, pname, pstart, pend, _ = by_id[parent]
        if not (pstart <= start and end <= pend):
            errors.append(f"span {sid} {name} [{start}, {end}] outside parent {pname} [{pstart}, {pend}]")
    return errors
