"""Out-of-program call tracing for the traced pass.

The tracer times calls into each layer's public functions from outside:
it replaces them with wrappers for the traced pass only and puts the
originals back afterwards, so the timed pass runs unpatched code.

A span is ``[id, parent, root, name, start, end]``; ``root`` is the id of
the request span it belongs to.  The current span travels in a
:class:`contextvars.ContextVar`, so it follows a request from the event
loop into the dispatcher's executor thread (which runs each request in a
copy of the loop task's context).  Spans outside any request are not
kept.  Self time is a span's duration minus the part its children cover.

Functions imported by name (``from .tokenizer import tokenize``) are
bound in several modules; :meth:`Tracer.wrap_function` patches every
``repro`` module that binds the same function object.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Tuple

_clock = time.perf_counter


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> ``(Class, "attr")`` and ``"pkg.mod:name"``
    -> ``(module, "name")``."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _peek(counter) -> int:
    """Calls recorded by an ``itertools.count(1)`` without advancing it."""
    return int(repr(counter)[len("count(") : -1]) - 1


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        klass = todo.pop()
        out.append(klass)
        todo.extend(klass.__subclasses__())
    return out


def _covered(kids: Iterable[list], start: float, end: float) -> float:
    """Length of the union of the children's intervals inside the span."""
    total, reach = 0.0, start
    for kid in sorted(kids, key=lambda s: s[4]):
        lo, hi = max(kid[4], reach), min(kid[5], end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class _TimedEnter:
    """Context manager proxy that records only its ``__enter__`` (the
    time spent acquiring a lock), not the time the block holds it."""

    __slots__ = ("_tracer", "_name", "_outer", "_cm")

    def __init__(self, tracer: "Tracer", name: str, outer: tuple, cm: Any):
        self._tracer, self._name, self._outer, self._cm = tracer, name, outer, cm

    def __enter__(self):
        start = _clock()
        value = self._cm.__enter__()
        outer = self._outer
        self._tracer.spans.append(
            [next(self._tracer._ids), outer[0], outer[1], self._name, start, _clock()]
        )
        return value

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)


class Tracer:
    """Wrappers, the spans they record, and their removal."""

    def __init__(self):
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            f"resinbench-span-{id(self)}", default=None
        )
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._counters: Dict[str, Any] = {}
        self._raised: Dict[str, Any] = {}
        #: Characters passed to sanitizers, one entry per call.
        self.chars: List[int] = []
        self._patches: List[tuple] = []
        self._pending_parse: Dict[int, List[list]] = {}
        #: Wrap targets that do not exist in this version of the program.
        self.missing: List[str] = []

    # -- patching ------------------------------------------------------------

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Replace ``owner.attr``, remembering how to put it back."""
        own = vars(owner)
        had_own = attr in own
        self._patches.append((owner, attr, had_own, own.get(attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def wrap_method(self, cls: type, attr: str, kind: str, name: str) -> None:
        """Wrap a function, classmethod or staticmethod of ``cls``'s body."""
        raw = vars(cls).get(attr)
        descriptor = None
        if isinstance(raw, (classmethod, staticmethod)):
            descriptor, raw = type(raw), raw.__func__
        if not inspect.isfunction(raw):
            self.missing.append(f"{cls.__qualname__}.{attr}")
            return
        wrapper = self.make(kind, name, raw)
        self.patch(cls, attr, descriptor(wrapper) if descriptor else wrapper)

    def wrap_function(self, module: Any, attr: str, kind: str, name: str) -> None:
        fn = getattr(module, attr, None)
        if not inspect.isfunction(fn):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self.make(kind, name, fn)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, key, wrapper)

    def install(self, points: Iterable[tuple]) -> None:
        """Install ``(layer, name, kind, target)`` wrap points.

        ``target`` is ``"module:func"``, ``"module:Class.method"``,
        ``"subclasses:module:Class.method"`` (every subclass defining the
        method) or ``"methods:module:Class"`` (every plain function in the
        class body).
        """
        for _layer, name, kind, target in points:
            scope = "one"
            if target.startswith(("subclasses:", "methods:")):
                scope, _, target = target.partition(":")
            try:
                owner, attr = _resolve(target)
                if scope != "one" or inspect.isclass(owner):
                    getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            if scope == "methods":
                cls = getattr(owner, attr)
                for key, value in list(vars(cls).items()):
                    if inspect.isfunction(value) and not key.startswith("__"):
                        self.wrap_method(cls, key, kind, name)
            elif scope == "subclasses":
                for cls in _subclasses(owner):
                    if attr in vars(cls):
                        self.wrap_method(cls, attr, kind, name)
            elif inspect.isclass(owner):
                self.wrap_method(owner, attr, kind, name)
            else:
                self.wrap_function(owner, attr, kind, name)

    def wrap_routes(self, app: Any) -> None:
        """Wrap the route handlers of a routed application."""
        for route in app.router.routes:
            span = self.make("span", "apps.handler", route.handler)
            self.patch(route, "handler", span)

    # -- wrappers ------------------------------------------------------------

    def make(self, kind: str, name: str, fn: Any) -> Callable:
        factory = {
            "span": self._span,
            "chars": self._span,
            "async": self._async,
            "root-async": self._root_async,
            "parse": self._parse,
            "parse-result": self._parse,
            "count": self._count,
            "enter": self._enter,
        }[kind]
        return functools.update_wrapper(factory(name, fn, kind), fn)

    def _raised_counter(self, name: str):
        return self._raised.setdefault(name, itertools.count(1))

    def _span(self, name: str, fn: Callable, kind: str) -> Callable:
        current, spans, ids = self.current, self.spans, self._ids
        raised = self._raised_counter(name)
        chars = self.chars if kind == "chars" else None

        def wrapper(*args, **kwargs):
            outer = current.get()
            if outer is None:
                return fn(*args, **kwargs)
            if chars is not None and args:
                chars.append(len(args[0]) if isinstance(args[0], str) else 0)
            sid = next(ids)
            token = current.set((sid, outer[1]))
            start = _clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                next(raised)
                raise
            finally:
                end = _clock()
                current.reset(token)
                spans.append([sid, outer[0], outer[1], name, start, end])

        return wrapper

    def _async(self, name: str, fn: Callable, kind: str) -> Callable:
        current, spans, ids = self.current, self.spans, self._ids

        async def wrapper(*args, **kwargs):
            outer = current.get()
            if outer is None:
                return await fn(*args, **kwargs)
            sid = next(ids)
            token = current.set((sid, outer[1]))
            start = _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = _clock()
                current.reset(token)
                spans.append([sid, outer[0], outer[1], name, start, end])

        return wrapper

    def _root_async(self, name: str, fn: Callable, kind: str) -> Callable:
        """The server-side request span: it starts at the first parse
        span of the request's bytes on this connection and ends when the
        response is buffered."""
        current, spans, ids, pending = (
            self.current,
            self.spans,
            self._ids,
            self._pending_parse,
        )

        async def wrapper(connection, *args, **kwargs):
            sid = next(ids)
            token = current.set((sid, sid))
            start = _clock()
            try:
                return await fn(connection, *args, **kwargs)
            finally:
                end = _clock()
                current.reset(token)
                for record in pending.pop(id(connection.parser), ()):
                    record[1] = record[2] = sid
                    start = min(start, record[4])
                    spans.append(record)
                spans.append([sid, None, sid, name, start, end])

        return wrapper

    def _parse(self, name: str, fn: Callable, kind: str) -> Callable:
        ids, pending = self._ids, self._pending_parse
        only_results = kind == "parse-result"

        def wrapper(parser, *args, **kwargs):
            start = _clock()
            result = fn(parser, *args, **kwargs)
            end = _clock()
            if result is not None or not only_results:
                record = [next(ids), None, None, name, start, end]
                pending.setdefault(id(parser), []).append(record)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable, kind: str) -> Callable:
        """Counts calls made inside a request; records no span (for
        functions too hot or too small to time)."""
        current = self.current
        counter = self._counters.setdefault(name, itertools.count(1))

        def wrapper(*args, **kwargs):
            if current.get() is not None:
                next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _enter(self, name: str, fn: Callable, kind: str) -> Callable:
        current = self.current

        def wrapper(*args, **kwargs):
            cm = fn(*args, **kwargs)
            outer = current.get()
            if outer is None:
                return cm
            return _TimedEnter(self, name, outer, cm)

        return wrapper

    def root(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one request span (in-process workloads)."""
        sid = next(self._ids)
        token = self.current.set((sid, sid))
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self.current.reset(token)
            self.spans.append([sid, None, sid, name, start, end])

    # -- results -------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Calls seen by count wrappers and exceptions seen by spans."""
        out = {name: _peek(counter) for name, counter in self._counters.items()}
        for name, counter in self._raised.items():
            out[f"{name}.raised"] = _peek(counter)
        return out

    def summary(
        self, layer_of: Dict[str, str], waits: Iterable[Tuple[str, str, str]] = ()
    ) -> dict:
        """Per-name and per-layer calls and times of the request spans.

        ``layer_of`` maps span names to layers; ``waits`` lists
        ``(metric, outer, inner)``: the time from an ``outer`` span's start
        to the start of its ``inner`` child.
        """
        spans = [s for s in self.spans if s[2] is not None]
        by_id = {s[0]: s for s in spans}
        children: Dict[int, List[list]] = defaultdict(list)
        for span in spans:
            if span[1] is not None:
                children[span[1]].append(span)
        names: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        layers: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        roots = [0, 0.0, 0.0]
        wait_totals: Dict[str, float] = defaultdict(float)
        wait_pairs = {(outer, inner): metric for metric, outer, inner in waits}
        for span in spans:
            duration = span[5] - span[4]
            own = duration - _covered(children.get(span[0], ()), span[4], span[5])
            if span[1] is None:
                roots[0] += 1
                roots[1] += duration
                roots[2] += own
                continue
            entry = names[span[3]]
            entry[0] += 1
            entry[1] += own
            parent = by_id.get(span[1])
            ancestor = parent
            while ancestor is not None and ancestor[3] != span[3]:
                ancestor = by_id.get(ancestor[1])
            if ancestor is None:
                entry[2] += duration
            layer = layers[layer_of.get(span[3], "unmapped")]
            layer[0] += 1
            layer[1] += own
            if parent is not None:
                metric = wait_pairs.get((parent[3], span[3]))
                if metric is not None:
                    wait_totals[metric] += span[4] - parent[4]
        return {
            "requests": roots[0],
            "request_s": roots[1],
            "untraced_s": roots[2],
            "names": {
                k: {"calls": v[0], "self_s": v[1], "incl_s": v[2]}
                for k, v in names.items()
            },
            "layers": {k: {"calls": v[0], "self_s": v[1]} for k, v in layers.items()},
            "waits_s": dict(wait_totals),
            "counts": self.counts(),
            "chars": sum(self.chars),
            "missing": sorted(set(self.missing)),
        }
