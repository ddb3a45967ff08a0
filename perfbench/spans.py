"""In-memory span recording around the public functions of a package.

A span is one call of a wrapped function: its name, start, end and the span
that was open when it began (its parent).  Spans are kept in flat lists
while the traced code runs and are only turned into self times afterwards,
so a call costs one ``perf_counter`` pair and a few list appends.

This module uses only the standard library: the benchmark imports it before
the package under test (and numpy) are loaded, so that the set-up time it
reports includes those imports.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional

Annotator = Callable[[tuple, dict, object], Optional[dict]]


class SpanRecorder:
    """Flat, append-only store of spans in call order.

    Span ``i`` has ``names[i]``, ``starts[i]``, ``ends[i]`` (seconds on the
    ``perf_counter`` clock), ``parents[i]`` (index of the enclosing span or
    -1) and ``attrs[i]`` (numbers an annotator attached, or None).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.attrs: list[Optional[dict]] = []
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, name: str, fn: Callable, annotate: Optional[Annotator] = None):
        """Return ``fn`` wrapped so that each call records one span.

        ``annotate(args, kwargs, result)`` runs after the span has ended and
        may return numbers to keep with the span.
        """
        names, parents, starts, ends, attrs = (
            self.names, self.parents, self.starts, self.ends, self.attrs
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            attrs.append(None)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if annotate is not None:
                attrs[index] = annotate(args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        return self_times(self.parents, self.starts, self.ends)

    def descendants_named(self, ancestor: str, name: str) -> int:
        """Number of spans called ``name`` that have an ancestor ``ancestor``."""
        flagged = [False] * len(self.names)
        count = 0
        # Parents precede their children in call order, so one forward
        # pass propagates the flag.
        for i, parent in enumerate(self.parents):
            inside = parent >= 0 and (
                flagged[parent] or self.names[parent] == ancestor
            )
            flagged[i] = inside
            if inside and self.names[i] == name:
                count += 1
        return count

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "attrs": a}
            for n, s, e, p, a in zip(
                self.names, self.starts, self.ends, self.parents, self.attrs
            )
        ]


def self_times(
    parents: list[int], starts: list[float], ends: list[float]
) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: list[list[int]] = [[] for _ in parents]
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    result = []
    for i, kids in enumerate(children):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        cursor = lo
        for k in sorted(kids, key=lambda k: starts[k]):
            a, b = max(starts[k], cursor), min(ends[k], hi)
            if b > a:
                covered += b - a
                cursor = b
        result.append((hi - lo) - covered)
    return result


def public_functions(module) -> Iterator[tuple[str, Callable]]:
    """Functions that ``module`` lists in ``__all__`` and defines itself."""
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield attr, obj


@contextmanager
def instrumented(
    recorder: SpanRecorder,
    modules: Iterable,
    methods: Iterable[tuple[type, str]] = (),
    annotators: Optional[dict[str, Annotator]] = None,
    prefix: str = "",
):
    """Wrap the public functions of ``modules`` and the given class methods,
    then restore every original binding on exit.

    A function is replaced wherever a module of the same package holds a
    reference to it, so names bound by ``from .x import f`` are traced too.
    Span names are ``<module without prefix>.<function>`` and
    ``<module>.<class>.<method>``.
    """
    annotators = annotators or {}
    modules = list(modules)
    package = modules[0].__name__.split(".")[0]
    holders = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    restore: list[tuple[object, str, object]] = []
    try:
        for module in modules:
            short = module.__name__[len(prefix):]
            for _, fn in public_functions(module):
                span = f"{short}.{fn.__name__}"
                wrapper = recorder.wrap(span, fn, annotators.get(span))
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            restore.append((holder, attr, value))
                            setattr(holder, attr, wrapper)
        for cls, method in methods:
            fn = cls.__dict__[method]
            short = cls.__module__[len(prefix):]
            span = f"{short}.{cls.__name__}.{method}"
            restore.append((cls, method, fn))
            setattr(cls, method, recorder.wrap(span, fn, annotators.get(span)))
        yield recorder
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)
