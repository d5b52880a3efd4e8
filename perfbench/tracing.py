"""Spans and counters recorded in memory around calls into the program.

The benchmark never edits the program: a traced run wraps the public
functions and methods at each layer boundary (:func:`instrument`), every
call records one span ``[name, start, end, parent]`` in a list, and the
per-layer self times are computed from that list when the run ends
(:func:`self_times`).  Untraced runs install nothing.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: One recorded span: ``[name, start, end, parent index or -1]``.
Span = List[object]


class Tracer:
    """Collects spans, each linked to the span open when it began."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._open: List[int] = []
        self.spans: List[Span] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self._clock(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if self._open.pop() != index:
            raise RuntimeError("spans must close in reverse order of opening")
        self.spans[index][2] = self._clock()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span; the caller may rename it (``span[0]``) before exit."""
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def wrap(
        self,
        fn: Callable,
        name: str,
        rename: Optional[Callable[[object], str]] = None,
    ) -> Callable:
        """*fn* with every call recorded as a span called *name* (or, once
        the call returns, ``rename(result)``)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if rename is not None:
                    record[0] = rename(result)
                return result

        return traced


def self_times(spans: Sequence[Span]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Total and self time per span name.

    A span's self time is its duration minus the durations of its direct
    children: children never outlive their parent, so that is the part of
    its interval no child covers.
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start) - child_time[index]
    return total, own


#: One instrumentation target: ``(owner, attribute, span name[, rename])``
#: where owner is a module, a class or an instance.
Target = Tuple


@contextlib.contextmanager
def instrument(tracer: Optional[Tracer], targets: Sequence[Target]) -> Iterator[None]:
    """Wrap each target's attribute as a span for the duration of the block,
    then restore the originals.  With ``tracer=None`` nothing is installed."""
    if tracer is None:
        yield
        return
    saved = []
    try:
        for owner, attr, name, *rename in targets:
            own = vars(owner)
            saved.append((owner, attr, attr in own, own.get(attr)))
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, *rename))
        yield
    finally:
        for owner, attr, had, original in reversed(saved):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
