"""Structured spans over *simulated* time.

A :class:`Span` is one named interval — ``query``, ``compile``, ``job``,
``task``, ``shuffle``, ``spill`` — with attributes, instant events and
child spans.  Times are **simulated seconds from query start**, never
wall-clock: the engines stamp them from the discrete-event clock, the
driver stamps the modeled compile section, and the exporters
(:mod:`repro.obs.export`) turn the tree into Chrome-trace JSON or flat
CSV/JSON rows.

Two usage styles coexist because engine tasks are interleaved
coroutines:

* **explicit-parent** (concurrency-safe) — ``parent.start_child(...)``
  then ``span.finish(end)``; used everywhere inside the simulator where
  many tasks are open at once;
* **stack-based** (sequential convenience) — ``with tracer.span(...):``
  for straight-line code like the driver.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class SpanEvent:
    """An instant occurrence inside a span (a send, a spill, a wave)."""

    __slots__ = ("name", "time", "attributes")

    def __init__(self, name: str, time: float, attributes: Optional[Dict] = None):
        self.name = name
        self.time = time
        self.attributes = attributes or {}

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "time": self.time, "attributes": dict(self.attributes)}

    def __repr__(self) -> str:
        return f"SpanEvent({self.name!r} @ {self.time:.3f})"


class Span:
    """One named, attributed interval of simulated time.

    ``end`` is ``None`` while the span is open; :meth:`finish` closes it
    (idempotent — re-finishing moves the end, which lets engines extend
    a span when late work lands in it).
    """

    __slots__ = ("name", "category", "start", "end", "attributes", "children", "events")

    def __init__(
        self,
        name: str,
        start: float = 0.0,
        category: Optional[str] = None,
        attributes: Optional[Dict] = None,
    ):
        self.name = name
        self.category = category or name
        self.start = float(start)
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.children: List["Span"] = []
        self.events: List[SpanEvent] = []

    # -- lifecycle ----------------------------------------------------------
    def start_child(self, name: str, start: float, category: Optional[str] = None,
                    **attributes) -> "Span":
        """Open a child span at *start* (explicit-parent style)."""
        child = Span(name, start=start, category=category, attributes=attributes)
        self.children.append(child)
        return child

    def adopt(self, child: "Span") -> "Span":
        """Attach an already-built span subtree (the driver adopts the
        engine's job spans under the query span)."""
        self.children.append(child)
        return child

    def finish(self, end: float, **attributes) -> "Span":
        self.end = float(end)
        if attributes:
            self.attributes.update(attributes)
        return self

    def add_event(self, name: str, time: float, **attributes) -> SpanEvent:
        event = SpanEvent(name, time, attributes)
        self.events.append(event)
        return event

    # -- geometry -----------------------------------------------------------
    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    # -- traversal ----------------------------------------------------------
    def walk(self, depth: int = 0) -> Iterator[Tuple["Span", int]]:
        """Yield (span, depth) over the subtree, pre-order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def find(self, category: str) -> Optional["Span"]:
        """First descendant (or self) with the given category."""
        for span, _depth in self.walk():
            if span.category == category:
                return span
        return None

    def find_all(self, category: str) -> List["Span"]:
        return [span for span, _depth in self.walk() if span.category == category]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
            "events": [event.to_dict() for event in self.events],
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        end = f"{self.end:.3f}" if self.end is not None else "open"
        return f"Span({self.category}:{self.name!r} [{self.start:.3f}, {end}])"


class Tracer:
    """Builds span trees against a pluggable clock.

    The clock returns *simulated seconds*; each ``EngineRuntime``
    installs ``lambda: sim.now``, the driver uses explicit timestamps.
    Roots accumulate in :attr:`roots` (the engines' job spans, or the
    driver's query span).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock: Callable[[], float] = clock or (lambda: 0.0)
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- clock --------------------------------------------------------------
    def set_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def now(self) -> float:
        return self._clock()

    # -- explicit API (concurrency-safe) -------------------------------------
    def start(self, name: str, parent: Optional[Span] = None,
              start: Optional[float] = None, category: Optional[str] = None,
              **attributes) -> Span:
        at = self.now() if start is None else start
        if parent is not None:
            return parent.start_child(name, at, category=category, **attributes)
        span = Span(name, start=at, category=category, attributes=attributes)
        self.roots.append(span)
        return span

    def finish(self, span: Span, end: Optional[float] = None, **attributes) -> Span:
        return span.finish(self.now() if end is None else end, **attributes)

    # -- stack API (sequential convenience) -----------------------------------
    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, category: Optional[str] = None, **attributes):
        opened = self.start(name, parent=self.current, category=category, **attributes)
        self._stack.append(opened)
        try:
            yield opened
        finally:
            self._stack.pop()
            if not opened.closed:
                opened.finish(self.now())

    def clear(self) -> None:
        self.roots = []
        self._stack = []
