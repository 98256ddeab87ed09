"""Tracers: the recording API instrumented code talks to.

Two implementations share one duck type:

* :class:`Tracer` — records spans, instants, counters, and gauges on a
  pluggable simulated clock (``attach`` binds it to an
  :class:`~repro.sim.engine.Engine` and registers a listener that
  counts executed events);
* :class:`NullTracer` — every method is a no-op returning shared
  immutable sentinels.  Instrumented modules default to the
  :data:`NULL_TRACER` singleton, so an untraced run produces
  byte-identical artifacts to a build without instrumentation.  A
  no-op call still pays for building its arguments, so per-job and
  per-event sites build them only when ``enabled`` (read once, at
  construction) is true.

The tracer never samples randomness and never reads the wall clock;
with a deterministic engine underneath, a seeded scenario traced twice
yields byte-identical exports.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Union

from repro.obs.metrics import Counter, Gauge
from repro.obs.span import Span
from repro.sim.engine import Engine


class _SpanScope:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._exit_scope(self._span)


class Tracer:
    """Records execution structure on the simulated clock."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock: Callable[[], float] = clock or (lambda: 0.0)
        self._ids = itertools.count(1)
        #: every begun span, in begin order (finished or not)
        self.spans: list[Span] = []
        #: zero-length point events, in record order
        self.instants: list[Span] = []
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        #: scope stack for :meth:`span`; provides parents for nesting
        self._scopes: list[Span] = []
        self._attached: list[tuple[Engine, Callable[[float], None]]] = []

    # -- clock ------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return True

    @property
    def now(self) -> float:
        """Current simulated time according to the bound clock."""
        return self._clock()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at a different time source."""
        self._clock = clock

    def attach(self, engine: Engine) -> None:
        """Bind the clock to ``engine`` and count executed events.

        The listener only increments a counter; it never schedules, so
        attaching a tracer cannot perturb the simulation.
        """
        self.bind_clock(lambda: engine.now)
        events = self.counter("engine.events")

        def _on_event(now: float) -> None:
            events.add(1.0, at=now)

        engine.add_listener(_on_event)
        self._attached.append((engine, _on_event))

    def detach(self, engine: Engine) -> None:
        """Unregister this tracer's listener from ``engine``."""
        for index, (owner, listener) in enumerate(self._attached):
            if owner is engine:
                engine.remove_listener(listener)
                del self._attached[index]
                return

    # -- spans ------------------------------------------------------------

    def begin(self, name: str, category: str = "", *,
              at: float | None = None, **args: Any) -> Span:
        """Open a span; close it later with :meth:`end`.

        Use this (rather than :meth:`span`) when begin and end happen in
        different engine callbacks — a running job, a recovery round.
        """
        span = Span(span_id=next(self._ids), name=name, category=category,
                    start=self.now if at is None else at,
                    parent_id=(self._scopes[-1].span_id
                               if self._scopes else None),
                    args=dict(args))
        self.spans.append(span)
        return span

    def end(self, span: Span, *, at: float | None = None,
            **args: Any) -> None:
        """Close an open span (idempotent for the null span)."""
        if span.end is None:
            span.end = self.now if at is None else at
        if args:
            span.args.update(args)

    def span(self, name: str, category: str = "",
             **args: Any) -> _SpanScope:
        """Scoped span: ``with tracer.span("phase"): ...``.

        Spans opened inside the ``with`` body become children.
        """
        span = self.begin(name, category, **args)
        self._scopes.append(span)
        return _SpanScope(self, span)

    def _exit_scope(self, span: Span) -> None:
        self.end(span)
        if self._scopes and self._scopes[-1] is span:
            self._scopes.pop()

    def complete(self, name: str, start: float, end: float,
                 category: str = "", **args: Any) -> Span:
        """Record an already-known interval (analytic schedules)."""
        span = Span(span_id=next(self._ids), name=name, category=category,
                    start=start, end=end, args=dict(args))
        self.spans.append(span)
        return span

    def instant(self, name: str, category: str = "", *,
                at: float | None = None, **args: Any) -> Span:
        """Record a point event (a fault injection, a checkpoint)."""
        time = self.now if at is None else at
        span = Span(span_id=next(self._ids), name=name, category=category,
                    start=time, end=time, args=dict(args))
        self.instants.append(span)
        return span

    # -- metrics ----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The accumulating counter called ``name`` (created lazily)."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """The level gauge called ``name`` (created lazily)."""
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def count(self, name: str, delta: float = 1.0, *,
              at: float | None = None) -> None:
        """Shorthand: accumulate ``delta`` on counter ``name`` now."""
        self.counter(name).add(delta, at=self.now if at is None else at)

    def set_gauge(self, name: str, value: float, *,
                  at: float | None = None) -> None:
        """Shorthand: record level ``value`` on gauge ``name`` now."""
        self.gauge(name).set(value, at=self.now if at is None else at)

    # -- bookkeeping -------------------------------------------------------

    @property
    def open_spans(self) -> list[Span]:
        """Spans begun but not yet ended, in begin order."""
        return [span for span in self.spans if span.end is None]

    def end_time(self) -> float:
        """Latest timestamp observed anywhere in the trace."""
        times = [0.0]
        times.extend(span.start for span in self.spans)
        times.extend(span.end for span in self.spans
                     if span.end is not None)
        times.extend(span.start for span in self.instants)
        for timeline in list(self.counters.values()) + list(
                self.gauges.values()):
            if timeline.samples:
                times.append(timeline.samples[-1][0])
        return max(times)


#: shared immutable-by-convention span returned by the null tracer; its
#: fields are never written because every null method is a no-op
_NULL_SPAN = Span(span_id=0, name="", category="", start=0.0, end=0.0)


class _NullScope:
    """Reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SCOPE = _NullScope()


class NullTracer:
    """The disabled fast path: record nothing, allocate nothing."""

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        return False

    @property
    def now(self) -> float:
        return 0.0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        return None

    def attach(self, engine: Engine) -> None:
        return None

    def detach(self, engine: Engine) -> None:
        return None

    def begin(self, name: str, category: str = "", *,
              at: float | None = None, **args: Any) -> Span:
        return _NULL_SPAN

    def end(self, span: Span, *, at: float | None = None,
            **args: Any) -> None:
        return None

    def span(self, name: str, category: str = "",
             **args: Any) -> _NullScope:
        return _NULL_SCOPE

    def complete(self, name: str, start: float, end: float,
                 category: str = "", **args: Any) -> Span:
        return _NULL_SPAN

    def instant(self, name: str, category: str = "", *,
                at: float | None = None, **args: Any) -> Span:
        return _NULL_SPAN

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def count(self, name: str, delta: float = 1.0, *,
              at: float | None = None) -> None:
        return None

    def set_gauge(self, name: str, value: float, *,
                  at: float | None = None) -> None:
        return None


class _NullCounter(Counter):
    def add(self, delta: float, at: float) -> None:
        return None


class _NullGauge(Gauge):
    def set(self, value: float, at: float) -> None:
        return None


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")

#: the shared disabled tracer every instrumented module defaults to
NULL_TRACER = NullTracer()

#: what instrumented code should annotate its ``tracer`` parameter as
TracerLike = Union[Tracer, NullTracer]
