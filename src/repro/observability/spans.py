"""Hierarchical spans: the tracing primitive behind ``forecast --trace``.

A forecast that is slow or fails used to be opaque:
:attr:`~repro.core.output.ForecastOutput.timings` is a flat per-stage sum
with no per-retry or cache-hit attribution.
Spans fix that.  A :class:`Span` times one named region and carries
key/value attributes; spans nest, so one serving request unfolds into a
tree::

    request                      engine-level (cache hit/miss, outcome)
      └─ forecast                pipeline root (scheme, model, horizon)
          ├─ stage:scale
          ├─ stage:multiplex     (prompt_tokens, tokens_needed)
          ├─ stage:generate
          │     ├─ llm:ingest         prompt → in-context model
          │     └─ llm:decode_batch   lockstep constrained sampling
          ├─ stage:demultiplex
          └─ stage:aggregate

A :class:`Tracer` creates spans and maintains an implicit parent per
thread, so nested ``with tracer.span(...)`` blocks build the tree without
explicit wiring; work executing on another thread attaches to its parent
explicitly (``parent=``).  Finished root spans land in a
thread-safe :class:`SpanCollector`.

The default is :data:`NULL_TRACER`, a :class:`NullTracer` whose spans are
inert singletons — the instrumented hot path pays one attribute check and
nothing else, and forecast outputs are bit-identical to untraced runs.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

__all__ = [
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanCollector",
    "render_span_tree",
    "stage_timings",
]

#: Sentinel distinguishing "use the thread's ambient parent" from an
#: explicit ``parent=None`` (which forces a new root span).
_AMBIENT = object()


class Span:
    """One timed, attributed region of work; nodes of the trace tree.

    Spans are created by :meth:`Tracer.span`, not directly.  ``start_time``
    / ``end_time`` are ``time.perf_counter()`` readings (durations are
    meaningful, absolute values are not); attributes are plain
    JSON-serialisable values.
    """

    __slots__ = ("name", "attributes", "children", "start_time", "end_time")

    def __init__(self, name: str, attributes: dict | None = None) -> None:
        self.name = name
        self.attributes: dict = dict(attributes or {})
        self.children: list[Span] = []
        self.start_time: float = time.perf_counter()
        self.end_time: float | None = None

    #: Real spans record; :class:`NullSpan` reports False so instrumented
    #: code can skip attribute computation entirely when tracing is off.
    is_recording = True

    def set_attribute(self, key: str, value) -> None:
        """Attach one key/value attribute (last write wins)."""
        self.attributes[key] = value

    def finish(self, at: float | None = None) -> None:
        """Close the span; idempotent.

        ``at`` overrides the end timestamp — the forecaster uses this to
        define the pipeline root's duration as exactly the sum of its stage
        spans (see :meth:`repro.core.forecaster.MultiCastForecaster.forecast`),
        keeping the rendered tree consistent with ``wall_seconds``.
        """
        if self.end_time is None or at is not None:
            self.end_time = time.perf_counter() if at is None else at

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has run."""
        return self.end_time is not None

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to now for a span still in flight)."""
        end = time.perf_counter() if self.end_time is None else self.end_time
        return end - self.start_time

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Span | None:
        """First span named ``name`` in this subtree (depth first), or None."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict:
        """JSON-serialisable form: the ledger's ``spans`` field."""
        return {
            "name": self.name,
            "duration_seconds": round(self.duration, 9),
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        state = f"{self.duration:.4f}s" if self.finished else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class NullSpan:
    """The inert span: every operation is a no-op.

    A single shared instance (:data:`NULL_SPAN`) is handed out for every
    disabled-tracing region, so the hot path allocates nothing.
    """

    __slots__ = ()

    is_recording = False
    children: tuple = ()
    attributes: dict = {}

    def set_attribute(self, key: str, value) -> None:
        """Discard the attribute."""

    def finish(self, at: float | None = None) -> None:
        """Nothing to close."""

    @property
    def duration(self) -> float:
        """Always 0.0 — null spans do not time anything."""
        return 0.0

    def __repr__(self) -> str:
        return "NullSpan()"


#: The shared inert span yielded by :class:`NullTracer` contexts.
NULL_SPAN = NullSpan()


class SpanCollector:
    """Thread-safe sink for finished root spans.

    A :class:`Tracer` deposits every finished *root* (parentless) span
    here; the CLI drains it to render trace trees, tests drain it to
    assert on structure.  Bounded: past ``max_spans`` the oldest roots are
    dropped (a long-running engine must not grow without limit).
    """

    def __init__(self, max_spans: int = 1024) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self.max_spans = max_spans
        self.dropped = 0

    def add(self, span: Span) -> None:
        """Deposit one finished root span."""
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self.max_spans:
                excess = len(self._spans) - self.max_spans
                del self._spans[:excess]
                self.dropped += excess

    def drain(self) -> list[Span]:
        """Remove and return all collected roots, oldest first."""
        with self._lock:
            spans, self._spans = self._spans, []
            return spans

    @property
    def roots(self) -> list[Span]:
        """A snapshot of the collected roots (non-destructive)."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class Tracer:
    """Builds span trees with implicit per-thread parenting.

    ``with tracer.span("name", key=value) as span:`` opens a child of the
    calling thread's innermost open span (or a new root).  Work handed to
    another thread attaches explicitly: ``tracer.span("task",
    parent=outer_span)`` — the span still becomes the ambient parent
    *on the executing thread* for its duration, so deeper instrumentation
    (e.g. :meth:`repro.llm.simulated.SimulatedLLM.generate`) nests under
    it automatically.

    Example
    -------
    >>> from repro.observability import SpanCollector, Tracer
    >>> collector = SpanCollector()
    >>> tracer = Tracer(collector)
    >>> with tracer.span("outer") as outer:
    ...     with tracer.span("inner", detail=42) as inner:
    ...         pass
    >>> [s.name for s in collector.roots[0].walk()]
    ['outer', 'inner']
    """

    #: Real tracers record; callers may branch on this to skip building
    #: expensive attribute values when tracing is disabled.
    enabled = True

    def __init__(self, collector: SpanCollector | None = None) -> None:
        self.collector = collector if collector is not None else SpanCollector()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Span | None:
        """The calling thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent=_AMBIENT, **attributes):
        """Open a span for the duration of the ``with`` block.

        ``parent`` defaults to the calling thread's ambient span; pass an
        explicit span to attach across threads, or ``None`` to force a new
        root.  Keyword arguments become initial attributes.
        """
        stack = self._stack()
        if parent is _AMBIENT:
            parent = stack[-1] if stack else None
        span = Span(name, attributes)
        if parent is not None and parent.is_recording:
            with self._lock:
                parent.children.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.finish()
            if parent is None or not parent.is_recording:
                self.collector.add(span)


class NullTracer:
    """The disabled tracer: every span context yields :data:`NULL_SPAN`.

    This is the default everywhere a ``tracer=`` parameter exists, so the
    pipeline's instrumentation costs one identity check per region and the
    numeric path is untouched — engine results are bit-identical to
    pre-tracing outputs under the same seed.
    """

    enabled = False

    @contextmanager
    def _null_context(self):
        yield NULL_SPAN

    def span(self, name: str, parent=_AMBIENT, **attributes):
        """A context manager yielding the shared :data:`NULL_SPAN`."""
        del name, parent, attributes
        return self._null_context()

    def current_span(self) -> None:
        """Null tracers never have an open span."""
        return None

    def __repr__(self) -> str:
        return "NullTracer()"


#: Process-wide disabled tracer; ``tracer or NULL_TRACER`` is the idiom.
NULL_TRACER = NullTracer()


def stage_timings(root: Span) -> dict[str, float]:
    """Per-stage seconds extracted from a span tree.

    Sums the durations of every ``stage:<name>`` span in the subtree,
    keyed by ``<name>`` — the span-world equivalent of
    :attr:`repro.core.timing.StageClock.timings` (a stage split across two
    regions, e.g. ``deseasonalize``, reports one combined number).
    """
    timings: dict[str, float] = {}
    for span in root.walk():
        if span.name.startswith("stage:"):
            stage = span.name[len("stage:"):]
            timings[stage] = timings.get(stage, 0.0) + span.duration
    return timings


def _format_attributes(span: Span) -> str:
    if not span.attributes:
        return ""
    parts = []
    for key, value in span.attributes.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return "  [" + " ".join(parts) + "]"


def render_span_tree(root: Span, *, unit: str = "ms") -> str:
    """ASCII tree of a span and its descendants, for ``forecast --trace``.

    Durations render in ``unit`` (``"ms"`` or ``"s"``); attributes are
    appended in brackets.  Children are drawn in insertion order, which is
    start order for same-thread spans and completion-attach order for
    cross-thread ones.
    """
    scale, suffix = (1000.0, "ms") if unit == "ms" else (1.0, "s")
    lines: list[str] = []

    def render(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        lines.append(
            f"{prefix}{connector}{span.name}  "
            f"{span.duration * scale:.2f}{suffix}{_format_attributes(span)}"
        )
        child_prefix = prefix if is_root else prefix + ("   " if is_last else "│  ")
        for i, child in enumerate(span.children):
            render(child, child_prefix, i == len(span.children) - 1, False)

    render(root, "", True, True)
    return "\n".join(lines)
