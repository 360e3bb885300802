"""In-memory tracer that wraps `mtt` functions from outside the package.

A probe names a function by the module attribute its caller looks it up
at (`mtt.sim.gpf_step` is what `run_experiment` calls, `mtt.gpf.log_pdf`
is what `combination_log_weight` calls), so the wrapper sits exactly on
the call edge between two layers.  Two kinds of probe exist:

* a span records (name, start, end, parent) for every call, plus
  attributes an `observe` hook reads off the arguments and result;
* a counter only accumulates calls, time and hits.  It is for functions
  called millions of times per run (`cell_contains`, `log_pdf`), where a
  span per call would swamp the trace.  Counters must be leaves or contain
  only other counters.

A probe whose name no longer resolves is not an error: the tracer records
why it is absent and the metrics built on it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

SPAN, COUNTER = "span", "counter"


@dataclass(frozen=True)
class Probe:
    kind: str  # SPAN or COUNTER
    name: str  # "<layer>.<what>", e.g. "gpf.merge"
    module: str
    path: str  # attribute path in the module; "X[*]" wraps every value of dict X
    # span only: (args, kwargs, result) -> attributes stored on the span
    observe: Callable[[tuple, dict, object], dict] | None = None
    # counter only: count a hit when the result is truthy
    count_hits: bool = False


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counted: float = 0.0  # time in counter calls made directly inside this span
    attrs: dict = field(default_factory=dict)


@dataclass
class Counter:
    name: str
    calls: int = 0
    hits: int = 0
    total: float = 0.0
    child: float = 0.0  # time in counter calls made inside this one


class Tracer:
    """Holds spans and counters of one traced phase, all in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = {}
        self.absent: dict[str, str] = {}  # probe or attribute name -> reason
        self._frames: list[list[float]] = [[0.0]]  # counted time per open call
        self._open: list[Span] = []
        self._restore: list[tuple[Callable[[object], None], object]] = []
        self.root = self.begin("trace")

    # -- spans and counters ---------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._open.append(span)
        self._frames.append([0.0])
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        span.counted = self._frames.pop()[0]
        self._open.pop()

    def _span_wrapper(self, fn: Callable, probe: Probe) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(probe.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if probe.observe is not None:
                try:
                    span.attrs.update(probe.observe(args, kwargs, result))
                except Exception as exc:  # noqa: BLE001 - a renamed field degrades, never crashes
                    self.absent.setdefault(
                        f"{probe.name}:attrs", f"{type(exc).__name__}: {exc}"
                    )
            return result

        return wrapper

    def _counter_wrapper(self, fn: Callable, probe: Probe) -> Callable:
        counter = self.counters.setdefault(probe.name, Counter(probe.name))
        frames, clock, count_hits = self._frames, self.clock, probe.count_hits

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                frames[-1][0] += elapsed
                counter.calls += 1
                counter.total += elapsed
                counter.child += frame[0]
            if count_hits and result:
                counter.hits += 1
            return result

        return wrapper

    # -- installing probes ------------------------------------------------

    def install(self, probes: list[Probe]) -> None:
        for probe in probes:
            try:
                targets = _resolve(probe)
            except (ImportError, AttributeError, KeyError, TypeError) as exc:
                self.absent[probe.name + ":" + probe.path] = (
                    f"{probe.module}.{probe.path} not found ({type(exc).__name__}: {exc})"
                )
                continue
            make = self._span_wrapper if probe.kind == SPAN else self._counter_wrapper
            for setter, original in targets:
                setter(make(original, probe))
                self._restore.append((setter, original))

    def uninstall(self) -> None:
        while self._restore:
            setter, original = self._restore.pop()
            setter(original)

    def finish(self) -> None:
        self.uninstall()
        self.end(self.root)

    def missing(self, probe_name: str) -> list[str]:
        """Reasons why probes named `probe_name` could not be installed."""
        return [
            reason for key, reason in self.absent.items()
            if key.split(":", 1)[0] == probe_name
        ]


def _resolve(probe: Probe) -> list[tuple[Callable[[object], None], object]]:
    """(setter, current value) for every callable the probe wraps."""
    owner: object = importlib.import_module(probe.module)
    *parents, last = probe.path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if last.endswith("[*]"):
        table = getattr(owner, last[:-3])
        if not isinstance(table, dict) or not table:
            raise TypeError(f"{last[:-3]} is not a non-empty dict")
        return [
            (functools.partial(table.__setitem__, key), value)
            for key, value in table.items()
        ]
    original = owner.__dict__[last] if isinstance(owner, type) else getattr(owner, last)
    if not callable(original):
        raise TypeError(f"{probe.path} is not callable")
    return [(functools.partial(setattr, owner, last), original)]


# -- self time ------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus what child spans and counters cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        s.id: max(0.0, s.end - s.start - _covered(children[s.id], s.start, s.end) - s.counted)
        for s in spans
    }


def self_time_by_name(tracer: Tracer) -> dict[str, float]:
    """Self seconds per span or counter name, the root span excluded."""
    out: dict[str, float] = defaultdict(float)
    self_times = span_self_times(tracer.spans)
    for span in tracer.spans:
        if span is not tracer.root:
            out[span.name] += self_times[span.id]
    for counter in tracer.counters.values():
        out[counter.name] += max(0.0, counter.total - counter.child)
    return dict(out)
