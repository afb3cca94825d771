"""Outside-in span tracing of the layers' public callables.

Nothing under ``src/`` knows about this module.  :func:`install` rebinds the
public entry points of each layer — module globals as ``repro.serve.gateway``
imported them, class attributes everywhere else — to wrappers that record a
span (name, start, end, parent span, request id) into one in-memory list.
Spans nest through a stack, so a layer's *self time* is its spans' duration
minus the duration of the spans they directly enclose; the self times of
everything under one top-level span add up to that span exactly.

Spans are only recorded while :attr:`Tracer.active` is set, which the harness
does for timed slices only — set-up, warm-up and untimed filler leave no
spans.  End-to-end metrics never come from a traced run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

#: Span tuple layout.
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: ``(enclosing span, start, end)`` of every reference-kernel run that
        #: interrupted traced code.  Kept apart from ``spans`` because the
        #: kernel runs from a signal handler, between any two bytecodes of
        #: the bookkeeping below.
        self.pauses: list[tuple[int, float, float]] = []
        self.active = False
        #: Identifier stamped on spans closed from now on (the wire paths set
        #: it to ``<slice>-<X-Bench-Id>`` as each request is parsed).
        self.request: str | None = None
        self.request_prefix = ""
        self._stack: list[int] = []
        self._handler: int | None = None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def open(self, name: str) -> int:
        index = len(self.spans)
        stack = self._stack
        self.spans.append((name, time.perf_counter(), 0.0,
                           stack[-1] if stack else -1, None))
        stack.append(index)
        return index

    def close(self, index: int, name: str | None = None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        opened = self.spans[index]
        self.spans[index] = (name or opened[NAME], opened[START], end,
                             opened[PARENT], self.request)

    def pause(self, start: float, end: float) -> None:
        stack = self._stack
        self.pauses.append((stack[-1] if stack else -1, start, end))

    def add_detached(self, name: str, start: float, end: float,
                     request: str) -> None:
        """A span that overlaps others (a pipelined request's send→verify).

        Detached spans carry the request id but sit outside the stack: they
        are written to the trace file and excluded from self-time sums.
        """
        self.spans.append((name, start, end, -2, request))

    def wrap(self, name: str, function):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)

        traced.__wrapped__ = function
        return traced

    # ------------------------------------------------------------------ #
    # Folding
    # ------------------------------------------------------------------ #
    def fold(self) -> "Fold":
        return Fold(self.spans, self.pauses)

    def write(self, path: Path) -> None:
        """One JSON object per span, kernel pauses last (``harness.refclock``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        pauses = [("harness.refclock", start, end, parent, None)
                  for parent, start, end in self.pauses]
        with path.open("w") as out:
            for index, span in enumerate(self.spans + pauses):
                out.write(json.dumps({
                    "id": index, "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "request": span[REQUEST]}) + "\n")


class Fold:
    """Per-name call counts, total and self time of a span list."""

    def __init__(self, spans: list[tuple],
                 pauses: list[tuple[int, float, float]] = ()) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: ``(child name, parent name)`` → count, for path-share metrics.
        self.nested: dict[tuple[str, str], int] = defaultdict(int)
        self.top_level_s = 0.0
        for span in spans:
            parent = span[PARENT]
            if parent == -2:
                continue
            name = span[NAME]
            duration = span[END] - span[START]
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration
            if parent >= 0:
                parent_name = spans[parent][NAME]
                self.self_s[parent_name] -= duration
                self.nested[name, parent_name] += 1
            else:
                self.top_level_s += duration
        for parent, start, end in pauses:
            # Not the layer's time: the kernel ran inside it.
            if parent >= 0:
                self.self_s[spans[parent][NAME]] -= end - start
                self.top_level_s -= end - start

    def self_us(self, *names: str, per: int | None = None) -> float:
        """Mean self microseconds of ``names`` per call (or per ``per``)."""
        calls = per if per is not None else sum(self.calls[n] for n in names)
        if not calls:
            return 0.0
        return sum(self.self_s[n] for n in names) / calls * 1e6


# ---------------------------------------------------------------------- #
# Installation
# ---------------------------------------------------------------------- #
def _rebind(tracer: Tracer, owner, attribute: str, name: str) -> None:
    setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute)))


def _strategy_classes(base) -> list[type]:
    found = [base]
    for subclass in base.__subclasses__():
        found.extend(_strategy_classes(subclass))
    return found


def install(tracer: Tracer) -> None:
    """Rebind every traced public callable; once per process, never undone."""
    from repro.backend.object_store import ErasureCodedStore
    from repro.client.strategies import ReadStrategy
    from repro.core.agar_node import AgarNode
    from repro.core.cache_manager import CacheManager
    from repro.core.knapsack import KnapsackSolver
    from repro.core.request_monitor import RequestMonitor
    from repro.erasure.codec import ErasureCodec
    from repro.serve import gateway
    from repro.sim.engine import EventEngine

    from bench.wireclient import WireClient

    for cls in _strategy_classes(ReadStrategy):
        for attribute in ("read", "read_indexed"):
            if attribute in vars(cls) and not getattr(
                    vars(cls)[attribute], "__isabstractmethod__", False):
                _rebind(tracer, cls, attribute, f"strategies.{attribute}")
    for owner, attribute, name in (
            (gateway, "read_entry", "ledger.entry"),
            (ErasureCodedStore, "get_chunks", "backend.get_chunks"),
            (ErasureCodedStore, "put", "backend.put"),
            (ErasureCodec, "decode", "erasure.decode"),
            (ErasureCodec, "encode", "erasure.encode"),
            (AgarNode, "reconfigure", "core.reconfigure"),
            (RequestMonitor, "end_period", "core.monitor"),
            (CacheManager, "generate_options", "core.options"),
            (KnapsackSolver, "solve", "core.knapsack"),
            (CacheManager, "install", "core.install"),
            (EventEngine, "execute", "engine.execute"),
            (WireClient, "_send", "client.send"),
            (WireClient, "_receive", "client.receive")):
        _rebind(tracer, owner, attribute, name)
    _install_gateway_framing(tracer, gateway)


def _install_gateway_framing(tracer: Tracer, gateway) -> None:
    """``parse_request`` / ``build_response`` as ``serve.gateway`` bound them.

    The gateway has no public per-request entry point, so the handler span is
    the interval the two framing calls delimit: it opens when a complete
    request has been parsed and closes when its response has been built.
    A parse that returns ``None`` (buffer exhausted) is kept under its own
    name so ``protocol.parse`` counts requests.
    """
    parse_request = gateway.parse_request
    build_response = gateway.build_response

    def traced_parse(*args, **kwargs):
        if not tracer.active:
            return parse_request(*args, **kwargs)
        if tracer._handler is not None:
            # The previous request was answered by ``error_response``, which
            # builds through ``serve.protocol``'s own binding.
            tracer.close(tracer._handler)
            tracer._handler = None
        index = tracer.open("protocol.parse")
        parsed = None
        try:
            parsed = parse_request(*args, **kwargs)
        finally:
            if parsed is None:
                tracer.close(index, "protocol.parse_incomplete")
            else:
                tracer.request = (f"{tracer.request_prefix}"
                                  f"{parsed[0].headers.get('x-bench-id', '')}")
                tracer.close(index)
                tracer._handler = tracer.open("gateway.handler")
        return parsed

    def traced_build(*args, **kwargs):
        if not tracer.active:
            return build_response(*args, **kwargs)
        index = tracer.open("protocol.build")
        try:
            return build_response(*args, **kwargs)
        finally:
            tracer.close(index)
            if tracer._handler is not None:
                tracer.close(tracer._handler)
                tracer._handler = None

    gateway.parse_request = traced_parse
    gateway.build_response = traced_build
