"""Per-layer tracer: times RBAY's layers from outside the program.

Nothing under ``src/`` knows about this module.  For a traced iteration
the benchmark patches the public entry points of each layer (class
methods and module-level functions) with a timing wrapper, and wraps every
callback handed to the scheduler so that deferred work (message
deliveries, timers, periodic maintenance) runs inside a span named after
the layer that owns the callback.  :meth:`Tracer.restore` puts every
original back.

Spans nest synchronously, so a span's *self* time is its duration minus
the time covered by the spans it encloses.  Memory stays bounded: every
entry point keeps one aggregate row (calls, inclusive and self seconds),
and full span records are kept only for every ``SAMPLE_EVERY``-th request,
up to ``MAX_SPANS``.  A request is one publish wave, query or arrival; its id
travels with every callback it schedules, so a message
delivery or timer belongs to the request that caused it.  Deliveries
coalesced into one scheduler event inherit the first sender's request.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from typing import Any, Callable, Dict, List, Optional

#: Program layers, named after the packages under ``src/repro``.
LAYERS = ("sim", "net", "pastry", "scribe", "query", "aa", "core", "ext",
          "transport", "obs")

_MODULE_LAYERS = {
    "repro.sim": "sim", "repro.net": "net", "repro.pastry": "pastry",
    "repro.scribe": "scribe", "repro.query": "query", "repro.aa": "aa",
    "repro.core": "core", "repro.ext": "ext", "repro.transport": "transport",
    "repro.obs": "obs", "repro.metrics": "obs",
}

#: Full spans are kept for every this-many-th request ...
SAMPLE_EVERY = 16
#: ... and for at most this many spans in all.
MAX_SPANS = 20_000

_perf = time.perf_counter


def layer_of_module(module: str) -> str:
    """Layer owning ``module``; anything outside the program is ``driver``."""
    parts = module.split(".")
    return _MODULE_LAYERS.get(".".join(parts[:2]), "driver")


class _Deferred:
    """A scheduled callback that runs as a span of its owning layer, with
    the request id and causing span of whoever scheduled it."""

    __slots__ = ("tracer", "row", "name", "fn", "req", "cause")

    def __init__(self, tracer: "Tracer", row: list, name: str,
                 fn: Callable[..., Any]):
        self.tracer = tracer
        self.row = row
        self.name = name
        self.fn = fn
        self.req = tracer.req
        self.cause = tracer.span

    def __call__(self, *args: Any) -> Any:
        tracer = self.tracer
        if not tracer.active:  # scheduled before the patches came off
            return self.fn(*args)
        saved = tracer.req, tracer.span
        tracer.req, tracer.span = self.req, self.cause
        try:
            return tracer.run(self.row, self.name, self.fn, args, {})
        finally:
            tracer.req, tracer.span = saved


class Tracer:
    """Entry-point aggregates plus sampled spans (see module docstring)."""

    def __init__(self) -> None:
        #: entry point -> [layer, calls, inclusive seconds, self seconds]
        self.rows: Dict[str, list] = {}
        #: Named event counts taken by result inspectors (e.g. AA denials).
        self.counts: Dict[str, int] = {}
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        #: Cleared by :meth:`restore`; callbacks still queued then run bare.
        self.active = True
        self.req = 0      # current request id (0: background work)
        self.span = 0     # innermost open sampled span (0: none)
        self._stack: List[float] = []   # child seconds of each open span
        self._span_ids = itertools.count(1)
        self._req_ids = itertools.count(1)
        self._req_kinds: Dict[int, str] = {}
        self._patches: List[tuple] = []
        self._callback_rows: Dict[Any, tuple] = {}

    # ------------------------------------------------------------------
    # Requests and aggregates
    # ------------------------------------------------------------------
    def new_request(self, kind: str) -> int:
        """Open a request id for one workload operation and make it current."""
        req = next(self._req_ids)
        if req % SAMPLE_EVERY == 0:
            self._req_kinds[req] = kind
        self.req = req
        return req

    def reset(self) -> None:
        """Drop everything measured so far (patches stay installed)."""
        for row in self.rows.values():
            row[1:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.spans.clear()
        self._req_kinds.clear()
        self.spans_dropped = 0

    def _row(self, name: str, layer: str) -> list:
        row = self.rows.get(name)
        if row is None:
            row = self.rows[name] = [layer, 0, 0.0, 0.0]
        return row

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def run(self, row: list, name: str, fn: Callable[..., Any],
            args: tuple, kwargs: dict) -> Any:
        """Call ``fn`` as one span of ``row``'s entry point."""
        stack = self._stack
        sampled = self.req % SAMPLE_EVERY == 0 and self.req != 0
        if sampled:
            sid, parent = next(self._span_ids), self.span
            self.span = sid
        stack.append(0.0)
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _perf()
            duration = end - start
            child = stack.pop()
            row[1] += 1
            row[2] += duration
            row[3] += duration - child
            if stack:
                stack[-1] += duration
            if sampled:
                self.span = parent
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, parent, self.req, name,
                                       start, end))
                else:
                    self.spans_dropped += 1

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, layer: str,
              inspect: Optional[Callable[[tuple, Any], None]] = None,
              name: Optional[str] = None) -> None:
        """Time every call of ``owner.attr`` (a method defined on class
        ``owner``, or a function of module ``owner``) as an entry point of
        ``layer``; ``inspect(args, result)`` sees each call's arguments
        and result."""
        original = vars(owner).get(attr)
        if original is None:
            raise AttributeError(f"{owner!r} defines no {attr!r} to trace")
        label = name or f"{layer}:{owner.__name__}.{attr}"
        row = self._row(label, layer)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = tracer.run(row, label, original, args, kwargs)
            if inspect is not None:
                inspect(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def patch_scheduler(self, cls: type, attr: str) -> None:
        """Wrap the callback argument of a scheduling method so the deferred
        call runs as a span of the callback's own layer."""
        original = cls.__dict__[attr]
        defer = self.defer

        @functools.wraps(original)
        def scheduling(sched: Any, delay: float, callback: Callable[..., Any],
                       *args: Any, **kwargs: Any) -> Any:
            return original(sched, delay, defer(callback), *args, **kwargs)

        setattr(cls, attr, scheduling)
        self._patches.append((cls, attr, original))

    def defer(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """``callback`` as a span of its module's layer, carrying the
        current request and span."""
        if isinstance(callback, _Deferred):
            return callback
        fn = callback
        if isinstance(fn, functools.partial):
            fn = fn.func
        fn = getattr(fn, "__func__", fn)
        key = getattr(fn, "__code__", fn)
        cached = self._callback_rows.get(key)
        if cached is None:
            layer = layer_of_module(getattr(fn, "__module__", None) or "")
            qualname = getattr(fn, "__qualname__", type(fn).__name__)
            label = f"{layer}:{qualname}"
            cached = (self._row(label, layer), label)
            self._callback_rows[key] = cached
        return _Deferred(self, cached[0], cached[1], callback)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_self_seconds(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS + ("driver",)}
        for layer, _calls, _incl, self_s in self.rows.values():
            totals[layer] += self_s
        return totals

    def calls(self, *names: str) -> int:
        return sum(self.rows[n][1] for n in names if n in self.rows)

    def self_seconds(self, *names: str) -> float:
        return sum(self.rows[n][3] for n in names if n in self.rows)

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the aggregates and the sampled spans, once, as JSON."""
        origin = min((s[4] for s in self.spans), default=0.0)
        doc = {
            "meta": meta,
            "entry_points": {
                name: {"layer": layer, "calls": calls,
                       "inclusive_s": incl, "self_s": self_s}
                for name, (layer, calls, incl, self_s)
                in sorted(self.rows.items()) if calls
            },
            "sampled_requests": {str(req): kind for req, kind
                                 in self._req_kinds.items()},
            "spans_dropped": self.spans_dropped,
            "spans": [
                {"id": sid, "parent": parent, "request": req, "name": name,
                 "start_us": round((start - origin) * 1e6, 3),
                 "end_us": round((end - origin) * 1e6, 3)}
                for sid, parent, req, name, start, end in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
