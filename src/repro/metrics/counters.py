"""A small named-counter registry for protocol and cache instrumentation.

Counters are plain monotonically-increasing integers addressed by dotted
names ("scribe.acc_cache.hit", "query.probe_cache.invalidate", ...).  One
registry is shared by every node of a simulated plane, so experiments read
federation-wide totals from a single place.  Established families include
``scribe.*`` (tree caches), ``query.probe_cache.*``, ``query.retry.*``
(probe / anycast / site protocol-step retries), ``query.degraded`` and
``query.orphan_release`` (failure-path settlements), ``faults.*``
(injected crashes, partitions, and message-rule hits), and — when span
tracing is on — ``query.step.*``, one counter per finished protocol-step
span (``query.step.probe``, ``query.step.anycast``, ``query.step.backoff``,
``query.step.site_rtt``, ``query.step.site_exec``, ...).

Cache families count ``hit`` and ``miss`` per lookup.  Their
``invalidate`` counters differ: ``scribe.acc_cache.invalidate`` counts
accumulator-memo entries really dropped when an input changed, while
``scribe.result_cache.invalidate`` and ``query.probe_cache.invalidate``
count stale entries *found at read* — entries whose stamped tree version
no longer matches (see :mod:`repro.scribe.cache`); a stale entry never
read again is not counted.

The registry itself stays flat and type-free because the simulator is
single-threaded and most consumers are tests and benchmark tables.
Labeled instruments (histograms, gauges, counters keyed by
``{site, tree, protocol_step}``) live one layer up in
:mod:`repro.obs.metrics`: a :class:`repro.obs.metrics.MetricsRegistry`
wraps this registry and *mirrors* every labeled-counter increment back
into it under ``<family>.<step>``, so flat consumers (``--show-counters``,
benchmark JSON) see the labeled families without code changes; span/trace
export machinery likewise lives in :mod:`repro.obs`, layered over — never
replacing — these counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.metrics.stats import format_table


class CounterRegistry:
    """Named monotonic counters with snapshot/reset semantics.

    Unknown names read as zero, so callers never have to pre-register:
    the first ``increment`` creates the counter.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def increment(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to counter ``name`` and return the new value."""
        value = self._counts.get(name, 0) + amount
        self._counts[name] = value
        return value

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 when never incremented)."""
        return self._counts.get(name, 0)

    def names(self, prefix: Optional[str] = None) -> List[str]:
        """Sorted counter names, optionally filtered by dotted prefix."""
        return sorted(n for n in self._counts if prefix is None or n.startswith(prefix))

    # ------------------------------------------------------------------
    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, int]:
        """A point-in-time copy of the counters (mutations don't leak back)."""
        return {n: self._counts[n] for n in self.names(prefix)}

    def reset(self, prefix: Optional[str] = None) -> None:
        """Forget all counters, or only those under a dotted prefix."""
        if prefix is None:
            self._counts.clear()
            return
        for name in [n for n in self._counts if n.startswith(prefix)]:
            del self._counts[name]

    def merge(self, other: "CounterRegistry") -> None:
        """Fold another registry's counts into this one (sums per name)."""
        for name, value in other._counts.items():
            self.increment(name, value)

    # ------------------------------------------------------------------
    def format(self, prefix: Optional[str] = None) -> str:
        """An aligned two-column table of (counter, value), for CLI output."""
        rows = [[name, self._counts[name]] for name in self.names(prefix)]
        return format_table(["counter", "value"], rows)

    def __len__(self) -> int:
        return len(self._counts)
