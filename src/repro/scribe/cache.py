"""Bounded-staleness caching for finalized tree answers.

RBAY's query protocol starts every query by probing candidate trees for
their sizes, and tolerant readers may reuse a root's recent answer instead
of asking again.  :class:`TTLCache` is the memo for those *finalized*
answers (root aggregate values, the executor's step-1 tree-size probes).
A hit requires the entry to be younger than the caller's ``max_age_ms``
staleness bound; callers that demand coherent answers pass a bound of
zero (or omit it), which bypasses the cache entirely.

Entries are validated when they are read, not when something is written.
The owner supplies ``version_of(topic)``, a per-topic counter that the
co-located Scribe instance bumps on every change to its view of the tree
(:meth:`repro.scribe.scribe.ScribeApplication.topic_version`).  ``put``
stamps each entry with the current version; a read that finds a different
version treats the entry as a miss and drops it.  The write path therefore
pays nothing for these caches.

The exact subtree-accumulator memo is not here: it is a plain per-topic
dict (``TopicState.acc``) that the Scribe write path drops names from.

Counters, reported into a :class:`repro.metrics.counters.CounterRegistry`
under a dotted prefix:

* ``<prefix>.hit`` / ``<prefix>.miss`` — one per ``get``.
* ``<prefix>.invalidate`` — stale entries *found at read* (a version
  mismatch seen by ``get`` or ``fresh_items``), for
  ``scribe.result_cache`` and ``query.probe_cache`` alike.  An entry made
  stale but never read again is not counted.
* ``scribe.acc_cache.hit|miss|invalidate`` (counted by the Scribe
  application for ``TopicState.acc``): one hit or miss per memo lookup,
  and one invalidation per memo entry really dropped by a recompute.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.metrics.counters import CounterRegistry

#: Sentinel distinguishing "no cached entry" from a cached None.
_MISS = object()


class TTLCache:
    """Timestamped key/value memo honoring per-read staleness bounds.

    Keys are bare topic names or tuples whose first element is the topic.
    Entries never expire at write time; each ``get`` decides freshness
    against the caller's own ``max_age_ms``, so one cache can serve
    callers with different staleness tolerances.  A bound that is ``None``
    or non-positive always misses — TTL=0 means "only coherent answers",
    and those must come from the authoritative path.
    """

    def __init__(self, version_of: Callable[[str], int],
                 counters: Optional[CounterRegistry] = None,
                 prefix: str = "ttl_cache"):
        # key -> (value, stored_at, topic version at put time)
        self._entries: Dict[Hashable, Tuple[Any, float, int]] = {}
        self.version_of = version_of
        self._counters = counters
        self._hit_name = prefix + ".hit"
        self._miss_name = prefix + ".miss"
        self._invalidate_name = prefix + ".invalidate"

    def _version(self, key: Hashable) -> int:
        return self.version_of(key if type(key) is str else key[0])

    def _is_stale(self, key: Hashable, version: int) -> bool:
        """Drop ``key`` (counting an invalidation) if its stamp is stale."""
        if version == self._version(key):
            return False
        del self._entries[key]
        if self._counters is not None:
            self._counters.increment(self._invalidate_name)
        return True

    # ------------------------------------------------------------------
    def get(self, key: Hashable, now: float,
            max_age_ms: Optional[float]) -> Tuple[bool, Any]:
        """Look up ``key``; returns ``(hit, value)``.

        A hit requires an entry stored no more than ``max_age_ms`` ago at
        the topic version that is current now.
        """
        hit = False
        value = None
        if max_age_ms is not None and max_age_ms > 0:
            entry = self._entries.get(key)
            if entry is not None:
                value, stored_at, version = entry
                hit = (not self._is_stale(key, version)
                       and now - stored_at <= max_age_ms)
        if self._counters is not None:
            self._counters.increment(self._hit_name if hit else self._miss_name)
        return (True, value) if hit else (False, None)

    def put(self, key: Hashable, value: Any, now: float) -> None:
        """Store ``value`` for ``key``, stamped with the time and version."""
        self._entries[key] = (value, now, self._version(key))

    def fresh_items(self, now: float, max_age_ms: Optional[float]) -> Dict[Hashable, Any]:
        """All entries still within the staleness bound (for planner hints)."""
        if max_age_ms is None or max_age_ms <= 0:
            return {}
        return {k: v for k, (v, stored_at, version) in list(self._entries.items())
                if not self._is_stale(k, version) and now - stored_at <= max_age_ms}

    def __len__(self) -> int:
        return len(self._entries)
