"""The Pastry leaf set: the L nodes numerically closest to the owner.

Half the entries precede the owner on the ring, half follow it.  The leaf
set completes the last routing step and repairs routing state on failures
(paper §II-B1).  For RBAY's administrative isolation (§III-E) each entry is
tagged with the site it belongs to.
"""

from __future__ import annotations

from typing import List, Optional

from repro.pastry.nodeid import NodeId
from repro.pastry.routing_table import NodeRef

#: Default leaf-set size (L); L/2 on each side, FreePastry's default is 24,
#: the original paper uses 16 — we follow the original.
DEFAULT_LEAF_SET_SIZE = 16


class LeafSet:
    """Nodes adjacent to the owner on the id ring, split by direction."""

    def __init__(self, owner_id: NodeId, size: int = DEFAULT_LEAF_SET_SIZE):
        if size < 2 or size % 2:
            raise ValueError("leaf set size must be an even number >= 2")
        self.owner_id = owner_id
        self.half = size // 2
        # Sorted by clockwise distance from owner (nearest first).
        self._cw: List[NodeRef] = []   # successors (larger ids, wrapping)
        self._ccw: List[NodeRef] = []  # predecessors
        # Membership index: addresses of every current member, so the
        # duplicate check in add() is one set probe, not a list scan.
        self._addrs: set = set()
        #: Monotonic membership-change counter; next-hop caches compare it
        #: to detect staleness without subscribing to mutations.
        self.version = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, ref: NodeRef) -> bool:
        """Consider ``ref`` for membership; returns True if stored."""
        if ref.node_id == self.owner_id:
            return False
        if ref.address in self._addrs:
            return False
        cw_dist = self.owner_id.clockwise_distance(ref.node_id)
        clockwise = cw_dist <= (1 << 127)
        side = self._cw if clockwise else self._ccw
        if len(side) >= self.half:
            # Full side: a newcomer no nearer than the farthest member would
            # sort last (the sort is stable) and be popped straight away.
            dist = cw_dist if clockwise else (1 << 128) - cw_dist
            if dist >= self._side_distance(side[-1], clockwise):
                return False
        side.append(ref)
        side.sort(key=lambda r: self._side_distance(r, clockwise))
        if len(side) > self.half:
            dropped = side.pop()
            stored = dropped.address != ref.address
            if stored:
                self._addrs.discard(dropped.address)
                self._addrs.add(ref.address)
        else:
            stored = True
            self._addrs.add(ref.address)
        if stored:
            self.version += 1
        return stored

    def _side_distance(self, ref: NodeRef, clockwise: bool) -> int:
        d = self.owner_id.clockwise_distance(ref.node_id)
        return d if clockwise else (1 << 128) - d

    def remove(self, address: int) -> bool:
        """Drop ``address`` from both arcs; True if anything was removed
        (which also bumps :attr:`version`, invalidating hop caches)."""
        before = len(self._cw) + len(self._ccw)
        self._cw = [r for r in self._cw if r.address != address]
        self._ccw = [r for r in self._ccw if r.address != address]
        removed = len(self._cw) + len(self._ccw) != before
        if removed:
            self._addrs.discard(address)
            self.version += 1
        return removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def members(self) -> List[NodeRef]:
        return list(self._ccw) + list(self._cw)

    def covers(self, key: NodeId) -> bool:
        """True if ``key`` falls within the leaf-set arc around the owner.

        Pastry delivers directly (one hop at most) once the key is covered.
        An empty side means the ring is small enough that we cover everything
        on that side.
        """
        if len(self._ccw) < self.half and len(self._cw) < self.half:
            # Neither side is full: we know every node on the ring.
            return True
        low = self._ccw[-1].node_id if self._ccw else self.owner_id
        high = self._cw[-1].node_id if self._cw else self.owner_id
        return key.is_between(low, high)

    def closest(self, key: NodeId) -> NodeRef:
        """The member (or owner, encoded as None) numerically closest to key.

        Returns the closest :class:`NodeRef`; callers compare against the
        owner's own distance to decide whether to deliver locally.
        """
        best: Optional[NodeRef] = None
        best_dist = None
        for ref in self.members():
            d = ref.node_id.distance(key)
            if best_dist is None or d < best_dist or (d == best_dist and ref.node_id < best.node_id):
                best, best_dist = ref, d
        if best is None:
            raise LookupError("leaf set is empty")
        return best

    def closer_than_owner(self, key: NodeId) -> Optional[NodeRef]:
        """Member strictly closer to ``key`` than the owner, if any.

        Ties break toward the numerically smaller id so every node agrees on
        the same root for a key (deterministic rendezvous).
        """
        owner_dist = self.owner_id.distance(key)
        candidate = None
        candidate_dist = owner_dist
        for ref in self.members():
            d = ref.node_id.distance(key)
            if d < candidate_dist or (
                d == candidate_dist
                and (candidate is None and ref.node_id < self.owner_id or
                     candidate is not None and ref.node_id < candidate.node_id)
            ):
                candidate, candidate_dist = ref, d
        return candidate

    def __len__(self) -> int:
        return len(self._cw) + len(self._ccw)

    def __contains__(self, address: int) -> bool:
        return address in self._addrs
