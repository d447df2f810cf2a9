"""The leaf set's early reject of far newcomers is exact.

``LeafSet.add`` returns before appending when a side is full and the
newcomer is no nearer than that side's farthest member.  This suite drives
random add/remove sequences through the real leaf set and through a
reference copy of the plain sort-and-pop ``add`` and checks that
membership, order, the address index and ``version`` agree after every
step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pastry.leafset import LeafSet
from repro.pastry.nodeid import NodeId
from repro.pastry.routing_table import NodeRef


class SortAndPopLeafSet(LeafSet):
    """Reference: append, re-sort the side, pop the farthest."""

    def add(self, ref: NodeRef) -> bool:
        if ref.node_id == self.owner_id:
            return False
        if ref.address in self._addrs:
            return False
        cw_dist = self.owner_id.clockwise_distance(ref.node_id)
        side = self._cw if cw_dist <= (1 << 127) else self._ccw
        side.append(ref)
        side.sort(key=lambda r: self._side_distance(r, side is self._cw))
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


OWNER = 1 << 127
#: Ids clustered near the owner and at the far side of the ring, plus the
#: owner itself and exact mirror images, so ties and both sides occur.
node_ids = st.one_of(
    st.integers(min_value=OWNER - 64, max_value=OWNER + 64),
    st.integers(min_value=0, max_value=(1 << 128) - 1),
    st.sampled_from([OWNER, 0, (1 << 128) - 1, OWNER - 5, OWNER + 5]),
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), node_ids, st.integers(0, 40)),
        st.tuples(st.just("remove"), st.integers(0, 40)),
    ),
    max_size=80,
)


def snapshot(leaf_set):
    return ([(r.node_id.value, r.address) for r in leaf_set.members()],
            set(leaf_set._addrs), leaf_set.version)


@settings(max_examples=300, deadline=None)
@given(ops, st.sampled_from([2, 4, 8]))
def test_early_reject_matches_sort_and_pop(steps, size):
    real = LeafSet(NodeId(OWNER), size=size)
    reference = SortAndPopLeafSet(NodeId(OWNER), size=size)
    for step in steps:
        if step[0] == "add":
            _, value, address = step
            ref = NodeRef(NodeId(value), address, 0)
            assert real.add(ref) == reference.add(ref)
        else:
            assert real.remove(step[1]) == reference.remove(step[1])
        assert snapshot(real) == snapshot(reference)
