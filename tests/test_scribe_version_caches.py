"""Read-time validation of the bounded-staleness caches.

The scribe result cache and the query layer's probe cache stamp each
entry with the co-located Scribe instance's topic version and treat a
mismatch at read time as a miss.  For every change to a node's view of a
tree — the sites that bump ``TopicState.version`` — an entry put before
the change must not be served after it, neither by ``get`` nor through
the planner's ``cardinality_hints``.  A ``maintain()`` tick on an
unchanged tree re-pushes aggregates (dropping accumulator memos) but is
not a tree change, so it must leave both caches valid.
"""

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.net.message import Message
from repro.pastry.routing_table import NodeRef
from repro.scribe.rebalance import Rebalancer, RebalanceConfig

TTL = 60_000.0
TOPIC = "version-probe"


@pytest.fixture
def plane():
    plane = RBay(RBayConfig(seed=41, synthetic_sites=1, nodes_per_site=10,
                            jitter=False, probe_cache_ms=TTL)).build()
    plane.sim.run()
    for i, node in enumerate(plane.nodes):
        node.scribe.join(node, TOPIC)
        node.scribe.set_local(node, TOPIC, "sum", float(i))
    plane.sim.run()
    # A ring this small joins every member straight to the root: re-home
    # two members under a third so the tree has an interior node.
    parent, *children = [n for n in plane.nodes
                         if not n.scribe.topics()[TOPIC].is_root][:3]
    state = parent.scribe.topics()[TOPIC]
    for child in children:
        parent.scribe._add_child(parent, state, NodeRef(
            child.node_id, child.address, child.site.index))
    plane.sim.run()
    assert interior(plane) is parent
    return plane


def interior(plane):
    """A non-root member with a live parent and at least one child."""
    return next(n for n in plane.nodes
                if (s := n.scribe.topics()[TOPIC]).parent is not None
                and s.children and not s.is_root)


def root(plane):
    return next(n for n in plane.nodes if n.scribe.topics()[TOPIC].is_root)


def leaf(plane):
    """A non-root member with a parent and no children."""
    return next(n for n in plane.nodes
                if (s := n.scribe.topics()[TOPIC]).parent is not None
                and not s.children)


def prime(plane, node, topic=TOPIC):
    node.app("query").probe_cache.put(topic, 5, plane.sim.now)
    node.scribe.result_cache.put((topic, "count"), 7, plane.sim.now)


def served(plane, node, topic=TOPIC):
    """Which of the two caches still answer for ``topic`` at ``node``."""
    qapp = node.app("query")
    probe_hint = qapp.probe_size_hints().get(topic)
    hint = qapp.cardinality_hints(node).get(topic)
    probe_hit, _ = qapp.probe_cache.get(topic, plane.sim.now, TTL)
    result_hit, _ = node.scribe.result_cache.get(
        (topic, "count"), plane.sim.now, TTL)
    return {"probe": probe_hit, "result": result_hit,
            "probe_hint": probe_hint is not None, "hint": hint is not None}


NOTHING = {"probe": False, "result": False, "probe_hint": False,
           "hint": False}
EVERYTHING = {"probe": True, "result": True, "probe_hint": True,
              "hint": True}


def other_node(plane, *exclude):
    return next(n for n in plane.nodes if n.address not in exclude)


def set_local_flush_idle(plane, node):
    assert node.scribe._flush_event is None
    node.scribe.set_local(node, TOPIC, "sum", 99.0)


def set_local_flush_armed(plane, node):
    node.scribe.set_local(node, TOPIC, "max", 1.0)   # arms the flush timer
    prime(plane, node)
    assert node.scribe._flush_event is not None
    node.scribe.set_local(node, TOPIC, "sum", 99.0)


def clear_local(plane, node):
    node.scribe.clear_local(node, TOPIC, "sum")


def child_push(plane, node):
    state = node.scribe.topics()[TOPIC]
    child = next(iter(state.children))
    node.scribe.host_message(node, Message(kind="app", payload={
        "kind": "agg_push_batch", "origin": child,
        "data": {"child": None,
                 "updates": [{"topic": TOPIC, "agg": "sum", "acc": 123.0}]},
    }))


def child_push_flush_armed(plane, node):
    node.scribe.set_local(node, TOPIC, "max", 1.0)   # arms the flush timer
    prime(plane, node)
    assert node.scribe._flush_event is not None
    child_push(plane, node)


def prune(plane, node):
    state = node.scribe.topics()[TOPIC]
    node.scribe.leave(node, TOPIC)   # still a forwarder for its children
    for child in list(state.children):
        node.scribe._drop_child(node, state, child)
    prime(plane, node)
    node.scribe._maybe_prune(node, state)


def join(plane, node):
    node.scribe.join(node, "fresh-topic")


def leave(plane, node):
    node.scribe.leave(node, TOPIC)


def add_child(plane, node):
    state = node.scribe.topics()[TOPIC]
    new = other_node(plane, node.address, state.parent, *state.children)
    node.scribe._add_child(node, state,
                           NodeRef(new.node_id, new.address, new.site.index))


def drop_child(plane, node):
    state = node.scribe.topics()[TOPIC]
    node.scribe._drop_child(node, state, next(iter(state.children)))


def reparent(plane, node):
    state = node.scribe.topics()[TOPIC]
    new = other_node(plane, node.address, state.parent)
    node.scribe._on_parent_set(node, TOPIC, new.address)


def maintain_detach(plane, node):
    state = node.scribe.topics()[TOPIC]
    injector = plane.install_faults()
    parent = next(n for n in plane.nodes if n.address == state.parent)
    injector.crash_node(plane.nodes.index(parent))
    node.scribe.maintain(node)


def become_root(plane, node):
    state = node.scribe.topics()[TOPIC]
    node.scribe.deliver(node, state.key, Message(kind="route", payload={
        "data": {"op": "join", "topic": TOPIC, "scope": state.scope,
                 "child": node.scribe._packed_self(node)}}))


def parent_gone(plane, node):
    state = node.scribe.topics()[TOPIC]
    node.scribe._on_parent_gone(node, {"topic": TOPIC}, state.parent)


def replica_promote(plane, node):
    state = node.scribe.topics()[TOPIC]
    node.scribe._on_replica_promote(node, {
        "topic": TOPIC, "scope": state.scope, "values": {}, "peers": [],
        "assigned": []}, state.parent)


def replica_demote(plane, node):
    state = node.scribe.topics()[TOPIC]
    replica_promote(plane, node)
    prime(plane, node)
    node.scribe._on_replica_demote(node, {"topic": TOPIC}, state.parent)


def replica_refuse(plane, node):
    state = node.scribe.topics()[TOPIC]
    child = next(iter(state.children))
    state.replicas[child] = state.children[child]
    prime(plane, node)
    node.scribe._on_replica_refuse(node, {"topic": TOPIC}, child)


def promote_replicas(plane, node):
    node.scribe.rebalancer = Rebalancer(plane.sim, RebalanceConfig())
    assert node.scribe._promote_replicas(node, node.scribe.topics()[TOPIC])


def demote_replicas(plane, node):
    promote_replicas(plane, node)
    prime(plane, node)
    node.scribe._demote_replicas(node, node.scribe.topics()[TOPIC])


def drop_vanished_replica(plane, node):
    state = node.scribe.topics()[TOPIC]
    state.replicas[node.address + 10_000] = next(iter(state.children.values()))
    prime(plane, node)
    node.scribe._replica_maintain(node)


#: (where the change happens, the change)
CHANGES = [(interior, change) for change in (
    set_local_flush_idle, set_local_flush_armed, clear_local, child_push,
    child_push_flush_armed, join, leave, prune, add_child, drop_child,
    reparent, maintain_detach, become_root, parent_gone, replica_promote,
    replica_demote, replica_refuse)] + [(root, change) for change in (
        promote_replicas, demote_replicas, drop_vanished_replica)]


@pytest.mark.parametrize("pick,change", CHANGES,
                         ids=[f"{pick.__name__}-{change.__name__}"
                              for pick, change in CHANGES])
def test_entry_put_before_a_tree_change_is_not_served(plane, pick, change):
    node = pick(plane)
    topic = "fresh-topic" if change is join else TOPIC
    prime(plane, node, topic)
    assert served(plane, node, topic) == EVERYTHING
    prime(plane, node, topic)
    version = node.scribe.topic_version(topic)
    change(plane, node)
    assert node.scribe.topic_version(topic) > version
    invalidated = plane.counters.get("query.probe_cache.invalidate")
    assert served(plane, node, topic) == NOTHING
    # Stale entries are counted when a read finds them.
    assert plane.counters.get("query.probe_cache.invalidate") == invalidated + 1


def test_entry_put_after_the_change_is_served(plane):
    node = interior(plane)
    node.scribe.set_local(node, TOPIC, "sum", 99.0)
    prime(plane, node)
    assert served(plane, node) == EVERYTHING


def test_topic_version_is_zero_without_state(plane):
    node = plane.nodes[0]
    assert node.scribe.topic_version("never-seen") == 0
    prime(plane, node, "never-seen")
    node.scribe.topic_state("never-seen")   # creating state is no change
    assert node.scribe.topic_version("never-seen") == 0
    assert served(plane, node, "never-seen") == EVERYTHING


@pytest.mark.parametrize("pick", [leaf, interior])
def test_maintain_on_unchanged_tree_keeps_caches_valid(plane, pick):
    node = pick(plane)
    prime(plane, node)
    version = node.scribe.topic_version(TOPIC)
    dropped = plane.counters.get("scribe.acc_cache.invalidate")
    node.scribe.maintain(node)
    # The periodic re-push drops accumulator memos ...
    assert plane.counters.get("scribe.acc_cache.invalidate") > dropped
    # ... but is not a tree change.
    assert node.scribe.topic_version(TOPIC) == version
    assert served(plane, node) == EVERYTHING
    if pick is leaf:
        # Nothing the tick sends comes back down to change a leaf's view.
        plane.sim.run()
        assert node.scribe.topic_version(TOPIC) == version
        assert served(plane, node) == EVERYTHING
