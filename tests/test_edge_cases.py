"""Edge cases across modules that the mainline suites do not reach."""

import random

import pytest

from repro.aa.values import LuetteTable, luette_to_python, python_to_luette, tostring
from repro.core.naming import _canonical_value
from repro.core.plane import RBay, RBayConfig
from repro.net.latency import SyntheticLatencyModel, UniformLatencyModel
from repro.net.message import Message
from repro.net.site import SiteRegistry
from repro.sim.futures import Future
from repro.transport.codec import CodecError


class TestLuetteValueEdges:
    def test_tostring_floats(self):
        assert tostring(3.0) == "3"
        assert tostring(3.25) == "3.25"
        assert tostring(-0.0) == "0"
        assert tostring(1e20) == repr(1e20)

    def test_mixed_table_bridges_to_dict(self):
        table = LuetteTable()
        table.set(1, "a")
        table.set("k", "v")
        bridged = luette_to_python(table)
        assert bridged == {1: "a", "k": "v"}

    def test_pure_array_bridges_to_list(self):
        assert luette_to_python(python_to_luette([1, 2, 3])) == [1, 2, 3]

    def test_nested_python_structures_round_trip(self):
        data = {"servers": [{"name": "a", "cores": 4}, {"name": "b", "cores": 8}]}
        assert luette_to_python(python_to_luette(data)) == data

    def test_table_keys_ordering(self):
        table = LuetteTable()
        table.set("z", 1)
        table.set(1, "first")
        table.set(2, "second")
        keys = table.keys()
        assert keys[:2] == [1, 2]  # array part first

    def test_boolean_keys_are_distinct_from_numbers(self):
        table = LuetteTable()
        table.set(True, "bool")
        table.set(1, "one")
        assert table.get(True) == "bool"
        assert table.get(1) == "one"


class TestCanonicalValue:
    def test_booleans(self):
        assert _canonical_value(True) == "true"
        assert _canonical_value(False) == "false"

    def test_int_float_unify(self):
        assert _canonical_value(10) == _canonical_value(10.0) == "10"

    def test_strings_pass_through(self):
        assert _canonical_value("c3.large") == "c3.large"


class TestMessageEdges:
    def test_size_of_bytes_payload(self):
        assert Message(kind="x", payload={"b": b"12345"}).size_bytes() >= 5

    def test_size_of_bool_and_none(self):
        msg = Message(kind="x", payload={"t": True, "n": None})
        assert msg.size_bytes() > 0

    def test_size_of_unserializable_payload_raises_codec_error(self):
        class Odd:
            pass

        with pytest.raises(CodecError, match=r"payload\['o'\]"):
            Message(kind="x", payload={"o": Odd()}).size_bytes()


class TestSyntheticLatency:
    def test_rtt_with_jitter_stays_positive(self):
        registry = SiteRegistry()
        sites = [registry.add(f"S{i}", "X") for i in range(4)]
        model = SyntheticLatencyModel(4, rng=random.Random(0), jitter_cv=0.3)
        for _ in range(100):
            assert model.rtt_ms(sites[0], sites[2]) > 0

    def test_nominal_is_symmetric(self):
        registry = SiteRegistry()
        sites = [registry.add(f"S{i}", "X") for i in range(5)]
        model = SyntheticLatencyModel(5, hop_ms=7.0)
        for a in sites:
            for b in sites:
                assert model.nominal_one_way_ms(a, b) == model.nominal_one_way_ms(b, a)


class TestOverlayEdges:
    def test_remove_node_detaches(self, sim, overlay):
        victim = overlay.nodes[5]
        overlay.remove_node(victim)
        assert not overlay.network.has_host(victim.address)
        assert victim in overlay.nodes  # bookkeeping keeps history
        assert victim not in overlay.live_nodes()

    def test_root_of_skips_dead(self, sim, overlay):
        key = overlay.nodes[3].node_id
        assert overlay.root_of(key) is overlay.nodes[3]
        overlay.nodes[3].fail()
        assert overlay.root_of(key) is not overlay.nodes[3]

    def test_node_by_id(self, overlay):
        node = overlay.nodes[7]
        assert overlay.node_by_id(node.node_id) is node

    def test_duplicate_node_ids_rerolled(self, sim, overlay):
        ids = [n.node_id.value for n in overlay.nodes]
        assert len(ids) == len(set(ids))


class TestPlaneEdges:
    @pytest.fixture(scope="class")
    def plane(self):
        plane = RBay(RBayConfig(seed=654, nodes_per_site=5, jitter=False)).build()
        plane.sim.run()
        return plane

    def test_random_node_site_filter(self, plane):
        rng = random.Random(0)
        for _ in range(10):
            node = plane.random_node(rng, site_name="Tokyo")
            assert node.site.name == "Tokyo"

    def test_settle_advances_clock(self, plane):
        before = plane.sim.now
        plane.settle(100.0)
        assert plane.sim.now >= before + 100.0

    def test_customer_with_explicit_home(self, plane):
        home = plane.site_nodes("Oregon")[2]
        customer = plane.make_customer("x", "Oregon", home=home)
        assert customer.home is home


class TestFutureEdges:
    def test_callbacks_added_during_resolution_fire(self, sim):
        outer = Future(sim)
        fired = []

        def chain(value):
            inner = Future(sim)
            inner.add_callback(fired.append)
            inner.resolve(value * 2)

        outer.add_callback(chain)
        outer.resolve(21)
        assert fired == [42]

    def test_timeout_zero_fires_immediately_on_run(self, sim):
        future = Future(sim, timeout=0.0)
        sim.run()
        assert future.timed_out()


class TestScribeEdges:
    def test_leave_by_root_keeps_rendezvous(self, sim, streams, scribe_overlay):
        from repro.scribe.topic import topic_id

        overlay = scribe_overlay
        root = overlay.root_of(topic_id("edge-topic"))
        root.app("scribe").join(root, "edge-topic")
        others = [n for n in overlay.nodes if n is not root][:5]
        for node in others:
            node.app("scribe").join(node, "edge-topic")
        sim.run()
        root.app("scribe").leave(root, "edge-topic")
        sim.run()
        asker = others[0]
        assert asker.app("scribe").tree_size(asker, "edge-topic").result() == 5

    def test_double_leave_is_harmless(self, sim, scribe_overlay):
        node = scribe_overlay.nodes[0]
        node.app("scribe").join(node, "t2")
        sim.run()
        node.app("scribe").leave(node, "t2")
        node.app("scribe").leave(node, "t2")
        sim.run()
        assert node.app("scribe").tree_size(node, "t2").result() == 0

    def test_anycast_visitor_exception_is_not_raised_into_loop(self, sim, scribe_overlay):
        # A visitor returning False (no match) exhausts gracefully.
        overlay = scribe_overlay
        node = overlay.nodes[0]
        node.app("scribe").join(node, "t3")
        sim.run()
        for n in overlay.nodes:
            n.app("scribe").anycast_visitor = lambda *_: False
        result = node.app("scribe").anycast(node, "t3", {}).result()
        assert not result["satisfied"]
        assert result["visited_members"] == 1
