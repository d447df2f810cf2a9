"""Tests for the Past and Ganglia baselines."""

import pytest

from repro.baselines.ganglia import GangliaFederation
from repro.baselines.past import PastStore
from repro.net.latency import TableIILatencyModel, make_ec2_registry
from repro.net.network import Network
from repro.query.predicates import Predicate


class TestPastStore:
    def test_put_get(self):
        store = PastStore()
        store.put("GPU", 1)
        store.put("GPU", 2)
        assert store.get("GPU") == [1, 2]

    def test_get_missing_is_none(self):
        assert PastStore().get("nope") is None

    def test_get_ignores_payload(self):
        store = PastStore()
        store.put("GPU", 1)
        assert store.get("GPU", payload={"password": "x"}) == [1]

    def test_get_returns_copy(self):
        store = PastStore()
        store.put("GPU", 1)
        store.get("GPU").append(99)
        assert store.get("GPU") == [1]

    def test_remove_whole_attribute(self):
        store = PastStore()
        store.put("GPU", 1)
        assert store.remove("GPU")
        assert store.get("GPU") is None
        assert not store.remove("GPU")

    def test_remove_single_node(self):
        store = PastStore()
        store.put("GPU", 1)
        store.put("GPU", 2)
        assert store.remove("GPU", 1)
        assert store.get("GPU") == [2]
        assert not store.remove("GPU", 99)

    def test_remove_last_node_drops_attribute(self):
        store = PastStore()
        store.put("GPU", 1)
        store.remove("GPU", 1)
        assert store.attribute_count() == 0

    def test_len(self):
        store = PastStore()
        store.put("a", 1)
        store.put("b", 1)
        assert len(store) == 2


@pytest.fixture
def ganglia(sim):
    registry = make_ec2_registry()
    network = Network(sim, TableIILatencyModel())
    federation = GangliaFederation(sim, network, registry.by_name("Virginia"))
    next_id = [0]
    for site in registry:
        ids = list(range(next_id[0], next_id[0] + 10))
        next_id[0] += 10
        federation.add_cluster(site, ids)
    for i, node in enumerate(federation.nodes):
        node.set_attribute("GPU", i % 2 == 0)
        node.set_attribute("util", float(i % 100))
    return federation, registry


class TestGanglia:
    def test_snapshot_flows_to_manager(self, sim, ganglia):
        federation, registry = ganglia
        federation.start(announce_interval_ms=100.0, poll_interval_ms=100.0)
        sim.run(until=1_000.0)
        federation.stop()
        assert len(federation.manager.global_snapshot) == len(federation.nodes)

    def test_query_served_from_snapshot(self, sim, ganglia):
        federation, registry = ganglia
        federation.start(announce_interval_ms=100.0, poll_interval_ms=100.0)
        sim.run(until=1_000.0)
        federation.stop()
        client = federation.make_client(registry.by_name("Tokyo"))
        future = client.query(federation.manager.address,
                              [Predicate("GPU", "=", True)], k=5)
        node_ids = future.result()
        assert len(node_ids) == 5
        assert all(nid % 2 == 0 for nid in node_ids)

    def test_site_filter(self, sim, ganglia):
        federation, registry = ganglia
        federation.start(announce_interval_ms=100.0, poll_interval_ms=100.0)
        sim.run(until=1_000.0)
        federation.stop()
        client = federation.make_client(registry.by_name("Tokyo"))
        node_ids = client.query(federation.manager.address,
                                [Predicate("GPU", "=", True)],
                                sites=["Virginia"]).result()
        assert node_ids
        assert all(federation.manager.node_sites[nid] == "Virginia" for nid in node_ids)

    def test_central_policy_checks_burden_manager(self, sim, ganglia):
        federation, registry = ganglia
        for node in federation.nodes:
            federation.manager.policies[node.node_id] = (
                lambda payload: payload == "pw"
            )
        federation.start(announce_interval_ms=100.0, poll_interval_ms=100.0)
        sim.run(until=500.0)
        federation.stop()
        client = federation.make_client(registry.by_name("Tokyo"))
        good = client.query(federation.manager.address,
                            [Predicate("GPU", "=", True)], payload="pw").result()
        bad = client.query(federation.manager.address,
                           [Predicate("GPU", "=", True)], payload="x").result()
        assert good and not bad
        assert federation.manager.policy_checks > 0

    def test_manager_inbound_bandwidth_grows_with_nodes(self, sim):
        registry = make_ec2_registry()

        def run_federation(nodes_per_site):
            from repro.sim.engine import Simulator

            local_sim = Simulator()
            network = Network(local_sim, TableIILatencyModel(),
                              account_bytes=True)
            federation = GangliaFederation(local_sim, network, registry[0])
            next_id = 0
            for site in registry:
                federation.add_cluster(site, list(range(next_id, next_id + nodes_per_site)))
                next_id += nodes_per_site
            for node in federation.nodes:
                node.set_attribute("blob", "x" * 100)
            federation.start(announce_interval_ms=100.0, poll_interval_ms=100.0)
            local_sim.run(until=1_000.0)
            federation.stop()
            return federation.manager_inbound_bytes()

        small = run_federation(5)
        large = run_federation(20)
        assert large > small * 3  # inbound load scales with federation size

    def test_manager_inbound_bytes_requires_byte_accounting(self, sim, ganglia):
        federation, _registry = ganglia
        federation.start(announce_interval_ms=100.0, poll_interval_ms=100.0)
        sim.run(until=500.0)
        federation.stop()
        assert federation.network.per_host_received[federation.manager.address]
        with pytest.raises(RuntimeError, match="account_bytes=True"):
            federation.manager_inbound_bytes()

    def test_query_latency_includes_manager_rtt(self, sim, ganglia):
        federation, registry = ganglia
        federation.start(announce_interval_ms=50.0, poll_interval_ms=50.0)
        sim.run(until=500.0)
        federation.stop()
        client = federation.make_client(registry.by_name("Tokyo"))
        start = sim.now
        client.query(federation.manager.address,
                     [Predicate("GPU", "=", True)], k=1).result()
        elapsed = sim.now - start
        # Manager sits in Virginia; Tokyo's RTT to Virginia is ~191.6 ms.
        assert elapsed >= 191.0
