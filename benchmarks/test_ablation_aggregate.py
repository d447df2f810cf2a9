"""Ablation: in-network aggregation vs. shipping raw state to the root.

The paper (§II-B3, §V-B) criticizes tools "without in-network aggregation;
hence, all individual data are returned to a local machine, even though
only their aggregates are of interest".  RBAY's aggregate primitive rolls
partial results up the tree so the root's inbound load is bounded by its
tree fan-in, not by the member count.

We build one large tree, compute a global aggregate both ways, and compare
the bytes and messages arriving at the root.
"""

import pytest

from benchmarks.conftest import print_banner
from repro.metrics.stats import format_table
from repro.net.latency import TableIILatencyModel, make_ec2_registry
from repro.net.message import Message
from repro.net.network import Network
from repro.pastry.overlay import Overlay
from repro.scribe.scribe import ScribeApplication
from repro.scribe.topic import topic_id
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams

MEMBERS = 300
NODES_PER_SITE = 50


def build():
    sim = Simulator()
    streams = RandomStreams(404)
    registry = make_ec2_registry()
    network = Network(sim, TableIILatencyModel(), account_bytes=True)
    overlay = Overlay(sim, network, streams, registry)
    overlay.create_population(NODES_PER_SITE)
    overlay.bootstrap()
    for node in overlay.nodes:
        node.register_app(ScribeApplication(sim))
    rng = streams.stream("members")
    members = rng.sample(overlay.nodes, MEMBERS)
    return sim, network, overlay, members


def run_aggregate():
    """RBAY: each member contributes a value; the tree rolls it up."""
    sim, network, overlay, members = build()
    for member in members:
        member.app("scribe").join(member, "util")
    sim.run()
    root = overlay.root_of(topic_id("util"))
    network.reset_counters()
    for i, member in enumerate(members):
        member.app("scribe").set_local(member, "util", "avg", float(i))
    sim.run()
    asker = overlay.nodes[0]
    value = asker.app("scribe").query_aggregate(asker, "util", ["avg"]).result()
    return {
        "root_bytes": network.per_host_bytes_in[root.address],
        "root_msgs": network.per_host_received[root.address],
        "value": value["avg"],
    }


def run_ship_all():
    """Baseline: every member ships its raw state straight to the root."""
    sim, network, overlay, members = build()
    root = overlay.root_of(topic_id("util"))
    received = []

    original = root.on_message

    def collecting(msg):
        if msg.kind == "raw.state":
            received.append(msg.payload["value"])
        else:
            original(msg)

    root.on_message = collecting
    network.reset_counters()
    for i, member in enumerate(members):
        member.send(root.address, Message(kind="raw.state", payload={
            "value": float(i),
            # Realistic state reports carry identity + metadata, as the
            # aggregation pushes do.
            "node": member.node_id.hex(),
            "site": member.site.name,
        }))
    sim.run()
    value = sum(received) / len(received)
    return {
        "root_bytes": network.per_host_bytes_in[root.address],
        "root_msgs": network.per_host_received[root.address],
        "value": value,
    }


def run_experiment():
    return {"aggregate": run_aggregate(), "ship_all": run_ship_all()}


@pytest.mark.benchmark(group="ablation-aggregate")
def test_ablation_in_network_aggregation(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    agg, raw = results["aggregate"], results["ship_all"]

    print_banner(f"Ablation: computing a global average over {MEMBERS} members")
    print(format_table(
        ["strategy", "root inbound msgs", "root inbound bytes", "result"],
        [
            ["in-network aggregate", agg["root_msgs"], agg["root_bytes"],
             f"{agg['value']:.2f}"],
            ["ship raw state", raw["root_msgs"], raw["root_bytes"],
             f"{raw['value']:.2f}"],
        ],
    ))

    # Both compute the same average.
    assert agg["value"] == pytest.approx(raw["value"])
    # The root receives far fewer messages with in-network aggregation:
    # bounded by its fan-in x update cascades, not by the member count.
    assert raw["root_msgs"] >= MEMBERS
    assert agg["root_msgs"] < raw["root_msgs"]
    assert agg["root_bytes"] < raw["root_bytes"]
