"""Ablation: tree-guided anycast vs. flooding the site.

Related-work framing (§V-B): tools without in-network structures answer a
discovery query by contacting every node (or pulling all state to one
box).  RBAY's anycast walks only the attribute tree and stops as soon as
the k-entry buffer is full.  We compare messages-per-query and bytes for
the two strategies on identical populations, varying attribute rarity.
"""

import pytest

from benchmarks.conftest import print_banner
from repro.core.plane import RBay, RBayConfig
from repro.metrics.stats import format_table

NODES_PER_SITE = 40
K = 3

#: (label, fraction of site nodes holding the attribute)
RARITY = (("common", 0.5), ("uncommon", 0.15), ("rare", 0.05))


def build(fraction):
    plane = RBay(RBayConfig(seed=505, nodes_per_site=NODES_PER_SITE,
                            jitter=False)).build()
    plane.sim.run()
    site = "Virginia"
    admin = plane.admin(site)
    nodes = plane.site_nodes(site)
    holders = nodes[: max(K, int(len(nodes) * fraction))]
    for node in holders:
        admin.post_resource(node, "FPGA", True)
    plane.sim.run()
    return plane, nodes, holders


def run_tree_query(fraction):
    plane, nodes, holders = build(fraction)
    network = plane.network
    customer = plane.make_customer("tree", "Virginia")
    network.account_bytes = True
    network.reset_counters()
    result = customer.query_once(
        f"SELECT {K} FROM Virginia WHERE FPGA = true;").result()
    assert result.satisfied
    return {"messages": network.messages_sent, "bytes": network.bytes_sent}


def run_flood_query(fraction):
    """Strawman: ask every node in the site directly, take the first K."""
    plane, nodes, holders = build(fraction)
    network = plane.network
    asker = nodes[0]
    network.account_bytes = True
    network.reset_counters()
    replies = []

    # Flood: one request to every node; each replies with has/has-not.
    from repro.net.message import Message
    from repro.sim.futures import Future

    done = Future(plane.sim)
    original_handlers = {}

    def make_handler(node, original):
        def handler(msg):
            if msg.kind == "flood.ask":
                node.send(msg.src, Message(kind="flood.answer", payload={
                    "has": node.has_attribute("FPGA"),
                    "addr": node.address,
                }))
            elif msg.kind == "flood.answer":
                replies.append(msg.payload)
                if len(replies) == len(nodes) - 1:
                    done.try_resolve(True)
            else:
                original(msg)
        return handler

    for node in nodes:
        original_handlers[node] = node.on_message
        node.on_message = make_handler(node, node.on_message)
    for node in nodes:
        if node is not asker:
            asker.send(node.address, Message(kind="flood.ask", payload={}))
    done.result()
    found = [r for r in replies if r["has"]]
    if asker.has_attribute("FPGA"):
        found.append({"has": True, "addr": asker.address})
    assert len(found[:K]) == K
    for node, original in original_handlers.items():
        node.on_message = original
    return {"messages": network.messages_sent, "bytes": network.bytes_sent}


def run_experiment():
    out = {}
    for label, fraction in RARITY:
        out[label] = {
            "tree": run_tree_query(fraction),
            "flood": run_flood_query(fraction),
        }
    return out


@pytest.mark.benchmark(group="ablation-flood")
def test_ablation_tree_anycast_vs_flooding(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    print_banner(f"Ablation: find {K} FPGA nodes in a {NODES_PER_SITE}-node site "
                 "— tree anycast vs. flooding")
    rows = []
    for label, fraction in RARITY:
        tree, flood = results[label]["tree"], results[label]["flood"]
        rows.append([
            f"{label} ({fraction:.0%})",
            tree["messages"], flood["messages"],
            f"{flood['messages'] / tree['messages']:.1f}x",
        ])
    print(format_table(
        ["attribute rarity", "tree msgs", "flood msgs", "flood/tree"],
        rows,
    ))

    for label, _ in RARITY:
        tree, flood = results[label]["tree"], results[label]["flood"]
        # Flooding always pays ~2N messages; the tree walk touches the
        # probe path plus as much of the tree as the buffer needs.
        assert flood["messages"] >= 2 * (NODES_PER_SITE - 1)
        assert tree["messages"] < flood["messages"]

    # The tree advantage *grows* as the attribute gets rarer relative to
    # the tree (the anycast only walks members; the flood asks everyone).
    common_tree = results["common"]["tree"]["messages"]
    rare_tree = results["rare"]["tree"]["messages"]
    assert rare_tree <= common_tree * 1.5
