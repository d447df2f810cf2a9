"""Ablation: push (periodic roll-up) vs. pull (on-demand) aggregation.

Moara's observation (related work, §V-C): the right aggregation strategy
depends on the query rate vs. the update rate.  RBAY's push pipeline pays
bandwidth per *update wave* and answers queries from the root for free;
pull pays one tree walk per *query* and nothing between queries.

We run the same tree under two regimes — update-heavy/query-light and
update-light/query-heavy — and measure total aggregation traffic.
"""

import pytest

from benchmarks.conftest import print_banner
from repro.metrics.stats import format_table
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.net.site import SiteRegistry
from repro.pastry.overlay import Overlay
from repro.scribe.scribe import ScribeApplication
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams

N_NODES = 160
MEMBERS = 100

#: (label, update waves, queries)
REGIMES = (
    ("update-heavy (50 waves, 2 queries)", 50, 2),
    ("query-heavy (2 waves, 50 queries)", 2, 50),
)


def build():
    sim = Simulator()
    streams = RandomStreams(808)
    registry = SiteRegistry()
    site = registry.add("S", "X")
    network = Network(sim, UniformLatencyModel(0.3), account_bytes=True)
    overlay = Overlay(sim, network, streams, registry)
    for _ in range(N_NODES):
        overlay.create_node(site)
    overlay.bootstrap()
    for node in overlay.nodes:
        node.register_app(ScribeApplication(sim))
    rng = streams.stream("members")
    members = rng.sample(overlay.nodes, MEMBERS)
    for member in members:
        member.app("scribe").join(member, "U")
    sim.run()
    return sim, network, overlay, members


def run_mode(mode: str, waves: int, queries: int):
    sim, network, overlay, members = build()
    rng = RandomStreams(809).stream("values")
    asker = overlay.nodes[0]
    network.reset_counters()
    answers = []
    for wave in range(waves):
        for member in members:
            if mode == "push":
                member.app("scribe").set_local(member, "U", "avg", rng.random())
            else:
                # Pull mode: updates mutate local state only — no pushes.
                state = member.app("scribe").topics()["U"]
                state.local["avg"] = rng.random()
        sim.run()
    for _ in range(queries):
        if mode == "push":
            answers.append(asker.app("scribe").query_aggregate(
                asker, "U", ["avg"]).result()["avg"])
        else:
            answers.append(asker.app("scribe").query_aggregate_fresh(
                asker, "U", ["avg"]).result()["avg"])
    return {"bytes": network.bytes_sent, "messages": network.messages_sent,
            "answers": answers}


def run_experiment():
    results = {}
    for label, waves, queries in REGIMES:
        results[label] = {
            "push": run_mode("push", waves, queries),
            "pull": run_mode("pull", waves, queries),
        }
    return results


@pytest.mark.benchmark(group="ablation-push-pull")
def test_ablation_push_vs_pull_aggregation(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    print_banner(f"Ablation: push vs. pull aggregation over a {MEMBERS}-member tree")
    rows = []
    for label, _, _ in REGIMES:
        push, pull = results[label]["push"], results[label]["pull"]
        rows.append([label, push["messages"], pull["messages"],
                     "pull" if pull["messages"] < push["messages"] else "push"])
    print(format_table(
        ["regime", "push msgs", "pull msgs", "cheaper"],
        rows,
    ))

    update_heavy = results[REGIMES[0][0]]
    query_heavy = results[REGIMES[1][0]]
    # The crossover: pull wins when updates dominate; push wins when
    # queries dominate.
    assert update_heavy["pull"]["messages"] < update_heavy["push"]["messages"]
    assert query_heavy["push"]["messages"] < query_heavy["pull"]["messages"]
    # Both modes return correct (same-distribution) answers in their last
    # query: the final average over uniform[0,1) draws is near 0.5.
    for regime in results.values():
        for mode in regime.values():
            assert 0.3 < mode["answers"][-1] < 0.7
