"""Tests for the query executor's step-1 probe cache (bounded staleness).

The five-step protocol opens every query with a size-probe round.  With
``probe_cache_ms > 0`` a query interface reuses probe answers younger
than the bound, so repeated queries skip step 1 entirely; an answer cached before any
locally observed tree change (the co-located Scribe topic version moved)
is a miss when next read, and entries older than the bound miss.
"""

import pytest

from repro.core.naming import predicate_tree_name, site_tree
from repro.core.plane import RBay, RBayConfig
from repro.query.plan import plan_query
from repro.query.sql import parse_query
from repro.workloads.generator import FederationWorkload, WorkloadSpec


def build_plane(probe_cache_ms=0.0, seed=31):
    """A dressed 8-site plane with the probe cache set as requested."""
    plane = RBay(RBayConfig(seed=seed, nodes_per_site=10, jitter=False,
                            probe_cache_ms=probe_cache_ms)).build()
    workload = FederationWorkload(plane, WorkloadSpec(password="pw")).apply()
    plane.sim.run()
    return plane, workload


def popular_type(workload, site_name):
    counts = workload.site_instance_population(site_name)
    return max(counts, key=counts.get)


def run_query(plane, customer, sql):
    """One query, surplus reservations released, plane settled."""
    result = customer.query_once(sql, payload={"password": "pw"}).result()
    customer.release_all(result)
    plane.sim.run()
    return result


class TestProbeCacheHits:
    def test_repeat_query_skips_probe_round(self):
        plane, workload = build_plane(probe_cache_ms=60_000.0)
        itype = popular_type(workload, "Virginia")
        customer = plane.make_customer("c1", "Virginia")
        sql = f"SELECT 1 FROM Virginia WHERE instance_type = '{itype}';"

        plane.network.reset_counters()
        first = run_query(plane, customer, sql)
        cold_messages = plane.network.messages_sent
        assert first.satisfied

        plane.network.reset_counters()
        second = run_query(plane, customer, sql)
        warm_messages = plane.network.messages_sent
        assert second.satisfied
        assert warm_messages < cold_messages
        assert plane.counters.get("query.probe_cache.hit") >= 1

    def test_warm_query_is_not_slower(self):
        plane, workload = build_plane(probe_cache_ms=60_000.0)
        itype = popular_type(workload, "Tokyo")
        customer = plane.make_customer("c2", "Tokyo")
        sql = f"SELECT 1 FROM Tokyo WHERE instance_type = '{itype}';"
        first = run_query(plane, customer, sql)
        second = run_query(plane, customer, sql)
        assert second.latency_ms <= first.latency_ms

    def test_disabled_cache_always_probes(self):
        plane, workload = build_plane(probe_cache_ms=0.0)
        itype = popular_type(workload, "Virginia")
        customer = plane.make_customer("c3", "Virginia")
        sql = f"SELECT 1 FROM Virginia WHERE instance_type = '{itype}';"
        run_query(plane, customer, sql)
        run_query(plane, customer, sql)
        assert plane.counters.get("query.probe_cache.hit") == 0


class TestProbeCacheInvalidation:
    def test_membership_change_invalidates(self):
        plane, workload = build_plane(probe_cache_ms=3_600_000.0)
        itype = popular_type(workload, "Virginia")
        customer = plane.make_customer("c4", "Virginia")
        sql = f"SELECT 1 FROM Virginia WHERE instance_type = '{itype}';"
        topic = site_tree("Virginia",
                          predicate_tree_name("instance_type", "=", itype))

        first = run_query(plane, customer, sql)
        old_size = first.tree_sizes[topic]

        # The customer's home node joins the tree: its Scribe instance
        # bumps the topic version, so the co-located query app must not
        # serve the entry cached before the join.
        home = customer.home
        home.app("scribe").join(home, topic, scope="site")
        plane.sim.run()

        second = run_query(plane, customer, sql)
        assert second.tree_sizes[topic] == old_size + 1
        # The stale entry is counted when the second query finds it.
        assert plane.counters.get("query.probe_cache.invalidate") >= 1

    def test_entries_older_than_ttl_miss(self):
        plane, workload = build_plane(probe_cache_ms=1_000.0)
        itype = popular_type(workload, "Virginia")
        customer = plane.make_customer("c5", "Virginia")
        sql = f"SELECT 1 FROM Virginia WHERE instance_type = '{itype}';"
        run_query(plane, customer, sql)
        hits_after_cold = plane.counters.get("query.probe_cache.hit")
        plane.settle(5_000.0)  # stale now: age > probe_cache_ms
        run_query(plane, customer, sql)
        assert plane.counters.get("query.probe_cache.hit") == hits_after_cold

    def test_fresh_entry_within_ttl_hits(self):
        plane, workload = build_plane(probe_cache_ms=1_000_000.0)
        itype = popular_type(workload, "Virginia")
        customer = plane.make_customer("c6", "Virginia")
        sql = f"SELECT 1 FROM Virginia WHERE instance_type = '{itype}';"
        run_query(plane, customer, sql)
        hits_after_cold = plane.counters.get("query.probe_cache.hit")
        run_query(plane, customer, sql)
        assert plane.counters.get("query.probe_cache.hit") > hits_after_cold


class TestPlannerHints:
    def test_plan_orders_topics_by_cached_sizes(self):
        plane, workload = build_plane(probe_cache_ms=3_600_000.0)
        itype = popular_type(workload, "Virginia")
        customer = plane.make_customer("c7", "Virginia")
        sql = f"SELECT 1 FROM Virginia WHERE instance_type = '{itype}';"
        run_query(plane, customer, sql)

        hints = customer.home.app("query").probe_size_hints()
        assert hints, "a completed query must leave fresh probe answers"
        assert customer.home.cache_sizes()["probe_cache"] >= len(hints)
        query = parse_query(sql)
        plan = plan_query(query, plane.context, size_hints=hints)
        assert plan.cached_probes >= 1
        assert "probe cache" in plan.explain()
        # Known-size topics precede unknown ones, ascending by size.
        for topics in plan.probes_per_site.values():
            known = [t for t in topics if t in hints]
            assert known == sorted(known, key=lambda t: hints[t])
            boundary = len(known)
            assert all(t not in hints for t in topics[boundary:])

    def test_no_hints_yields_no_cached_probes(self):
        plane, workload = build_plane(probe_cache_ms=0.0)
        itype = popular_type(workload, "Virginia")
        query = parse_query(
            f"SELECT 1 FROM Virginia WHERE instance_type = '{itype}';")
        plan = plan_query(query, plane.context)
        assert plan.cached_probes == 0
        assert "probe cache" not in plan.explain()
