"""Per-request query objects are freed by reference counting alone.

Every query leaves futures, timers, protocol state and callbacks behind
once it settles.  If any of them sit in a reference cycle, only Python's
cyclic garbage collector can free them, and on a loaded plane those
collections become a large share of the run's wall time.  Each scenario
here runs with the collector switched off and ``gc.DEBUG_SAVEALL`` on,
drains the simulator (so every timer, cancelled or not, has left the
heap), then collects: anything that lands in ``gc.garbage`` was only
freeable by the collector.  No :class:`Future`, :class:`Event`, closure
cell or ``repro`` function may be among it.
"""

from __future__ import annotations

import gc
import types
from collections import Counter

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.ext.economy import CostAwareCustomer, post_priced_resource
from repro.faults import MessageRule
from repro.query.errors import QueryTimeout
from repro.sim.engine import Event
from repro.sim.futures import Future
from repro.workloads.generator import FederationWorkload, WorkloadSpec

SITE = "Site000"
PAYLOAD = {"password": "pw"}


@pytest.fixture(scope="module")
def plane():
    plane = RBay(RBayConfig(seed=5, synthetic_sites=4, nodes_per_site=8,
                            jitter=False)).build()
    workload = FederationWorkload(plane, WorkloadSpec(password="pw")).apply()
    plane.sim.run()
    counts = workload.site_instance_population(SITE)
    plane.itype = max(counts, key=counts.get)
    admin = plane.admin(SITE)
    for node, price in zip(plane.site_nodes(SITE)[1:4], (10.0, 20.0, 30.0)):
        post_priced_resource(admin, node, "GPU", True, price)
    plane.sim.run()
    plane.install_faults()
    return plane


def _sql(plane, sites: str = SITE, k: int = 1) -> str:
    return f"SELECT {k} FROM {sites} WHERE instance_type = '{plane.itype}';"


def _collector_only(obj) -> bool:
    """Objects that must never need the cyclic collector to be freed."""
    if isinstance(obj, (Future, Event, types.CellType)):
        return True
    return (isinstance(obj, types.FunctionType)
            and (obj.__module__ or "").startswith("repro"))


def _describe(obj) -> str:
    if isinstance(obj, types.FunctionType):
        return f"function {obj.__module__}.{obj.__qualname__}"
    return type(obj).__name__


def cyclic_garbage(plane, scenario) -> Counter:
    """Run ``scenario`` with the collector off and return what only the
    collector could free (empty when everything went by refcount)."""
    plane.sim.run()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    del gc.garbage[:]
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        scenario()
        plane.sim.run()
        gc.collect()
        return Counter(_describe(o) for o in gc.garbage if _collector_only(o))
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        if enabled:
            gc.enable()


def _query(plane, sql: str, timeout=None):
    customer = plane.make_customer("gc", SITE)
    result = customer.query_once(sql, payload=PAYLOAD, timeout=timeout)
    plane.sim.run()
    if not isinstance(result.value, Exception):
        customer.release_all(result.value)
    return result.value


def _retry_count(plane, step: str) -> int:
    return plane.counters.get(f"query.retry.{step}")


class TestQueriesLeaveNoCycles:
    def test_single_site_query(self, plane):
        results = []
        assert not cyclic_garbage(
            plane, lambda: results.append(_query(plane, _sql(plane))))
        assert results[0].satisfied

    def test_multi_site_query(self, plane):
        results = []
        assert not cyclic_garbage(
            plane, lambda: results.append(_query(plane, _sql(plane, "*"))))
        assert results[0].satisfied and len(results[0].sites_queried) == 4

    def test_cost_aware_buy(self, plane):
        buyer = CostAwareCustomer("buyer", plane.site_nodes(SITE)[0],
                                  plane.streams.stream("gc-buyer"),
                                  wallet=100.0)
        results = []

        def buy():
            future = buyer.buy(f"SELECT 2 FROM {SITE} WHERE GPU = true;")
            plane.sim.run()
            results.append(future.value)
            buyer.release_all(future.value)

        assert not cyclic_garbage(plane, buy)
        assert results[0].satisfied

    def test_query_out_of_time(self, plane):
        results = []
        assert not cyclic_garbage(plane, lambda: results.append(
            _query(plane, _sql(plane, "*"), timeout=0.5)))
        assert isinstance(results[0], QueryTimeout)


class TestRetryPathsLeaveNoCycles:
    """Each retried step, once recovering after one lost round and once
    with its messages lost until the retry budget runs out."""

    @pytest.mark.parametrize("heal_ms", [1_000.0, None],
                             ids=["recovers", "exhausted"])
    @pytest.mark.parametrize("step, kind, sites", [
        ("probe", "direct/scribe/agg_value", SITE),
        ("anycast", "direct/scribe/anycast_result", SITE),
        ("site", "direct/query/site_query", "*"),
    ])
    def test_retried_step(self, plane, step, kind, sites, heal_ms):
        injector = plane.fault_injector
        rule = MessageRule(name=f"drop-{step}", drop_prob=1.0,
                           kind_prefix=kind)
        before = _retry_count(plane, step)

        def lossy_query():
            injector.start_rule(rule)
            if heal_ms is not None:
                plane.sim.schedule(heal_ms, injector.end_rule, rule)
            try:
                _query(plane, _sql(plane, sites))
            finally:
                injector.end_rule(rule)

        assert not cyclic_garbage(plane, lossy_query)
        assert _retry_count(plane, step) > before

    def test_customer_backoff_loop(self, plane):
        customer = plane.make_customer("greedy", SITE, max_attempts=3,
                                       backoff_slot_ms=10.0)
        outcomes = []

        def short_request():
            future = customer.request(_sql(plane, k=200), payload=PAYLOAD)
            plane.sim.run()
            outcomes.append(future.value)

        assert not cyclic_garbage(plane, short_request)
        assert outcomes[0].attempts == 3 and outcomes[0].gave_up

    def test_customer_deadline(self, plane):
        customer = plane.make_customer("hasty", SITE)
        outcomes = []

        def hasty_request():
            future = customer.request(_sql(plane, "*"), payload=PAYLOAD,
                                      timeout=0.5)
            plane.sim.run()
            outcomes.append(future.value)

        assert not cyclic_garbage(plane, hasty_request)
        assert outcomes[0].gave_up
