"""The benchmark's workloads, driven through RBAY's public API.

Each workload builds its inputs from the seed alone and splits into
``setup`` (build, dress and warm a plane; timed as ``setup_s``),
``measure`` (the timed window; returns an :class:`Iteration`) and
``check`` (verifies the outputs after the window; raises
:class:`CheckFailed`).  README.md in this directory says why each
workload exists and which ``ScaleSpec`` / ``MarketSpec`` fields it pins.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Dict, List, NamedTuple

from repro.core.naming import site_tree
from repro.core.plane import RBay, RBayConfig
from repro.ext.autoscale import AutoscaleConfig, SiteAutoscaler
from repro.ext.economy import CostAwareCustomer, MarketLedger, SpotPricer
from repro.query.options import QueryOptions
from repro.workloads.generator import FederationWorkload, WorkloadSpec
from repro.workloads.market import (MARKET_ATTRIBUTE, MARKET_TREE, MarketSpec,
                                    user_credit)
from repro.workloads.queries import composite_query
from repro.workloads.scale import LOAD_TREE, ScaleSpec

_perf = time.perf_counter

#: Loops of one host-speed sample (about half a millisecond).
SPEED_LOOPS = 5_000

#: Delivered message kinds that belong to the query protocol (probe,
#: anycast walk, site fan-out, lease settlement); ``query.msgs_per_query``
#: counts these per settled query.
QUERY_KINDS = frozenset({
    "site_query", "site_result", "commit", "release", "anycast_walk",
    "anycast_result", "agg_value", "replica_get", "anycast_divert",
    "route:anycast", "route:agg_get",
})


class CheckFailed(RuntimeError):
    """A workload's outputs were wrong."""


class HostSpeed:
    """Times a fixed pure-Python loop at intervals inside an untraced
    window.  On a shared host the speed of the same code swings by a third
    within seconds; the run scales throughput by this speed, measured
    while the program ran, to tell a slower program from a slower host."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.loops = 0

    def sample(self) -> None:
        start = _perf()
        total = 0
        for i in range(SPEED_LOOPS):
            total += i * i % 7
        self.seconds += _perf() - start
        self.loops += SPEED_LOOPS


@dataclass
class Iteration:
    """What one measured window produced."""

    window_s: float               # wall time, host-speed samples excluded
    loops_per_s: float            # host speed in the window; 0 if traced
    ops: int                      # settled operations
    attempted: int
    failed: int                   # errored, timed out or degraded
    sim_latency_ms: List[float]   # due -> settled, on the simulated clock
    messages: int
    filled: int                   # satisfied queries, or units granted
    wanted: int                   # submitted queries, or units demanded
    #: Deterministic work counts; two same-seed iterations must agree.
    work: Dict[str, Any] = field(default_factory=dict)
    #: Further per-layer readings (counter deltas, ratios).
    layer: Dict[str, float] = field(default_factory=dict)


class QueryOutcome(NamedTuple):
    """One settled ``publish_storm`` query."""

    index: int
    status: str          # "ok", "degraded", or the error's type name
    satisfied: bool
    sim_ms: float
    entries: tuple


class Arrival(NamedTuple):
    """One settled ``market_spike`` arrival."""

    seq: int
    uid: int
    wanted: int
    kept: tuple          # addresses of the units bought
    satisfied: bool
    status: str
    sim_ms: float


def _status(value: Any) -> str:
    if isinstance(value, Exception):
        return type(value).__name__
    return "degraded" if value.degraded else "ok"


def _digest(items: Any) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
    return digest.hexdigest()


class DeliveryKinds:
    """Delivery hook counting messages by protocol kind."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def __call__(self, msg: Any) -> None:
        payload = msg.payload
        if msg.kind == "pastry.direct":
            self.counts[payload["kind"]] += 1
        elif msg.kind == "pastry.route":
            data = payload.get("data")
            op = data.get("op", "") if isinstance(data, dict) else ""
            self.counts["route:" + op] += 1
        else:
            self.counts[msg.kind] += 1


class LeaseWatch:
    """Reservation-table observer over a market window: which (node,
    query) pairs were committed, and which holds lapsed without being
    committed or released."""

    def __init__(self, plane: RBay):
        self.committed: set = set()
        self.lapsed: List[tuple] = []
        for node in plane.nodes:
            node.reservation.watcher = functools.partial(self._on_event,
                                                         node.address)

    def _on_event(self, address: int, _table: Any, event: str,
                  query_id: int) -> None:
        if event == "committed":
            self.committed.add((address, query_id))
        elif event == "hold_expired":
            self.lapsed.append((address, query_id))


def _aa_instructions(plane: RBay) -> int:
    return sum(node.aa.interpreter.instructions_executed
               for node in plane.nodes)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Probe:
    """Counter readings taken at the start of a window, turned into the
    deterministic work counts and per-layer deltas at its end."""

    def __init__(self, plane: RBay, kinds: DeliveryKinds):
        self.plane = plane
        self.kinds = kinds
        net = plane.network
        self.start = (plane.sim.events_executed, net.messages_sent,
                      net.bytes_sent, net.messages_dropped,
                      _aa_instructions(plane),
                      dict(plane.counters.snapshot()))
        kinds.counts.clear()

    def finish(self, settled_queries: int, satisfied: int) -> tuple:
        plane, counts = self.plane, self.kinds.counts
        net = plane.network
        events0, sent0, bytes0, dropped0, instr0, ctr0 = self.start
        ctr = plane.counters.snapshot()

        def delta(name: str) -> int:
            return ctr.get(name, 0) - ctr0.get(name, 0)

        messages = net.messages_sent - sent0
        query_msgs = sum(counts[k] for k in QUERY_KINDS)
        work = {
            "sim.events": plane.sim.events_executed - events0,
            "net.messages": messages,
            "net.bytes": net.bytes_sent - bytes0,
            "aa.instructions": _aa_instructions(plane) - instr0,
            "scribe.agg_pushes": counts["agg_push"] + counts["agg_push_batch"],
            "query.messages": query_msgs,
        }
        waits = plane.admission.wait_stats().values()
        waited = sum(w["count"] for w in waits)
        layer = {
            "net.drops": net.messages_dropped - dropped0,
            "pastry.route_hops": sum(v for k, v in counts.items()
                                     if k.startswith("route:")),
            "scribe.anycast_visits": counts["anycast_walk"],
            "scribe.acc_cache_hit_ratio": _ratio(
                delta("scribe.acc_cache.hit"),
                delta("scribe.acc_cache.hit")
                + delta("scribe.acc_cache.miss")),
            "query.msgs_per_query": _ratio(query_msgs, settled_queries),
            "query.retries": sum(delta(n) for n in set(ctr) | set(ctr0)
                                 if n.startswith("query.retry.")),
            "query.probe_cache_hit_ratio": _ratio(
                delta("query.probe_cache.hit"),
                delta("query.probe_cache.hit")
                + delta("query.probe_cache.miss")),
            "query.satisfied_ratio": _ratio(satisfied, settled_queries),
            "query.admission_wait_ms": _ratio(
                sum(w["count"] * w["mean_ms"] for w in waits), waited),
            **work,
        }
        return messages, work, layer


# ----------------------------------------------------------------------
# publish_storm
# ----------------------------------------------------------------------
class PublishStorm:
    """The ROADMAP's 1,024-node scale run: ``ScaleSpec()`` defaults."""

    name = "publish_storm"

    def __init__(self, seed: int):
        self.spec = ScaleSpec(seed=seed)

    def setup(self) -> Dict[str, Any]:
        spec = self.spec
        plane = RBay(RBayConfig(
            seed=spec.seed, nodes_per_site=spec.nodes_per_site,
            synthetic_sites=spec.sites, jitter=False,
            batching=spec.batching, query_window=spec.query_window,
            agg_flush_ms=spec.agg_flush_ms,
        )).build()
        FederationWorkload(plane, WorkloadSpec(
            gate_policies=False, utilization_thresholds=(),
            active_subscriptions=False,
        )).apply()
        for node in plane.nodes:
            node.scribe.join(node, site_tree(node.site.name, LOAD_TREE),
                             scope="site")
        plane.sim.run()
        plane.start_maintenance()
        plane.settle(spec.warmup_ms)
        return {"plane": plane}

    def measure(self, state: Dict[str, Any], tracer: Any) -> Iteration:
        spec, plane = self.spec, state["plane"]
        sim = plane.sim
        kinds = DeliveryKinds()
        plane.network.set_delivery_hook(kinds)
        site_names = [site.name for site in plane.registry]
        aggs = ("sum", "max", "min")[:spec.publish_aggregates]
        plan = [(node.scribe, node, site_tree(node.site.name, LOAD_TREE))
                for node in plane.nodes]
        uniform = plane.streams.stream("scale-load").uniform
        last: Dict[tuple, float] = {}
        published = [0]

        def publish_wave() -> None:
            if tracer is not None:
                tracer.new_request("publish_wave")
            else:
                host.sample()
            # Every wave writes every (node, aggregate), so only the final
            # wave's values are kept for the check.
            final = sim.now + spec.publish_interval_ms > window_end
            for scribe, node, topic in plan:
                for agg in aggs:
                    value = uniform(0.0, 100.0)
                    scribe.set_local(node, topic, agg, value)
                    if final:
                        last[(node.address, agg)] = value
            published[0] += len(plan) * len(aggs)
            if not final:
                sim.schedule(spec.publish_interval_ms, publish_wave)

        query_rng = plane.streams.stream("scale-queries")
        bursts = -(-spec.queries // spec.query_burst)
        burst_gap = spec.duration_ms / bursts
        planned = []
        for i in range(spec.queries):
            origin = query_rng.choice(site_names)
            others = [s for s in site_names if s != origin]
            froms = [origin] + query_rng.sample(
                others, min(spec.query_span, len(site_names)) - 1)
            planned.append(((i // spec.query_burst) * burst_gap,
                            composite_query(query_rng, froms, k=spec.query_k),
                            QueryOptions(origin=origin, caller=f"scale-{i}")))
        records: List[QueryOutcome] = []

        def submit(index: int) -> None:
            _at, sql, options = planned[index]
            if tracer is not None:
                tracer.new_request("query")
            due = sim.now

            def settle(value: Any) -> None:
                ok = not isinstance(value, Exception)
                records.append(QueryOutcome(
                    index, _status(value), ok and value.satisfied,
                    sim.now - due,
                    tuple(sorted(value.node_ids())) if ok else ()))

            plane.submit(sql, options=options).add_callback(settle)

        probe = _Probe(plane, kinds)
        host = HostSpeed()
        window_start = sim.now
        window_end = window_start + spec.duration_ms
        sim.schedule(0.0, publish_wave)
        for i, (at, _sql, _opts) in enumerate(planned):
            sim.schedule(at, submit, i)
        wall = _perf()
        sim.run(until=window_end)
        guard = window_end + spec.drain_ms
        while len(records) < spec.queries and sim.now < guard:
            sim.run(until=min(sim.now + 500.0, guard))
        window_s = _perf() - wall - host.seconds

        records.sort()
        satisfied = sum(1 for r in records if r.satisfied)
        messages, work, layer = probe.finish(len(records), satisfied)
        work["results"] = _digest(records)
        state.update(records=records, last=last, aggs=aggs)
        return Iteration(
            window_s=window_s, loops_per_s=_ratio(host.loops, host.seconds),
            ops=published[0] + len(records),
            attempted=published[0] + spec.queries,
            failed=sum(1 for r in records if r.status != "ok"),
            sim_latency_ms=[r.sim_ms for r in records],
            messages=messages, filled=satisfied, wanted=spec.queries,
            work=work, layer=layer)

    def check(self, state: Dict[str, Any]) -> None:
        plane, records = state["plane"], state["records"]
        if len(records) != self.spec.queries:
            raise CheckFailed(f"{self.spec.queries - len(records)} of "
                              f"{self.spec.queries} queries never settled")
        plane.stop_maintenance()
        plane.sim.run()
        last, aggs = state["last"], state["aggs"]
        folds = {"sum": math.fsum, "max": max, "min": min}
        for site in plane.registry:
            members = plane.site_nodes(site.name)
            topic = site_tree(site.name, LOAD_TREE)
            got = members[0].scribe.query_aggregate(
                members[0], topic, list(aggs)).result()
            for agg in aggs:
                want = folds[agg](last[(n.address, agg)] for n in members)
                if not math.isclose(got[agg], want, rel_tol=1e-9,
                                    abs_tol=1e-9):
                    raise CheckFailed(
                        f"{topic} root {agg} = {got[agg]!r}, brute-force "
                        f"fold over the leaves = {want!r}")

    def close(self, state: Dict[str, Any]) -> None:
        state["plane"].close()


# ----------------------------------------------------------------------
# market_spike
# ----------------------------------------------------------------------
class MarketSpike:
    """The marketplace at 8 sites x 8 nodes with a 4x spike for a third
    of a 15 s window: about 1,200 open-loop arrivals."""

    name = "market_spike"

    def __init__(self, seed: int):
        self.spec = MarketSpec(
            seed=seed, sites=8, nodes_per_site=8, arrival_rate_per_s=40.0,
            duration_ms=15_000.0, spike_start_ms=5_000.0, spike_ms=5_000.0,
            spike_multiplier=4.0)

    def setup(self) -> Dict[str, Any]:
        spec = self.spec
        # The 1M-user zipf table is built here on every set-up (the
        # library memoizes it per process, which would hide its cost).
        zipf = list(accumulate(1.0 / (rank ** spec.user_zipf_s)
                               for rank in range(1, spec.users + 1)))
        plane = RBay(RBayConfig(
            seed=spec.seed, nodes_per_site=spec.nodes_per_site,
            # Link jitter stays on (the RBayConfig default, which
            # run_market turns off): without it nearly every arrival takes
            # the same simulated time and the latency median never moves.
            synthetic_sites=spec.sites, jitter=True, lease_ms=spec.lease_ms,
            reservation_hold_ms=spec.hold_ms, query_window=spec.query_window,
            market_autoscale=spec.autoscale, market_reprice=spec.reprice,
        )).build()
        cfg = plane.config
        pricers, scalers = {}, {}
        for site in plane.registry:
            gateway, *pool = plane.site_nodes(site.name)
            pricer = SpotPricer(
                plane.admin(site.name), gateway, MARKET_TREE,
                plane.obs.metrics, price=spec.initial_price,
                floor=cfg.market_price_floor, ceiling=cfg.market_price_ceiling,
                gain=cfg.market_price_gain, high=cfg.market_scale_high,
                low=cfg.market_scale_low)
            scaler = SiteAutoscaler(
                plane.admin(site.name), pool,
                AutoscaleConfig(high=cfg.market_scale_high,
                                low=cfg.market_scale_low,
                                gain=cfg.market_scale_gain,
                                min_instances=cfg.market_min_instances,
                                max_instances=cfg.market_max_instances),
                rng=plane.streams.stream(f"market-scale-{site.name}"),
                metrics=plane.obs.metrics, attribute=MARKET_ATTRIBUTE,
                value=True, price_of=lambda p=pricer: p.price,
                min_credit=spec.min_credit, enabled=cfg.market_autoscale)
            scaler.start(spec.initial_instances)
            pricers[site.name], scalers[site.name] = pricer, scaler
        plane.sim.run()
        plane.start_maintenance()
        plane.settle(spec.warmup_ms)
        return {"plane": plane, "zipf": zipf, "pricers": pricers,
                "scalers": scalers}

    def measure(self, state: Dict[str, Any], tracer: Any) -> Iteration:
        spec, plane = self.spec, state["plane"]
        pricers, scalers = state["pricers"], state["scalers"]
        zipf = state["zipf"]
        cfg, sim = plane.config, plane.sim
        kinds = DeliveryKinds()
        plane.network.set_delivery_hook(kinds)
        site_names = list(pricers)
        ledger = MarketLedger()
        arr_rng = plane.streams.stream("market-arrivals")
        cust_rng = plane.streams.stream("market-customers")
        customers: Dict[int, CostAwareCustomer] = {}
        records: List[Arrival] = []
        purchases: set = set()   # (node address, query id) of every unit
        fired = [0]
        actuations0 = _actuations(pricers, scalers)

        def scale_tick() -> None:
            for name in site_names:
                scalers[name].tick()
            if sim.now + cfg.market_scale_interval_ms <= window_end:
                sim.schedule(cfg.market_scale_interval_ms, scale_tick)

        def price_tick() -> None:
            for name in site_names:
                pricers[name].tick()
            if sim.now + cfg.market_reprice_interval_ms <= window_end:
                sim.schedule(cfg.market_reprice_interval_ms, price_tick)

        def fire_arrival() -> None:
            seq = fired[0]
            fired[0] += 1
            if tracer is not None:
                tracer.new_request("arrival")
            elif seq % 4 == 0:
                host.sample()
            uid = bisect_left(zipf, arr_rng.random() * zipf[-1])
            wanted = 1 + min(spec.demand_max - 1,
                             int(arr_rng.paretovariate(spec.demand_alpha)) - 1)
            customer = customers.get(uid)
            if customer is None:
                origin = site_names[uid % len(site_names)]
                customer = customers[uid] = CostAwareCustomer(
                    f"u{uid}", plane.site_nodes(origin)[0], cust_rng,
                    wallet=0.0, ledger=ledger, overask=spec.overask,
                    credit=user_credit(uid))
            customer.wallet = spec.request_budget
            sql = f"SELECT {wanted} FROM * WHERE {MARKET_ATTRIBUTE} = true;"
            due = sim.now

            def settle(value: Any) -> None:
                ok = not isinstance(value, Exception)
                kept = tuple(e["address"] for e in value.entries) if ok else ()
                # Query ids come from a process-wide counter, so they stay
                # out of the record that same-seed iterations compare.
                purchases.update((address, value.query_id) for address in kept)
                records.append(Arrival(
                    seq, uid, wanted, kept, ok and value.satisfied,
                    _status(value), sim.now - due))

            plane.admission.submit(lambda c=customer, s=sql: c.buy(s),
                                   label=customer.home.site.name
                                   ).add_callback(settle)
            schedule_next()

        def schedule_next() -> None:
            offset = sim.now - window_start
            spike = spec.spike_start_ms <= offset < (spec.spike_start_ms
                                                     + spec.spike_ms)
            rate = spec.arrival_rate_per_s * (spec.spike_multiplier
                                              if spike else 1.0)
            gap_ms = arr_rng.expovariate(rate) * 1_000.0
            if sim.now + gap_ms <= window_end:
                sim.schedule(gap_ms, fire_arrival)

        probe = _Probe(plane, kinds)
        watch = LeaseWatch(plane)
        host = HostSpeed()
        window_start = sim.now
        window_end = window_start + spec.duration_ms
        sim.schedule(0.0, scale_tick)
        sim.schedule(cfg.market_reprice_interval_ms / 2.0, price_tick)
        schedule_next()
        wall = _perf()
        sim.run(until=window_end)
        guard = window_end + spec.drain_ms
        while len(records) < fired[0] and sim.now < guard:
            sim.run(until=min(sim.now + 500.0, guard))
        window_s = _perf() - wall - host.seconds

        records.sort()
        satisfied = sum(1 for r in records if r.satisfied)
        messages, work, layer = probe.finish(len(records), satisfied)
        demanded = sum(r.wanted for r in records)
        granted = sum(len(r.kept) for r in records)
        work["results"] = _digest(records)
        layer["ext.actuations"] = _actuations(pricers, scalers) - actuations0
        state.update(records=records, fired=fired[0], ledger=ledger,
                     purchases=purchases, watch=watch)
        return Iteration(
            window_s=window_s, loops_per_s=_ratio(host.loops, host.seconds),
            ops=len(records), attempted=fired[0],
            failed=sum(1 for r in records if r.status != "ok"),
            sim_latency_ms=[r.sim_ms for r in records],
            messages=messages, filled=granted, wanted=demanded,
            work=work, layer=layer)

    def check(self, state: Dict[str, Any]) -> None:
        plane, records = state["plane"], state["records"]
        if len(records) != state["fired"]:
            raise CheckFailed(f"{state['fired'] - len(records)} of "
                              f"{state['fired']} arrivals never settled")
        ledger = Counter((customer, address) for customer, _site, address, _p
                         in state["ledger"].purchases)
        granted = Counter((f"u{r.uid}", address)
                          for r in records for address in r.kept)
        if ledger != granted:
            raise CheckFailed(f"ledger records {sum(ledger.values())} "
                              f"purchases, arrivals were granted "
                              f"{sum(granted.values())} units; they differ "
                              f"on {len(ledger ^ granted)} (customer, node)")
        purchases, watch = state["purchases"], state["watch"]
        phantom = purchases - watch.committed
        if phantom:
            raise CheckFailed(f"{len(phantom)} purchases were never committed "
                              f"as a lease, e.g. (node, query) "
                              f"{min(phantom)}")
        # Quiescence: deliver the settlement messages still in flight
        # (commits, surplus releases) without running the clock on to the
        # holds' and leases' expiry, which would clear every table.
        plane.stop_maintenance()
        sim, net = plane.sim, plane.network
        while net.messages_in_flight and sim.step():
            pass
        for node in plane.nodes:
            table = node.reservation
            holder = table.holder()
            if holder is None:
                continue
            if not table.committed:
                raise CheckFailed(f"node {node.address} still holds an "
                                  f"uncommitted reservation for query "
                                  f"{holder} at quiescence")
            if (node.address, holder) not in purchases:
                raise CheckFailed(f"node {node.address} is leased to query "
                                  f"{holder}, which bought no unit there")
        if watch.lapsed:
            raise CheckFailed(f"{len(watch.lapsed)} reservations lapsed "
                              f"without a commit or release, e.g. (node, "
                              f"query) {watch.lapsed[0]}")

    def close(self, state: Dict[str, Any]) -> None:
        state["plane"].close()


def _actuations(pricers: Dict[str, Any], scalers: Dict[str, Any]) -> int:
    return (sum(s.scaled_out + s.scaled_in for s in scalers.values())
            + sum(p.changes for p in pricers.values()))


WORKLOADS = {w.name: w for w in (PublishStorm, MarketSpike)}
