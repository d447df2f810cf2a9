#!/usr/bin/env python3
"""Run one RBAY benchmark workload and print its metrics.

    python3 perfbench/run.py --workload publish_storm --seed 2017 \\
        --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there.  The run repeats set-up + measured window (an *iteration*) while
another one fits in ``--seconds`` of wall time, and at least
``MIN_ITERATIONS`` times; it checks every iteration's outputs and checks
that iterations on the same workload seed reproduced the same
deterministic work counts.

``--trace 0`` cycles through ``SEEDS_PER_RUN`` workload seeds derived from
``--seed``, pools the simulated metrics over one iteration of each, and
reports the wall-clock ones as medians over all iterations.  ``--trace 1``
stays on the first derived seed, alternates untraced and traced
iterations and prints the per-layer metrics of the traced ones, including
the tracing overhead; the sampled spans go to ``perfbench/out/``.  The
last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the full report
(tail percentile, sample counts, calibration score, machine) is written
next to the spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: (name, unit) of every end-to-end metric, reported with ``--trace 0``.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("sim_latency_p50_ms", "ms"),
    ("sim_latency_tail_ms", "ms"),
    ("msgs_per_op", "msgs/op"),
    ("fill_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]

#: Per-layer metrics of the traced iterations, reported with ``--trace 1``.
LAYER_METRICS = [
    ("sim.events", "count"), ("sim.self_us_per_event", "us"),
    ("net.messages", "count"), ("net.bytes", "B"), ("net.send_us", "us"),
    ("net.size_us", "us"), ("net.size_share", "ratio"),
    ("pastry.routes", "count"), ("pastry.hops_per_route", "hops/route"),
    ("pastry.on_message_us", "us"),
    ("scribe.set_local_calls", "count"), ("scribe.set_local_us", "us"),
    ("scribe.agg_pushes", "count"), ("scribe.acc_cache_hit_ratio", "ratio"),
    ("scribe.anycast_visits", "count"), ("scribe.handler_us", "us"),
    ("query.execute_us", "us"), ("query.msgs_per_query", "msgs/query"),
    ("query.retries", "count"), ("query.probe_cache_hit_ratio", "ratio"),
    ("query.satisfied_ratio", "ratio"), ("query.admission_wait_ms", "ms"),
    ("aa.calls", "count"), ("aa.handler_us", "us"),
    ("aa.instructions_per_call", "instr/call"), ("aa.deny_ratio", "ratio"),
    ("core.reserves", "count"), ("core.commit_ratio", "ratio"),
    ("ext.tick_us", "us"), ("ext.actuations", "count"),
    ("transport.encode_us", "us"), ("transport.decode_us", "us"),
    ("transport.frame_bytes_per_msg", "B/msg"), ("transport.drops", "count"),
    ("obs.share", "ratio"),
] + [(f"{layer}.self_share", "ratio") for layer in (
    "sim", "net", "pastry", "scribe", "query", "aa", "core", "ext",
    "transport")] + [
    ("trace.driver_share", "ratio"), ("trace.remainder_share", "ratio"),
    ("trace.overhead", "ratio"),
]

#: A ``--trace 0`` run pools latencies, messages and fill over this many
#: workload seeds, ``seed * SEEDS_PER_RUN + j`` for ``j`` below it, so a
#: run's simulated metrics rest on more than one seed's inputs ...
SEEDS_PER_RUN = 4
#: ... and runs at least one iteration more, which repeats the first seed,
#: so every run checks that a seed reproduces its deterministic work counts.
MIN_ITERATIONS = SEEDS_PER_RUN + 1

#: ``ops_per_s`` is the window's wall throughput scaled to a host that runs
#: the host-speed loop (``workloads.HostSpeed``) this many times a second,
#: about the median of a shared 2-vCPU x86 host.
REFERENCE_LOOPS_PER_S = 10_000_000

#: The simulated workloads never serialize a message; a traced iteration
#: encodes and decodes every this-many-th sent message through the wire
#: codec to price the wire format for the workload's message mix.
CODEC_SAMPLE = 64


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no RBAY source tree at {src}")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(50, min(99, int(100 - 1000 / samples))) if samples >= 20 else 50


def install_tracer(tracer: Any) -> None:
    """Patch the public entry point of every layer for one iteration."""
    from repro.aa.runtime import ActiveAttribute
    from repro.core.node import RBayNode
    from repro.core.plane import RBay
    from repro.core.reservation import ReservationTable
    from repro.ext.autoscale import SiteAutoscaler
    from repro.ext.economy import CostAwareCustomer, SpotPricer
    from repro.metrics.counters import CounterRegistry
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.obs import metrics as obs_metrics
    from repro.pastry.node import PastryNode
    from repro.query.admission import AdmissionController
    from repro.query.executor import QueryApplication
    from repro.scribe.scribe import ScribeApplication
    from repro.sim.engine import Simulator
    from repro.transport import codec

    def on_invoke(args: tuple, result: Any) -> None:
        if args[1] == "onGet":
            tracer.count("aa.onGet")
            tracer.count("aa.deny", result is None)

    def on_reserve(args: tuple, result: Any) -> None:
        tracer.count("core.reserved", bool(result))

    def on_commit(args: tuple, result: Any) -> None:
        tracer.count("core.committed", bool(result))

    def on_send(args: tuple, result: Any) -> None:
        tracer.count("net.sends")
        if tracer.counts["net.sends"] % CODEC_SAMPLE == 0:
            frame = codec.encode_frame(args[3])
            codec.decode_message(frame[4:])
            tracer.count("transport.frames")
            tracer.count("transport.frame_bytes", len(frame))

    for attr in ("schedule", "post", "schedule_periodic"):
        tracer.patch_scheduler(Simulator, attr)
    entry_points = [
        ("sim", Simulator, ("run", "run_until")),
        ("net", Message, ("size_bytes",)),
        ("pastry", PastryNode, ("on_message", "route", "send_app")),
        ("scribe", ScribeApplication, (
            "set_local", "clear_local", "join", "leave", "multicast",
            "anycast", "query_aggregate", "maintain", "deliver", "forward",
            "host_message")),
        ("query", QueryApplication, ("execute", "visit", "host_message")),
        ("query", AdmissionController, ("submit",)),
        ("core", RBay, ("submit", "query")),
        ("core", RBayNode, ("consider_for_query", "authorize",
                            "maintenance_tick", "update_attribute")),
        ("core", ReservationTable, ("release",)),
        ("ext", SiteAutoscaler, ("tick",)),
        ("ext", SpotPricer, ("tick",)),
        ("ext", CostAwareCustomer, ("buy",)),
        ("obs", CounterRegistry, ("increment",)),
        ("obs", obs_metrics.MetricsRegistry, ("counter", "gauge",
                                              "histogram")),
        ("obs", obs_metrics.LabeledCounter, ("increment",)),
        ("obs", obs_metrics.LabeledGauge, ("set", "add")),
        ("obs", obs_metrics.LabeledHistogram, ("observe",)),
    ]
    for layer, owner, attrs in entry_points:
        for attr in attrs:
            tracer.patch(owner, attr, layer)
    tracer.patch(ActiveAttribute, "invoke", "aa", inspect=on_invoke)
    tracer.patch(ReservationTable, "try_reserve", "core", inspect=on_reserve)
    tracer.patch(ReservationTable, "commit", "core", inspect=on_commit)
    tracer.patch(Network, "send", "net", inspect=on_send)
    for attr in ("encode_frame", "decode_message"):
        tracer.patch(codec, attr, "transport", name=f"transport:codec.{attr}")


def layer_metrics(tracer: Any, it: Any) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    wall = it.window_s
    calls, self_s = tracer.calls, tracer.self_seconds
    rows = tracer.rows

    def per_call_us(*names: str) -> float:
        n = calls(*names)
        return self_s(*names) / n * 1e6 if n else 0.0

    def inclusive(name: str) -> float:
        return rows[name][2] if name in rows else 0.0

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    layers = tracer.layer_self_seconds()
    events = it.layer["sim.events"]
    routes = calls("pastry:PastryNode.route")
    aa_calls = calls("aa:ActiveAttribute.invoke")
    set_local = "scribe:ScribeApplication.set_local"
    handlers = tuple(f"scribe:ScribeApplication.{h}"
                     for h in ("deliver", "forward", "host_message"))
    m = {
        "sim.events": events,
        "sim.self_us_per_event": share(layers["sim"], events) * 1e6,
        "net.messages": it.messages,
        "net.bytes": it.layer["net.bytes"],
        "net.send_us": per_call_us("net:Network.send"),
        "net.size_us": per_call_us("net:Message.size_bytes"),
        "net.size_share": share(inclusive("net:Message.size_bytes"), wall),
        "pastry.routes": routes,
        "pastry.hops_per_route": share(it.layer["pastry.route_hops"], routes),
        "pastry.on_message_us": per_call_us("pastry:PastryNode.on_message"),
        "scribe.set_local_calls": calls(set_local),
        "scribe.set_local_us": per_call_us(set_local),
        "scribe.agg_pushes": it.layer["scribe.agg_pushes"],
        "scribe.handler_us": per_call_us(*handlers),
        "query.execute_us": per_call_us("query:QueryApplication.execute"),
        "aa.calls": aa_calls,
        "aa.handler_us": per_call_us("aa:ActiveAttribute.invoke"),
        "aa.instructions_per_call": share(it.layer["aa.instructions"],
                                          aa_calls),
        "aa.deny_ratio": share(tracer.counts.get("aa.deny", 0),
                               tracer.counts.get("aa.onGet", 0)),
        "core.reserves": calls("core:ReservationTable.try_reserve"),
        "core.commit_ratio": share(tracer.counts.get("core.committed", 0),
                                   tracer.counts.get("core.reserved", 0)),
        "ext.tick_us": per_call_us("ext:SiteAutoscaler.tick",
                                   "ext:SpotPricer.tick"),
        "ext.actuations": it.layer.get("ext.actuations", 0),
        "transport.encode_us": per_call_us("transport:codec.encode_frame"),
        "transport.decode_us": per_call_us("transport:codec.decode_message"),
        "transport.frame_bytes_per_msg": share(
            tracer.counts.get("transport.frame_bytes", 0),
            tracer.counts.get("transport.frames", 0)),
        "transport.drops": it.layer["net.drops"],
        "obs.share": share(layers["obs"], wall),
        "trace.driver_share": share(layers["driver"], wall),
        "trace.remainder_share": 1.0 - share(sum(layers.values()), wall),
    }
    for name in ("scribe.acc_cache_hit_ratio", "scribe.anycast_visits",
                 "query.msgs_per_query", "query.retries",
                 "query.probe_cache_hit_ratio", "query.satisfied_ratio",
                 "query.admission_wait_ms"):
        m[name] = it.layer[name]
    for layer in ("sim", "net", "pastry", "scribe", "query", "aa", "core",
                  "ext", "transport"):
        m[f"{layer}.self_share"] = share(layers[layer], wall)
    return m


def run_iterations(workloads: List[Any], seconds: float, trace: bool
                   ) -> Tuple[List[tuple], List[str]]:
    """Iterate over ``workloads`` in turn until the time budget is spent;
    returns ``(setup_s, iteration, per-layer metrics or None, tracer or
    None)`` per iteration and the failures found."""
    from tracer import Tracer
    from workloads import CheckFailed

    runs: List[tuple] = []
    failures: List[str] = []
    started = time.perf_counter()
    while True:
        workload = workloads[len(runs) % len(workloads)]
        tracer = Tracer() if trace and len(runs) % 2 == 1 else None
        gc.collect()
        begun = time.perf_counter()
        state: Dict[str, Any] = {}
        try:
            if tracer is not None:
                install_tracer(tracer)
            state = workload.setup()
            setup_s = time.perf_counter() - begun
            if tracer is not None:
                tracer.reset()
            it = workload.measure(state, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        layers = layer_metrics(tracer, it) if tracer is not None else None
        try:
            workload.check(state)
        except CheckFailed as exc:
            failures.append(f"iteration {len(runs)}: {exc}")
        finally:
            workload.close(state)
        runs.append((setup_s, it, layers, tracer))
        # Start another iteration only if it should end within the budget.
        now = time.perf_counter()
        projected = now - started + (now - begun)
        if len(runs) >= MIN_ITERATIONS and projected > seconds:
            return runs, failures


def percentiles(values: List[float], tail: int) -> Tuple[float, float]:
    from repro.metrics.stats import percentile
    return percentile(values, 50), percentile(values, tail)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("publish_storm", "market_spike"))
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    seeds = [args.seed * SEEDS_PER_RUN + j
             for j in range(1 if args.trace else SEEDS_PER_RUN)]
    runs, failures = run_iterations(
        [WORKLOADS[args.workload](seed) for seed in seeds], args.seconds,
        bool(args.trace))

    iterations = [it for _setup, it, _layers, _tr in runs]
    for index, it in enumerate(iterations[len(seeds):], start=len(seeds)):
        reference = iterations[index % len(seeds)].work
        if it.work != reference:
            diff = {k: (reference.get(k), it.work.get(k))
                    for k in set(reference) | set(it.work)
                    if reference.get(k) != it.work.get(k)}
            failures.append(f"iteration {index} disagrees with iteration "
                            f"{index % len(seeds)} (seed "
                            f"{seeds[index % len(seeds)]}) on deterministic "
                            f"work counts: {diff}")
    plain = [it for (_s, it, layers, _t) in runs if layers is None]
    traced = [(it, layers, tr) for (_s, it, layers, tr) in runs
              if layers is not None]
    # One iteration per seed: the simulated metrics repeat exactly for a
    # seed, so pooling these is the same as pooling every iteration.
    pooled = iterations[:len(seeds)]
    latencies = [ms for it in pooled for ms in it.sim_latency_ms]
    samples = len(latencies)
    tail = tail_percentile(samples)

    host_speed = median([it.loops_per_s for it in plain])
    if args.trace:
        traced_ops = median([it.ops / it.window_s for it, _l, _t in traced])
        metrics = {name: median([layers[name] for _i, layers, _t in traced])
                   for name, _unit in LAYER_METRICS[:-1]}
        metrics["trace.overhead"] = (
            median([it.ops / it.window_s for it in plain]) / traced_ops - 1.0)
        units = dict(LAYER_METRICS)
    else:
        sim_p50, sim_tail = percentiles(latencies, tail)
        metrics = {
            "setup_s": median([s for s, _it, _layers, _t in runs]),
            "ops_per_s": median([it.ops / it.window_s * REFERENCE_LOOPS_PER_S
                                 / it.loops_per_s for it in plain]),
            "sim_latency_p50_ms": sim_p50,
            "sim_latency_tail_ms": sim_tail,
            "msgs_per_op": (sum(it.messages for it in pooled)
                            / sum(it.ops for it in pooled)),
            "fill_ratio": (sum(it.filled for it in pooled)
                           / sum(it.wanted for it in pooled)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)

    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "workload_seeds": seeds,
        "iterations": len(runs), "traced_iterations": len(traced),
        "tail_percentile": tail, "latency_samples": samples,
        "setup_s": [s for s, _it, _l, _t in runs],
        "wall_ops_per_s": [it.ops / it.window_s for it in iterations],
        "host_loops_per_s": [it.loops_per_s for it in iterations],
        "work": [it.work for it in pooled], "failures": failures,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "calibration_loops_per_s": host_speed},
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if traced:
        _it, _layers, tracer = traced[-1]
        tracer.write(str(OUT / f"{stem}-spans.json"),
                     {"workload": args.workload, "seed": args.seed,
                      "workload_seed": seeds[0]})

    print(f"{args.workload} seed={args.seed} iterations={len(runs)} "
          f"(traced {len(traced)}) nproc={os.cpu_count()} "
          f"python={platform.python_version()} "
          f"calibration={host_speed:,.0f} loops/s")
    print(f"workload seeds {seeds}; latency tail = p{tail} over "
          f"{samples} samples")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6f} {units[name]}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
