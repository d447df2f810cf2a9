"""Opt-in byte accounting, measured by the wire codec.

Byte counters are off by default: a plane run must never size a message.
With ``account_bytes`` on, ``bytes_sent`` / ``per_host_bytes_in`` are
exactly the sum of ``Message.size_bytes()`` over the copies sent and the
messages delivered, and a message's size does not depend on its id, its
addresses or tracing.
"""

import itertools

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.net import message as message_mod
from repro.net.latency import UniformLatencyModel, make_ec2_registry
from repro.net.message import Message
from repro.net.network import FaultDecision, Host, Network
from repro.sim.engine import Simulator
from repro.transport.codec import FRAME_HEADER_BYTES, encode_frame
from repro.transport.sim import SimTransport
from repro.workloads.generator import FederationWorkload, WorkloadSpec


class Recorder(Host):
    def __init__(self, site):
        super().__init__(site)
        self.received = []

    def on_message(self, msg):
        self.received.append(msg)


def small_plane(tracing=False):
    plane = RBay(RBayConfig(seed=31, synthetic_sites=4, nodes_per_site=5,
                            jitter=False, tracing=tracing)).build()
    workload = FederationWorkload(plane, WorkloadSpec(
        gate_policies=False, utilization_thresholds=())).apply()
    plane.sim.run()
    return plane, workload


def run_queries(plane, workload, count=3):
    site = plane.registry[0].name
    present = [t for t, n in workload.site_instance_population(site).items()
               if n]
    customer = plane.make_customer("bytes", site)
    results = [customer.query_once(
        f"SELECT 1 FROM * WHERE instance_type = '{t}';").result()
        for t in present[:count]]
    plane.sim.run()
    return results


def test_default_plane_never_sizes_a_message(monkeypatch):
    def forbidden(self):
        raise AssertionError("size_bytes() called with accounting off")

    monkeypatch.setattr(Message, "size_bytes", forbidden)
    plane, workload = small_plane()
    assert plane.network.account_bytes is False
    results = run_queries(plane, workload)
    assert len(results) == 3 and all(r.satisfied for r in results)
    assert plane.network.messages_sent > 0
    assert plane.network.bytes_sent == 0
    assert not plane.network.per_host_bytes_in


@pytest.mark.parametrize("make_net", [
    lambda sim: Network(sim, UniformLatencyModel(1.0), account_bytes=True),
    lambda sim: Network(sim, UniformLatencyModel(1.0), account_bytes=True,
                        coalesce_delivery=True),
    lambda sim: SimTransport(sim, UniformLatencyModel(1.0),
                             account_bytes=True, coalesce_delivery=True,
                             wire_check=True),
], ids=["per-message", "coalesced", "wire-check"])
def test_counters_sum_size_bytes_including_duplicates(make_net):
    sim = Simulator()
    net = make_net(sim)
    registry = make_ec2_registry()
    a, b, c = (Recorder(registry[i]) for i in range(3))
    for host in (a, b, c):
        net.attach(host)
    # Every third send is delivered twice (one fault-filter duplicate).
    net.fault_filter = lambda src, dst, msg: (
        FaultDecision(duplicates=1) if msg.payload.get("i", 1) % 3 == 0
        else None)
    sent = []
    for i in range(9):
        msg = Message(kind="probe", payload={"i": i, "blob": "x" * i})
        sent.append(msg)
        a.send((b if i % 2 else c).address, msg)
    sim.run()
    copies = [m for m in sent for _ in range(2 if m.payload["i"] % 3 == 0 else 1)]
    assert net.messages_sent == len(copies)
    assert net.bytes_sent == sum(m.size_bytes() for m in copies)
    for host in (b, c):
        assert net.per_host_bytes_in[host.address] == sum(
            m.size_bytes() for m in host.received)
    assert sum(net.per_host_bytes_in.values()) == net.bytes_sent


def test_size_is_the_codec_frame_without_header_fields():
    msg = Message(kind="agg_push", payload={"topic": "t", "value": 1.5})
    plain = msg.size_bytes()
    # The frame's header fields are charged as a constant: id, addresses
    # and tracing state never move the accounted size.
    msg.msg_id, msg.src, msg.dst, msg.hops = 10**12, 70_000, 9, 3
    msg.trace, msg.trace_ctx = [1, 2, 3], (5, 6)
    assert msg.size_bytes() == plain
    untraced = Message(kind=msg.kind, payload=msg.payload, src=1, dst=2,
                       msg_id=3)
    header = len(encode_frame(untraced)) - (plain - FRAME_HEADER_BYTES)
    assert 0 < header <= FRAME_HEADER_BYTES


def bytes_of_seeded_run(tracing):
    # Protocol (query/request) ids are per plane.  The process-global
    # message-id counter is deliberately pushed far ahead: message ids are
    # frame header fields and must not move the accounted size.
    message_mod._msg_ids = itertools.count(next(message_mod._msg_ids) * 1000)
    plane, workload = small_plane(tracing=tracing)
    plane.network.account_bytes = True
    plane.network.reset_counters()
    run_queries(plane, workload)
    return (plane.network.bytes_sent, plane.network.messages_sent,
            dict(plane.network.per_host_bytes_in))


def test_bytes_repeat_per_seed_and_ignore_tracing(monkeypatch):
    # Register the current counter so monkeypatch restores it afterwards.
    monkeypatch.setattr(message_mod, "_msg_ids", message_mod._msg_ids)
    first = bytes_of_seeded_run(tracing=False)
    assert first[0] > 0
    assert bytes_of_seeded_run(tracing=False) == first
    assert bytes_of_seeded_run(tracing=True) == first


def test_same_seed_planes_in_one_process_send_identical_bytes():
    """Regression: payloads carry query/request ids at their true width,
    so ids drawn from process-global counters made a second same-seed
    plane in one process send different bytes than the first.  Enough
    queries run that a continued count would pass 127, where the codec's
    minimal integer encoding grows a byte."""
    def run():
        plane, workload = small_plane()
        plane.network.account_bytes = True
        plane.network.reset_counters()
        for _ in range(5):
            run_queries(plane, workload, count=5)
        return plane.network.bytes_sent

    first = run()
    assert first > 0
    assert run() == first
