"""Live transport: every node a real TCP endpoint on an asyncio loop.

Each *served* host gets its own listening socket; sends encode the
message through the wire codec and write length-prefixed frames over
per-destination connections (lazy connect, bounded retries with backoff,
timeouts).  The interface — and the traffic accounting behind the
bandwidth experiments — mirrors the DES network exactly, so the whole
protocol stack runs on top unchanged, driven by a
:class:`~repro.transport.realtime.RealtimeScheduler`.

Failure mapping: the interface keeps datagram semantics, so a refused
connect, a reset, an exhausted retry budget, or a deliberate
:meth:`cut` all account the frame as *dropped* — the sender finds out
through its own protocol timeouts, which is precisely how the existing
typed ``QueryError``/``QueryTimeout`` retry machinery absorbs real
network failures without a single protocol change.

Two deployment shapes share this class:

* **in-process** (``peer_plan=None``): every attached host is served
  locally on an ephemeral port; all traffic still crosses real sockets
  and the codec.  This is the test / oracle-validation mode.
* **partitioned** (``rbay serve``): every process builds the same
  deterministic plane from the shared seed, but only *owns* the sites
  given in the peer plan.  Non-owned hosts are shadows — their sends are
  suppressed (exactly one process, the owner, performs each action for
  real) and frames to them route to the owning process's sockets at
  deterministically planned ports.
"""

from __future__ import annotations

import asyncio
import random
from collections import Counter
from functools import partial
from typing import Any, Callable, Dict, Optional, Set

from repro.net.latency import LatencyModel, UniformLatencyModel
from repro.net.message import Message
from repro.net.network import FaultFilter, Host, NetworkError
from repro.transport.base import Transport, deliver_traced, stamp_trace_ctx
from repro.transport.codec import CodecError, decode_message, encode_frame
from repro.transport.realtime import RealtimeScheduler


class _Peer:
    """Outgoing state toward one destination address."""

    __slots__ = ("queue", "task", "writer")

    def __init__(self) -> None:
        self.queue: asyncio.Queue = asyncio.Queue()
        self.task: Optional[asyncio.Task] = None
        self.writer: Optional[asyncio.StreamWriter] = None


class AsyncioTransport(Transport):
    """Real-socket :class:`Transport` (see module docstring)."""

    def __init__(
        self,
        scheduler: RealtimeScheduler,
        latency: Optional[LatencyModel] = None,
        bind_host: str = "127.0.0.1",
        loss_rate: float = 0.0,
        loss_rng: Optional[random.Random] = None,
        processing_ms: float = 0.0,
        connect_timeout_s: float = 1.0,
        connect_retries: int = 3,
        connect_backoff_s: float = 0.2,
        peer_plan: Optional[Any] = None,
        account_bytes: bool = False,
    ):
        if loss_rate and loss_rng is None:
            raise NetworkError("loss_rate requires a loss_rng for determinism")
        self.scheduler = scheduler
        self.sim = scheduler  # parity with Network.sim
        self.loop = scheduler.loop
        self.latency = latency if latency is not None else UniformLatencyModel()
        self.bind_host = bind_host
        self.loss_rate = loss_rate
        self._loss_rng = loss_rng
        self.processing_ms = processing_ms
        self.connect_timeout_s = connect_timeout_s
        self.connect_retries = connect_retries
        self.connect_backoff_s = connect_backoff_s
        #: None → in-process mode; else a PeerPlan (owned sites + remote
        #: endpoint arithmetic) for the partitioned ``serve`` mode.
        self.peer_plan = peer_plan
        #: In-flight is a closed loop only when both endpoints share this
        #: process; partitioned processes settle a frame once it is
        #: handed to the TCP stack.
        self._track_inflight = peer_plan is None

        self._hosts: Dict[int, Host] = {}
        self._served: Set[int] = set()
        self._next_address = 0
        self._site_counts: Counter = Counter()
        self._site_index: Dict[int, tuple] = {}  # addr -> (site name, index)
        self._ports: Dict[int, int] = {}
        self._servers: Dict[int, asyncio.base_events.Server] = {}
        self._peers: Dict[int, _Peer] = {}
        self._blackholed: Set[int] = set()

        # Accounting (same conservation identity as the DES network).
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_in_flight = 0
        self.messages_suppressed = 0
        #: Opt-in byte accounting, as on the DES network: ``bytes_sent`` /
        #: ``per_host_bytes_in`` charge ``Message.size_bytes()`` for parity
        #: with the sim, and stay at 0 while this is off.
        self.account_bytes = account_bytes
        self.bytes_sent = 0
        #: Actual framed bytes written to sockets, always counted: the true
        #: wire volume.
        self.wire_bytes_sent = 0
        self.per_host_received: Counter = Counter()
        self.per_host_sent: Counter = Counter()
        self.per_host_bytes_in: Counter = Counter()
        self._delivery_hook: Optional[Callable[[Message], None]] = None
        self.fault_filter: Optional[FaultFilter] = None
        self.recorder = None

        scheduler.add_idle_source(self._wire_quiet)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _owns(self, site_name: str) -> bool:
        return self.peer_plan is None or site_name in self.peer_plan.owned

    def attach(self, host: Host) -> int:
        address = self._next_address
        self._next_address += 1
        host.address = address
        host.network = self
        self._hosts[address] = host
        site_name = host.site.name
        index = self._site_counts[site_name]
        self._site_counts[site_name] = index + 1
        self._site_index[address] = (site_name, index)
        if self._owns(site_name):
            self._served.add(address)
            self._start_server(address)
        return address

    def detach(self, host: Host) -> None:
        if host.address in self._hosts:
            del self._hosts[host.address]
        host.alive = False
        self._stop_server(host.address)
        self._drop_writer(host.address)

    def reattach(self, host: Host) -> None:
        if host.address is None:
            raise NetworkError("cannot reattach a host that was never attached")
        occupant = self._hosts.get(host.address)
        if occupant is not None and occupant is not host:
            raise NetworkError(f"address {host.address} is already occupied")
        self._hosts[host.address] = host
        host.network = self
        host.alive = True
        if host.address in self._served:
            self._start_server(host.address)

    def host(self, address: int) -> Host:
        try:
            return self._hosts[address]
        except KeyError:
            raise NetworkError(f"no host at address {address}") from None

    def has_host(self, address: int) -> bool:
        return address in self._hosts

    @property
    def host_count(self) -> int:
        return len(self._hosts)

    def hosts(self):
        return self._hosts.values()

    def port_of(self, address: int) -> Optional[int]:
        """The TCP port a served host listens on (None for shadows)."""
        return self._ports.get(address)

    # ------------------------------------------------------------------
    # Servers
    # ------------------------------------------------------------------
    def _planned_port(self, address: int) -> int:
        if address in self._ports:  # reattach: keep the stable port
            return self._ports[address]
        if self.peer_plan is not None:
            site_name, index = self._site_index[address]
            return self.peer_plan.endpoint(site_name, index)[1]
        return 0  # ephemeral

    def _start_server(self, address: int) -> None:
        async def _bind() -> None:
            try:
                server = await asyncio.start_server(
                    partial(self._serve_conn, address),
                    host=self.bind_host, port=self._planned_port(address))
            except OSError as exc:
                self.scheduler.report_error(exc)
                return
            self._servers[address] = server
            self._ports[address] = server.sockets[0].getsockname()[1]

        if self.loop.is_running():
            self.loop.create_task(_bind())
        else:
            self.loop.run_until_complete(_bind())

    def _stop_server(self, address: int) -> None:
        server = self._servers.pop(address, None)
        if server is not None:
            server.close()

    async def _serve_conn(self, address: int,
                          reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                header = await reader.readexactly(4)
                body = await reader.readexactly(int.from_bytes(header, "big"))
                self._deliver_body(address, body)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass  # teardown: finish cleanly instead of logging a cancel
        finally:
            try:
                writer.close()
            except RuntimeError:
                pass  # loop already closed during interpreter teardown

    # ------------------------------------------------------------------
    # Delivery (receive side)
    # ------------------------------------------------------------------
    def _deliver_body(self, address: int, body: bytes) -> None:
        if self._track_inflight:
            self.messages_in_flight -= 1
        try:
            msg = decode_message(body)
        except CodecError as exc:
            self.messages_dropped += 1
            self.scheduler.report_error(exc)
            return
        host = self._hosts.get(address) if address in self._served else None
        if host is None or not host.alive:
            # In-flight to a host that crashed (or was cut) mid-transit.
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        self.per_host_received[address] += 1
        if self.account_bytes:
            self.per_host_bytes_in[address] += msg.size_bytes()
        if msg.trace is not None:
            msg.trace.append(address)
        try:
            deliver_traced(self.recorder, msg, partial(self._dispatch, host, msg))
        except BaseException as exc:  # handler bug: fail the pump loudly
            self.scheduler.report_error(exc)

    def _dispatch(self, host: Host, msg: Message) -> None:
        if self._delivery_hook is not None:
            self._delivery_hook(msg)
        host.on_message(msg)

    # ------------------------------------------------------------------
    # Send side
    # ------------------------------------------------------------------
    def send(self, src: Host, dst_address: int, msg: Message) -> None:
        if (src.address not in self._served or not src.alive
                or self._hosts.get(src.address) is not src):
            # Crashed hosts send nothing; in partitioned mode the same
            # gate suppresses shadows — the owning process performs the
            # action for real, exactly once.
            self.messages_suppressed += 1
            return
        msg.src = src.address
        msg.dst = dst_address
        stamp_trace_ctx(self.recorder, msg)
        self.messages_sent += 1
        if self.account_bytes:
            size = msg.size_bytes()
            self.bytes_sent += size
        self.per_host_sent[src.address] += 1
        if self.loss_rate and self._loss_rng.random() < self.loss_rate:
            self.messages_dropped += 1
            return
        if dst_address not in self._hosts:
            self.messages_dropped += 1
            return
        extra_delay = 0.0
        copies = 1
        if self.fault_filter is not None:
            dst_host = self._hosts[dst_address]
            decision = self.fault_filter(src, dst_host, msg)
            if decision is not None:
                if decision.drop:
                    self.messages_dropped += 1
                    return
                extra_delay = decision.extra_delay_ms
                copies += decision.duplicates
        body = encode_frame(msg)  # CodecError here is a bug: let it raise
        for copy in range(copies):
            if copy:
                self.messages_sent += 1
                if self.account_bytes:
                    self.bytes_sent += size
                self.per_host_sent[src.address] += 1
            self.messages_in_flight += 1
            self.wire_bytes_sent += len(body)
            if extra_delay > 0.0:
                self.scheduler.schedule(extra_delay, self._enqueue,
                                        dst_address, body)
            else:
                self._enqueue(dst_address, body)

    def _enqueue(self, dst_address: int, body: bytes) -> None:
        peer = self._peers.get(dst_address)
        if peer is None:
            peer = self._peers[dst_address] = _Peer()
        peer.queue.put_nowait(body)
        if peer.task is None or peer.task.done():
            peer.task = self.loop.create_task(self._sender(dst_address, peer))

    def _account_drop(self) -> None:
        self.messages_in_flight -= 1
        self.messages_dropped += 1

    async def _sender(self, dst_address: int, peer: _Peer) -> None:
        """Drain one destination's frame queue over a cached connection."""
        while True:
            try:
                body = peer.queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            writer = await self._writer_for(dst_address, peer)
            if writer is None:
                self._account_drop()
                continue
            try:
                writer.write(body)
                await writer.drain()
            except (ConnectionError, OSError):
                self._drop_writer(dst_address)
                # The connection died under us: one fresh connect, then
                # give up on this frame (the sender's timeouts take over).
                writer = await self._writer_for(dst_address, peer)
                if writer is None:
                    self._account_drop()
                    continue
                try:
                    writer.write(body)
                    await writer.drain()
                except (ConnectionError, OSError):
                    self._drop_writer(dst_address)
                    self._account_drop()
                    continue
            if not self._track_inflight:
                self.messages_in_flight -= 1  # handed to the TCP stack

    async def _writer_for(self, dst_address: int,
                          peer: _Peer) -> Optional[asyncio.StreamWriter]:
        if peer.writer is not None and not peer.writer.is_closing():
            return peer.writer
        endpoint = self._endpoint(dst_address)
        if endpoint is None:
            return None
        for attempt in range(self.connect_retries + 1):
            if dst_address in self._blackholed:
                return None
            try:
                _reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(*endpoint),
                    timeout=self.connect_timeout_s)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                if attempt < self.connect_retries:
                    await asyncio.sleep(self.connect_backoff_s * (attempt + 1))
                continue
            peer.writer = writer
            return writer
        return None

    def _endpoint(self, dst_address: int) -> Optional[tuple]:
        if dst_address in self._blackholed:
            return None
        port = self._ports.get(dst_address)
        if port is not None:
            return (self.bind_host, port)
        if self.peer_plan is not None:
            site_name, index = self._site_index[dst_address]
            return self.peer_plan.endpoint(site_name, index)
        return None

    def _drop_writer(self, dst_address: int) -> None:
        peer = self._peers.get(dst_address)
        if peer is not None and peer.writer is not None:
            peer.writer.close()
            peer.writer = None

    # ------------------------------------------------------------------
    # Induced failures (tests / chaos)
    # ------------------------------------------------------------------
    def cut(self, address: int) -> None:
        """Sever this process's connectivity *to* ``address``: existing
        connections are closed and new connects are refused, so every
        frame toward it drops — the live analogue of a link cut."""
        self._blackholed.add(address)
        self._drop_writer(address)

    def heal(self, address: int) -> None:
        self._blackholed.discard(address)

    # ------------------------------------------------------------------
    # Observation / lifecycle
    # ------------------------------------------------------------------
    def _wire_quiet(self) -> bool:
        if self.messages_in_flight != 0:
            return False
        return all(peer.queue.empty() for peer in self._peers.values())

    def set_delivery_hook(self, hook: Optional[Callable[[Message], None]]) -> None:
        self._delivery_hook = hook

    def reset_counters(self) -> None:
        self.messages_sent = self.messages_in_flight
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_suppressed = 0
        self.bytes_sent = 0
        self.wire_bytes_sent = 0
        self.per_host_received.clear()
        self.per_host_sent.clear()
        self.per_host_bytes_in.clear()

    def close(self) -> None:
        """Close every connection and server (idempotent, best-effort)."""
        async def _shutdown() -> None:
            for peer in self._peers.values():
                if peer.task is not None:
                    peer.task.cancel()
                if peer.writer is not None:
                    peer.writer.close()
            for server in self._servers.values():
                server.close()
            await asyncio.sleep(0)

        if self.loop.is_closed():
            return
        if self.loop.is_running():
            self.loop.create_task(_shutdown())
        else:
            self.loop.run_until_complete(_shutdown())
        self._servers.clear()
        self._peers.clear()
