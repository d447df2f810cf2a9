"""Network messages.

Messages carry a ``kind`` tag dispatched by the receiving host, an arbitrary
payload dict, and bookkeeping used by the experiments: hop counts, the
originating query id, and a wire size so benchmarks can account for
bandwidth at hot spots (e.g. the Ganglia master ablation).

``Message`` is a ``__slots__`` class, not a dataclass: the scale workload
constructs one per send on the hot path, and slotted construction is about
twice as cheap as a dataclass with ``field(default_factory=...)`` defaults.

The wire codec is the only message-size model: :meth:`Message.size_bytes`
is the codec-encoded ``kind`` and ``payload`` plus a fixed frame header.
Sizing a message costs a full encode, so the network only does it for a
run that opts into byte accounting (``Network(account_bytes=True)``).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

_msg_ids = itertools.count(1)


class Message:
    """A simulated datagram.

    Attributes
    ----------
    kind:
        Dispatch tag, e.g. ``"pastry.route"`` or ``"scribe.join"``.
    payload:
        Free-form contents.
    src / dst:
        Host addresses, filled in by :meth:`Network.send`.
    hops:
        Overlay hops taken so far (incremented by routing layers, not by the
        network itself — one network send may be one overlay hop).
    trace:
        Optional list of host addresses visited, populated when tracing is on.
    trace_ctx:
        Causal propagation context ``(trace_id, span_id)`` stamped by the
        network at send time when span tracing is enabled, and restored
        around delivery — so spans opened in the receiver's handler parent
        under the span that caused this message.  Carried out-of-band
        (not in the payload): it never contributes to ``size_bytes`` and
        never perturbs protocol behaviour.
    """

    __slots__ = ("kind", "payload", "src", "dst", "hops", "msg_id",
                 "trace", "trace_ctx")

    def __init__(
        self,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        hops: int = 0,
        msg_id: Optional[int] = None,
        trace: Optional[list] = None,
        trace_ctx: Optional[tuple] = None,
    ):
        self.kind = kind
        self.payload = {} if payload is None else payload
        self.src = src
        self.dst = dst
        self.hops = hops
        self.msg_id = next(_msg_ids) if msg_id is None else msg_id
        self.trace = trace
        self.trace_ctx = trace_ctx

    def size_bytes(self) -> int:
        """Wire size of this message, measured by the codec.

        See :func:`repro.transport.codec.frame_size`; raises
        :class:`~repro.transport.codec.CodecError` for a payload that
        could not cross a socket.
        """
        from repro.transport.codec import frame_size  # codec imports Message
        return frame_size(self)

    def fork(self, **payload_updates: Any) -> "Message":
        """Copy for re-forwarding: same kind/payload, fresh id, src/dst reset."""
        payload = dict(self.payload)
        payload.update(payload_updates)
        return Message(
            kind=self.kind,
            payload=payload,
            hops=self.hops,
            trace=None if self.trace is None else list(self.trace),
            trace_ctx=self.trace_ctx,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (self.kind == other.kind and self.payload == other.payload
                and self.src == other.src and self.dst == other.dst
                and self.hops == other.hops and self.msg_id == other.msg_id
                and self.trace == other.trace
                and self.trace_ctx == other.trace_ctx)

    def __repr__(self) -> str:
        return (f"Message(kind={self.kind!r}, payload={self.payload!r}, "
                f"src={self.src!r}, dst={self.dst!r}, hops={self.hops!r}, "
                f"msg_id={self.msg_id!r}, trace={self.trace!r}, "
                f"trace_ctx={self.trace_ctx!r})")
