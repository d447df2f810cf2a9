"""The DES network as a :class:`Transport`, with a codec shadow mode.

:class:`SimTransport` *is* the simulated network — delivery semantics,
fault filters, counters, and trace propagation are inherited unchanged —
plus one knob: ``wire_check``.  With it on, every delivered message is
pushed through the wire codec (encode → decode → re-encode, asserting
byte identity) and the *decoded copy* is handed to the receiver, exactly
as a real socket would.  A deterministic DES run therefore doubles as a
continuous wire-safety lint: any payload carrying a callable, a node
object, or other unserializable state raises
:class:`~repro.transport.codec.CodecError` at the precise delivery, and
any protocol that silently relied on sender/receiver sharing one Python
object diverges and is caught by the sim-as-oracle comparison.
"""

from __future__ import annotations

from typing import Set

from repro.faults.injector import protocol_kind
from repro.net.message import Message
from repro.net.network import Network
from repro.transport.codec import roundtrip_check


class SimTransport(Network):
    """Simulated transport; ``wire_check=True`` enables the codec shadow.

    Constructor arguments are :class:`~repro.net.network.Network`'s, plus
    ``wire_check``.
    """

    def __init__(self, *args, wire_check: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.wire_check = wire_check
        #: Protocol kinds observed crossing the (shadow) wire, labeled as
        #: ``route/<app>/<op>`` / ``direct/<app>/<kind>`` — the universe
        #: the wire-safety suite checks for coverage.
        self.wire_kinds_seen: Set[str] = set()
        #: Messages round-tripped through the codec so far.
        self.wire_checked = 0

    @property
    def wire_check(self) -> bool:
        return self._wire_check

    @wire_check.setter
    def wire_check(self, value: bool) -> None:
        # The codec shadow hooks ``_deliver``, so batched deliveries must
        # take the per-message path while it is on; with it off this class
        # adds nothing per delivery and the network's inlined batch loop is
        # safe (unless a further subclass customizes delivery itself).
        self._wire_check = bool(value)
        cls = type(self)
        self._per_message_deliver = (
            self._wire_check
            or cls._deliver is not SimTransport._deliver
            or cls._dispatch is not Network._dispatch)

    def _deliver(self, dst_address: int, msg: Message) -> None:
        if self.wire_check:
            # Replace the in-process object with its decoded wire copy —
            # receivers see exactly what a socket would have given them.
            decoded, _body = roundtrip_check(msg)
            self.wire_kinds_seen.add(protocol_kind(msg))
            self.wire_checked += 1
            # The trace list is shared mutable state *by design* in the
            # sim (the sender observes appended hops); keep that contract
            # while still type-checking it through the codec.
            decoded.trace = msg.trace
            msg = decoded
        super()._deliver(dst_address, msg)
