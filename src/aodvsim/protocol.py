"""Packet formats and the pure helpers that act on them.

Nodes are integers (their index in the scenario's node list, which also fixes
every deterministic tie-break). All packets are frozen dataclasses so they can
sit in event queues and request records without defensive copying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

NodeId = int
SeqNum = int


class RreqId(NamedTuple):
    origin: NodeId
    num: int


@dataclass(frozen=True)
class Rreq:
    rreq_id: RreqId         # its origin is the node that asked
    dest: NodeId
    dest_seq_known: SeqNum | None
    hop_count: int
    ttl: int


@dataclass(frozen=True)
class Rrep:
    dest: NodeId            # the node that was found
    dest_seq: SeqNum
    hop_count: int          # hops from the replier; +1 per relay
    rreq_id: RreqId         # the request answered; its origin is the node that asked


@dataclass(frozen=True)
class Rerr:
    # (destination, last known sequence) pairs that became unreachable
    unreachable: tuple[tuple[NodeId, SeqNum], ...]


@dataclass(frozen=True)
class Hello:
    sender: NodeId


@dataclass(frozen=True)
class Data:
    src: NodeId
    dst: NodeId
    payload_id: int


Packet = Union[Rreq, Rrep, Rerr, Hello, Data]


@dataclass
class RoutingEntry:
    next_hop: NodeId
    hop_count: int
    dest_seq: SeqNum
    expires_at: int
    active: bool = False    # set when the owning node originates data over it


def summarize(packet: Packet) -> str:
    """Compact single-token description used in trace output."""
    if isinstance(packet, Rreq):
        rid = f"{packet.rreq_id.origin}:{packet.rreq_id.num}"
        return f"RREQ[{rid}] dest={packet.dest} hop={packet.hop_count} ttl={packet.ttl}"
    if isinstance(packet, Rrep):
        rid = f"{packet.rreq_id.origin}:{packet.rreq_id.num}"
        return f"RREP[{rid}] dest={packet.dest} hop={packet.hop_count} seq={packet.dest_seq}"
    if isinstance(packet, Rerr):
        dests = ",".join(str(d) for d, _ in packet.unreachable)
        return f"RERR[{dests}]"
    if isinstance(packet, Hello):
        return f"HELLO from={packet.sender}"
    return f"DATA {packet.src}->{packet.dst} id={packet.payload_id}"
