from aodvsim.protocol import (
    Data,
    Hello,
    RoutingEntry,
    Rrep,
    RreqId,
    Rreq,
    summarize,
)


def make_rreq(num=1, hop=0, ttl=5):
    return Rreq(rreq_id=RreqId(0, num), dest=9, dest_seq_known=None, hop_count=hop, ttl=ttl)


def test_rreq_id_equality_and_hashing():
    assert RreqId(3, 7) == RreqId(3, 7)
    assert RreqId(3, 7) != RreqId(3, 8)
    assert len({RreqId(1, 1), RreqId(1, 1), RreqId(2, 1)}) == 2


def test_routing_entry_defaults_inactive():
    e = RoutingEntry(next_hop=1, hop_count=4, dest_seq=2, expires_at=50)
    assert not e.active


def test_summaries_are_single_line():
    packets = [
        make_rreq(),
        Rrep(dest=9, dest_seq=4, hop_count=1, rreq_id=RreqId(0, 1)),
        Hello(sender=3),
        Data(src=0, dst=9, payload_id=2),
    ]
    for p in packets:
        text = summarize(p)
        assert "\n" not in text and text
