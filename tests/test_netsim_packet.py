"""Unit tests for Packet / segment accounting / splitting."""

import pytest

from repro.netsim import DEFAULT_MSS, HEADER_BYTES, Packet
from repro.netsim.packet import PacketPool


def test_segment_count_rounds_up():
    p = Packet(flow_id=1, seq=0, length=DEFAULT_MSS * 2 + 1)
    assert p.segments == 3


def test_full_segments():
    p = Packet(flow_id=1, seq=0, length=DEFAULT_MSS * 4)
    assert p.segments == 4


def test_ack_occupies_one_segment():
    p = Packet(flow_id=1, is_ack=True, ack=100)
    assert p.segments == 1
    assert p.length == 0


def test_wire_bytes_include_per_segment_headers():
    p = Packet(flow_id=1, seq=0, length=DEFAULT_MSS * 2)
    assert p.wire_bytes == DEFAULT_MSS * 2 + 2 * HEADER_BYTES


def test_end_seq():
    p = Packet(flow_id=1, seq=1000, length=500)
    assert p.end_seq == 1500


def test_split_head_basic():
    p = Packet(flow_id=1, seq=0, length=DEFAULT_MSS * 10)
    head = p.split_head(4)
    assert head is not None
    assert head.seq == 0
    assert head.length == DEFAULT_MSS * 4
    assert p.seq == DEFAULT_MSS * 4
    assert p.segments == 6
    assert head.segments == 4


def test_split_head_preserves_metadata():
    p = Packet(flow_id=3, seq=0, length=DEFAULT_MSS * 4, sent_ts=123, is_retransmission=True)
    head = p.split_head(2)
    assert head.flow_id == 3
    assert head.sent_ts == 123
    assert head.is_retransmission


def test_split_head_refuses_full_or_zero():
    p = Packet(flow_id=1, seq=0, length=DEFAULT_MSS * 2)
    assert p.split_head(0) is None
    assert p.split_head(2) is None
    assert p.split_head(5) is None


def test_split_head_refuses_ack():
    p = Packet(flow_id=1, is_ack=True)
    assert p.split_head(1) is None


def test_packet_ids_unique():
    a = Packet(flow_id=1)
    b = Packet(flow_id=1)
    assert a.packet_id != b.packet_id


# -- packet pool (allocation diet) ----------------------------------------------


def test_pool_reuses_released_packets():
    pool = PacketPool()
    p1 = pool.acquire_data(flow_id=1, seq=0, length=3000, mss=1500, sent_ts=10)
    pool.release(p1)
    p2 = pool.acquire_data(flow_id=2, seq=3000, length=1500, mss=1500, sent_ts=20)
    assert p2 is p1  # recycled, not reallocated
    assert pool.reused == 1
    assert (p2.flow_id, p2.seq, p2.length, p2.sent_ts) == (2, 3000, 1500, 20)
    assert p2.segments == 1
    assert p2.wire_bytes == 1500 + HEADER_BYTES
    assert not p2.is_retransmission


def test_pool_acquire_assigns_fresh_packet_id():
    pool = PacketPool()
    p1 = pool.acquire_data(flow_id=1, seq=0, length=1500, mss=1500, sent_ts=0)
    first_id = p1.packet_id
    pool.release(p1)
    p2 = pool.acquire_data(flow_id=1, seq=1500, length=1500, mss=1500, sent_ts=0)
    assert p2.packet_id != first_id


def test_pool_double_release_is_ignored():
    pool = PacketPool()
    p = pool.acquire_data(flow_id=1, seq=0, length=1500, mss=1500, sent_ts=0)
    pool.release(p)
    pool.release(p)  # double free must not corrupt the free list
    a = pool.acquire_data(flow_id=1, seq=0, length=1500, mss=1500, sent_ts=0)
    b = pool.acquire_data(flow_id=1, seq=1500, length=1500, mss=1500, sent_ts=0)
    assert a is not b


def test_pool_ack_reuse_clears_sack_blocks():
    pool = PacketPool()
    ack = pool.acquire_ack(flow_id=1, ack=1000, rwnd=64000, echo_ts=5)
    ack.sack_blocks.append((2000, 3000))
    pool.release(ack)
    ack2 = pool.acquire_ack(flow_id=2, ack=5000, rwnd=32000, echo_ts=9)
    assert ack2 is ack
    assert ack2.sack_blocks == []
    assert ack2.is_ack
    assert ack2.wire_bytes == HEADER_BYTES
    assert (ack2.flow_id, ack2.ack, ack2.rwnd, ack2.echo_ts) == (2, 5000, 32000, 9)


def test_pool_bounds_free_list():
    pool = PacketPool(max_free=2)
    packets = [
        pool.acquire_data(flow_id=1, seq=i * 1500, length=1500, mss=1500, sent_ts=0)
        for i in range(4)
    ]
    for p in packets:
        pool.release(p)
    assert len(pool._free) == 2


def test_pooled_packet_split_head_matches_fresh_packet():
    pool = PacketPool()
    p = pool.acquire_data(flow_id=1, seq=0, length=6000, mss=1500, sent_ts=0)
    pool.release(p)
    recycled = pool.acquire_data(flow_id=3, seq=9000, length=6000, mss=1500, sent_ts=7)
    fresh = Packet(flow_id=3, seq=9000, length=6000, mss=1500, sent_ts=7)
    head_r = recycled.split_head(2)
    head_f = fresh.split_head(2)
    for a, b in ((head_r, head_f), (recycled, fresh)):
        assert (a.seq, a.length, a.segments, a.wire_bytes) == (
            b.seq, b.length, b.segments, b.wire_bytes)
