"""Unit tests for the routing subprotocols."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquemat.engine import CliqueConfig, CliqueEngine
from cliquemat.errors import CapacityError, PreconditionError
from cliquemat.routing import (
    Batch,
    RoutingItem,
    bounded_route,
    bounded_route_accounted_rounds,
    count_bits,
    multicast_accounted_rounds,
    multicast_phases,
    solve_relaxed_idt,
    vector_multicast,
)


def make_engine(n, routing="simulated", **kw):
    return CliqueEngine(CliqueConfig(n=n, routing=routing, **kw))


def batch(eng, items):
    """The columns of ``items``, for ``eng``'s payload capacity."""
    return Batch.build(
        eng.w,
        [it.src for it in items],
        [it.dst for it in items],
        [it.nbits for it in items],
        [it.payload for it in items],
        tag=[it.tag for it in items],
    )


def route(prim, eng, items, **kw):
    """Run a task primitive on the batch of ``items``; returns the items
    each node received, in delivery order, and the rounds used."""
    out, rounds = prim(eng, batch(eng, items), **kw)
    delivered = {}
    for it in out:
        delivered.setdefault(it.dst, []).append(it)
    return delivered, rounds


def random_legal_batch(rng, n, max_per_node=None, nbits=8):
    """Batch with per-node sends <= n and receives <= n."""
    cap = max_per_node if max_per_node is not None else n
    recv = Counter()
    items = []
    for src in range(1, n + 1):
        for _ in range(rng.randrange(0, cap + 1)):
            choices = [d for d in range(1, n + 1) if recv[d] < n]
            if not choices:
                break
            dst = rng.choice(choices)
            recv[dst] += 1
            items.append(RoutingItem(src, dst, rng.randrange(1 << nbits), nbits))
    return items


def delivered_multiset(delivered):
    return Counter(
        (it.dst, it.payload, it.nbits) for lst in delivered.values() for it in lst
    )


def requested_multiset(items):
    return Counter((it.dst, it.payload, it.nbits) for it in items)


# ---------------------------------------------------------------------------
# solve_relaxed_idt
# ---------------------------------------------------------------------------

def test_idt_empty_batch():
    eng = make_engine(8)
    delivered, rounds = route(solve_relaxed_idt, eng, [])
    assert rounds == 0 and delivered == {}
    assert eng.ledger.rounds == 0


def test_idt_ring_example():
    n = 8
    eng = make_engine(n)
    items = [RoutingItem(i, i % n + 1, i, 8) for i in range(1, n + 1)]
    delivered, rounds = route(solve_relaxed_idt, eng, items)
    assert rounds <= 3
    assert delivered_multiset(delivered) == requested_multiset(items)


def test_idt_precondition_errors():
    n = 4
    eng = make_engine(n)
    too_many_sends = [RoutingItem(1, 2, 0, 1) for _ in range(n + 1)]
    with pytest.raises(PreconditionError):
        route(solve_relaxed_idt, eng, too_many_sends)
    too_many_recvs = [
        RoutingItem(src, 2, 0, 1) for src in (1, 3, 4) for _ in range(2)
    ]
    assert len(too_many_recvs) == 6 > n
    with pytest.raises(PreconditionError):
        route(solve_relaxed_idt, eng, too_many_recvs)


def test_idt_accounted_charges_constant():
    eng = make_engine(8, routing="accounted", c_idt=16)
    items = [RoutingItem(1, 2, 5, 8), RoutingItem(3, 4, 6, 8)]
    delivered, rounds = route(solve_relaxed_idt, eng, items)
    assert rounds == 16
    assert eng.ledger.rounds == 16
    assert eng.ledger.messages == 2
    assert delivered_multiset(delivered) == requested_multiset(items)


def test_idt_self_items_free():
    eng = make_engine(4)
    items = [RoutingItem(2, 2, 9, 8)]
    delivered, rounds = route(solve_relaxed_idt, eng, items)
    assert rounds == 0 and eng.ledger.messages == 0
    assert delivered[2][0].payload == 9


def test_idt_random_batches_exact():
    rng = random.Random(0)
    for n in (4, 8, 16):
        for _ in range(10):
            items = random_legal_batch(rng, n)
            eng = make_engine(n)
            delivered, _ = route(solve_relaxed_idt, eng, items)
            assert delivered_multiset(delivered) == requested_multiset(items)


# ---------------------------------------------------------------------------
# bounded_route
# ---------------------------------------------------------------------------

def test_bounded_route_degenerate_is_single_task():
    rng = random.Random(1)
    n = 8
    items = random_legal_batch(rng, n)
    eng = make_engine(n)
    delivered, rounds = route(bounded_route, eng, items, k=1, ell=1)
    assert delivered_multiset(delivered) == requested_multiset(items)


def test_bounded_route_k2_l3():
    rng = random.Random(2)
    n = 8
    # per-node sends <= 2n, receives <= 3n
    recv = Counter()
    items = []
    for src in range(1, n + 1):
        for _ in range(rng.randrange(n, 2 * n + 1)):
            choices = [d for d in range(1, n + 1) if recv[d] < 3 * n]
            dst = rng.choice(choices)
            recv[dst] += 1
            items.append(RoutingItem(src, dst, rng.randrange(256), 8))
    eng = make_engine(n)
    delivered, rounds = route(bounded_route, eng, items, k=2, ell=3)
    assert delivered_multiset(delivered) == requested_multiset(items)

    acc = make_engine(n, routing="accounted")
    _, acc_rounds = route(bounded_route, acc, items, k=2, ell=3)
    assert acc_rounds <= 6 * acc.cfg.c_idt + 12


def test_bounded_route_precondition():
    n = 4
    eng = make_engine(n)
    items = [RoutingItem(1, 1 + (j % (n - 1)) + 1, 0, 1) for j in range(n + 1)]
    with pytest.raises(PreconditionError):
        route(bounded_route, eng, items, k=1, ell=n)


def test_bounded_route_accounted_monotone():
    prev_k = []
    for k in range(1, 5):
        prev_k.append(bounded_route_accounted_rounds(k, 2, 16))
    assert prev_k == sorted(prev_k)
    prev_l = [bounded_route_accounted_rounds(2, ell, 16) for ell in range(1, 5)]
    assert prev_l == sorted(prev_l)


def test_bounded_route_accounted_shape_only():
    """Accounted charges depend on batch shape, not payload contents."""
    n = 8
    items_a = [RoutingItem(1, 2, 0xAA, 8), RoutingItem(2, 3, 0xBB, 8)]
    items_b = [RoutingItem(1, 2, 0x11, 8), RoutingItem(2, 3, 0x22, 8)]
    ra = route(bounded_route, make_engine(n, routing="accounted"), items_a)[1]
    rb = route(bounded_route, make_engine(n, routing="accounted"), items_b)[1]
    assert ra == rb


# ---------------------------------------------------------------------------
# vector_multicast
# ---------------------------------------------------------------------------

def test_multicast_phase_counts():
    assert multicast_phases(1) == 1
    assert multicast_phases(2) == 1
    assert multicast_phases(3) == 2
    assert multicast_phases(6) == 2
    assert multicast_phases(15) == 4  # full broadcast at n=16
    assert multicast_phases(0) == 0


def test_multicast_single_pair():
    eng = make_engine(8)
    chunks = [(3, 8), (7, 8)]
    result, rounds = vector_multicast(eng, {2: (chunks, [5])})
    assert result[5] == [(2, chunks)]


def test_multicast_broadcast_n16():
    n = 16
    eng = make_engine(n)
    chunks = [(i, 8) for i in range(10)]
    recips = [v for v in range(1, n + 1) if v != 1]
    result, rounds = vector_multicast(eng, {1: (chunks, recips)})
    for v in recips:
        assert result[v] == [(1, chunks)]


def test_multicast_two_senders_disjoint():
    n = 8
    eng = make_engine(n)
    c1 = [(1, 4), (2, 4), (3, 4)]
    c2 = [(9, 4)]
    result, _ = vector_multicast(eng, {1: (c1, [3, 4, 5]), 2: (c2, [6, 7])})
    assert result[3] == [(1, c1)] and result[4] == [(1, c1)] and result[5] == [(1, c1)]
    assert result[6] == [(2, c2)] and result[7] == [(2, c2)]


def test_multicast_overlapping_recipients_two_subtasks():
    """A node receiving from two senders is served by two sequential
    sub-tasks; both vectors arrive."""
    n = 8
    eng = make_engine(n)
    c1 = [(5, 4)]
    c2 = [(6, 4)]
    result, _ = vector_multicast(eng, {1: (c1, [4]), 2: (c2, [4])})
    assert result[4] == [(1, c1), (2, c2)]


def test_multicast_duplicate_recipient_rejected():
    eng = make_engine(4)
    with pytest.raises(PreconditionError):
        vector_multicast(eng, {1: ([(0, 1)], [2, 2])})


def test_multicast_self_recipient_free():
    eng = make_engine(4)
    chunks = [(1, 2)]
    result, rounds = vector_multicast(eng, {3: (chunks, [3])})
    assert result[3] == [(3, chunks)]
    assert rounds == 0 and eng.ledger.messages == 0


def test_multicast_accounted_matches_simulated_content():
    n = 8
    chunks = [(i + 1, 6) for i in range(5)]
    senders = {2: (chunks, [1, 3, 4, 5, 6])}
    sim, _ = vector_multicast(make_engine(n), senders)
    acc, _ = vector_multicast(make_engine(n, routing="accounted"), senders)
    assert sim == acc


def test_multicast_accounted_round_charge_is_shape_function():
    n = 8
    a = {1: ([(1, 4), (2, 4)], [2, 3, 4])}
    b = {1: ([(9, 4), (8, 4)], [5, 6, 7])}
    ra = vector_multicast(make_engine(n, routing="accounted"), a)[1]
    rb = vector_multicast(make_engine(n, routing="accounted"), b)[1]
    assert ra == rb


# ---------------------------------------------------------------------------
# payload widths and delivery order
# ---------------------------------------------------------------------------

def _run_primitive(name, eng, payload, nbits):
    """One cross item 1 -> 2 through the named primitive; returns what
    node 2 received as (payload, nbits) pairs."""
    if name == "vector_multicast":
        result, _ = vector_multicast(eng, {1: ([(payload, nbits)], [2])})
        return [chunk for _, chunks in result[2] for chunk in chunks]
    prim = solve_relaxed_idt if name == "relaxed_idt" else bounded_route
    delivered, _ = route(prim, eng, [RoutingItem(1, 2, payload, nbits)])
    return [(it.payload, it.nbits) for it in delivered[2]]


PRIMITIVES = ("relaxed_idt", "bounded_route", "vector_multicast")


@pytest.mark.parametrize("name", PRIMITIVES)
@pytest.mark.parametrize("payload,nbits", [(8, 3), (-1, 8)])
def test_simulated_primitive_rejects_payload_wider_than_nbits(name, payload, nbits):
    with pytest.raises(CapacityError):
        _run_primitive(name, make_engine(4), payload, nbits)


@pytest.mark.parametrize("name", PRIMITIVES)
def test_simulated_primitive_carries_wide_payload(name):
    """Payloads never enter an int64 column, so W > 64 still works."""
    payload = (1 << 89) | 12345
    eng = make_engine(4, w=100)
    assert _run_primitive(name, eng, payload, 90) == [(payload, 90)]
    assert eng.ledger.bits >= 90


@pytest.mark.parametrize("name", PRIMITIVES)
@pytest.mark.parametrize("payload,nbits", [(1 << 90, 90), (-1, 8)])
def test_simulated_primitive_rejects_payload_in_object_column(name, payload, nbits):
    """At W > 64 payloads sit in an object column; the same width check
    holds there."""
    with pytest.raises(CapacityError):
        _run_primitive(name, make_engine(4, w=100), payload, nbits)


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
@pytest.mark.parametrize("prim", [solve_relaxed_idt, bounded_route])
@pytest.mark.parametrize(
    "w,payload,nbits,dtype",
    [(64, (1 << 64) - 1, 64, np.uint64), (100, (1 << 89) | 12345, 90, object)],
)
def test_task_primitive_payload_column_dtype(routing, prim, w, payload, nbits, dtype):
    """A full 64-bit payload is carried in a uint64 column at W = 64, and a
    90-bit one in an object column at W = 100."""
    eng = make_engine(4, routing=routing, w=w)
    out, _ = prim(eng, Batch.build(w, [1, 3], 2, nbits, [payload, 1]))
    assert out.payload.dtype == dtype
    assert out.payload.tolist() == [payload, 1]
    assert out.nbits.tolist() == [nbits, nbits]


@st.composite
def task_batches(draw, send_cap, recv_cap):
    """(n, w, rows) of a random valid batch: rows are RoutingItem tuples,
    per-node sends <= send_cap(n) and receives <= recv_cap(n)."""
    n = draw(st.integers(2, 12))
    w = draw(st.sampled_from([64, 100]))
    sends, recvs = Counter(), Counter()
    rows = []
    for _ in range(draw(st.integers(0, 2 * n * n))):
        src = draw(st.integers(1, n))
        dst = draw(st.integers(1, n))
        if sends[src] >= send_cap(n) or recvs[dst] >= recv_cap(n):
            continue
        sends[src] += 1
        recvs[dst] += 1
        nbits = draw(st.integers(1, w))
        payload = draw(st.integers(0, (1 << nbits) - 1))
        rows.append(RoutingItem(src, dst, payload, nbits, draw(st.integers(0, 2))))
    return n, w, rows


def _delivered_both_ways(prim, n, w, rows):
    """The batch each backend delivers, after checking they match column
    for column."""
    out = []
    for routing in ("simulated", "accounted"):
        eng = make_engine(n, routing=routing, w=w)
        out.append(prim(eng, batch(eng, rows))[0])
    sim, acc = out
    for col in ("src", "dst", "nbits", "tag", "payload"):
        a, b = getattr(sim, col), getattr(acc, col)
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    return sim


@settings(max_examples=60, deadline=None)
@given(task_batches(lambda n: n, lambda n: n))
def test_relaxed_idt_delivers_input_rows_in_order(case):
    n, w, rows = case
    got = _delivered_both_ways(solve_relaxed_idt, n, w, rows)
    order = sorted(range(len(rows)), key=lambda i: (rows[i].dst, rows[i].src, rows[i].tag, i))
    assert list(got) == [rows[i] for i in order]


@settings(max_examples=60, deadline=None)
@given(task_batches(lambda n: 2 * n, lambda n: 3 * n))
def test_bounded_route_delivers_input_rows_in_order(case):
    n, w, rows = case
    got = _delivered_both_ways(bounded_route, n, w, rows)
    order = sorted(range(len(rows)), key=lambda i: (rows[i].dst, rows[i].src, rows[i].tag, i))
    assert list(got) == [rows[i] for i in order]


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_bounded_route_delivers_in_position_order(routing):
    items = [RoutingItem(1, 2, p, 4) for p in (9, 3, 7)]
    delivered, _ = route(bounded_route, make_engine(4, routing=routing), items)
    assert [it.payload for it in delivered[2]] == [9, 3, 7]


# ---------------------------------------------------------------------------
# accounted formulas
# ---------------------------------------------------------------------------

def test_count_bits_carries_every_value_up_to_n():
    for n in range(1, 300):
        assert n < 1 << count_bits(n)
        assert count_bits(n) == 1 or n >= 1 << (count_bits(n) - 1)


def test_multicast_accounted_rounds_equals_both_inline_bounds():
    for n in (2, 3, 4, 5, 16, 17, 64, 100):
        for c_idt in (1, 16):
            for chunks in range(1, n + 1):
                # vector_multicast: vectors of at most ``chunks`` chunks
                kk = max(1, math.ceil(2 * chunks / n))
                flat_phases = max(1, math.ceil(math.log2(n)))
                want = 2 + flat_phases * bounded_route_accounted_rounds(kk, 1, c_idt)
                assert multicast_accounted_rounds(n, chunks, c_idt) == want
            for cap in (1, n - 1, n, 2 * n, 5 * n + 3):
                # witness stage 2: sub-vectors of at most min(cap, n) chunks
                kk = max(1, math.ceil(2 * min(cap, n) / n))
                want = 2 + max(1, math.ceil(math.log2(n))) * bounded_route_accounted_rounds(
                    kk, 1, c_idt
                )
                assert multicast_accounted_rounds(n, min(cap, n), c_idt) == want


# ---------------------------------------------------------------------------
# cross-backend exactness on random batches
# ---------------------------------------------------------------------------

def test_routing_modes_agree_on_content():
    rng = random.Random(3)
    for n in (4, 8):
        for _ in range(5):
            items = random_legal_batch(rng, n)
            sim, _ = route(solve_relaxed_idt, make_engine(n), items)
            acc, _ = route(solve_relaxed_idt, make_engine(n, routing="accounted"), items)
            assert delivered_multiset(sim) == delivered_multiset(acc)
