"""Unit tests for the routing subprotocols."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquemat import routing
from cliquemat.engine import CliqueConfig, CliqueEngine
from cliquemat.errors import CapacityError, MaxRoundsError, PairConflictError, PreconditionError
from cliquemat.routing import (
    C_IDT,
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
import schedule_reference
from recording import RecordingEngine


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
    )


def route(prim, eng, items, **kw):
    """Run a task primitive on the batch of ``items``; returns the items
    each node received, in batch order, and the rounds used."""
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
    eng = make_engine(8, routing="accounted")
    items = [RoutingItem(1, 2, 5, 8), RoutingItem(3, 4, 6, 8)]
    delivered, rounds = route(solve_relaxed_idt, eng, items)
    assert rounds == C_IDT
    assert eng.ledger.rounds == C_IDT
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
    delivered, rounds = route(bounded_route, eng, items)
    assert delivered_multiset(delivered) == requested_multiset(items)


def test_bounded_route_k2_l3():
    """Peak loads of 2n sends (node 1) and 3n receives (node n) derive
    k=2 and l=3; the other nodes send n items each to nodes 1..n-1."""
    rng = random.Random(2)
    n = 8
    dsts = {1: [n] * (2 * n), 2: [n] * n}
    for src in range(3, n + 1):
        dsts[src] = [rng.randrange(1, n) for _ in range(n)]
    items = [
        RoutingItem(src, dst, rng.randrange(256), 8)
        for src in sorted(dsts) for dst in dsts[src]
    ]
    sends = Counter(it.src for it in items if it.src != it.dst)
    recvs = Counter(it.dst for it in items if it.src != it.dst)
    assert max(sends.values()) == 2 * n and max(recvs.values()) == 3 * n
    eng = make_engine(n)
    delivered, rounds = route(bounded_route, eng, items)
    assert delivered_multiset(delivered) == requested_multiset(items)

    acc = make_engine(n, routing="accounted")
    _, acc_rounds = route(bounded_route, acc, items)
    assert acc_rounds == bounded_route_accounted_rounds(2, 3)


def test_bounded_route_accounted_monotone():
    prev_k = []
    for k in range(1, 5):
        prev_k.append(bounded_route_accounted_rounds(k, 2))
    assert prev_k == sorted(prev_k)
    prev_l = [bounded_route_accounted_rounds(2, ell) for ell in range(1, 5)]
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

def multicast_phases_loop(num_recipients):
    """Reference: the fewest doubling phases p whose groups of 2, 4, ...,
    2^p nodes cover ``num_recipients``, counted one phase at a time."""
    if num_recipients <= 0:
        return 0
    p = 1
    while (1 << (p + 1)) - 2 < num_recipients:
        p += 1
    return p


def test_multicast_phase_counts():
    assert multicast_phases(1) == 1
    assert multicast_phases(2) == 1
    assert multicast_phases(3) == 2
    assert multicast_phases(6) == 2
    assert multicast_phases(15) == 4  # full broadcast at n=16
    assert multicast_phases(0) == 0
    for r in range(-2, 5001):
        assert multicast_phases(r) == multicast_phases_loop(r), r


def test_multicast_single_pair():
    eng = make_engine(8)
    senders = {2: (((3, 8), (7, 8)), [5])}
    result, rounds = vector_multicast(eng, senders)
    assert result is senders
    assert rounds == eng.ledger.rounds > 0


def test_multicast_broadcast_n16():
    n = 16
    eng = make_engine(n)
    chunks = tuple((i, 8) for i in range(10))
    recips = [v for v in range(1, n + 1) if v != 1]
    senders = {1: (chunks, recips)}
    result, rounds = vector_multicast(eng, senders)
    assert result is senders
    assert rounds == eng.ledger.rounds > 0


def test_multicast_two_senders_disjoint():
    n = 8
    eng = make_engine(n)
    c1 = ((1, 4), (2, 4), (3, 4))
    c2 = ((9, 4),)
    senders = {1: (c1, [3, 4, 5]), 2: (c2, [6, 7])}
    result, _ = vector_multicast(eng, senders)
    assert result is senders


def test_multicast_overlapping_recipients_two_subtasks():
    """A node receiving from two senders is served by two sequential
    sub-tasks, which take more rounds than one sender's; the call hands
    back both vectors as given."""
    n = 8
    c1 = ((5, 4),)
    c2 = ((6, 4),)
    senders = {1: (c1, [4]), 2: (c2, [4])}
    result, rounds = vector_multicast(make_engine(n), senders)
    assert result is senders
    assert rounds > vector_multicast(make_engine(n), {1: (c1, [4])})[1]


def test_multicast_duplicate_recipient_rejected():
    eng = make_engine(4)
    with pytest.raises(PreconditionError):
        vector_multicast(eng, {1: ([(0, 1)], [2, 2])})


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
@pytest.mark.parametrize("sender", [0, 9])
def test_multicast_rejects_sender_outside_clique(routing, sender):
    """Both backends refuse a sender outside 1..n before any charge."""
    eng = make_engine(8, routing=routing)
    with pytest.raises(PreconditionError, match=f"sender {sender} outside 1..8"):
        vector_multicast(eng, {sender: ([(1, 4)], [2, 3])})
    assert eng.ledger.rounds == 0 and eng.ledger.messages == 0


def test_multicast_self_recipient_free():
    eng = make_engine(4)
    senders = {3: (((1, 2),), [3])}
    result, rounds = vector_multicast(eng, senders)
    assert result is senders
    assert rounds == 0 and eng.ledger.messages == 0


def test_multicast_accounted_matches_simulated_content():
    n = 8
    chunks = tuple((i + 1, 6) for i in range(5))
    senders = {2: (chunks, [1, 3, 4, 5, 6])}
    sim, _ = vector_multicast(make_engine(n), senders)
    acc, _ = vector_multicast(make_engine(n, routing="accounted"), senders)
    assert sim is acc is senders


def test_multicast_accounted_round_charge_is_shape_function():
    n = 8
    a = {1: ([(1, 4), (2, 4)], [2, 3, 4])}
    b = {1: ([(9, 4), (8, 4)], [5, 6, 7])}
    ra = vector_multicast(make_engine(n, routing="accounted"), a)[1]
    rb = vector_multicast(make_engine(n, routing="accounted"), b)[1]
    assert ra == rb


def reference_multicast_ledger(eng, senders):
    """Accounted multicast cost by expanding every message: per sub-task
    (each recipient's m-th sender), the published bound for its widest
    vector, then each rank announcement, each recipient's announcement to
    every other node and every chunk copy, tallied message by message."""
    n = eng.n
    idbits = count_bits(n)
    net = {s: (chunks, sorted(v for v in recips if v != s)) for s, (chunks, recips) in senders.items()}
    by_recipient = {}
    for s in sorted(net):
        for v in net[s][1]:
            by_recipient.setdefault(v, []).append(s)
    for m in range(max(map(len, by_recipient.values()), default=0)):
        sub = {}
        for v in sorted(by_recipient):
            if m < len(by_recipient[v]):
                sub.setdefault(by_recipient[v][m], []).append(v)
        pairs = [(s, v) for s in sorted(sub) for v in sub[s]]
        rows = [(s, v, idbits) for s, v in pairs]
        rows += [(v, u, idbits) for _, v in pairs for u in range(1, n + 1) if u != v]
        rows += [(s, v, nbits) for s, v in pairs for _, nbits in net[s][0]]
        widest = max(len(net[s][0]) for s in sub)
        eng.charge_rounds(multicast_accounted_rounds(n, widest), "vector_multicast")
        src, dst, nbits = (np.array(col) for col in zip(*rows))
        load = np.bincount(src, minlength=n + 1) + np.bincount(dst, minlength=n + 1)
        eng.count_traffic(src.size, nbits.sum(), load)


@st.composite
def multicasts(draw):
    """(n, w, senders) of a random valid multicast: 1..n chunks per sender
    (as a tuple), recipient sets that may hold the sender itself."""
    n = draw(st.integers(2, 12))
    w = draw(st.sampled_from([64, 100]))
    senders = {}
    for s in draw(st.lists(st.integers(1, n), unique=True, max_size=n)):
        chunks = []
        for _ in range(draw(st.integers(1, n))):
            nbits = draw(st.integers(1, w))
            chunks.append((draw(st.integers(0, (1 << nbits) - 1)), nbits))
        senders[s] = (tuple(chunks), draw(st.lists(st.integers(1, n), unique=True, max_size=n)))
    return n, w, senders


def ledger_fields(led):
    return led.rounds, led.messages, led.bits, led.work, led.primitive_rounds


@settings(max_examples=60, deadline=None)
@given(multicasts())
def test_multicast_ledger_matches_expanded_reference_and_shares_vectors(case):
    n, w, senders = case
    for routing in ("simulated", "accounted"):
        eng = make_engine(n, routing=routing, w=w)
        got, rounds = vector_multicast(eng, senders)
        assert got is senders
        assert rounds == eng.ledger.rounds
    ref = make_engine(n, routing="accounted", w=w)
    reference_multicast_ledger(ref, senders)
    assert ledger_fields(eng.ledger) == ledger_fields(ref.ledger)


def per_block_multicast(eng, senders):
    """Simulated multicast, one exchange per block, each labelled as the
    primitive: per sub-task (each recipient's m-th sender), the two
    announcement rounds, then each doubling phase's copies, in (sender,
    rank, chunk) order, through the loop reference of the bounded-route
    schedule, one block at a time."""
    n = eng.n
    idbits = count_bits(n)
    by_recipient = {}
    for s in sorted(senders):
        for v in senders[s][1]:
            if v != s:
                by_recipient.setdefault(v, []).append(s)
    for m in range(max(map(len, by_recipient.values()), default=0)):
        sub = {}
        for v in sorted(by_recipient):
            if m < len(by_recipient[v]):
                sub.setdefault(by_recipient[v][m], []).append(v)
        pairs = [(s, v) for s in sorted(sub) for v in sub[s]]
        told = [(v, u) for _, v in pairs for u in range(1, n + 1) if u != v]
        eng.exchange(
            2,
            [0] * len(pairs) + [1] * len(told),
            [s for s, _ in pairs] + [v for v, _ in told],
            [v for _, v in pairs] + [u for _, u in told],
            idbits,
            label="vector_multicast",
        )
        phase = 1
        while True:
            # ranks lo..hi-1; rank t takes the vector from the sender in
            # phase 1, later from the recipient of rank plo + (t-lo)//2
            lo, hi, plo = (1 << phase) - 2, (1 << (phase + 1)) - 2, (1 << (phase - 1)) - 2
            copies = [
                (s if phase == 1 else sub[s][plo + (t - lo) // 2], sub[s][t], nbits)
                for s in sorted(sub)
                for t in range(lo, min(hi, len(sub[s])))
                for _, nbits in senders[s][0]
            ]
            if not copies:
                break
            blocks = []
            schedule_reference._bounded_rounds(n, *(np.array(col) for col in zip(*copies)), blocks)
            for block in blocks:
                eng.exchange(*block, label="vector_multicast")
            phase += 1


@settings(max_examples=60, deadline=None)
@given(multicasts())
def test_simulated_multicast_matches_per_block_reference(case):
    """The joined schedule sends exactly the messages of the per-block one,
    in the same rounds, and charges the same ledger."""
    n, w, senders = case
    eng = RecordingEngine(CliqueConfig(n=n, w=w))
    _, rounds = vector_multicast(eng, senders)
    ref = RecordingEngine(CliqueConfig(n=n, w=w))
    per_block_multicast(ref, senders)
    assert rounds == ref.ledger.rounds
    assert ledger_fields(eng.ledger) == ledger_fields(ref.ledger)
    assert sorted(eng.rows) == sorted(ref.rows)


@st.composite
def schedule_inputs(draw):
    """(n, src, dst, nbits) of cross columns in position order for a
    schedule builder: n in 2..40, up to 5n items, a share of them from one
    hot sender (so it has several sub-tasks) and to one hot receiver (so a
    sub-task needs several releases), and widths one scalar or one per
    item."""
    n = draw(st.integers(2, 40))
    size = draw(st.integers(0, 5 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for share in (draw(st.sampled_from([0, 0.5, 0.9])) for _ in range(2)):
        hot = rng.random(size) < share
        cols.append(np.where(hot, rng.integers(1, n + 1), rng.integers(1, n + 1, size)))
    src, dst = cols
    dst = np.where(dst == src, dst % n + 1, dst)  # cross items only
    nbits = draw(st.one_of(st.integers(1, 64), st.just(None)))
    if nbits is None:
        nbits = rng.integers(1, 65, size).astype(np.int32)
    return n, src.astype(np.int32), dst.astype(np.int32), nbits


def joined_messages(builder, n, src, dst, nbits):
    """The round count and the multiset of (round, src, dst, nbits)
    messages of ``builder``'s joined blocks."""
    blocks = []
    builder(n, src, dst, nbits, blocks)
    rounds, *cols, everyone = routing._join(blocks)
    assert everyone == ()
    return rounds, Counter(zip(*(col.tolist() for col in cols)))


@pytest.mark.parametrize("name", ["_idt_rounds", "_bounded_rounds"])
@settings(max_examples=150, deadline=None)
@given(case=schedule_inputs())
def test_schedule_builder_matches_loop_reference(name, case):
    """The closed-form builders send exactly the messages of the loop
    versions in tests/schedule_reference.py, in the same rounds, for any
    loads (the relaxed one too, whose checks come later), and a scalar
    width stands for its constant column."""
    n, src, dst, nbits = case
    widths = np.broadcast_to(nbits, src.shape)
    want = joined_messages(getattr(schedule_reference, name), n, src, dst, widths)
    assert joined_messages(getattr(routing, name), n, src, dst, nbits) == want


def ledger_counts(led):
    return np.array([led.rounds, led.messages, led.bits, *led.work])


def test_multicast_schedule_is_derived_once_per_step_and_shape(monkeypatch):
    """Repeats of one multicast shape within a step share one schedule,
    checked once, and each charges a full multicast; any other shape, or
    the next step, schedules and checks afresh."""
    calls, checks = [], []
    schedule, check = routing._multicast_schedule, CliqueEngine.check_exchange

    def spy(*args):
        calls.append(args)
        return schedule(*args)

    def check_spy(self, *args):
        checks.append(args)
        return check(self, *args)

    monkeypatch.setattr(routing, "_multicast_schedule", spy)
    monkeypatch.setattr(CliqueEngine, "check_exchange", check_spy)
    n = 8
    vec, recips = ((5, 6), (3, 2), (1, 1)), [2, 3, 5, 8]
    fresh = make_engine(n)
    vector_multicast(fresh, {1: (vec, recips)})
    one = ledger_counts(fresh.ledger)
    assert len(calls) == len(checks) == 1

    eng = make_engine(n)
    with eng.step("s"):
        for _ in range(4):
            before = ledger_counts(eng.ledger)
            vector_multicast(eng, {1: (list(vec), list(recips))})  # equal, not the same
            assert np.array_equal(ledger_counts(eng.ledger) - before, one)
        assert len(calls) == len(checks) == 2
        for senders in (
            {1: (((5, 6), (3, 3), (1, 1)), recips)},  # one chunk width
            {1: (vec, [2, 3, 5, 7])},  # one recipient
            {4: (vec, recips)},  # the sender
        ):
            vector_multicast(eng, senders)
        assert len(calls) == len(checks) == 5
    assert eng.ledger.primitive_rounds["vector_multicast"] == eng.ledger.rounds
    with eng.step("t"):
        vector_multicast(eng, {1: (vec, recips)})
    assert len(calls) == len(checks) == 6


def test_multicast_schedule_that_fails_its_check_raises_on_every_call(monkeypatch):
    """A derived schedule that breaks a rule is not kept: each repeat in the
    step derives it again, raises again and charges nothing."""
    calls = []
    schedule = routing._multicast_schedule

    def clash(*args):
        calls.append(args)
        rounds, rnd, src, dst, nbits, everyone = schedule(*args)
        return rounds, *(np.append(col, col[0]) for col in (rnd, src, dst, nbits)), everyone

    monkeypatch.setattr(routing, "_multicast_schedule", clash)
    eng = make_engine(8)
    with eng.step("s"):
        for times in (1, 2):
            with pytest.raises(PairConflictError):
                vector_multicast(eng, {1: (((5, 6),), [2, 3])})
            assert len(calls) == times
            assert (eng.ledger.rounds, eng.ledger.messages, eng.ledger.work_total) == (0, 0, 0)


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
@pytest.mark.parametrize("w", [64, 100])
def test_long_multicast_equals_its_n_chunk_calls(routing, w):
    """Vectors of n-1, n, n+1 and 2n+3 chunks from senders that share
    recipients (and one that lists itself) go out in one call, which
    charges exactly the explicit sequence of <= n-chunk calls: call s
    carries chunks s*n .. s*n+n-1 of every vector longer than s*n.  Each
    call hands back the dict it was given, so every sender's vector is the
    concatenation of the pieces the sequence hands back.  A call whose
    summed traffic would pass ``max_rounds`` charges nothing."""
    n, rng = 8, random.Random(w)
    lengths = {1: n - 1, 2: n, 5: n + 1, 6: 2 * n + 3}
    recips = {1: [2, 3, 4, 6], 2: [1, 3, 4, 8], 5: [3, 4, 5, 7], 6: [1, 2, 3, 4]}
    senders = {}
    for s, length in lengths.items():
        widths = [rng.randint(1, w) for _ in range(length)]
        chunks = [(rng.getrandbits(nb), nb) for nb in widths]
        senders[s] = (np.array(chunks, dtype=object if w > 64 else np.uint64), recips[s])
    eng = make_engine(n, routing=routing, w=w)
    got, rounds = vector_multicast(eng, senders)
    ref = make_engine(n, routing=routing, w=w)
    pieces = {}
    for lo in range(0, max(lengths.values()), n):
        part = {s: (vec[lo:lo + n], r) for s, (vec, r) in senders.items() if len(vec) > lo}
        out, _ = vector_multicast(ref, part)
        assert out is part
        for s, (piece, _) in out.items():
            pieces.setdefault(s, []).append(piece)
    assert lo > 0 and rounds == eng.ledger.rounds
    assert eng.ledger.as_dict() == ref.ledger.as_dict() and eng.ledger.work == ref.ledger.work
    assert got is senders
    for s, (vec, _) in got.items():
        assert np.concatenate(pieces[s]).tolist() == vec.tolist()
    short = make_engine(n, routing=routing, w=w, max_rounds=rounds - 1)
    with pytest.raises(MaxRoundsError):
        vector_multicast(short, senders)
    assert short.ledger.as_dict() == make_engine(n, routing=routing, w=w).ledger.as_dict()


# ---------------------------------------------------------------------------
# payload widths
# ---------------------------------------------------------------------------

def _run_primitive(name, eng, payload, nbits):
    """One cross item 1 -> 2 through the named primitive; returns what
    node 2 received as (payload, nbits) pairs."""
    if name == "vector_multicast":
        senders = {1: ([(payload, nbits)], [2])}
        result, _ = vector_multicast(eng, senders)
        assert result is senders
        return list(result[1][0])
    prim = solve_relaxed_idt if name == "relaxed_idt" else bounded_route
    delivered, _ = route(prim, eng, [RoutingItem(1, 2, payload, nbits)])
    return [(it.payload, it.nbits) for it in delivered[2]]


PRIMITIVES = ("relaxed_idt", "bounded_route", "vector_multicast")


@pytest.mark.parametrize("name", PRIMITIVES)
@pytest.mark.parametrize("payload,nbits", [(8, 3), (-1, 8)])
def test_simulated_primitive_rejects_payload_wider_than_nbits(name, payload, nbits):
    """The payload check holds under both backends."""
    for routing in ("simulated", "accounted"):
        with pytest.raises(CapacityError):
            _run_primitive(name, make_engine(4, routing=routing), payload, nbits)


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
@pytest.mark.parametrize("name", PRIMITIVES)
def test_primitive_rejects_chunk_wider_than_w(name, routing):
    """Capacity W holds under both backends."""
    with pytest.raises(CapacityError):
        _run_primitive(name, make_engine(4, routing=routing), 1, 90)


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
@pytest.mark.parametrize("prim", [solve_relaxed_idt, bounded_route, vector_multicast])
@pytest.mark.parametrize(
    "dst,nbits,error",
    [
        (2, 90, CapacityError),
        (2, 1, CapacityError),
        (2, 0, CapacityError),
        (5, 8, ValueError),
        (2, 8, MaxRoundsError),
    ],
)
def test_failed_task_primitive_charges_nothing(prim, routing, dst, nbits, error):
    """A batch with a chunk wider than W, a payload wider than its width, a
    width of 0, an endpoint outside 1..n or more rounds than
    ``max_rounds`` leaves is rejected before either backend charges
    rounds, messages or a label.  A multicast sends each row as a
    one-chunk vector."""
    cfg = {"routing": routing, "max_rounds": 2 if error is MaxRoundsError else 1_000_000}
    eng = make_engine(4, **cfg)
    rows = ([1, 3], [3, dst], [8, nbits], [1, 2])
    with pytest.raises(error):
        if prim is vector_multicast:
            prim(eng, {s: ([(p, nb)], [d]) for s, d, nb, p in zip(*rows)})
        else:
            prim(eng, Batch.build(eng.w, *rows))
    assert eng.ledger.as_dict() == make_engine(4, **cfg).ledger.as_dict()


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
@pytest.mark.parametrize("prim", [solve_relaxed_idt, bounded_route])
def test_task_primitive_checks_every_node_first(prim, routing):
    """Every endpoint is checked against 1..n before the loads are counted
    or delivery sorts by node id: a cross item's, and a self-addressed
    item's, which costs nothing."""
    for src, dst in (([1, -1], [2, 3]), ([1, 5], [2, 5])):
        eng = make_engine(4, routing=routing)
        with pytest.raises(ValueError, match="outside 1..4"):
            prim(eng, Batch.build(eng.w, src, dst, 8, [1, 2]))
        assert eng.ledger.as_dict() == make_engine(4, routing=routing).ledger.as_dict()


def test_schedule_broken_in_a_later_block_charges_nothing(monkeypatch):
    """A simulated bounded_route whose relaxed task, the block after the
    two preamble rounds, sends two messages on one ordered pair in one
    round raises and leaves the ledger as it was, preamble included."""

    def clashing(n, src, dst, nbits, blocks):
        blocks.append((1, np.zeros(2, dtype=np.int64), src[[0, 0]], dst[[0, 0]], nbits[[0, 0]]))

    monkeypatch.setattr(routing, "_idt_rounds", clashing)
    eng = make_engine(4)
    with pytest.raises(PairConflictError):
        route(bounded_route, eng, [RoutingItem(1, 2, 5, 8)])
    assert eng.ledger.as_dict() == make_engine(4).ledger.as_dict()


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
@pytest.mark.parametrize(
    "prim,label,arg",
    [
        (solve_relaxed_idt, "relaxed_idt", random_legal_batch(random.Random(5), 8)),
        # three sub-tasks of n items from node 1, each its own relaxed task
        (bounded_route, "bounded_route", [RoutingItem(1, 2, 0, 8)] * 24),
        # two sub-multicasts, the first with two sub-tasks
        (vector_multicast, "vector_multicast",
         {1: ([(1, 4)] * 11, [2, 3]), 4: ([(2, 5)] * 3, [3])}),
    ],
    ids=["relaxed_idt", "bounded_route", "vector_multicast"],
)
def test_routing_call_makes_one_labelled_charge(monkeypatch, routing, prim, label, arg):
    """However many blocks, sub-tasks or sub-multicasts it has, a routing
    call enters the ledger in either backend through exactly one labelled
    ``CliqueEngine.charge``, which makes the one ledger tally."""
    charges, tallies = [], []
    charge, tally = CliqueEngine.charge, CliqueEngine.count_traffic

    def charge_spy(self, traffic, label=""):
        charges.append(label)
        return charge(self, traffic, label)

    def tally_spy(self, *args):
        tallies.append(args)
        return tally(self, *args)

    monkeypatch.setattr(CliqueEngine, "charge", charge_spy)
    monkeypatch.setattr(CliqueEngine, "count_traffic", tally_spy)
    eng = make_engine(8, routing=routing)
    _, rounds = prim(eng, arg) if prim is vector_multicast else route(prim, eng, arg)
    assert charges == [label] and len(tallies) == 1
    assert rounds == eng.ledger.rounds == eng.ledger.primitive_rounds[label] > 0


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
@pytest.mark.parametrize("prim", [solve_relaxed_idt, bounded_route])
@pytest.mark.parametrize("case", ["self-only payload", "self width 0", "self width W+1"])
def test_task_primitive_checks_self_addressed_items(routing, prim, case):
    """Self-addressed items cost nothing but are checked like the rest: a
    self-only batch whose payload needs more than its width, and a mixed
    batch whose self item has width 0 or W+1, raise CapacityError and leave
    the ledger at zero."""
    eng = make_engine(4, routing=routing)
    rows = {
        "self-only payload": ([3], [3], [1], [5]),
        "self width 0": ([1, 3], [2, 3], [8, 0], [1, 0]),
        "self width W+1": ([1, 3], [2, 3], [8, eng.w + 1], [1, 1]),
    }[case]
    with pytest.raises(CapacityError):
        prim(eng, Batch.build(eng.w, *rows))
    assert eng.ledger.as_dict() == make_engine(4, routing=routing).ledger.as_dict()


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
    holds there, under both backends."""
    for routing in ("simulated", "accounted"):
        with pytest.raises(CapacityError):
            _run_primitive(name, make_engine(4, routing=routing, w=100), payload, nbits)


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
        rows.append(RoutingItem(src, dst, payload, nbits))
    return n, w, rows


# ---------------------------------------------------------------------------
# the batch handed back as given; one check-and-tally pass per call
# ---------------------------------------------------------------------------

# each task primitive with the send and receive caps it serves
TASKS = {
    "relaxed_idt": (solve_relaxed_idt, lambda n: n, lambda n: n),
    "bounded_route": (bounded_route, lambda n: 2 * n, lambda n: 3 * n),
}


def two_pass_traffic(prim, n, b):
    """(rounds, messages, bits, load) of the accounted charge as two passes
    counted it: the peak loads from one bincount of each side's cross
    items, then the tally from the cross columns taken again; None when no
    item crosses."""
    cross = b.src != b.dst
    src, dst, nbits = b.src[cross], b.dst[cross], b.nbits[cross]
    if not src.size:
        return None
    max_send, max_recv = int(np.bincount(src).max()), int(np.bincount(dst).max())
    if prim is solve_relaxed_idt:
        rounds = routing.idt_accounted_rounds(n, max_send, max_recv)
    else:
        k, ell = max(1, math.ceil(max_send / n)), max(1, math.ceil(max_recv / n))
        rounds = bounded_route_accounted_rounds(k, ell)
    load = np.bincount(src, minlength=n + 1) + np.bincount(dst, minlength=n + 1)
    return rounds, src.size, int(nbits.sum()), load.tolist()


def spied(prim, eng, b):
    """``prim(eng, b)``; returns the delivered batch and the
    :class:`Traffic` of every charge."""
    charges, charge = [], CliqueEngine.charge

    def charge_spy(self, traffic, label=""):
        charges.append(traffic)
        return charge(self, traffic, label)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CliqueEngine, "charge", charge_spy)
        out, _ = prim(eng, b)
    return out, charges


def _delivered_both_ways(prim, n, w, rows, width=None):
    """The batch each backend delivers for ``rows`` (with one scalar
    ``width``, or a width per item when None), after checking that each
    hands back the batch it was given: every item in batch order, with the
    values and dtypes it was built with (a scalar width's constant column
    included), and the input left as it was."""
    cols = ("src", "dst", "nbits", "payload")
    dtypes = (np.int64, np.int64, np.int64, np.uint64 if w <= 64 else object)
    for mode in ("simulated", "accounted"):
        eng = make_engine(n, routing=mode, w=w)
        b = batch(eng, rows) if width is None else Batch.build(
            w, [r.src for r in rows], [r.dst for r in rows], width, [r.payload for r in rows]
        )
        before = {col: getattr(b, col).copy() for col in cols}
        out, _ = prim(eng, b)
        assert out is b
        for col, dtype in zip(cols, dtypes):
            got = getattr(out, col)
            assert got.dtype == dtype
            assert got.tolist() == before[col].tolist() == [getattr(r, col) for r in rows]
    return out


def _scalar_width(data, w, rows):
    """``rows`` and a drawn scalar width they fit, or ``rows`` and None
    (a width per item)."""
    width = data.draw(st.none() | st.integers(1, w))
    if width is not None:
        rows = [r._replace(payload=r.payload % (1 << width), nbits=width) for r in rows]
    return rows, width


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_relaxed_idt_delivers_input_rows_in_order(data):
    n, w, rows = data.draw(task_batches(lambda n: n, lambda n: n))
    rows, width = _scalar_width(data, w, rows)
    got = _delivered_both_ways(solve_relaxed_idt, n, w, rows, width)
    assert list(got) == rows


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bounded_route_delivers_input_rows_in_order(data):
    n, w, rows = data.draw(task_batches(lambda n: 2 * n, lambda n: 3 * n))
    rows, width = _scalar_width(data, w, rows)
    got = _delivered_both_ways(bounded_route, n, w, rows, width)
    assert list(got) == rows


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_bounded_route_delivers_in_position_order(routing):
    items = [RoutingItem(1, 2, p, 4) for p in (9, 3, 7)]
    delivered, _ = route(bounded_route, make_engine(4, routing=routing), items)
    assert [it.payload for it in delivered[2]] == [9, 3, 7]


@pytest.mark.parametrize("mode", ["simulated", "accounted"])
@pytest.mark.parametrize("name", list(TASKS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_task_primitive_tallies_once_and_sorts_no_batch(name, mode, data):
    """A batch, self-addressed items included, comes back as the batch
    itself in batch order, whether it arrives in (dst, src) order or not:
    delivery sorts no batch, so an unordered one stays unordered.  The call
    charges once, nothing when no item crosses, and the accounted charge
    equals the two-pass tally."""
    prim, send_cap, recv_cap = TASKS[name]
    n, w, rows = data.draw(task_batches(send_cap, recv_cap))
    for ordered in (False, True):
        if ordered:
            rows = sorted(rows, key=lambda r: (r.dst, r.src))
        eng = make_engine(n, routing=mode, w=w)
        b = batch(eng, rows)
        out, charges = spied(prim, eng, b)
        assert out is b
        assert list(out) == rows
        want = two_pass_traffic(prim, n, b)
        assert len(charges) == (want is not None)
        if want is not None and mode == "accounted":
            rounds, messages, bits, load = charges[0]
            assert (rounds, messages, bits, load.tolist()) == want


@pytest.mark.parametrize("mode", ["simulated", "accounted"])
@pytest.mark.parametrize("name", list(TASKS))
@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 12), w=st.sampled_from([64, 100]), data=st.data())
def test_task_primitive_delivers_an_all_self_batch_free(name, mode, n, w, data):
    """A batch whose every item is self-addressed charges nothing."""
    prim = TASKS[name][0]
    nodes = data.draw(st.lists(st.integers(1, n), max_size=3 * n))
    eng = make_engine(n, routing=mode, w=w)
    b = Batch.build(w, nodes, nodes, 8, [i % 256 for i in range(len(nodes))])
    out, charges = spied(prim, eng, b)
    assert out is b
    assert charges == []
    assert eng.ledger.as_dict() == make_engine(n, routing=mode, w=w).ledger.as_dict()


@pytest.mark.parametrize("mode", ["simulated", "accounted"])
@pytest.mark.parametrize("src", [[1] * 5, [1, 1, 3, 3, 4, 4]], ids=["sends", "receives"])
def test_overloaded_relaxed_batch_charges_nothing(src, mode):
    """A relaxed batch in which a node sends or receives more than n items
    raises in either backend before anything is charged."""
    eng = make_engine(4, routing=mode)
    dst = [2, 3, 4, 2, 3] if len(src) == 5 else 2
    with pytest.raises(PreconditionError):
        spied(solve_relaxed_idt, eng, Batch.build(eng.w, src, dst, 1, 0))
    assert eng.ledger.as_dict() == make_engine(4, routing=mode).ledger.as_dict()


# ---------------------------------------------------------------------------
# accounted formulas
# ---------------------------------------------------------------------------

def test_count_bits_carries_every_value_up_to_n():
    for n in range(1, 300):
        assert n < 1 << count_bits(n)
        assert count_bits(n) == 1 or n >= 1 << (count_bits(n) - 1)


def test_multicast_accounted_rounds_equals_both_inline_bounds(monkeypatch):
    """Both bounds, with ``routing.C_IDT`` patched: the formulas read it when
    called."""
    for c_idt in (1, 16):
        monkeypatch.setattr(routing, "C_IDT", c_idt)
        for n in (2, 3, 4, 5, 16, 17, 64, 100):
            for chunks in range(1, n + 1):
                # vector_multicast: vectors of at most ``chunks`` chunks
                kk = max(1, math.ceil(2 * chunks / n))
                flat_phases = max(1, math.ceil(math.log2(n)))
                want = 2 + flat_phases * kk * (c_idt + 2)
                assert multicast_accounted_rounds(n, chunks) == want
            for cap in (1, n - 1, n, 2 * n, 5 * n + 3):
                # witness stage 2: sub-vectors of at most min(cap, n) chunks
                kk = max(1, math.ceil(2 * min(cap, n) / n))
                want = 2 + max(1, math.ceil(math.log2(n))) * bounded_route_accounted_rounds(kk, 1)
                assert multicast_accounted_rounds(n, min(cap, n)) == want


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
