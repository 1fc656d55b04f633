"""Unit tests for the clique engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from all_to_all import expand, to_all_others
from cliquemat.engine import CliqueConfig, CliqueEngine, Message
from cliquemat.errors import (
    CapacityError,
    IsolationError,
    MaxRoundsError,
    PairConflictError,
)


def make_engine(n=4, **kw):
    return CliqueEngine(CliqueConfig(n=n, **kw))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        CliqueConfig(n=1)
    with pytest.raises(ValueError):
        CliqueConfig(n=16, w=4)  # below ceil(log2 n) + 1
    with pytest.raises(ValueError):
        CliqueConfig(n=4, routing="other")


# ---------------------------------------------------------------------------
# post_message / advance_round
# ---------------------------------------------------------------------------

def test_payload_at_capacity_accepted():
    eng = make_engine(4, w=16)
    eng.post_message(Message(1, 2, (1 << 16) - 1, 16))
    eng.advance_round()
    assert eng.ledger.messages == 1
    assert eng.ledger.bits == 16


def test_payload_over_capacity_rejected():
    eng = make_engine(4, w=16)
    with pytest.raises(CapacityError):
        eng.post_message(Message(1, 2, 0, 17))


def test_pair_conflict_rejected():
    eng = make_engine(8)
    eng.post_message(Message(3, 7, 1, 1))
    with pytest.raises(PairConflictError):
        eng.post_message(Message(3, 7, 0, 1))


def test_payload_must_fit_declared_bits():
    eng = make_engine(4)
    with pytest.raises(CapacityError):
        eng.post_message(Message(1, 2, 4, 2))
    with pytest.raises(CapacityError):
        eng.post_message(Message(1, 2, 1, 0))


def test_empty_round_counts():
    eng = make_engine(4)
    eng.advance_round()
    assert eng.ledger.rounds == 1
    assert eng.ledger.messages == 0


def test_full_exchange_counts():
    eng = make_engine(4)
    for s in range(1, 5):
        for d in range(1, 5):
            if s != d:
                eng.post_message(Message(s, d, 1, 1))
    eng.advance_round()
    assert eng.ledger.messages == 12
    assert eng.ledger.bits == 12


def test_bits_counted_by_payload_size():
    eng = make_engine(4, w=32)
    eng.post_message(Message(1, 2, 0xFFFFF, 20))
    eng.advance_round()
    assert eng.ledger.bits == 20


def test_message_work_convention():
    eng = make_engine(4, w=32)
    eng.post_message(Message(1, 2, 1, 1))
    assert eng.ledger.work[1] == 32  # sender charged at post
    eng.advance_round()
    assert eng.ledger.work[2] == 32  # receiver charged at delivery


def test_charge_work():
    eng = make_engine(4)
    before = eng.ledger.work_total
    eng.charge_work(2, 0)
    assert eng.ledger.work_total == before
    eng.charge_work(2, 7)
    assert eng.ledger.work[2] == 7
    with pytest.raises(ValueError):
        eng.charge_work(2, -1)


# ---------------------------------------------------------------------------
# batched rounds: the same rules, the same errors, the same ledger
# ---------------------------------------------------------------------------

# (case, messages of one round as (src, dst, nbits), error both paths raise)
RULES = [
    ("dst outside", [(1, 9, 4)], ValueError),
    ("src outside", [(0, 2, 4)], ValueError),
    ("src equals dst", [(3, 3, 4)], ValueError),
    ("no bits", [(1, 2, 0)], CapacityError),
    ("over capacity", [(1, 2, 17)], CapacityError),
    ("pair twice", [(3, 7, 1), (4, 7, 1), (3, 7, 2)], PairConflictError),
]


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # the test compares exact classes
        return type(exc)
    return None


@pytest.mark.parametrize("case,msgs,error", RULES, ids=[r[0] for r in RULES])
def test_exchange_enforces_post_message_rules(case, msgs, error):
    def per_message():
        eng = make_engine(8, w=16)
        for src, dst, nbits in msgs:
            eng.post_message(Message(src, dst, 0, nbits))
        eng.advance_round()

    def batched():
        src, dst, nbits = (np.array(col) for col in zip(*msgs))
        make_engine(8, w=16).exchange(1, 0, src, dst, nbits)

    assert _raised(per_message) is error
    assert _raised(batched) is error


def test_exchange_pair_may_repeat_in_another_round():
    eng = make_engine(8)
    eng.exchange(2, [0, 1], [3, 3], [7, 7], [1, 1])
    assert eng.ledger.rounds == 2 and eng.ledger.messages == 2


def test_exchange_refuses_to_overtake_buffered_messages():
    eng = make_engine(4)
    eng.post_message(Message(1, 2, 1, 1))
    with pytest.raises(RuntimeError):
        eng.exchange(1, 0, [3], [4], 1)


def test_exchange_round_limit():
    def per_message():
        eng = make_engine(4, max_rounds=2)
        for _ in range(3):
            eng.advance_round()

    def batched():
        make_engine(4, max_rounds=2).exchange(3, [0, 2], [1, 2], [2, 1], 4)

    assert _raised(per_message) is MaxRoundsError
    assert _raised(batched) is MaxRoundsError


def test_exchange_ledger_matches_post_message():
    msgs = [(0, 1, 2, 5), (0, 3, 2, 7), (0, 2, 1, 16), (2, 4, 1, 1), (2, 1, 4, 9)]
    per = make_engine(4, w=16)
    for r in range(3):
        for rnd, src, dst, nbits in msgs:
            if rnd == r:
                per.post_message(Message(src, dst, 0, nbits))
        per.advance_round()
    batch = make_engine(4, w=16)
    rnd, src, dst, nbits = (np.array(col) for col in zip(*msgs))
    batch.exchange(3, rnd, src, dst, nbits, label="demo")
    assert batch.ledger.work == per.ledger.work
    assert (batch.ledger.rounds, batch.ledger.messages, batch.ledger.bits) == (
        per.ledger.rounds, per.ledger.messages, per.ledger.bits
    )
    assert batch.ledger.primitive_rounds == {"demo": 3}


def test_all_scalar_columns_charge_one_message():
    """Scalars stand for constant columns even when every column is one."""
    sim = make_engine(4)
    sim.exchange(1, 0, 1, 2, 1)
    led = sim.ledger
    assert (led.rounds, led.messages, led.bits, led.work[1:]) == (1, 1, 1, [64, 64, 0, 0])
    with pytest.raises(ValueError):
        make_engine(4).exchange(1, 0, 2, 2, 1)


# ---------------------------------------------------------------------------
# broadcast: one all-to-all round, tallied in closed form
# ---------------------------------------------------------------------------

def column_broadcast(eng, senders, nbits, label=""):
    """The same round as message columns through :meth:`exchange`."""
    src, dst = to_all_others(eng.n, senders)
    widths = np.repeat(np.broadcast_to(nbits, (len(senders),)), eng.n - 1)
    eng.exchange(1, 0, src, dst, widths, label)


@pytest.mark.parametrize("n", [16, 23])
def test_broadcast_ledger_equals_column_form(n):
    rng = np.random.default_rng(n)
    some = rng.choice(np.arange(1, n + 1), n // 2, replace=False).tolist()
    for senders in ([], [1], [n, 3, 1], some, list(range(1, n + 1))):
        for nbits in (7, rng.integers(1, 65, len(senders))):
            closed, columns = make_engine(n), make_engine(n)
            closed.broadcast(senders, nbits, label="b")
            column_broadcast(columns, senders, nbits, label="b")
            assert closed.ledger.as_dict() == columns.ledger.as_dict()
            assert closed.ledger.work == columns.ledger.work


BROADCAST_ERRORS = [
    ("sender twice", [2, 5, 2], 4, PairConflictError),
    ("over capacity", [1, 2], [4, 65], CapacityError),
    ("no bits", [1, 2], 0, CapacityError),
    ("sender 0", [0, 3], 4, ValueError),
    ("sender n+1", [3, 9], 4, ValueError),
]


@pytest.mark.parametrize(
    "case,senders,nbits,error", BROADCAST_ERRORS, ids=[c[0] for c in BROADCAST_ERRORS]
)
def test_broadcast_raises_what_the_column_form_raises(case, senders, nbits, error):
    engines = make_engine(8), make_engine(8)
    assert _raised(lambda: engines[0].broadcast(senders, nbits)) is error
    assert _raised(lambda: column_broadcast(engines[1], senders, nbits)) is error
    for eng in engines:
        assert (eng.ledger.rounds, eng.ledger.messages, eng.ledger.work_total) == (0, 0, 0)


def test_broadcast_past_max_rounds_charges_nothing():
    eng = make_engine(8, max_rounds=1)
    eng.broadcast([1, 2], 4, label="b")
    before = eng.ledger.as_dict(), list(eng.ledger.work)
    with pytest.raises(MaxRoundsError):
        eng.broadcast([3], 4, label="b")
    assert (eng.ledger.as_dict(), eng.ledger.work) == before



@st.composite
def all_to_all_schedules(draw):
    """(n, w, rounds, columns, all_to_all) of a random legal exchange: some
    rounds all-to-all, each with distinct senders and a scalar width or
    one per sender, the others holding distinct ordered pairs."""
    n = draw(st.integers(2, 12))
    w = draw(st.sampled_from([8, 64]))
    rounds = draw(st.integers(1, 5))
    whole = draw(st.lists(st.integers(0, rounds - 1), unique=True, max_size=rounds))
    all_to_all = []
    for r in whole:
        senders = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
        widths = draw(st.one_of(
            st.integers(1, w), st.lists(st.integers(1, w), min_size=len(senders), max_size=len(senders))
        ))
        all_to_all.append((r, senders, widths))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    cols = []
    for r in set(range(rounds)) - set(whole):
        for s, d in draw(st.lists(pairs, unique=True, max_size=2 * n)):
            cols.append((r, s, d, draw(st.integers(1, w))))
    columns = [np.array(col, dtype=np.int64) for col in zip(*cols)] or [(), (), (), ()]
    return n, w, rounds, columns, all_to_all


@settings(max_examples=80, deadline=None)
@given(all_to_all_schedules())
def test_all_to_all_rounds_charge_what_their_columns_charge(case):
    """A schedule with all-to-all rounds charges exactly the rounds,
    messages, bits and per-node work of the same schedule with those rounds
    expanded into column messages through :meth:`exchange`."""
    n, w, rounds, columns, all_to_all = case
    closed, expanded = make_engine(n, w=w), make_engine(n, w=w)
    traffic = closed.check_exchange(rounds, *columns, all_to_all)
    assert closed.ledger.as_dict() == make_engine(n, w=w).ledger.as_dict()  # checked, not charged
    closed.charge(traffic, label="a")
    expanded.exchange(rounds, *expand(n, *columns, all_to_all), label="a")
    assert closed.ledger.as_dict() == expanded.ledger.as_dict()
    assert closed.ledger.work == expanded.ledger.work


# (case, columns of a 2-round exchange, its all-to-all rounds, error)
ALL_TO_ALL_ERRORS = [
    ("sender twice", [(), (), (), ()], [(0, [2, 5, 2], 4)], PairConflictError),
    ("sender 0", [(), (), (), ()], [(1, [0, 3], 4)], ValueError),
    ("sender n+1", [(), (), (), ()], [(0, [3, 9], 4)], ValueError),
    ("over capacity", [(), (), (), ()], [(0, [1, 2], [4, 65])], CapacityError),
    ("no bits", [(), (), (), ()], [(0, [1, 2], 0)], CapacityError),
    ("column from a sender", [[1], [3], [2], [4]], [(1, [3], 4)], PairConflictError),
    ("column from another node", [[1], [4], [5], [4]], [(1, [3], 4)], PairConflictError),
    ("two in one round", [(), (), (), ()], [(0, [1], 4), (0, [2], 4)], PairConflictError),
    ("round 2 of 2", [(), (), (), ()], [(2, [1], 4)], ValueError),
]


@pytest.mark.parametrize(
    "case,columns,all_to_all,error", ALL_TO_ALL_ERRORS, ids=[c[0] for c in ALL_TO_ALL_ERRORS]
)
def test_bad_all_to_all_round_raises_and_charges_nothing(case, columns, all_to_all, error):
    eng = make_engine(8)
    eng.exchange(1, 0, 1, 2, 4)
    before = eng.ledger.as_dict(), list(eng.ledger.work)
    assert _raised(lambda: eng.check_exchange(2, *columns, all_to_all)) is error
    assert _raised(lambda: eng.exchange(2, *columns, "a", all_to_all)) is error
    assert (eng.ledger.as_dict(), eng.ledger.work) == before


def test_checked_traffic_charges_in_full_every_time():
    """Traffic checked once is charged in full by every :meth:`charge`, and
    one that would pass ``max_rounds`` charges nothing."""
    eng = make_engine(8, max_rounds=5)
    traffic = eng.check_exchange(2, 0, [1, 2], [2, 1], 4, [(1, [3, 4], 5)])
    assert traffic.rounds == 2 and traffic.messages == 2 + 2 * 7
    assert traffic.bits == 8 + 7 * 10
    for times in (1, 2):
        eng.charge(traffic, "a")
        assert (eng.ledger.rounds, eng.ledger.messages) == (2 * times, 16 * times)
    before = eng.ledger.as_dict(), list(eng.ledger.work)
    with pytest.raises(MaxRoundsError):
        eng.charge(traffic, "a")
    assert (eng.ledger.as_dict(), eng.ledger.work) == before
    assert eng.ledger.primitive_rounds == {"a": 4}


# ---------------------------------------------------------------------------
# determinism and isolation
# ---------------------------------------------------------------------------

def test_node_rng_deterministic():
    a = make_engine(4, seed=42).node(2).rng.integers(0, 1 << 30, size=5)
    b = make_engine(4, seed=42).node(2).rng.integers(0, 1 << 30, size=5)
    c = make_engine(4, seed=43).node(2).rng.integers(0, 1 << 30, size=5)
    assert list(a) == list(b)
    assert list(a) != list(c)


def test_isolation_audit_catches_cross_node_read():
    eng = CliqueEngine(CliqueConfig(n=4), audit=True)
    eng.node(2).storage["secret"] = 5

    def cheat(node):
        if node.id == 1:
            eng.node(2).storage["secret"]

    with pytest.raises(IsolationError):
        eng.local(cheat)


def test_storage_is_a_plain_dict_unless_audited():
    """Without the audit, a cross-node read costs nothing and raises nothing."""
    eng = make_engine(4)
    assert all(type(eng.node(i).storage) is dict for i in eng.node_ids())
    eng.node(2).storage["secret"] = 5
    assert eng.local(lambda node: eng.node(2).storage["secret"])[1] == 5


def test_isolation_audit_allows_own_access():
    eng = CliqueEngine(CliqueConfig(n=4), audit=True)

    def fine(node):
        node.storage["x"] = node.id
        assert node.storage["x"] == node.id

    eng.local(fine)


def test_local_returns_the_results_that_are_not_none_by_ascending_id():
    eng = make_engine(5)
    seen = []

    def emit(node):
        seen.append(node.id)
        return {1: 0, 2: "", 4: (node.id,)}.get(node.id)

    out = eng.local(emit)
    assert seen == [1, 2, 3, 4, 5]
    assert list(out.items()) == [(1, 0), (2, ""), (4, (4,))]
    assert eng.local(lambda node: None) == {}


def test_put_writes_the_listed_nodes_only():
    eng = make_engine(4)
    eng.put("x", {3: "c", 1: "a"})
    assert [eng.node(i).storage.get("x") for i in eng.node_ids()] == ["a", None, "c", None]


def test_put_inside_another_nodes_phase_is_caught_by_the_audit():
    eng = CliqueEngine(CliqueConfig(n=4), audit=True)
    eng.local(lambda node: eng.put("x", {node.id: node.id}))
    assert [eng.node(i).storage["x"] for i in eng.node_ids()] == [1, 2, 3, 4]

    def cheat(node):
        if node.id == 1:
            eng.put("x", {2: 0})

    with pytest.raises(IsolationError):
        eng.local(cheat)
    assert eng.node(2).storage["x"] == 2


STORAGE_CALLS = {
    "__getitem__": lambda st: st["k"],
    "__setitem__": lambda st: st.__setitem__("k", 2),
    "__delitem__": lambda st: st.__delitem__("k"),
    "__contains__": lambda st: "k" in st,
    "__iter__": lambda st: list(st),
    "__len__": lambda st: len(st),
    "get": lambda st: st.get("k"),
    "setdefault": lambda st: st.setdefault("k", 2),
    "pop": lambda st: st.pop("k"),
    "popitem": lambda st: st.popitem(),
    "update": lambda st: st.update(k=2),
    "clear": lambda st: st.clear(),
    "keys": lambda st: st.keys(),
    "items": lambda st: st.items(),
    "values": lambda st: st.values(),
}


@pytest.mark.parametrize("method", sorted(STORAGE_CALLS))
def test_isolation_audit_covers_every_storage_method(method):
    call = STORAGE_CALLS[method]
    eng = CliqueEngine(CliqueConfig(n=4), audit=True)
    for i in eng.node_ids():
        eng.node(i).storage["k"] = 1

    def own(node):
        call(node.storage)

    eng.local(own)

    def cheat(node):
        if node.id == 1:
            call(eng.node(2).storage)

    with pytest.raises(IsolationError):
        eng.local(cheat)


# ---------------------------------------------------------------------------
# accounted helpers
# ---------------------------------------------------------------------------

def test_charge_rounds_and_traffic():
    eng = make_engine(4, routing="accounted")
    eng.charge_rounds(5, "demo")
    load = np.zeros(5, dtype=np.int64)
    load[[1, 2]] = 3
    eng.count_traffic(3, 30, load)
    led = eng.ledger
    assert led.rounds == 5
    assert led.primitive_rounds["demo"] == 5
    assert led.messages == 3
    assert led.bits == 30
    assert led.work[1] == 3 * eng.w and led.work[2] == 3 * eng.w


# ---------------------------------------------------------------------------
# protocol steps
# ---------------------------------------------------------------------------

def test_step_records_rounds_of_its_block():
    eng = make_engine(4)
    eng.advance_round()
    with eng.step("s"):
        eng.exchange(3, [0, 2], [1, 2], [2, 1], 1)
        eng.charge_rounds(2)
    assert eng.ledger.step_rounds == {"s": 5}
    assert eng.ledger.primitive_rounds == {}


def test_step_entered_twice_records_the_sum():
    eng = make_engine(4)
    with eng.step("s"):
        eng.advance_round()
    with eng.step("t"):
        eng.charge_rounds(2)
    with eng.step("s"):
        eng.charge_rounds(3)
    assert list(eng.ledger.step_rounds.items()) == [("s", 4), ("t", 2)]


def test_nested_steps_each_get_their_own_count():
    eng = make_engine(4)
    with eng.step("outer"):
        eng.advance_round()
        with eng.step("inner_a"):
            eng.advance_round()
        with eng.step("inner_b"):
            pass
        eng.advance_round()
    # inner steps close first, so they are recorded first
    assert list(eng.ledger.step_rounds.items()) == [
        ("inner_a", 1), ("inner_b", 0), ("outer", 3)
    ]


def test_step_that_raises_records_nothing():
    eng = make_engine(4, max_rounds=2)
    with pytest.raises(MaxRoundsError):
        with eng.step("s"):
            eng.exchange(3, [0, 2], [1, 2], [2, 1], 1)
    assert eng.ledger.step_rounds == {}


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

def counting(calls):
    def fn(*args):
        calls.append(args)
        return [len(calls)]

    return fn


def test_derive_calls_once_for_the_same_objects():
    eng = make_engine(4)
    calls = []
    fn = counting(calls)
    table, row = {1: 2}, (3, 4)
    first = eng.derive(fn, table, row)
    assert eng.derive(fn, table, row) is first
    assert calls == [(table, row)]


def test_derive_separates_equal_but_distinct_objects():
    eng = make_engine(4)
    calls = []
    fn = counting(calls)
    a, b = {1: 2}, {1: 2}
    assert a == b and a is not b
    assert eng.derive(fn, a) is not eng.derive(fn, b)
    assert len(calls) == 2
    assert eng.derive(fn, a) is eng.derive(fn, a)
    assert len(calls) == 2


def test_derive_keys_ints_by_value():
    eng = make_engine(4)
    calls = []
    fn = counting(calls)
    big = 1 << 70
    first = eng.derive(fn, big, 5)
    assert eng.derive(fn, int(str(big)), 2 + 3) is first
    assert eng.derive(fn, big, 6) is not first
    assert len(calls) == 2


def test_derive_keys_bytes_by_value():
    eng = make_engine(4)
    calls = []
    fn = counting(calls)
    key = bytes(range(10))
    twin = bytes(bytearray(key))
    assert twin == key and twin is not key
    first = eng.derive(fn, key, 5)
    assert eng.derive(fn, twin, 5) is first
    assert eng.derive(fn, bytes(range(1, 11)), 5) is not first
    assert len(calls) == 2


def test_derive_keys_on_the_function():
    eng = make_engine(4)
    calls = []
    fn, other = counting(calls), counting(calls)
    row = (1,)
    assert eng.derive(fn, row) is not eng.derive(other, row)
    assert len(calls) == 2


def test_derive_caches_nothing_when_fn_raises():
    eng = make_engine(4)
    calls = []

    def fails(x):
        calls.append(x)
        raise ValueError("bad input")

    for _ in range(2):
        with pytest.raises(ValueError, match="bad input"):
            eng.derive(fails, 7)
    assert calls == [7, 7]


def test_derive_runs_once_within_a_step_and_again_in_the_next():
    eng = make_engine(4)
    calls = []
    fn = counting(calls)
    row = (1,)
    with eng.step("a"):
        first = eng.derive(fn, row)
        shared = eng.local(lambda node: eng.derive(fn, row) is first)
        assert shared == dict.fromkeys(eng.node_ids(), True)
    assert len(calls) == 1
    with eng.step("b"):
        assert eng.derive(fn, row) is not first
        eng.derive(fn, row)
    assert len(calls) == 2
