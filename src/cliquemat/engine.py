"""Synchronous congested-clique execution engine.

``n`` fully connected nodes exchange point-to-point messages in rounds; each
ordered pair may carry at most one message of at most W payload bits per
round.  Headers (src, dst) travel out of band and are not charged
against W.  The ledger tracks rounds, messages, payload bits, and per-node
work units; every message charges W work to its sender and W to its
receiver.

Protocols put their messages on the wire as batched rounds
(:meth:`CliqueEngine.exchange`): the messages of one or more consecutive
rounds as numpy columns (round, src, dst, nbits).  An exchange is two
steps.  :meth:`check_exchange` checks endpoints, capacity and one message
per ordered pair per round for the whole batch at once and returns its
:class:`Traffic` -- rounds, messages, bits and per-node load, from sums --
without charging it; :meth:`charge` then charges that traffic.  A caller
that runs one schedule many times can check it once and charge it on every
run.  Payloads stay with the caller, which checks that each fits its
declared width before scheduling it.  :meth:`post_message` and
:meth:`advance_round` state the same rules one message at a time; no
protocol uses them, and the tests check :meth:`exchange` against them.

An all-to-all round -- each of S senders sends one message of at most W
bits to every other node -- can be given whole instead of as columns.
:meth:`check_exchange` checks it on the senders alone (the pair rule holds
by construction once senders are distinct, since a sender never sends to
itself) and tallies S(n-1) messages in O(S + n) instead of building and
sorting n(n-1) message columns.  :meth:`broadcast` is the one-round case.

In ``accounted`` routing mode the primitives build the :class:`Traffic` of
their published analytic costs instead of scheduling, and charge it the
same way.  The ledger has one tally, :meth:`count_traffic` (messages, bits
and a per-node load of messages sent plus received), in which
:meth:`charge` ends; only step 8's accounted stage 2 calls it and
:meth:`charge_rounds` directly.  Both charges credit their rounds to a
primitive label; :meth:`step` adds a block's rounds to one protocol step,
so a step entered twice records the sum of its blocks, and a block that
raises adds nothing.  A call that breaks a rule or would pass
``max_rounds`` raises before it charges anything.

A node phase is :meth:`local`: it runs once per node, with the storage
audit scoped to that node, and returns what each node emits, keyed by node
id, for the routing call that follows.  A node learns of a delivery only
through its storage: :meth:`put` stores each delivered value at its
receiving node, so the audit sees those writes too, and no node phase
reads a delivery from the host.  No node refers to its engine (audited storage
reads the active node from a holder it shares with the engine), so a
finished engine, its nodes and all they store go by reference counting.

What nodes derive from the same objects within one protocol step,
:meth:`derive` computes once and hands to each of them; a node holding
other objects derives its own.  Ints and ``bytes`` key by value, so routing
derives and checks each simulated multicast schedule once per step and
shape, and charges its traffic on every call.  A
derived result lives until the step ends; later steps share through the
objects nodes keep in storage.  Callers still charge every node its own
work.

An ``accounted`` ledger against the ``simulated`` one of the same run, as
the 18 pairs of the golden grid test it: each protocol step's rounds,
accounted >= simulated; ``messages``, ``bits`` and ``work_total``,
accounted < simulated, since accounted routing counts each item once, as
a direct message; ``work_max_node``, no relation, since accounted
``vector_multicast`` charges every copy to its sender, where the simulated
doubling tree spreads the forwarding over the recipients.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Hashable, NamedTuple

import numpy as np

from .errors import (
    CapacityError,
    IsolationError,
    MaxRoundsError,
    PairConflictError,
)

SIMULATED = "simulated"
ACCOUNTED = "accounted"


class Message(NamedTuple):
    src: int
    dst: int
    payload: int
    nbits: int


class Traffic(NamedTuple):
    """What a checked schedule charges: its rounds, messages and payload
    bits, and each node's count of messages sent plus received (index 0
    unused)."""

    rounds: int
    messages: int
    bits: int
    load: np.ndarray


@dataclass(frozen=True)
class CliqueConfig:
    """Model parameters for one run; ``w`` is the payload capacity in bits."""

    n: int
    w: int = 64
    seed: int = 0
    routing: str = SIMULATED
    max_rounds: int = 1_000_000

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n}")
        if self.routing not in (SIMULATED, ACCOUNTED):
            raise ValueError(f"unknown routing mode {self.routing!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be at least 1, got {self.max_rounds}")
        floor = math.ceil(math.log2(self.n)) + 1
        if self.w < floor:
            raise ValueError(
                f"payload capacity {self.w} below minimum {floor} for n={self.n}"
            )


@dataclass
class RoundLedger:
    """Monotone counters for one run."""

    n: int
    rounds: int = 0
    messages: int = 0
    bits: int = 0
    work: list[int] = field(default_factory=list)
    primitive_rounds: dict[str, int] = field(default_factory=dict)
    step_rounds: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.work:
            self.work = [0] * (self.n + 1)  # index 0 unused

    @property
    def work_total(self) -> int:
        return sum(self.work)

    @property
    def work_max_node(self) -> int:
        return max(self.work[1:])

    def add_primitive_rounds(self, label: str, rounds: int) -> None:
        if label:
            self.primitive_rounds[label] = self.primitive_rounds.get(label, 0) + rounds

    def as_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "bits": self.bits,
            "work_total": self.work_total,
            "work_max_node": self.work_max_node,
            "primitive_rounds": dict(sorted(self.primitive_rounds.items())),
            "step_rounds": dict(self.step_rounds),
        }


class _Active:
    """The node whose local phase is running, or None: one holder that an
    engine and its audited storage share, so no node refers to its
    engine."""

    __slots__ = ("node",)

    def __init__(self) -> None:
        self.node: int | None = None


class _Storage(dict):
    """Node-private key/value store of an audited engine: every read, write
    and iteration from inside another node's local phase raises
    :class:`IsolationError`."""

    __slots__ = ("_active", "_owner")

    def __init__(self, active: _Active, owner: int) -> None:
        super().__init__()
        self._active = active
        self._owner = owner

    def _check(self) -> None:
        active = self._active.node
        if active is not None and active != self._owner:
            raise IsolationError(f"node {active} touched storage of node {self._owner}")


def _audited(name: str):
    base = getattr(dict, name)

    def method(self, *args, **kwargs):
        self._check()
        return base(self, *args, **kwargs)

    method.__name__ = name
    return method


for _name in ("__getitem__", "__setitem__", "__delitem__", "__contains__", "__iter__",
              "__len__", "get", "setdefault", "pop", "popitem", "update", "clear",
              "keys", "items", "values"):
    setattr(_Storage, _name, _audited(_name))


class NodeState:
    """One clique node: id, private storage, RNG stream."""

    __slots__ = ("id", "storage", "_rng", "_seed")

    def __init__(self, node_id: int, seed: int, storage: dict) -> None:
        self.id = node_id
        self.storage = storage
        self._rng: np.random.Generator | None = None
        self._seed = seed

    @property
    def rng(self) -> np.random.Generator:
        """Private random stream derived from (master seed, node id)."""
        if self._rng is None:
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(self.id,))
            self._rng = np.random.Generator(np.random.PCG64(seq))
        return self._rng


class CliqueEngine:
    """Round-synchronous executor with message, bit and work accounting.
    With ``audit``, node storage raises :class:`IsolationError` on access
    from inside another node's local phase; without, it is a plain dict."""

    def __init__(self, cfg: CliqueConfig, audit: bool = False) -> None:
        self.cfg = cfg
        self.w = cfg.w
        self.accounted = cfg.routing == ACCOUNTED
        self.ledger = RoundLedger(cfg.n)
        self._active = _Active()
        self.nodes: list[NodeState | None] = [None] + [
            NodeState(i, cfg.seed, _Storage(self._active, i) if audit else {})
            for i in range(1, cfg.n + 1)
        ]
        self._buffer: dict[tuple[int, int], Message] = {}
        self._derived: dict[tuple, tuple[object, tuple]] = {}
        self._derived_by_id: dict[tuple, tuple[object, tuple]] = {}

    # -- node access --------------------------------------------------------

    @property
    def n(self) -> int:
        return self.cfg.n

    def node(self, i: int) -> NodeState:
        if not 1 <= i <= self.cfg.n:
            raise ValueError(f"node id {i} outside 1..{self.cfg.n}")
        return self.nodes[i]

    def node_ids(self) -> range:
        return range(1, self.cfg.n + 1)

    def local(self, fn: Callable[[NodeState], object]) -> dict[int, object]:
        """Run ``fn`` once per node, ascending, with access auditing scoped
        to that node; returns ``{node id: result}`` for every node whose
        ``fn`` returned something other than None, in ascending id order."""
        out = {}
        active = self._active
        for node in self.nodes[1:]:
            active.node = node.id
            try:
                result = fn(node)
            finally:
                active.node = None
            if result is not None:
                out[node.id] = result
        return out

    def put(self, key: Hashable, values: dict[int, object]) -> None:
        """Store ``values[i]`` under ``key`` (any hashable, such as
        ``("tree", row_key)``) at each listed node i, through that node's
        storage, so the isolation audit sees every write."""
        for i, value in values.items():
            self.node(i).storage[key] = value

    @contextmanager
    def as_node(self, i: int):
        active = self._active
        prev, active.node = active.node, i
        try:
            yield self.node(i)
        finally:
            active.node = prev

    def derive(self, fn: Callable, *args):
        """``fn(*args)``, computed once per protocol step for each distinct
        ``fn`` and arguments: ints and ``bytes`` compare by value, every
        other argument by identity.  The engine keeps the arguments alive
        until the step ends (:meth:`step` clears the cache), so an id is
        never reused while it is a key; a call that raises caches nothing.
        Nothing is shared across engines or steps.

        Calls with the very same argument objects hit through a key of
        their ids alone, built without Python code per argument; only a
        call that misses it builds the value key."""
        ids = (fn, *map(id, args))
        hit = self._derived_by_id.get(ids)
        if hit is None:
            key = (fn, *[a if type(a) is int or type(a) is bytes else (id(a),) for a in args])
            hit = self._derived.get(key)
            if hit is None:
                hit = self._derived[key] = (fn(*args), args)
            # keeps these arguments alive too, so their ids stay unique
            self._derived_by_id[ids] = (hit[0], args)
        return hit[0]

    # -- messaging ----------------------------------------------------------

    def post_message(self, m: Message) -> None:
        if m.src == m.dst:
            raise ValueError("src and dst must differ")
        if not (1 <= m.src <= self.cfg.n and 1 <= m.dst <= self.cfg.n):
            raise ValueError(f"endpoints outside 1..{self.cfg.n}: {m.src}->{m.dst}")
        if m.nbits < 1:
            raise CapacityError("payload must carry at least one bit")
        if m.nbits > self.w:
            raise CapacityError(
                f"payload of {m.nbits} bits exceeds capacity W={self.w}"
            )
        if m.payload < 0 or m.payload >= (1 << m.nbits):
            raise CapacityError(
                f"payload value does not fit the declared {m.nbits} bits"
            )
        key = (m.src, m.dst)
        if key in self._buffer:
            raise PairConflictError(
                f"second message for pair {m.src}->{m.dst} in one round"
            )
        self._buffer[key] = m
        self.ledger.work[m.src] += self.w

    def advance_round(self) -> None:
        """Deliver all buffered messages simultaneously and start a new round."""
        led = self.ledger
        self._add_rounds(1)
        for m in self._buffer.values():
            led.messages += 1
            led.bits += m.nbits
            led.work[m.dst] += self.w
        self._buffer = {}

    def exchange(
        self, rounds: int, rnd, src, dst, nbits, label: str = "", all_to_all=()
    ) -> None:
        """:meth:`charge` the :meth:`check_exchange` of a schedule."""
        self.charge(self.check_exchange(rounds, rnd, src, dst, nbits, all_to_all), label)

    def check_exchange(self, rounds: int, rnd, src, dst, nbits, all_to_all=()) -> Traffic:
        """Check ``rounds`` consecutive rounds and return their
        :class:`Traffic` without charging it.  Messages are given as
        columns: message i leaves ``src[i]`` for ``dst[i]`` in round
        ``rnd[i]`` (0-based within the batch) and carries ``nbits[i]``
        payload bits.  A scalar stands for a constant column; columns may
        have any integer dtype.

        Every rule :meth:`post_message` enforces holds for the columns: both
        endpoints in 1..n and distinct, 1 <= nbits <= W, and at most one
        message per ordered pair per round.  Rounds without messages still
        count.

        ``all_to_all`` lists whole rounds as (round, senders, nbits): each
        sender sends one message of ``nbits`` bits (a scalar, or one width
        per sender) to every other node.  Such a round is tallied in closed
        form, in O(S + n) for S senders, without building its n-1 columns
        per sender: S(n-1) messages, and a load of S at every node plus n-2
        more at each sender.  Its rules: a round index in 0..rounds-1 used
        by no other all-to-all round and by no column message, senders in
        1..n and distinct (a sender never sends to itself, so the pair rule
        holds by construction), and 1 <= nbits <= W.
        """
        rnd, src, dst, nbits = np.broadcast_arrays(*map(np.atleast_1d, (rnd, src, dst, nbits)))
        n = self.cfg.n
        load = np.zeros(n + 1, dtype=np.int64)
        messages, bits = src.size, 0
        if src.size:
            if np.any(src == dst):
                raise ValueError("src and dst must differ")
            self.check_nodes(src, dst)
            self.check_widths(nbits)
            if rnd.min() < 0 or rnd.max() >= rounds:
                raise ValueError(f"round index outside 0..{rounds - 1}")
            # one int64 (round, src, dst) key per message, built and sorted
            # in place, whatever the columns' integer dtype
            key = np.multiply(rnd, n + 1, dtype=np.int64)
            key += src
            key *= n + 1
            key += dst
            key.sort()
            if np.any(key[1:] == key[:-1]):
                raise PairConflictError(
                    "second message for an ordered pair in one round"
                )
            load += np.bincount(src, minlength=n + 1)
            load += np.bincount(dst, minlength=n + 1)
            bits = int(nbits.sum())
        if all_to_all:
            busy = np.zeros(rounds, dtype=bool)
            if src.size:
                busy[rnd] = True
            for r, senders, widths in all_to_all:
                if not 0 <= r < rounds:
                    raise ValueError(f"round index outside 0..{rounds - 1}")
                if busy[r]:
                    raise PairConflictError(f"round {r} is all-to-all and carries other messages")
                busy[r] = True
                senders, widths = np.broadcast_arrays(
                    np.asarray(senders, dtype=np.int64).ravel(), widths
                )
                if not senders.size:
                    continue
                self.check_nodes(senders)
                self.check_widths(widths)
                sent = np.bincount(senders, minlength=n + 1)
                if sent.max() > 1:
                    raise PairConflictError("second message for an ordered pair in one round")
                load += senders.size + (n - 2) * sent
                messages += senders.size * (n - 1)
                bits += (n - 1) * int(widths.sum())
            load[0] = 0
        load.flags.writeable = False  # checked traffic may be charged many times
        return Traffic(rounds, messages, bits, load)

    def charge(self, traffic: Traffic, label: str = "") -> None:
        """Charge checked :class:`Traffic`: its rounds, credited to
        ``label`` when it is nonempty, and its :meth:`count_traffic`.
        Traffic that would pass ``max_rounds`` charges nothing."""
        self._check_idle()
        self._add_rounds(traffic.rounds)
        self.count_traffic(traffic.messages, traffic.bits, traffic.load)
        self.ledger.add_primitive_rounds(label, traffic.rounds)

    def broadcast(self, senders, nbits, label: str = "") -> None:
        """One all-to-all round (:meth:`check_exchange`): each of
        ``senders`` sends one message of ``nbits`` payload bits (a scalar,
        or one width per sender) to every other node.  A round that breaks
        a rule or would pass ``max_rounds`` charges nothing; a round without
        senders still counts."""
        self.exchange(1, 0, (), (), (), label, ((0, senders, nbits),))

    def _check_idle(self) -> None:
        if self._buffer:
            raise RuntimeError("batched rounds cannot start while messages are buffered")

    def check_nodes(self, *cols: np.ndarray) -> None:
        """Every entry of the nonempty columns is a node id in 1..n."""
        n = self.cfg.n
        if min(c.min() for c in cols) < 1 or max(c.max() for c in cols) > n:
            raise ValueError(f"endpoints outside 1..{n}")

    def check_widths(self, nbits: np.ndarray) -> None:
        """Every width of a nonempty column is in 1..W."""
        if nbits.min() < 1:
            raise CapacityError("payload must carry at least one bit")
        if nbits.max() > self.w:
            raise CapacityError(
                f"payload of {int(nbits.max())} bits exceeds capacity W={self.w}"
            )

    def _add_rounds(self, rounds: int) -> None:
        """Add ``rounds`` rounds, or raise :class:`MaxRoundsError` and charge
        nothing if they would pass ``max_rounds``."""
        if self.ledger.rounds + rounds > self.cfg.max_rounds:
            raise MaxRoundsError(
                f"exceeded max_rounds={self.cfg.max_rounds} without terminating"
            )
        self.ledger.rounds += rounds

    def charge_work(self, node_id: int, units: int) -> None:
        if units < 0:
            raise ValueError("work units must be nonnegative")
        self.ledger.work[node_id] += units

    # -- accounted-mode helpers ---------------------------------------------

    def charge_rounds(self, rounds: int, label: str = "") -> None:
        """Accounted mode: credit an analytic round cost without scheduling."""
        self._add_rounds(rounds)
        self.ledger.add_primitive_rounds(label, rounds)

    def count_traffic(self, messages: int, bits: int, load: np.ndarray) -> None:
        """The one ledger tally, in which :meth:`charge` and every accounted
        count end: add ``messages`` messages carrying
        ``bits`` payload bits in all, and charge node i W work for each of
        the ``load[i]`` messages it sent or received (index 0 unused)."""
        led = self.ledger
        led.messages += int(messages)
        led.bits += int(bits)
        work, w = led.work, self.w
        nodes = np.flatnonzero(load)
        for i, units in zip(nodes.tolist(), load[nodes].astype(np.int64, copy=False).tolist()):
            work[i] += units * w

    @contextmanager
    def step(self, name: str):
        """Add the rounds spent inside the block to protocol step ``name``
        in ``ledger.step_rounds``, so a step entered again records the sum
        of its blocks; a block that raises adds nothing.  Derived results
        (:meth:`derive`) are dropped when the block ends."""
        start = self.ledger.rounds
        try:
            yield
        finally:
            self._derived.clear()
            self._derived_by_id.clear()
        steps = self.ledger.step_rounds
        steps[name] = steps.get(name, 0) + self.ledger.rounds - start
