"""Message-distribution subprotocols on the clique engine.

Three primitives share one code path for both routing backends, and every
call has one shape.  It checks every item once, self-addressed ones
included: endpoints in 1..n, widths in 1..W, and each payload within its
width (payloads never enter a schedule, and payload and width do not
change between hops).  Then it builds one :class:`Traffic` and charges it
once with :meth:`CliqueEngine.charge` under the primitive's label, so a
call that fails a check, or whose traffic would pass ``max_rounds``,
charges nothing.  Only the rule that builds the traffic depends on the
engine's routing mode:

* ``simulated`` builds every round of the schedule below as message columns
  (round, src, dst, nbits), or, for a round in which every sender messages
  all n-1 other nodes, as one all-to-all round, and takes their traffic
  from :meth:`CliqueEngine.check_exchange`, which enforces endpoints,
  capacity and one message per ordered pair per round;
* ``accounted`` takes the published analytic round cost and counts one
  message per item (plus the multicast announcements) without scheduling.
  A multicast counts every copy as a direct message from the sender, where
  the simulated doubling tree spreads the copies over the recipients; the
  engine docstring states how the two ledgers relate.  The multicast count
  is closed-form over (sender, recipient) pairs and never expands copies or
  announcements.

The simulated schedules are pure functions of n and the cross columns:
each appends (rounds, rnd, src, dst, nbits, *all_to_all) blocks to a list
and touches no engine.  Node ids, ranks, rounds and widths are int32, and
a column constant in a block (a phase's round, a count's width, a scalar
width) is one scalar; only the packed sort keys are int64, each sorted in
place and freed before the next is built.  :func:`_join` joins a call's
blocks into one exchange of int32 columns and all-to-all rounds, checked
at once.  A multicast's schedule is derived and checked through
:meth:`CliqueEngine.derive`, keyed by the bytes of the columns it reads, so
repeats of one multicast shape within a protocol step are scheduled and
checked once, and every call charges the checked traffic in full; a
schedule that fails its check is not kept, so it raises on every call.

* ``solve_relaxed_idt`` -- every node sends and receives at most n items.
  The item of rank j at its source goes to intermediate ((src-1+j) mod n)+1;
  the next round announces one backlog count per (intermediate, destination)
  pair; then the item ranked q in its pair, by (src, position), is
  drained q rounds later, one item per ordered pair per round.  Accounted:
  :data:`C_IDT` rounds per ceil(sends/n) * ceil(receives/n).
* ``bounded_route`` -- at most k*n sends and l*n receives per node, solved
  as sub-tasks of at most n items per sender (sub-task s holds each
  sender's items ranked s*n .. s*n+n-1 by position), each split into
  relaxed tasks.  Every relaxed task is preceded by two preamble rounds:
  senders announce per-destination counts, and receivers reply with quotas
  granted in ascending (dst, src) order up to n items per receiver.  In
  closed form, an item's relaxed task is its rank among its receiver's
  items of the sub-task, by (src, position), over n, and each preamble
  lists the (src, dst) pairs whose last release is at or after it.
* ``vector_multicast`` -- each sender pushes one vector of chunks to a
  recipient set.  The published bound serves vectors of at most n chunks,
  so a longer call runs as sub-multicasts: sub-multicast s carries chunks
  s*n .. s*n+n-1 of every vector longer than s*n, exactly as a call of
  those slices alone would, and the call charges their summed traffic.
  Within one, sub-task m serves every recipient's m-th sender; it opens
  with two announcement rounds (senders tell recipients their rank; then,
  in one all-to-all round, recipients tell every node whose vector they
  take), then covers the recipients by doubling (groups of 2, 4, 8...),
  each phase routed as one bounded task with per-holder fan-out 2, its
  copies in (sender, rank, chunk) order.

The forwarded destination, original source and position of an item travel
with the schedule and are not charged as header bits.

The routing tasks promise that every item arrives, not an order among the
items.  Every ordering a schedule uses -- held items by (intermediate,
dst, src), quota pairs, multicast pairs -- is one stable sort of checked
node ids and ranks below n packed with radix n+1, as in
:meth:`CliqueEngine.exchange`, so equal keys keep their position order.  A
call's per-node loads are counted once, for the peak loads and the
accounted tally alike.

All primitives deliver self-addressed items locally at no message cost and
return ``(delivered, rounds_used)``, where ``delivered`` is the checked
input itself: the task primitives' :class:`Batch`, every item delivered in
batch order, and ``vector_multicast``'s dict of each sender's vector and
recipients, every recipient holding the vector object its sender gave.
Nothing is copied, the input never changes, and no per-recipient structure
is built.  No node phase reads what a primitive hands back: the caller
finds each node's share (a ``dst`` mask, one stable sort by ``dst`` and a
``searchsorted``, or each sender's recipient list) and stores it at the
node through :meth:`CliqueEngine.put`, so the isolation audit sees the
hand-over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .engine import CliqueEngine, Traffic
from .errors import CapacityError, PreconditionError

# accounted round charge of one relaxed information-distribution task
C_IDT = 16


class RoutingItem(NamedTuple):
    """One row of a :class:`Batch`, as iterating the batch yields it."""

    src: int
    dst: int
    payload: int
    nbits: int


@dataclass(frozen=True, eq=False)
class Batch:
    """A routing batch as columns: item i goes from ``src[i]`` to ``dst[i]``,
    carrying ``payload[i]`` in ``nbits[i]`` bits.  The payload is uint64, or
    Python ints when built for W > 64; the rest is int64.  ``len`` counts
    items; iteration yields :class:`RoutingItem` rows."""

    src: np.ndarray
    dst: np.ndarray
    nbits: np.ndarray
    payload: np.ndarray

    @classmethod
    def build(cls, w: int, src, dst, nbits, payload) -> "Batch":
        """A batch for capacity ``w``; a scalar stands for a constant column.
        At ``w`` <= 64 a payload outside 0..2**64-1 raises CapacityError.
        Payloads not given as an array are read as Python ints (numpy reads
        ints mixed below and above 2**63 as float64)."""
        if not isinstance(payload, np.ndarray):
            payload = np.array(payload, dtype=object)
        src, dst, nbits, payload = np.broadcast_arrays(
            *(np.atleast_1d(a) for a in (src, dst, nbits, payload))
        )
        if w <= 64 and payload.dtype.kind != "u" and payload.size:
            if payload.min() < 0 or payload.max() >= 1 << 64:
                raise CapacityError("a payload value does not fit a 64-bit column")
        payload = payload.astype(object if w > 64 else np.uint64, copy=False)
        return cls(*(a.astype(np.int64, copy=False) for a in (src, dst, nbits)), payload)

    def __len__(self) -> int:
        return self.src.size

    def __iter__(self):
        cols = (self.src, self.dst, self.payload, self.nbits)
        return map(RoutingItem._make, zip(*(c.tolist() for c in cols)))


def count_bits(n: int) -> int:
    """Bits that carry any value in 0..n."""
    return max(1, math.ceil(math.log2(n + 1)))


def idt_accounted_rounds(n: int, max_send: int, max_recv: int) -> int:
    return math.ceil(max_send / n) * math.ceil(max_recv / n) * C_IDT


def bounded_route_accounted_rounds(k: int, ell: int) -> int:
    # two preamble rounds per relaxed sub-sub-task
    return k * ell * (C_IDT + 2)


def multicast_accounted_rounds(n: int, chunks: int) -> int:
    """Published bound of one multicast sub-task of vectors of at most
    ``chunks`` chunks: two announcement rounds, then ceil(log2 n) doubling
    phases whatever the recipient count, each one bounded task with
    per-holder fan-out 2."""
    kk = max(1, math.ceil(2 * chunks / n))
    return 2 + max(1, math.ceil(math.log2(n))) * bounded_route_accounted_rounds(kk, 1)


def multicast_phases(num_recipients: int) -> int:
    """Doubling phases needed to cover ``num_recipients``: groups of
    2, 4, 8, ... nodes, each member forwarding to at most two."""
    return max(1, num_recipients + 1).bit_length() - 1


# ---------------------------------------------------------------------------
# shared batch handling
# ---------------------------------------------------------------------------

def _check_chunks(engine: CliqueEngine, payload: np.ndarray, nbits: np.ndarray) -> None:
    """Nonempty columns: every width is in 1..W, every payload in
    0..2**nbits-1.  A column whose largest payload fits its narrowest width
    passes unscanned; any other is scanned (x >> nb is nonzero exactly when
    x is negative or needs more than nb bits), with the widths in the
    payload's dtype, since numpy promotes uint64 with int64 to float."""
    engine.check_widths(nbits)
    if payload.min() >= 0 and int(payload.max()).bit_length() <= nbits.min():
        return
    if np.any(payload >> nbits.astype(payload.dtype)):
        raise CapacityError("a payload value does not fit its declared bits")


def _peak_loads(engine: CliqueEngine, b: Batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check every item, self-addressed ones included (endpoints in 1..n,
    widths in 1..W, payloads within their widths), then count once: the
    cross mask and each node's cross sends and receives (index 0 unused),
    whose maxima are the peak loads and which :func:`_route` tallies."""
    if len(b):
        engine.check_nodes(b.src, b.dst)
        _check_chunks(engine, b.payload, b.nbits)
    cross = b.src != b.dst
    side = engine.n + 1
    stay = np.bincount(b.src[~cross], minlength=side)  # self-addressed, per node
    return cross, np.bincount(b.src, minlength=side) - stay, np.bincount(b.dst, minlength=side) - stay


def _run_ranks(keys: np.ndarray) -> np.ndarray:
    """Rank of each entry within its run of equal consecutive keys, int32."""
    rank = np.arange(keys.size, dtype=np.int32)
    start = rank * np.append(True, keys[1:] != keys[:-1])
    np.maximum.accumulate(start, out=start)
    rank -= start
    return rank


def _ranked_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of ``keys``, integers in 0..2**31-1, and each
    sorted entry's rank within its run of equal keys, both int32.  It sorts
    one int64 column, each key packed above its position, in place."""
    packed = np.left_shift(keys, 32, dtype=np.int64)
    packed += np.arange(keys.size, dtype=np.int32)
    packed.sort()
    order = packed.astype(np.uint32).view(np.int32)  # the low words
    packed >>= 32
    return order, _run_ranks(packed)


def _pick(col, sel):
    """``col[sel]``, or ``col`` itself when it is a scalar (a constant column)."""
    return col[sel] if np.ndim(col) else col


# ---------------------------------------------------------------------------
# simulated schedules: pure functions of n and the cross columns (in
# position order) that append (rounds, rnd, src, dst, nbits) blocks
# ---------------------------------------------------------------------------

def _idt_rounds(n: int, src, dst, nbits, blocks: list) -> None:
    """One relaxed task: spread over intermediates, announce backlogs,
    drain; one block per phase, of the columns each phase sends."""
    order, rank = _ranked_order(src)  # by (src, position); the rank at the source
    src, dst, nbits = src[order], dst[order], _pick(nbits, order)
    del order
    mid = (src - 1 + rank) % n + 1
    hop = mid != src
    blocks.append((1, 0, src[hop], mid[hop], _pick(nbits, hop)))
    held = mid != dst
    # held items by (intermediate, dst) pair, then by (src, position); the
    # item ranked q in its pair drains q rounds after the announcements
    by_pair, q = _ranked_order(mid[held] * (n + 1) + dst[held])
    mid, dst, nbits = mid[held][by_pair], dst[held][by_pair], _pick(_pick(nbits, held), by_pair)
    first = q == 0
    blocks.append((1, 0, mid[first], dst[first], count_bits(n)))
    blocks.append((int(q.max(initial=-1)) + 1, q, mid, dst, nbits))


def _bounded_rounds(n: int, src, dst, nbits, blocks: list) -> None:
    """Sub-tasks of at most n items per sender, each split into relaxed
    tasks by the closed-form release rule (module docstring), each after
    its two preamble rounds."""
    if not src.size:
        return
    cbits = count_bits(2 * n)
    by_src, sub = _ranked_order(src)  # by (src, position); the rank at the sender
    sub //= n
    # by (sub-task, dst, src, position); the rank at the receiver
    by_dst, release = _ranked_order(sub * (n + 1) + dst[by_src])
    release //= n
    at, sub = by_src[by_dst], sub[by_dst]  # positions; sub-tasks
    del by_src, by_dst
    cuts = np.searchsorted(sub, np.arange(int(sub[-1]) + 2)).tolist()
    del sub
    for a, b in zip(cuts[:-1], cuts[1:]):
        pos, rel = at[a:b], release[a:b]
        # the sub-task's (src, dst) pairs, runs here, each with the release
        # of its last item
        ps, pd = src[pos], dst[pos]
        last = np.append((ps[1:] != ps[:-1]) | (pd[1:] != pd[:-1]), True)
        ps, pd, plast = ps[last], pd[last], rel[last]
        for t in range(int(plast.max()) + 1):
            live = plast >= t
            ls, ld = ps[live], pd[live]
            blocks += [(1, 0, ls, ld, cbits), (1, 0, ld, ls, cbits)]
            take = np.sort(pos[rel == t])  # the relaxed task, by position
            _idt_rounds(n, src[take], dst[take], _pick(nbits, take), blocks)


def _multicast_schedule(
    n: int, idbits: int, src: bytes, dst: bytes, sub: bytes, chunks: bytes, off: bytes,
    widths: bytes,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple]:
    """A whole simulated multicast as one exchange from :func:`_join`: per
    sub-task, two announcement rounds, the second one all-to-all, then every
    doubling phase.  Takes the int32 bytes of the cross pairs' columns in
    (sub-task, sender, recipient) order (each pair's sender, recipient,
    sub-task, chunk count and first flat chunk) and of every sender's chunk
    widths, flat, so :meth:`CliqueEngine.derive` keys it by value."""
    src, dst, sub, chunks, off, widths = (
        np.frombuffer(col, dtype=np.int32) for col in (src, dst, sub, chunks, off, widths)
    )
    cuts = np.searchsorted(sub, np.arange(int(sub[-1]) + 2))
    blocks: list = []
    for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        s, v, c, o = src[a:b], dst[a:b], chunks[a:b], off[a:b]
        t = _run_ranks(s)  # the recipient's rank in its sender's set
        # announcement 1: each sender tells its recipients their rank;
        # announcement 2: each recipient tells everyone whose it is
        blocks.append((2, 0, s, v, idbits, (1, v, idbits)))
        for p in range(1, multicast_phases(int(t.max()) + 1) + 1):
            # phase p reaches ranks lo..hi-1; the sender holds the vector
            # in phase 1, later the recipient of rank plo + (t-lo)//2
            lo, hi, plo = (1 << p) - 2, (1 << (p + 1)) - 2, (1 << (p - 1)) - 2
            at = np.flatnonzero((t >= lo) & (t < hi))
            holders = s[at] if p == 1 else v[at - t[at] + plo + (t[at] - lo) // 2]
            # one copy per (pair, chunk) in (sender, rank, chunk) order
            pair = np.repeat(np.arange(at.size), c[at])
            chunk = np.arange(pair.size) - (np.cumsum(c[at]) - c[at])[pair]
            _bounded_rounds(n, holders[pair], v[at][pair], widths[o[at][pair] + chunk], blocks)
    return _join(blocks)


def _checked_multicast(engine: CliqueEngine, idbits: int, *cols: bytes) -> Traffic:
    """The engine-checked :class:`Traffic` of :func:`_multicast_schedule`."""
    return engine.check_exchange(*_multicast_schedule(engine.n, idbits, *cols))


def _join(blocks: list) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple]:
    """A schedule's blocks as one exchange ``(rounds, rnd, src, dst, nbits,
    all_to_all)`` of int32 columns and all-to-all rounds, each block's
    rounds after the previous blocks'.  A block is ``(rounds, rnd, src,
    dst, nbits, *all_to_all)``, its all-to-all rounds given as
    :meth:`CliqueEngine.check_exchange` takes them and numbered within the
    block.  A block is freed as soon as it is copied, so the blocks and the
    join never both exist whole."""
    out = np.empty((4, sum(np.broadcast(*block[1:5]).size for block in blocks)), dtype=np.int32)
    everyone = []
    rounds = at = 0
    for i, (r, *cols) in enumerate(blocks):
        blocks[i] = None
        cols, alls = cols[:4], cols[4:]
        size = np.broadcast(*cols).size
        for row, col in zip(out, cols):
            row[at:at + size] = col
        out[0, at:at + size] += rounds
        everyone += [(rounds + k, senders, nbits) for k, senders, nbits in alls]
        rounds, at = rounds + r, at + size
    return rounds, *out, tuple(everyone)


def _route(
    engine: CliqueEngine, b: Batch, loads: tuple, charge: int, schedule, label: str
) -> tuple[Batch, int]:
    """Charge the traffic of moving the cross items of ``b``, from the
    ``(cross, sent, received)`` of :func:`_peak_loads`: accounted,
    ``charge`` rounds, one message per cross item and each node's sends
    plus receives as its load; simulated, the joined blocks of
    ``schedule``.  Returns ``b`` itself, every item delivered, and the
    rounds."""
    cross, sent, received = loads
    if not sent.any():
        return b, 0
    if engine.accounted:
        bits = int(b.nbits.sum(where=cross))  # gathers no width column
        traffic = Traffic(charge, int(sent.sum()), bits, sent + received)
    else:
        # int32 cross columns; a constant width column stays one scalar
        src, dst = (col[cross].astype(np.int32) for col in (b.src, b.dst))
        nbits = int(b.nbits[0]) if b.nbits.strides == (0,) else b.nbits[cross].astype(np.int32)
        blocks: list = []
        schedule(engine.n, src, dst, nbits, blocks)
        del src, dst, nbits
        rounds, *cols, everyone = _join(blocks)
        traffic = engine.check_exchange(rounds, *cols, all_to_all=everyone)
    engine.charge(traffic, label)
    return b, traffic.rounds


# ---------------------------------------------------------------------------
# the primitives
# ---------------------------------------------------------------------------

def solve_relaxed_idt(engine: CliqueEngine, b: Batch) -> tuple[Batch, int]:
    """Deliver a batch in which every node sends <= n and receives <= n items."""
    n = engine.n
    loads = _peak_loads(engine, b)
    max_send, max_recv = (int(count.max()) for count in loads[1:])
    for verb, peak in (("sends", max_send), ("receives", max_recv)):
        if peak > n:
            raise PreconditionError(f"a node {verb} {peak} > n={n} items; use bounded_route")
    charge = idt_accounted_rounds(n, max_send, max_recv)
    return _route(engine, b, loads, charge, _idt_rounds, "relaxed_idt")


def bounded_route(engine: CliqueEngine, b: Batch) -> tuple[Batch, int]:
    """Deliver a batch; the least k, ell >= 1 with per-node sends <= k*n
    and receives <= ell*n set the accounted charge."""
    n = engine.n
    loads = _peak_loads(engine, b)
    k, ell = (max(1, math.ceil(int(count.max()) / n)) for count in loads[1:])
    charge = bounded_route_accounted_rounds(k, ell)
    return _route(engine, b, loads, charge, _bounded_rounds, "bounded_route")


def _multicast_traffic(engine: CliqueEngine, src, dst, idx, counts, widths) -> Traffic:
    """The :class:`Traffic` of one multicast of vectors of at most n chunks:
    its cross pairs ``src``, ``dst`` in (recipient, sender) order, each
    pair's sender as an index ``idx`` into ``counts``, the senders' chunk
    counts, and ``widths``, the senders' chunk widths, flat."""
    n = engine.n
    # sub-task m serves every recipient's m-th sender, so recipient sets
    # inside a sub-task are disjoint; cross pairs by (sub-task, sender,
    # recipient), with each pair's chunk count and first flat chunk
    sub = _run_ranks(dst)
    pos = np.argsort((sub * (n + 1) + src) * (n + 1) + dst, kind="stable")
    src, dst, sub, idx = src[pos], dst[pos], sub[pos], idx[pos]
    first = np.cumsum(counts) - counts
    chunks, off = counts[idx], first[idx]
    idbits = count_bits(n)

    if engine.accounted:
        # each sub-task's published bound for its widest vector, and in
        # closed form what the schedule sends: every chunk as one direct
        # message from the sender, each pair's rank, and each recipient's
        # announcement to every other node
        cuts = np.searchsorted(sub, np.arange(int(sub[-1]) + 1))
        rounds = sum(
            multicast_accounted_rounds(n, int(c))
            for c in np.maximum.reduceat(chunks, cuts).tolist()
        )
        deg = np.bincount(dst, minlength=n + 1)
        load = (n - 1) * deg + (src.size - deg)
        np.add.at(load, src, 1 + chunks)
        np.add.at(load, dst, 1 + chunks)
        load[0] = 0
        vector_bits = np.add.reduceat(widths, first)[idx]
        return Traffic(
            rounds, src.size * n + chunks.sum(), idbits * src.size * n + vector_bits.sum(), load
        )

    # the schedule is derived and checked once per step for each distinct
    # shape; every call charges its traffic in full
    cols = (src, dst, sub, chunks, off, widths)
    return engine.derive(
        _checked_multicast, engine, idbits, *(col.astype(np.int32).tobytes() for col in cols)
    )


def vector_multicast(
    engine: CliqueEngine, senders: dict[int, tuple[Sequence, Sequence[int]]]
) -> tuple[dict[int, tuple[Sequence, Sequence[int]]], int]:
    """Each sender pushes its vector of (payload, nbits) chunks to every node
    in its recipient set.  A vector is a (chunks, 2) array in the codec's
    dtype, as ``np.stack`` of ``pack_chunks``' columns gives, or any
    sequence of pairs, read as Python ints; its ``len``, at least 1, is its
    chunk count.  Returns ``senders`` itself, every recipient of a sender
    holding the vector the sender gave, and the rounds used.
    """
    n = engine.n
    order = sorted(senders)
    vectors = {s: senders[s][0] for s in order}
    for s in order:
        if not 1 <= s <= n:
            raise PreconditionError(f"sender {s} outside 1..{n}")
        if not len(vectors[s]):
            raise PreconditionError(f"sender {s} has no chunks")
    # every sender's chunks, flat, checked once
    flat = np.concatenate([np.zeros((0, 2), np.uint64)] + [
        v if isinstance(v, np.ndarray) else np.array(v, dtype=object).reshape(-1, 2)
        for v in vectors.values()
    ])
    widths = flat[:, 1].astype(np.int64)
    if widths.size:
        _check_chunks(engine, flat[:, 0], widths)
    # (sender, recipient) pair columns in (recipient, sender) order
    src = np.repeat(np.array(order, dtype=np.int64), [len(senders[s][1]) for s in order])
    dst = np.array([v for s in order for v in senders[s][1]], dtype=np.int64)
    if dst.size and (dst.min() < 1 or dst.max() > n):
        bad = dst.min() if dst.min() < 1 else dst.max()
        raise PreconditionError(f"recipient {bad} outside 1..{n}")
    by_dst = np.argsort(dst * (n + 1) + src, kind="stable")
    src, dst = src[by_dst], dst[by_dst]
    twice = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
    if twice.any():
        raise PreconditionError(f"sender {src[1:][twice].min()} lists a recipient twice")
    cross = src != dst
    if not cross.any():
        return senders, 0

    # sub-multicast s: chunks s*n .. s*n+n-1 of every vector longer than s*n
    src, dst = src[cross], dst[cross]
    lengths = np.array([len(vectors[s]) for s in order], dtype=np.int64)
    rank = _run_ranks(np.repeat(np.arange(lengths.size), lengths))  # of a chunk in its vector
    idx = np.searchsorted(np.array(order), src)
    parts = []
    for lo in range(0, int(lengths[idx].max()), n):
        kept = np.flatnonzero(lengths > lo)
        counts = np.minimum(lengths[kept] - lo, n)
        pairs = np.flatnonzero(lengths[idx] > lo)
        part = src[pairs], dst[pairs], np.searchsorted(kept, idx[pairs]), counts
        parts.append(_multicast_traffic(engine, *part, widths[(rank >= lo) & (rank < lo + n)]))
    traffic = Traffic(*map(sum, zip(*parts)))  # field by field
    engine.charge(traffic, "vector_multicast")
    return senders, traffic.rounds
