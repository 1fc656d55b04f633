"""Golden digests: a speed-up that changes any ledger or product is a
regression.

Every cell of a small grid (n in {16, 23}; both routing backends; shipped
and seed-mode projections; orientations ab, ba and auto) must reproduce the
product digest, the ledger digest and the chosen orientation recorded
before the batched-round engine replaced per-message scheduling; the
auto cells' ledgers were re-recorded when the orientation choice stopped
repeating steps 1, 3, 4 and 5 for the chosen tree, and again when one
driver came to run both the forced and the auto orientations, which moved
only their step labels (``step1``...``step5`` in place of ``orient_*``),
and again when an auto run came to hand out one projection family for
both candidates and to broadcast both trees' edge distances in one round;
the ``ba`` and auto-picks-``ba`` cells' ledgers were re-recorded when step
10 came to send each ``ba`` entry to the node whose row of the product
holds it, so no transpose flips the product afterwards, and again when
that ``ba`` step 10 became one direct exchange, each pair node sending
each of its columns that column's bits W to a message instead of routing
one entry per item; the auto cells' ledgers were re-recorded again when
step 3 came to send both trees' copies of edge j in one message, where W
holds two edges (not at W=10, whose auto cells kept their ledgers).
The ledger digest is the sha256 of ``json.dumps(ledger.as_dict(),
sort_keys=True)``, the same digest the benchmark repeats per instance.  The
products have zeros, so a constant product cannot pass.
"""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cliquemat.clusmat import choose_orientation, clusmat_oriented
from cliquemat.engine import CliqueConfig
from cliquemat.harness import GenSpec, generate, verify
from cliquemat.hmst import ProjectionConfig
from cliquemat.routing import count_bits
from cliquemat.textio import digest, matrix_to_text

# cell -> (product digest prefix, ledger digest prefix, orientation run)
GOLDEN = {
    "16-simulated-ship-ab": ("2a4b597c9ab732c3", "634bbad5e67df9eb", "ab"),
    "16-simulated-ship-ba": ("2a4b597c9ab732c3", "98d4a1ef7ce7737c", "ba"),
    "16-simulated-ship-auto": ("2a4b597c9ab732c3", "da485d3cb82b5fc1", "ab"),
    "16-simulated-seed-ab": ("2a4b597c9ab732c3", "092ac22f90ba047d", "ab"),
    "16-simulated-seed-ba": ("2a4b597c9ab732c3", "32b4b292b8c4cd61", "ba"),
    "16-simulated-seed-auto": ("2a4b597c9ab732c3", "fc0159f6f72b4e5f", "ab"),
    "16-accounted-ship-ab": ("2a4b597c9ab732c3", "f6adbcc8aaf524a7", "ab"),
    "16-accounted-ship-ba": ("2a4b597c9ab732c3", "3c1bb7048303be9a", "ba"),
    "16-accounted-ship-auto": ("2a4b597c9ab732c3", "a2d2860249277160", "ab"),
    "16-accounted-seed-ab": ("2a4b597c9ab732c3", "0369516323da0833", "ab"),
    "16-accounted-seed-ba": ("2a4b597c9ab732c3", "a6850ccc726aaba4", "ba"),
    "16-accounted-seed-auto": ("2a4b597c9ab732c3", "d7a2beab16adc019", "ab"),
    "23-simulated-ship-ab": ("3f7a3347bd44f00d", "62ff7064f91de0ff", "ab"),
    "23-simulated-ship-ba": ("3f7a3347bd44f00d", "b2a6d12ae314beff", "ba"),
    "23-simulated-ship-auto": ("3f7a3347bd44f00d", "256a9a5fc881a6bf", "ba"),
    "23-simulated-seed-ab": ("3f7a3347bd44f00d", "3564e4cf0190e395", "ab"),
    "23-simulated-seed-ba": ("3f7a3347bd44f00d", "85baea5864ce4b31", "ba"),
    "23-simulated-seed-auto": ("3f7a3347bd44f00d", "fafdcb2d997f2bde", "ba"),
    "23-accounted-ship-ab": ("3f7a3347bd44f00d", "3de0bf1e6f13e9d2", "ab"),
    "23-accounted-ship-ba": ("3f7a3347bd44f00d", "cb27179f21e91a6c", "ba"),
    "23-accounted-ship-auto": ("3f7a3347bd44f00d", "b01f2a8686744ecb", "ba"),
    "23-accounted-seed-ab": ("3f7a3347bd44f00d", "d03162cf188dcfb8", "ab"),
    "23-accounted-seed-ba": ("3f7a3347bd44f00d", "780df62a8b94ea5c", "ba"),
    "23-accounted-seed-auto": ("3f7a3347bd44f00d", "87e5b3e80d60ea21", "ba"),
}

# the same, at payload capacity W = the cell's "-w" suffix
GOLDEN_W = {
    "16-simulated-ship-ab-w10": ("2a4b597c9ab732c3", "0708b83da524d979", "ab"),
    "16-simulated-ship-ba-w10": ("2a4b597c9ab732c3", "5b3ef36c5ee38f5d", "ba"),
    "16-simulated-ship-auto-w10": ("2a4b597c9ab732c3", "2ed48b3c99840839", "ab"),
    "16-accounted-ship-ab-w10": ("2a4b597c9ab732c3", "ef70be20e0d8e3b9", "ab"),
    "16-accounted-ship-ba-w10": ("2a4b597c9ab732c3", "7b2ddf5f39f647cc", "ba"),
    "16-accounted-ship-auto-w10": ("2a4b597c9ab732c3", "9039c6afaaf59149", "ab"),
    "16-simulated-ship-ab-w100": ("2a4b597c9ab732c3", "57b7c0adca3f1257", "ab"),
    "16-simulated-ship-ba-w100": ("2a4b597c9ab732c3", "48693f3307c6b0df", "ba"),
    "16-simulated-ship-auto-w100": ("2a4b597c9ab732c3", "1866445c860bc51b", "ab"),
    "16-accounted-ship-ab-w100": ("2a4b597c9ab732c3", "20d71b53b0536df2", "ab"),
    "16-accounted-ship-ba-w100": ("2a4b597c9ab732c3", "6159c8f0a918200f", "ba"),
    "16-accounted-ship-auto-w100": ("2a4b597c9ab732c3", "201898c73c29f681", "ab"),
}


def run_cell(cell):
    """(A, B, product, orientation run, ledger) of one grid cell."""
    n_text, routing, mode, orientation, *w = cell.split("-")
    n = int(n_text)
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=n))
    B = generate(GenSpec(n=n, kind="uniform", density=0.15, seed=n + 1))
    cfg = CliqueConfig(n=n, routing=routing, seed=7, w=int(w[0][1:]) if w else 64)
    proj = ProjectionConfig(seed_mode=mode == "seed")
    if orientation == "auto":
        C, chosen, ledger, _ = choose_orientation(A, B, cfg, proj)
    else:
        C, ledger, _ = clusmat_oriented(A, B, cfg, proj, orientation=orientation)
        chosen = orientation
    return A, B, C, chosen, ledger


def sha256_prefix(obj) -> str:
    """Prefix of the sha256 of ``obj``'s sorted JSON."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def ledger_digest(ledger) -> str:
    """Prefix of the sha256 of the ledger's sorted JSON."""
    return sha256_prefix(ledger.as_dict())


def totals_digest(ledger) -> str:
    """:func:`ledger_digest` of the ledger without its ``step_rounds``: what
    stays when only step labels move."""
    return sha256_prefix({k: v for k, v in ledger.as_dict().items() if k != "step_rounds"})


def cell_digests(cell):
    """(product digest prefix, ledger digest prefix, orientation run)."""
    A, B, C, chosen, ledger = run_cell(cell)
    assert verify(C, A, B)
    return digest(matrix_to_text(C))[:16], ledger_digest(ledger), chosen


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_golden_digests(cell):
    assert cell_digests(cell) == GOLDEN[cell]


@pytest.mark.parametrize("cell", sorted(GOLDEN_W))
def test_golden_digests_off_w64(cell):
    assert cell_digests(cell) == GOLDEN_W[cell]


def spy_chunk_columns(monkeypatch):
    """Wrap ``Batch.build`` and every binding of ``vector_multicast``; the
    returned lists collect each build's (given, built) payload columns and
    each multicast vector."""
    from cliquemat import clusmat, hmst, routing

    builds, vectors = [], []
    build, multicast = routing.Batch.build.__func__, routing.vector_multicast

    def building(cls, *args):
        batch = build(cls, *args)
        builds.append((args[-1], batch.payload))
        return batch

    def multicasting(engine, senders):
        vectors.extend(vec for vec, _ in senders.values())
        return multicast(engine, senders)

    monkeypatch.setattr(routing.Batch, "build", classmethod(building))
    for module in (routing, hmst, clusmat):
        monkeypatch.setattr(module, "vector_multicast", multicasting)
    return builds, vectors


def python_ints(column) -> bool:
    return column.dtype == object and all(type(x) is int for x in column.ravel())


@pytest.mark.parametrize(
    "cell", sorted(c for c in {**GOLDEN, **GOLDEN_W} if c.startswith("16-"))
)
def test_chunks_travel_as_numpy_columns(cell, monkeypatch):
    """Chunks go from pack to decode as numpy columns.  At W <= 64 every
    batch is built from an integer array into a uint64 payload column and
    every multicast vector is a uint64 (chunks, 2) array; at W = 100 both
    hold Python ints.  Products and ledgers stay the golden ones."""
    builds, vectors = spy_chunk_columns(monkeypatch)
    assert cell_digests(cell) == {**GOLDEN, **GOLDEN_W}[cell]
    assert builds and vectors
    wide = cell.endswith("-w100")
    for given, built in builds:
        assert python_ints(built) if wide else built.dtype == np.uint64
        assert isinstance(given, np.ndarray) and (wide or given.dtype.kind in "iu")
    for vec in vectors:
        assert isinstance(vec, np.ndarray) and vec.ndim == 2 and vec.shape[1] == 2
        assert python_ints(vec) if wide else vec.dtype == np.uint64


@pytest.mark.parametrize("cell", sorted(c for c in GOLDEN if c.endswith("-auto")))
def test_auto_transposes_each_input_once(cell):
    """The orientation choice pays the transposes of the forced run it
    picks, and every run pays one: step 1's (B's columns), whichever side
    wins, since a ba product's entries go straight to their rows."""
    _, _, _, chosen, ledger = run_cell(cell)
    _, _, _, _, forced = run_cell(cell.replace("-auto", "-" + chosen))
    assert ledger.primitive_rounds["relaxed_idt"] == forced.primitive_rounds["relaxed_idt"]
    assert ledger.primitive_rounds["relaxed_idt"] == ledger.step_rounds["step1"]


def first_visits(plan, b):
    """Tour block b's visited vertices, in first-visit order."""
    lo, hi = plan.traversal_blocks[b - 1]
    walk = plan.traversal.walk[lo:hi]
    return np.array(list(dict.fromkeys([int(walk[0, 0]), *walk[:, 1].tolist()])))


def ba_step10(cell, monkeypatch):
    """Step 10's (rounds, messages, bits) in a forced-ba cell, and the same
    from the cell's plan in closed form: pair node (b, c) sends each column
    j of block c other than itself ceil(|V_b| / W) messages carrying |V_b|
    bits in all, V_b being tour block b's visited vertices, and the step
    takes ceil(max |V_b| / W) rounds.  Every entry's field is the vertex at
    its position in its sender's block, in first-visit order."""
    from cliquemat import clusmat
    from cliquemat.engine import CliqueEngine

    engines, charged = [], []

    class KeptEngine(CliqueEngine):
        def __init__(self, cfg):
            super().__init__(cfg)
            engines.append(self)

    exchange = clusmat._direct_exchange

    def spy(engine, src, dst, position, field, bit):
        led = engine.ledger
        before = led.rounds, led.messages, led.bits
        out = exchange(engine, src, dst, position, field, bit)
        charged.append(tuple(b - a for a, b in zip(before, (led.rounds, led.messages, led.bits))))
        with engine.as_node(1) as node:
            plan, asg = node.storage["plan"], node.storage["assignment"]
        for v in np.unique(src).tolist():
            order = first_visits(plan, asg.pair_of(v)[0])
            assert np.array_equal(field[src == v], order[position[src == v]])
        return out

    monkeypatch.setattr(clusmat, "CliqueEngine", KeptEngine)
    monkeypatch.setattr(clusmat, "_direct_exchange", spy)
    ledger = run_cell(cell)[4]
    (engine,), (traffic,) = engines, charged
    assert traffic[0] == ledger.step_rounds["step10"]
    with engine.as_node(1) as node:
        plan, asg = node.storage["plan"], node.storage["assignment"]
    visited = [len(first_visits(plan, b)) for b in range(1, plan.num_blocks + 1)]
    w, messages, bits = engine.w, 0, 0
    for b in range(1, plan.num_blocks + 1):
        for v in asg.nodes_for_block(b):
            lo, hi = plan.column_blocks[asg.pair_of(v)[1] - 1]
            others = hi - lo + 1 - (lo <= v <= hi)
            messages += others * math.ceil(visited[b - 1] / w)
            bits += others * visited[b - 1]
    return traffic, (math.ceil(max(visited) / w), messages, bits)


BA_SIMULATED_CELLS = sorted(c for c in {**GOLDEN, **GOLDEN_W} if "-simulated-" in c and "-ba" in c)


@pytest.mark.parametrize("cell", BA_SIMULATED_CELLS)
def test_ba_step10_is_one_direct_exchange_in_closed_form(cell, monkeypatch):
    """A forced-ba step 10 charges the same rounds, messages and bits under
    both backends, and they are the closed forms of the cell's plan."""
    simulated, closed = ba_step10(cell, monkeypatch)
    accounted, closed_too = ba_step10(cell.replace("-simulated-", "-accounted-"), monkeypatch)
    assert simulated == accounted == closed == closed_too


# the simulated cells of the 18 (simulated, accounted) pairs of the grid
SIMULATED_CELLS = sorted(c for c in {**GOLDEN, **GOLDEN_W} if "-simulated-" in c)


def ledger_pair(cell):
    """(simulated, accounted) ledgers of a simulated cell and its pair."""
    return run_cell(cell)[4], run_cell(cell.replace("-simulated-", "-accounted-"))[4]


def step3_charge(cell, monkeypatch):
    """Step 3 in a cell: the (rounds, messages, bits, per-node work) its
    one tree broadcast charges, and the ledger's ``step3`` step and
    primitive rounds."""
    from cliquemat import clusmat

    charged = []
    broadcast = clusmat._broadcast_trees

    def spy(engine, rows):
        led = engine.ledger
        before = led.rounds, led.messages, led.bits, list(led.work)
        broadcast(engine, rows)
        after = led.rounds, led.messages, led.bits
        work = [b - a for a, b in zip(before[3], led.work)]
        charged.append((*(b - a for a, b in zip(before, after)), work))

    with monkeypatch.context() as mp:
        mp.setattr(clusmat, "_broadcast_trees", spy)
        ledger = run_cell(cell)[4]
    (traffic,) = charged
    return traffic, ledger.step_rounds["step3"], ledger.primitive_rounds["step3"]


def step3_closed_form(n, w, candidates):
    """Step 3's (rounds, messages, bits, per-node work) in closed form.  A
    message carries one edge index's copies from up to floor(W / 2cb)
    trees, so the trees go out in round pairs of ceil(candidates /
    floor(W / 2cb)).  Each pair: node 1 sends nodes 2..n-1 their edge, then
    nodes 1..n-1 each send every other node theirs, (n-2) + (n-1)^2
    messages, which node 1 sends or receives 3n-5 of, nodes 2..n-1 2n-2
    and node n n-1, at W work each."""
    cb = count_bits(n)
    per_message = w // (2 * cb)
    trees = [min(per_message, candidates - k) for k in range(0, candidates, per_message)]
    pair_messages = (n - 2) + (n - 1) ** 2
    load = [0, 3 * n - 5] + [2 * n - 2] * (n - 2) + [n - 1]
    return (
        2 * len(trees),
        len(trees) * pair_messages,
        pair_messages * 2 * cb * sum(trees),
        [w * len(trees) * x for x in load],
    )


@pytest.mark.parametrize("cell", SIMULATED_CELLS)
def test_step3_is_one_tree_broadcast_in_closed_form(cell, monkeypatch):
    """Step 3 charges its closed form under both backends, and its step
    and primitive rounds are its rounds.  A forced run takes 2 rounds and
    (n-2) + (n-1)^2 messages of 2cb bits; an auto run where W >= 4cb takes
    the same rounds and messages, of 4cb bits; at n=16, W=10 an auto run
    takes 4 rounds and charges what two forced step 3s do."""
    n_text, _, _, orientation, *w_text = cell.split("-")
    n, w = int(n_text), int(w_text[0][1:]) if w_text else 64
    cb = count_bits(n)
    auto = orientation == "auto"
    closed = step3_closed_form(n, w, 2 if auto else 1)
    pair_messages = (n - 2) + (n - 1) ** 2
    for one_cell in (cell, cell.replace("-simulated-", "-accounted-")):
        traffic, step_rounds, primitive_rounds = step3_charge(one_cell, monkeypatch)
        assert traffic == closed
        assert step_rounds == primitive_rounds == traffic[0]
        if not auto:
            assert traffic[:3] == (2, pair_messages, pair_messages * 2 * cb)
            continue
        forced = step3_charge(one_cell.replace("-auto", "-ab"), monkeypatch)[0]
        if w >= 4 * cb:
            assert traffic[:3] == (2, pair_messages, pair_messages * 4 * cb)
            assert traffic[:2] == forced[:2] and traffic[3] == forced[3]
        else:
            assert traffic[0] == 4
            assert traffic == (*(2 * x for x in forced[:3]), [2 * x for x in forced[3]])


@pytest.mark.parametrize("cell", SIMULATED_CELLS)
def test_accounted_step_rounds_bound_simulated(cell):
    """Per protocol step, the accounted ledger is an upper bound on the
    simulated rounds of the same cell, and both record the same steps."""
    simulated, accounted = (led.step_rounds for led in ledger_pair(cell))
    assert list(simulated) == list(accounted)
    for step, rounds in simulated.items():
        assert rounds <= accounted[step], step


@pytest.mark.parametrize("cell", SIMULATED_CELLS)
def test_accounted_counts_below_simulated(cell):
    """The engine docstring's label for messages, bits and work_total: the
    accounted count is below the simulated one of the same cell."""
    simulated, accounted = ledger_pair(cell)
    for field in ("messages", "bits", "work_total"):
        assert getattr(accounted, field) < getattr(simulated, field), field


def test_work_max_node_has_no_relation_across_backends():
    """The engine docstring's label for work_max_node: over the grid's
    pairs, the accounted hottest node is below the simulated one in some
    and above it in others."""
    signs = set()
    for cell in SIMULATED_CELLS:
        simulated, accounted = ledger_pair(cell)
        signs.add(np.sign(accounted.work_max_node - simulated.work_max_node))
    assert {-1, 1} <= signs


def test_golden_report_prints_one_line_per_cell():
    """``tests/golden_report.py`` reports a cell's ledger totals, its
    totals digest, and its digest next to the recorded one."""
    cell = "16-accounted-ship-ab"
    script = Path(__file__).with_name("golden_report.py")
    out = subprocess.run(
        [sys.executable, str(script), cell], capture_output=True, text=True, check=True
    ).stdout
    ledger = run_cell(cell)[4]
    recorded = GOLDEN[cell][1]
    assert out.splitlines() == [
        f"{cell} rounds={ledger.rounds} messages={ledger.messages} bits={ledger.bits} "
        f"work_total={ledger.work_total} work_max_node={ledger.work_max_node} "
        f"totals={totals_digest(ledger)} ledger={recorded} recorded={recorded} match"
    ]


def test_golden_report_exit_code_gates_on_moved_ledgers(monkeypatch):
    """``golden_report.main`` returns 0 when every named cell matches, 1
    when one prints MOVED (here a recorded digest no run gives) and 2 for
    an unknown cell."""
    import golden_report

    cell = "16-accounted-ship-ab"
    assert golden_report.main([cell]) == 0
    product, _, chosen = GOLDEN[cell]
    monkeypatch.setitem(GOLDEN, cell, (product, "0" * 16, chosen))
    assert golden_report.main([cell]) == 1
    assert golden_report.main(["no-such-cell"]) == 2
