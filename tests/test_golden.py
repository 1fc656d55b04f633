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
both candidates and to broadcast both trees' edge distances in one round.
The ledger digest is the sha256 of ``json.dumps(ledger.as_dict(),
sort_keys=True)``, the same digest the benchmark repeats per instance.  The
products have zeros, so a constant product cannot pass.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cliquemat.clusmat import choose_orientation, clusmat_oriented
from cliquemat.engine import CliqueConfig
from cliquemat.harness import GenSpec, generate, verify
from cliquemat.hmst import ProjectionConfig
from cliquemat.textio import digest, matrix_to_text

# cell -> (product digest prefix, ledger digest prefix, orientation run)
GOLDEN = {
    "16-simulated-ship-ab": ("2a4b597c9ab732c3", "634bbad5e67df9eb", "ab"),
    "16-simulated-ship-ba": ("2a4b597c9ab732c3", "f5590afa7f1e32fd", "ba"),
    "16-simulated-ship-auto": ("2a4b597c9ab732c3", "a962aa8d091975b3", "ab"),
    "16-simulated-seed-ab": ("2a4b597c9ab732c3", "092ac22f90ba047d", "ab"),
    "16-simulated-seed-ba": ("2a4b597c9ab732c3", "71fdf7cee5ebbf7c", "ba"),
    "16-simulated-seed-auto": ("2a4b597c9ab732c3", "0c05c62843b173a7", "ab"),
    "16-accounted-ship-ab": ("2a4b597c9ab732c3", "f6adbcc8aaf524a7", "ab"),
    "16-accounted-ship-ba": ("2a4b597c9ab732c3", "19def777eb301777", "ba"),
    "16-accounted-ship-auto": ("2a4b597c9ab732c3", "1a9c320e50d93c61", "ab"),
    "16-accounted-seed-ab": ("2a4b597c9ab732c3", "0369516323da0833", "ab"),
    "16-accounted-seed-ba": ("2a4b597c9ab732c3", "b9af8bb4e76b9623", "ba"),
    "16-accounted-seed-auto": ("2a4b597c9ab732c3", "e4fe705586401d76", "ab"),
    "23-simulated-ship-ab": ("3f7a3347bd44f00d", "62ff7064f91de0ff", "ab"),
    "23-simulated-ship-ba": ("3f7a3347bd44f00d", "6d3210296cd8bd41", "ba"),
    "23-simulated-ship-auto": ("3f7a3347bd44f00d", "9341ead94896233c", "ba"),
    "23-simulated-seed-ab": ("3f7a3347bd44f00d", "3564e4cf0190e395", "ab"),
    "23-simulated-seed-ba": ("3f7a3347bd44f00d", "43eb9d9b6aad98d7", "ba"),
    "23-simulated-seed-auto": ("3f7a3347bd44f00d", "cb0f03829644c5e8", "ba"),
    "23-accounted-ship-ab": ("3f7a3347bd44f00d", "3de0bf1e6f13e9d2", "ab"),
    "23-accounted-ship-ba": ("3f7a3347bd44f00d", "008998485aca29c4", "ba"),
    "23-accounted-ship-auto": ("3f7a3347bd44f00d", "584fcfc9729757b1", "ba"),
    "23-accounted-seed-ab": ("3f7a3347bd44f00d", "d03162cf188dcfb8", "ab"),
    "23-accounted-seed-ba": ("3f7a3347bd44f00d", "d78a62b9b415861f", "ba"),
    "23-accounted-seed-auto": ("3f7a3347bd44f00d", "d0d2cf6a095a17de", "ba"),
}

# the same, at payload capacity W = the cell's "-w" suffix
GOLDEN_W = {
    "16-simulated-ship-ab-w10": ("2a4b597c9ab732c3", "0708b83da524d979", "ab"),
    "16-simulated-ship-ba-w10": ("2a4b597c9ab732c3", "0775bbc82db9c018", "ba"),
    "16-simulated-ship-auto-w10": ("2a4b597c9ab732c3", "2ed48b3c99840839", "ab"),
    "16-accounted-ship-ab-w10": ("2a4b597c9ab732c3", "ef70be20e0d8e3b9", "ab"),
    "16-accounted-ship-ba-w10": ("2a4b597c9ab732c3", "3677ee018baa6d6d", "ba"),
    "16-accounted-ship-auto-w10": ("2a4b597c9ab732c3", "9039c6afaaf59149", "ab"),
    "16-simulated-ship-ab-w100": ("2a4b597c9ab732c3", "57b7c0adca3f1257", "ab"),
    "16-simulated-ship-ba-w100": ("2a4b597c9ab732c3", "233c4cb4822889cf", "ba"),
    "16-simulated-ship-auto-w100": ("2a4b597c9ab732c3", "9fe71da0d39a7f9d", "ab"),
    "16-accounted-ship-ab-w100": ("2a4b597c9ab732c3", "20d71b53b0536df2", "ab"),
    "16-accounted-ship-ba-w100": ("2a4b597c9ab732c3", "15c06b23ed015ac3", "ba"),
    "16-accounted-ship-auto-w100": ("2a4b597c9ab732c3", "4893e20d8f62e0f0", "ab"),
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
    "cell", sorted(c for c in {**GOLDEN, **GOLDEN_W} if c.startswith("16-") and "-ba" not in c)
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
    picks: one (B's columns) for ab, two (plus the product) for ba."""
    _, _, _, chosen, ledger = run_cell(cell)
    _, _, _, _, forced = run_cell(cell.replace("-auto", "-" + chosen))
    assert ledger.primitive_rounds["relaxed_idt"] == forced.primitive_rounds["relaxed_idt"]


# the simulated cells of the 18 (simulated, accounted) pairs of the grid
SIMULATED_CELLS = sorted(c for c in {**GOLDEN, **GOLDEN_W} if "-simulated-" in c)


def ledger_pair(cell):
    """(simulated, accounted) ledgers of a simulated cell and its pair."""
    return run_cell(cell)[4], run_cell(cell.replace("-simulated-", "-accounted-"))[4]


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
