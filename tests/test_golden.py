"""Golden digests: a speed-up that changes any ledger or product is a
regression.

Every cell of a small grid (n in {16, 23}; both routing backends; shipped
and seed-mode projections; orientations ab, ba and auto) must reproduce the
product digest, the ledger digest and the chosen orientation recorded
before the batched-round engine replaced per-message scheduling.  The
ledger digest is the sha256 of ``json.dumps(ledger.as_dict(),
sort_keys=True)``, the same digest the benchmark repeats per instance.  The
products have zeros, so a constant product cannot pass.
"""

import hashlib
import json

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
    "16-simulated-ship-auto": ("2a4b597c9ab732c3", "f90a4d481dcd3d7a", "ab"),
    "16-simulated-seed-ab": ("2a4b597c9ab732c3", "092ac22f90ba047d", "ab"),
    "16-simulated-seed-ba": ("2a4b597c9ab732c3", "71fdf7cee5ebbf7c", "ba"),
    "16-simulated-seed-auto": ("2a4b597c9ab732c3", "fb986e403104cde9", "ab"),
    "16-accounted-ship-ab": ("2a4b597c9ab732c3", "f6adbcc8aaf524a7", "ab"),
    "16-accounted-ship-ba": ("2a4b597c9ab732c3", "19def777eb301777", "ba"),
    "16-accounted-ship-auto": ("2a4b597c9ab732c3", "3c9b99057a6b101c", "ab"),
    "16-accounted-seed-ab": ("2a4b597c9ab732c3", "0369516323da0833", "ab"),
    "16-accounted-seed-ba": ("2a4b597c9ab732c3", "b9af8bb4e76b9623", "ba"),
    "16-accounted-seed-auto": ("2a4b597c9ab732c3", "50db7fa151317aeb", "ab"),
    "23-simulated-ship-ab": ("3f7a3347bd44f00d", "62ff7064f91de0ff", "ab"),
    "23-simulated-ship-ba": ("3f7a3347bd44f00d", "6d3210296cd8bd41", "ba"),
    "23-simulated-ship-auto": ("3f7a3347bd44f00d", "352ae719ea8a72bd", "ba"),
    "23-simulated-seed-ab": ("3f7a3347bd44f00d", "3564e4cf0190e395", "ab"),
    "23-simulated-seed-ba": ("3f7a3347bd44f00d", "43eb9d9b6aad98d7", "ba"),
    "23-simulated-seed-auto": ("3f7a3347bd44f00d", "4ba6136cfe49f16f", "ba"),
    "23-accounted-ship-ab": ("3f7a3347bd44f00d", "3de0bf1e6f13e9d2", "ab"),
    "23-accounted-ship-ba": ("3f7a3347bd44f00d", "008998485aca29c4", "ba"),
    "23-accounted-ship-auto": ("3f7a3347bd44f00d", "921a71689995bc1d", "ba"),
    "23-accounted-seed-ab": ("3f7a3347bd44f00d", "d03162cf188dcfb8", "ab"),
    "23-accounted-seed-ba": ("3f7a3347bd44f00d", "d78a62b9b415861f", "ba"),
    "23-accounted-seed-auto": ("3f7a3347bd44f00d", "fd80ed989260cde9", "ba"),
}


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_golden_digests(cell):
    n_text, routing, mode, orientation = cell.split("-")
    n = int(n_text)
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=n))
    B = generate(GenSpec(n=n, kind="uniform", density=0.15, seed=n + 1))
    cfg = CliqueConfig(n=n, routing=routing, seed=7)
    proj = ProjectionConfig(seed_mode=mode == "seed")
    if orientation == "auto":
        C, chosen, ledger, _ = choose_orientation(A, B, cfg, proj)
    else:
        C, ledger, _ = clusmat_oriented(A, B, cfg, proj, orientation=orientation)
        chosen = orientation
    assert verify(C, A, B)
    ledger_digest = hashlib.sha256(
        json.dumps(ledger.as_dict(), sort_keys=True).encode()
    ).hexdigest()
    got = (digest(matrix_to_text(C))[:16], ledger_digest[:16], chosen)
    assert got == GOLDEN[cell]
