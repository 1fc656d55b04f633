"""Text formats: matrices, trees, and JSON run reports.

Matrix files: first line is the decimal size n, then n lines of n characters
from {0,1}, row-major.  Tree files: n-1 lines "u v weight".
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .bits import BooleanMatrix, Tree
from .engine import CliqueConfig, RoundLedger


def matrix_to_text(M: BooleanMatrix) -> str:
    return "\n".join([str(M.n)] + M.to_strings()) + "\n"


def matrix_from_text(text: str) -> BooleanMatrix:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines:
        raise ValueError("empty matrix file")
    n = int(lines[0])
    rows = lines[1:]
    if len(rows) != n:
        raise ValueError(f"matrix file declares n={n} but has {len(rows)} rows")
    if any(len(r) != n for r in rows):
        raise ValueError("matrix rows must all have length n")
    return BooleanMatrix.from_strings(rows)


def write_matrix(path: str | Path, M: BooleanMatrix) -> None:
    Path(path).write_text(matrix_to_text(M))


def read_matrix(path: str | Path) -> BooleanMatrix:
    return matrix_from_text(Path(path).read_text())


def tree_to_text(tree: Tree) -> str:
    return "\n".join(f"{e.u} {e.v} {e.weight}" for e in tree.edges) + "\n"


def write_tree(path: str | Path, tree: Tree) -> None:
    Path(path).write_text(tree_to_text(tree))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_report(
    protocol: str,
    cfg: CliqueConfig,
    ledger: RoundLedger,
    result_text: str,
    extra: dict,
) -> dict:
    return {
        "protocol": protocol,
        "n": cfg.n,
        "W": cfg.w,
        "seed": cfg.seed,
        "routing": cfg.routing,
        **ledger.as_dict(),
        "result_digest": digest(result_text),
        **extra,
    }


def write_json(path: str | Path, data: dict) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

