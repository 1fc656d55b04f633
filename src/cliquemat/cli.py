"""Command-line interface: generate instances, run protocols, verify
products, and sweep benchmark grids."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bits import hamming_distance
from .clusmat import choose_orientation, clusmat_oriented
from .engine import CliqueConfig
from .errors import CliquematError
from .harness import GenSpec, bench_grid, default_grid, generate, verify
from .hmst import ProjectionConfig, hmst_protocol
from .textio import (
    matrix_to_text,
    read_matrix,
    run_report,
    rows_to_csv,
    tree_to_text,
    write_json,
    write_matrix,
    write_tree,
)

MAX_ROUNDS_ENV = "CLIQUEMAT_MAX_ROUNDS"


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--w", type=int, default=64, help="payload capacity in bits")
    p.add_argument("--strict", action="store_true", help="force W = ceil(log2 n) + 16")
    p.add_argument(
        "--max-rounds",
        type=int,
        default=None,
        help=f"abort limit (default from ${MAX_ROUNDS_ENV} or 1000000)",
    )
    _add_bench_flags(p)


def _add_bench_flags(p: argparse.ArgumentParser) -> None:
    """Model flags a bench grid honours; its cells fix seed, W and limits."""
    p.add_argument("--routing", choices=["simulated", "accounted"], default="simulated")
    p.add_argument("--kappa", type=float, default=8.0, help="sketch width multiplier")
    p.add_argument(
        "--seed-mode",
        action="store_true",
        help="broadcast one seed instead of shipping projection matrices",
    )


def _config(args, n: int) -> CliqueConfig:
    max_rounds = args.max_rounds
    if max_rounds is None:
        max_rounds = int(os.environ.get(MAX_ROUNDS_ENV, 1_000_000))
    return CliqueConfig(
        n=n,
        w=args.w,
        strict=args.strict,
        seed=args.seed,
        routing=args.routing,
        max_rounds=max_rounds,
    )


def _proj(args) -> ProjectionConfig:
    return ProjectionConfig(kappa=args.kappa, seed_mode=args.seed_mode)


def cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n,
        kind=args.kind,
        clusters=args.clusters,
        spread=args.spread,
        density=args.density,
        seed=args.seed,
    )
    M = generate(spec)
    if args.out:
        write_matrix(args.out, M)
    else:
        sys.stdout.write(matrix_to_text(M))
    return 0


def cmd_run(args) -> int:
    if args.protocol == "clusmat":
        A = read_matrix(args.a)
        B = read_matrix(args.b)
        cfg = _config(args, A.n)
        proj = _proj(args)
        if args.orientation == "auto":
            C, orientation, ledger, info = choose_orientation(A, B, cfg, proj)
        else:
            C, ledger, info = clusmat_oriented(
                A, B, cfg, proj, orientation=args.orientation
            )
            orientation = args.orientation
        text = matrix_to_text(C)
        if args.out_c:
            write_matrix(args.out_c, C)
        extra = dict(info)
        extra["orientation"] = orientation
        report = run_report("clusmat", cfg, ledger, text, extra)
    else:
        pts_matrix = read_matrix(args.points)
        cfg = _config(args, pts_matrix.n)
        tree, ledger = hmst_protocol(list(pts_matrix.rows), cfg, _proj(args))
        text = tree_to_text(tree)
        if args.out_tree:
            write_tree(args.out_tree, tree)
        true_cost = sum(
            hamming_distance(pts_matrix.row(e.u), pts_matrix.row(e.v))
            for e in tree.edges
        )
        report = run_report(
            "hmst", cfg, ledger, text,
            {"estimated_tree_weight": tree.cost(), "tree_hamming_cost": true_cost},
        )
    if args.report:
        write_json(args.report, report)
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def cmd_verify(args) -> int:
    A = read_matrix(args.a)
    B = read_matrix(args.b)
    C = read_matrix(args.c)
    ok = verify(C, A, B)
    print("OK" if ok else "MISMATCH")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    n_list = [int(x) for x in args.n_list.split(",")]
    spreads = [int(x) for x in args.spreads.split(",")] if args.spreads else None
    seeds = list(range(args.seeds))
    cells = default_grid(n_list, spreads, seeds, routing=args.routing)
    report = bench_grid(cells, _proj(args))
    payload = report.as_dict()
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = rows_to_csv(report.rows)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if report.all_correct() else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cliquemat",
        description="Clique protocols for Hamming-space trees and Boolean products",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance matrix")
    g.add_argument("--n", type=int, required=True)
    g.add_argument(
        "--kind",
        choices=["clustered", "uniform", "ladder"],
        default="clustered",
        help="ladder: --clusters chain rows, window length --spread",
    )
    g.add_argument("--clusters", type=int, default=1)
    g.add_argument("--spread", type=int, default=0)
    g.add_argument("--density", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_gen)

    r = sub.add_parser("run", help="run a protocol")
    r.add_argument("--protocol", choices=["clusmat", "hmst"], required=True)
    r.add_argument("--a", help="matrix A file (clusmat)")
    r.add_argument("--b", help="matrix B file (clusmat)")
    r.add_argument("--points", help="points file (hmst; one point per row)")
    r.add_argument("--orientation", choices=["auto", "ab", "ba"], default="ab")
    r.add_argument("--out-c", default=None, help="write the product matrix here")
    r.add_argument("--out-tree", default=None, help="write the tree here")
    r.add_argument("--report", default=None, help="write the JSON run report here")
    _add_model_flags(r)
    r.set_defaults(fn=cmd_run)

    v = sub.add_parser("verify", help="check C = A o B against the naive product")
    v.add_argument("--a", required=True)
    v.add_argument("--b", required=True)
    v.add_argument("--c", required=True)
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bench", help="sweep a benchmark grid", allow_abbrev=False)
    b.add_argument("--n-list", default="64,128,256")
    b.add_argument("--spreads", default=None, help="comma list of spread knobs")
    b.add_argument("--seeds", type=int, default=1, help="seeds per cell")
    b.add_argument("--format", choices=["json", "csv"], default="json")
    b.add_argument("--out", default=None)
    _add_bench_flags(b)
    b.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    """Run one command.  Bad input, unreadable files and protocol aborts
    (package errors, ``ValueError`` and ``OSError``) end with a one-line
    message on stderr and exit code 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.protocol == "clusmat" and not (args.a and args.b):
            parser.error("clusmat needs --a and --b")
        if args.protocol == "hmst" and not args.points:
            parser.error("hmst needs --points")
    try:
        return args.fn(args)
    except (CliquematError, ValueError, OSError) as exc:
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"{parser.prog}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
