"""Per-step memory of one product on the baseline instance.

    python tests/memory_report.py [n] [accounted|simulated] [ab|ba|auto]

runs one product on the baseline instance: clustered A (4 clusters, spread
6, seed 0), uniform B (density 0.5, seed 1), engine seed 0, W=64, shipped
projections.  n defaults to 1024, the backend to accounted and the
orientation to ab; ``ab`` and ``ba`` run ``clusmat_oriented`` forced,
``auto`` runs ``choose_orientation`` and names the side it picked on the
first line.  It prints one line per protocol step, in the order the steps
end (a step nested in another, such as hmst's inside step 2, ends first):

* ``rss_mib``: the process's peak RSS (``ru_maxrss``) after the step;
* ``traced_mib``: the tracemalloc peak during the step over the traced
  memory at its start, so what the step itself holds at its worst;
* ``items``: the cross items the step hands to routing primitives (a task
  batch's items between distinct nodes, a multicast's chunk copies to
  recipients other than their sender) and to ``ba`` step 10's direct
  exchange (its entries between distinct nodes), and ``b_per_item``, the
  traced bytes per such item;
* ``s``: the step's wall time, tracemalloc's overhead included.

A last line gives the run's wall time, peak RSS, rounds, messages and the
product digest prefix, so two commits can be compared on the same line.
tracemalloc stays on for the whole run; it traces Python's and numpy's
allocations, not the ones other C libraries make on their own.
"""

import resource
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from cliquemat import clusmat, hmst  # noqa: E402
from cliquemat.clusmat import choose_orientation, clusmat_oriented  # noqa: E402
from cliquemat.engine import CliqueConfig, CliqueEngine  # noqa: E402
from cliquemat.harness import GenSpec, generate  # noqa: E402
from cliquemat.hmst import ProjectionConfig  # noqa: E402
from cliquemat.routing import Batch  # noqa: E402
from cliquemat.textio import digest, matrix_to_text  # noqa: E402

MIB = 1024 * 1024
PRIMITIVES = ("bounded_route", "solve_relaxed_idt", "vector_multicast")
ORIENTATIONS = ("ab", "ba", "auto")


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measuring_steps(record):
    """A replacement for :meth:`CliqueEngine.step` that calls ``record(name,
    traced, seconds)`` as each step ends: its name, its tracemalloc peak
    over the traced memory at its start, in bytes, and its wall time.
    tracemalloc keeps one peak, so at every step boundary the peak so far
    is folded into every open step and reset."""
    step = CliqueEngine.step
    open_steps: list[list[int]] = []  # [start bytes, peak bytes] per open step

    def fold() -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for frame in open_steps:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()

    @contextmanager
    def measured(engine, name):
        fold()
        frame = [tracemalloc.get_traced_memory()[0], 0]
        open_steps.append(frame)
        t0 = time.perf_counter()
        try:
            with step(engine, name):
                yield
        finally:
            elapsed = time.perf_counter() - t0
            fold()
            open_steps.pop()
            record(name, frame[1] - frame[0], elapsed)

    return measured


def cross_items(arg) -> int:
    """Items a routing call moves between distinct nodes: a task batch's
    cross items, or a multicast's chunk copies to recipients other than
    their sender."""
    if isinstance(arg, Batch):
        return int(np.count_nonzero(arg.src != arg.dst))
    return sum(len(vec) * sum(v != s for v in recips) for s, (vec, recips) in arg.items())


def main(args: list[str]) -> int:
    n = int(args[0]) if args else 1024
    routing = args[1] if len(args) > 1 else "accounted"
    orientation = args[2] if len(args) > 2 else "ab"
    if orientation not in ORIENTATIONS:
        print(f"orientation must be one of {', '.join(ORIENTATIONS)}", file=sys.stderr)
        return 2
    A = generate(GenSpec(n=n, kind="clustered", clusters=4, spread=6, seed=0))
    B = generate(GenSpec(n=n, kind="uniform", density=0.5, seed=1))
    cfg = CliqueConfig(n=n, routing=routing, seed=0)
    lines: list[str] = []
    open_steps: list[str] = []
    routed: dict[str, int] = {}  # cross items per open step

    def record(name: str, traced: int, seconds: float) -> None:
        items = routed[name]
        per_item = f"{traced / items:10.1f}" if items else f"{'-':>10}"
        lines.append(
            f"{name:<20} rss_mib={rss_mib():8.1f} traced_mib={traced / MIB:8.2f} "
            f"items={items:10d} b_per_item={per_item} s={seconds:7.2f}"
        )

    measured = measuring_steps(record)

    @contextmanager
    def step(engine, name):
        open_steps.append(name)
        routed[name] = 0
        try:
            with measured(engine, name):
                yield
        finally:
            open_steps.pop()

    def add_items(items: int) -> None:
        for name in open_steps:
            routed[name] += items

    def counted(primitive):
        def call(engine, arg):
            add_items(cross_items(arg))
            return primitive(engine, arg)
        return call

    direct_exchange = clusmat._direct_exchange

    def counted_exchange(engine, src, dst, *columns):
        add_items(int(np.count_nonzero(src != dst)))
        return direct_exchange(engine, src, dst, *columns)

    for module in (clusmat, hmst):
        for name in PRIMITIVES:
            if hasattr(module, name):
                setattr(module, name, counted(getattr(module, name)))
    clusmat._direct_exchange = counted_exchange
    CliqueEngine.step = step
    tracemalloc.start()
    t0 = time.perf_counter()
    if orientation == "auto":
        C, chosen, ledger, _ = choose_orientation(A, B, cfg, ProjectionConfig())
        header = f"n={n} {routing} auto picked {chosen}"
    else:
        C, ledger, _ = clusmat_oriented(A, B, cfg, ProjectionConfig(), orientation=orientation)
        header = f"n={n} {routing}" + ("" if orientation == "ab" else f" {orientation}")
    elapsed = time.perf_counter() - t0
    tracemalloc.stop()
    print(header, *lines, sep="\n")
    print(
        f"total s={elapsed:.2f} rss_mib={rss_mib():.1f} rounds={ledger.rounds} "
        f"messages={ledger.messages} product={digest(matrix_to_text(C))[:16]}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
