"""Set-up time of one workload in a fresh process.

Prints the seconds taken to import ``cliquemat`` and generate the workload's
instances.  ``run.py`` starts this script several times and reports the
median as ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed> <n>
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import workloads


def main(argv: list[str]) -> int:
    name, seed, n = argv[0], int(argv[1]), int(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import cliquemat  # noqa: F401  (timed)

    w = workloads.WORKLOADS[name]
    for a_seed, b_seed in workloads.instance_seeds(w, seed):
        workloads.generate_instance(w, n, a_seed, b_seed)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
