"""Old -> new ledgers of the golden cells, for a change that moves ledgers
on purpose.

    python tests/golden_report.py [cell ...]

prints one line per golden cell of ``tests/test_golden.py`` (every cell when
none is named): the ledger's rounds, messages, bits, work_total and
work_max_node, the ``totals`` digest prefix (the ledger without its
``step_rounds``), its digest prefix, the recorded prefix, and ``match`` or
``MOVED``.  Run it at two commits and diff the output: a ``MOVED`` line
whose ``totals`` did not change moved only its step labels.  It writes and
re-records nothing.

It exits 0 when every cell matches, 1 when any cell prints ``MOVED`` and 2
for an unknown cell, so a change that must leave every ledger as it was
gates on this one command.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from test_golden import GOLDEN, GOLDEN_W, ledger_digest, run_cell, totals_digest  # noqa: E402


def report_line(cell: str) -> str:
    recorded = {**GOLDEN, **GOLDEN_W}[cell][1]
    ledger = run_cell(cell)[4]
    now = ledger_digest(ledger)
    return (
        f"{cell} rounds={ledger.rounds} messages={ledger.messages} bits={ledger.bits} "
        f"work_total={ledger.work_total} work_max_node={ledger.work_max_node} "
        f"totals={totals_digest(ledger)} ledger={now} recorded={recorded} "
        + ("match" if now == recorded else "MOVED")
    )


def main(cells: list[str]) -> int:
    known = sorted(GOLDEN) + sorted(GOLDEN_W)
    unknown = [c for c in cells if c not in known]
    if unknown:
        print(f"unknown golden cell: {', '.join(unknown)}", file=sys.stderr)
        return 2
    moved = False
    for cell in cells or known:
        line = report_line(cell)
        print(line, flush=True)
        moved |= line.endswith("MOVED")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
