"""Correctness gate, run outside the timed region of every protocol call.

The product must equal the naive product (``harness.verify``).  The tour and
plan that guided it are captured at the ``euler_traversal`` and
``plan_blocks`` bindings inside ``clusmat`` (each call's first invocation;
every node derives the same plan), then checked: the tour is a valid
closed walk of the tree (``Traversal.validate``), every tour edge costs the
true Hamming distance of its endpoint rows, the tour blocks and column
blocks partition their ranges, and the plan's total is the reported
``m_realized``.  On the orientation workload the chosen side must be the
cheaper one and its measured cost must match the tree.
"""

from __future__ import annotations

import hashlib
import json


class PlanCapture:
    """Records the first tour and plan built during one protocol call."""

    def __init__(self) -> None:
        self.tree = None
        self.traversal = None
        self.plan = None
        self._restore = None

    def reset(self) -> None:
        self.tree = self.traversal = self.plan = None

    def install(self) -> None:
        from cliquemat import clusmat

        euler, plan_blocks = clusmat.euler_traversal, clusmat.plan_blocks
        capture = self

        def euler_traversal(tree, *args, **kwargs):
            tour = euler(tree, *args, **kwargs)
            if capture.tree is None:
                capture.tree, capture.traversal = tree, tour
            return tour

        def capture_plan(*args, **kwargs):
            plan = plan_blocks(*args, **kwargs)
            if capture.plan is None:
                capture.plan = plan
            return plan

        clusmat.euler_traversal = euler_traversal
        clusmat.plan_blocks = capture_plan

        def restore() -> None:
            clusmat.euler_traversal = euler
            clusmat.plan_blocks = plan_blocks

        self._restore = restore

    def uninstall(self) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None


def ledger_digest(ledger) -> str:
    return hashlib.sha256(json.dumps(ledger.as_dict(), sort_keys=True).encode()).hexdigest()


def product_digest(C) -> str:
    from cliquemat import textio

    return textio.digest(textio.matrix_to_text(C))


def tree_problems(A, B, orientation: str, info: dict, capture: PlanCapture) -> tuple[list[str], int]:
    """Problems with the captured tour and plan, and the true Hamming cost
    of the tree that guided the product."""
    from cliquemat.bits import hamming_distance

    rows = A if orientation == "ab" else B.transpose()
    tree, tour, plan = capture.tree, capture.traversal, capture.plan
    if tree is None or plan is None:
        return ["no tour or plan was built"], 0
    problems = []
    try:
        tour.validate(tree)
    except ValueError as exc:
        problems.append(f"invalid tour: {exc}")
    if plan.traversal is not tour:
        problems.append("plan was not cut from the tree's tour")
    tree_cost = 0
    for e in tree.edges:
        tree_cost += hamming_distance(rows.row(e.u), rows.row(e.v))
    for (u, v), cost in zip(tour.directed_edges, plan.traversal.costs):
        if cost != hamming_distance(rows.row(u), rows.row(v)):
            problems.append(f"tour edge {u}->{v} costs {cost}, not its Hamming distance")
            break
    ends = [lo for lo, _ in plan.traversal_blocks[1:]] + [len(tour)]
    if plan.traversal_blocks[0][0] != 0 or [hi for _, hi in plan.traversal_blocks] != ends:
        problems.append("tour blocks do not partition the tour")
    cols = plan.column_blocks
    if cols[0][0] != 1 or cols[-1][1] != rows.n or any(
        hi + 1 != lo for (_, hi), (lo, _) in zip(cols, cols[1:])
    ):
        problems.append("column blocks do not partition 1..n")
    if plan.total_cost != info["m_realized"] or plan.total_cost != 2 * tree_cost:
        problems.append(
            f"plan total {plan.total_cost}, m_realized {info['m_realized']}, "
            f"twice the tree cost {2 * tree_cost}"
        )
    if "cost_a" in info:
        chosen = info["cost_b"] if orientation == "ba" else info["cost_a"]
        if (orientation == "ba") != (info["cost_b"] < info["cost_a"]):
            problems.append(f"orientation {orientation} is not the cheaper side")
        if chosen != tree_cost:
            problems.append(f"measured cost {chosen} differs from the tree's {tree_cost}")
    return problems, tree_cost
