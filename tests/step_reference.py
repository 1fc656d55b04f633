"""References for the columns that steps 8 and 10 build: stage 1 of step 8
one edge owner at a time, and step 10's entries one tour block at a time,
each converting its own columns for the product.  The grouped builders in
``cliquemat.clusmat`` must give the same columns in the same order, except
that step 10's column-by-column layout interleaves the blocks of one
product per column, so there they must give the same entries with each
(pair node, column)'s run in the same order."""

import numpy as np

from cliquemat.clusmat import block_multiply


def stage1_columns(owned):
    """(edge, representative, coordinate) columns: for each owner in
    ``owned`` order, its witness run in every tour block of its own
    schedules that covers its edge."""
    runs = [(np.zeros(0, np.int64),) * 3]
    for e, (wit, schedules) in owned.items():
        pos = np.arange(wit.size)
        for s in schedules.values():
            if e in s.edge_offsets:
                at = (s.edge_offsets[e] + pos) // s.capacity
                rep = s.reps.start + np.minimum(at, len(s.reps) - 1)
                runs.append((np.full(wit.size, e), rep, wit))
    return tuple(np.concatenate(c) for c in zip(*runs))


def pair_entries(emitted, by_column=False):
    """(pair node, vertex, column, bit) columns: the pair nodes holding the
    same block rows multiply in one product over their stacked columns,
    blocks in the order of their first pair nodes.  ``by_column`` lays each
    block out column by column and adds each entry's vertex's index in its
    block."""
    groups = {}
    for v, (rows, cols) in emitted.items():
        _, owners, columns = groups.setdefault(id(rows), (rows, [], []))
        owners += [v] * len(cols)
        columns += cols.items()
    parts = []
    for rows, owners, columns in groups.values():
        vertex, j, bit = block_multiply(*rows, columns, by_column)
        count = len(rows[0])
        if by_column:
            position = np.tile(np.arange(count, dtype=np.int32), len(columns))
            parts.append((np.repeat(owners, count), vertex, j, bit, position))
        else:
            parts.append((np.tile(owners, count), vertex, j, bit))
    return tuple(np.concatenate(c) for c in zip(*parts))
