"""Reference for all-to-all rounds: the explicit message columns that
:meth:`CliqueEngine.check_exchange` tallies in closed form instead of
building."""

import numpy as np


def to_all_others(n: int, senders) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) columns of one message from each sender to every other
    node, senders in the given order, receivers ascending."""
    senders = np.asarray(senders, dtype=np.int64)
    src = np.repeat(senders, n)
    dst = np.tile(np.arange(1, n + 1), senders.size)
    keep = src != dst
    return src[keep], dst[keep]


def expand(n: int, rnd, src, dst, nbits, all_to_all=()):
    """The columns (rnd, src, dst, nbits) of an exchange with its
    all-to-all rounds spelled out as :func:`to_all_others` messages after
    its column messages."""
    cols = [np.broadcast_arrays(*map(np.atleast_1d, (rnd, src, dst, nbits)))]
    for r, senders, widths in all_to_all:
        senders, widths = np.broadcast_arrays(np.asarray(senders, dtype=np.int64).ravel(), widths)
        s, d = to_all_others(n, senders)
        cols.append((np.full(s.size, r), s, d, np.repeat(widths, n - 1)))
    return tuple(np.concatenate(col).astype(np.int64) for col in zip(*cols))
