"""0/1 rows from the packed integers and strings the tests write their
instances in: bit j of an integer, or character j + 1 of a string, is entry
j of the row (coordinate j + 1).  Bit by bit, so independent of the
package's own conversions."""

import numpy as np


def row_of(value: int, n: int) -> np.ndarray:
    """The 0/1 uint8 row of the n-bit integer ``value``."""
    assert 0 <= value < 1 << n, f"{value} does not fit {n} bits"
    return np.array([(value >> j) & 1 for j in range(n)], dtype=np.uint8)


def rows_of(values, n: int) -> np.ndarray:
    """The (len(values), n) 0/1 array whose rows are :func:`row_of` each."""
    return np.array([row_of(v, n) for v in values], dtype=np.uint8).reshape(-1, n)


def row01(s: str) -> np.ndarray:
    """The row written as a string such as '1010'."""
    return np.array([int(c) for c in s], dtype=np.uint8)


def value_of(row) -> int:
    """Inverse of :func:`row_of`: entry j of a 0/1 row as bit j."""
    return sum(int(b) << j for j, b in enumerate(row))


def values_of(rows) -> list[int]:
    """Inverse of :func:`rows_of`: :func:`value_of` of each row of a 2-D
    0/1 array."""
    return [value_of(row) for row in rows]
