"""Reference distance estimator for the tests: one pair of sketch sets at a
time, written with Python ints.  ``hmst.build_estimated_graph`` must give
the same estimate for every pair of rows of a sketch array."""

from typing import Sequence

from cliquemat.errors import MalformedSketchError


def estimate_distance(sketches_i: Sequence[int], sketches_j: Sequence[int], family) -> int:
    """Power-of-two distance estimate of two sketch sets, one packed k-bit
    integer per scale (row s of ``hmst.sketch_point``, entry j at bit j):
    the smallest
    scale whose sketch distance passes that scale's cutoff, or the top
    scale as fallback."""
    if len(sketches_i) != len(family.scales) or len(sketches_j) != len(family.scales):
        raise MalformedSketchError(
            f"sketch sets must cover all {len(family.scales)} scales"
        )
    for idx, r in enumerate(family.scales):
        if (sketches_i[idx] ^ sketches_j[idx]).bit_count() <= family.thresholds[r]:
            return r
    return family.scales[-1]
