"""Reference wire codec for the tests: a vector of fixed-width fields as one
integer cut into (payload, nbits) chunks, written with Python big ints and
independent of :mod:`cliquemat.bits`.  ``pack_chunks`` on the 0/1 row of
the fields must put the same chunks on the wire."""

from cliquemat.errors import DimensionError


def pack_fields(fields, width: int, w: int) -> list[tuple[int, int]]:
    """Field i at bit i * ``width`` of one integer, cut into chunks of at
    most ``w`` bits, low bits first."""
    value = 0
    for i, f in enumerate(fields):
        if not 0 <= f < 1 << width:
            raise ValueError(f"field {i} does not fit in {width} bits")
        value |= f << (i * width)
    chunks = []
    remaining = len(fields) * width
    while remaining > 0:
        take = min(w, remaining)
        chunks.append((value & ((1 << take) - 1), take))
        value >>= take
        remaining -= take
    return chunks


def unpack_fields(chunks, width: int, count: int) -> tuple[int, ...]:
    """Inverse of :func:`pack_fields`: the ``count`` fields of ``width``
    bits.  Raises DimensionError unless the chunks carry exactly
    ``count * width`` bits."""
    value = 0
    shift = 0
    for payload, nbits in chunks:
        value |= payload << shift
        shift += nbits
    if shift != count * width:
        raise DimensionError(f"chunks carry {shift} bits, expected {count} fields of {width}")
    mask = (1 << width) - 1
    return tuple((value >> (i * width)) & mask for i in range(count))
