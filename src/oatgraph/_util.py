"""Small shared helpers."""

from collections.abc import Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_int(x: object) -> bool:
    """True for an int that is not a bool: JSON true and false are no numbers."""
    return isinstance(x, int) and not isinstance(x, bool)
