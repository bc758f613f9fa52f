"""Small shared helpers."""

from collections.abc import Iterator
from dataclasses import FrozenInstanceError


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_int(x: object) -> bool:
    """True for an int that is not a bool: JSON true and false are no numbers."""
    return isinstance(x, int) and not isinstance(x, bool)


class Frozen:
    """Refuses to assign or delete attributes, as a frozen dataclass does;
    a subclass sets its own with object.__setattr__ or through self.__dict__."""

    def __setattr__(self, name: str, value: object):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
