"""Palettes and vertex colourings.

A palette is an ordered tuple of distinct colour labels; order matters
because several algorithms hand out "the first k colours" of a palette.
A colouring assigns one palette colour to every vertex 0..n-1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ._util import is_int
from .errors import ColouringError, PaletteError

if TYPE_CHECKING:
    from .graph import Graph


@dataclass(frozen=True)
class Palette:
    """An ordered set of colour labels."""

    colours: tuple[int, ...]
    _set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        colours = tuple(map(operator.index, self.colours))  # a float is refused, not truncated
        if not colours:
            raise PaletteError("palette must be non-empty")
        if len(set(colours)) != len(colours):
            raise PaletteError(f"palette has duplicate colours: {colours}")
        object.__setattr__(self, "colours", colours)
        object.__setattr__(self, "_set", frozenset(colours))

    @classmethod
    def default(cls, k: int) -> Palette:
        """The palette 1, 2, ..., k."""
        if k < 1:
            raise PaletteError(f"palette size must be positive, got {k}")
        return cls(tuple(range(1, k + 1)))

    def prefix(self, k: int) -> Palette:
        """The first k colours, in order."""
        if not 1 <= k <= len(self.colours):
            raise PaletteError(f"cannot take prefix of length {k} from {self.colours}")
        return Palette(self.colours[:k])

    def __len__(self) -> int:
        return len(self.colours)

    def __iter__(self):
        return iter(self.colours)

    def __contains__(self, c: object) -> bool:
        return c in self._set

    def __getitem__(self, i: int) -> int:
        return self.colours[i]


@dataclass(frozen=True)
class Colouring:
    """An assignment of one palette colour to each vertex 0..n-1."""

    assignment: tuple[int, ...]
    palette: Palette

    def __post_init__(self):
        assignment = tuple(map(operator.index, self.assignment))
        if not assignment:
            raise ColouringError("colouring must cover at least one vertex")
        bad = [v for v, c in enumerate(assignment) if c not in self.palette]
        if bad:
            v = bad[0]
            raise ColouringError(
                f"vertex {v} has colour {assignment[v]} outside palette {self.palette.colours}"
            )
        object.__setattr__(self, "assignment", assignment)

    @property
    def n(self) -> int:
        return len(self.assignment)

    def colour_classes(self) -> dict[int, tuple[int, ...]]:
        """Map each used colour to its vertices, ascending."""
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(self.assignment):
            classes.setdefault(c, []).append(v)
        return {c: tuple(vs) for c, vs in classes.items()}

    def is_proper(self, g: Graph) -> bool:
        """True when no edge of g joins two vertices of the same colour: no
        vertex's neighbourhood bitmask meets the bitmask of its colour's
        holders."""
        if g.n != self.n:
            raise ColouringError(f"colouring covers {self.n} vertices, graph has {g.n}")
        held: dict[int, int] = {}
        for v, c in enumerate(self.assignment):
            held[c] = held.get(c, 0) | 1 << v
        for mask, c in zip(g.neighbour_masks, self.assignment):
            if mask & held[c]:
                return False
        return True

    def __getitem__(self, v: int) -> int:
        return self.assignment[v]


def colouring_to_json(colouring: Colouring) -> dict[str, Any]:
    return {
        "palette": list(colouring.palette.colours),
        "assignment": list(colouring.assignment),
    }


def colouring_from_json(obj: Any) -> Colouring:
    if not isinstance(obj, dict):
        raise ColouringError(f"colouring JSON must be an object, got {type(obj).__name__}")
    extra = set(obj) - {"palette", "assignment"}
    if extra:
        raise ColouringError(f"unexpected colouring keys: {sorted(extra)}")
    try:
        palette = obj["palette"]
        assignment = obj["assignment"]
    except KeyError as e:
        raise ColouringError(f"colouring JSON missing key {e.args[0]!r}") from None
    if not (isinstance(palette, list) and all(map(is_int, palette))):
        raise ColouringError("palette must be a list of integers")
    if not (isinstance(assignment, list) and all(map(is_int, assignment))):
        raise ColouringError("assignment must be a list of integers")
    return Colouring(tuple(assignment), Palette(tuple(palette)))
