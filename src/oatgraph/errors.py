"""Exception types shared across the package."""


class OatGraphError(Exception):
    """Base class for every error raised by this library."""


class GraphFormatError(OatGraphError):
    """A graph text file violates the wire format."""

    def __init__(self, message: str, lineno: int | None = None):
        super().__init__(message if lineno is None else f"line {lineno}: {message}")
        self.lineno = lineno


class MalformedTreeError(OatGraphError):
    """A build tree violates a structural invariant."""


class ColouringError(OatGraphError):
    """A colouring is malformed or improper where properness is required."""


class PartitionError(OatGraphError):
    """Two colourings that must share their colour classes do not."""


class PaletteError(OatGraphError):
    """A palette has the wrong size, duplicates, or is not contained where required."""


class PaletteTooSmallError(PaletteError):
    """A palette is too small for the operation's guarantee to hold."""


class SizeBudgetError(OatGraphError):
    """An exhaustive computation would exceed its configured size budget."""

    def __init__(self, message: str, bound: int | None = None):
        super().__init__(message)
        self.bound = bound


class StepConsistencyError(OatGraphError):
    """Under recognize(verify_a2=True): a task's A@A block, less its shift,
    or the comparable index drifted from a fresh recomputation."""
