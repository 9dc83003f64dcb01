"""Exception types shared across the package."""


class ItemRangeError(ValueError):
    """An item id falls outside the universe [0, d)."""


class ConfigMismatchError(ValueError):
    """Two objects built against incompatible configurations were combined."""


class CounterOverflowError(OverflowError):
    """A signed 64-bit sketch counter would overflow."""


class StreamParseError(ValueError):
    """A stream file line could not be parsed.

    Attributes:
        line_number: 1-based line number of the offending line.
    """

    def __init__(self, message: str, line_number: int) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class StreamDataError(ValueError):
    """A stream file parsed cleanly but violated a data invariant."""


class GenerationError(ValueError):
    """A synthetic corpus request cannot be satisfied."""
