"""Exception hierarchy shared across the package.

Three broad families map onto the CLI exit codes: input parsing (3),
geometry (4), and output I/O (5). Everything derives from ReliefError so
callers can catch the whole package with one clause.
"""

from __future__ import annotations

__all__ = [
    "ReliefError",
    "InputParseError",
    "GeometryError",
    "OutputError",
    "ByteParseError",
    "LineParseError",
]


class ReliefError(Exception):
    """Base class for all relieforge errors."""


class InputParseError(ReliefError):
    """A source file (image, transfer spec, STL) could not be parsed."""


class GeometryError(ReliefError):
    """An operation received or produced geometrically invalid data."""


class OutputError(ReliefError):
    """Writing a result to its sink failed."""


class ByteParseError(InputParseError):
    """Parse failure at a known position in a byte stream.

    ``offset`` is the byte position the failure was detected at; it is
    also embedded in the message.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class LineParseError(InputParseError):
    """Parse failure at a known line of a text stream."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
