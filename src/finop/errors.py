"""Exception types shared across the package, and the one size cap."""

import os

DEFAULT_MAX_K = 2000


class FinopError(Exception):
    """Base class for all package errors."""


class GridMismatchError(FinopError):
    """Two objects live on incompatible grids."""


class RefinementHintError(FinopError):
    """An operation needs a finer grid; carries the grid size that would work."""

    def __init__(self, message, required_p):
        super().__init__(f"{message} (refine to p={required_p})")
        self.required_p = required_p


class SizeLimitError(FinopError):
    """A requested object exceeds the configured size cap."""

    def __init__(self, message, requested, limit):
        super().__init__(f"{message}: requested {requested}, limit {limit}")
        self.requested = requested
        self.limit = limit


class ParseError(FinopError):
    """Syntax or lexical error in operator-expression source."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


def check_size(K: int, what: str):
    """Refuse to build an object of size K over the FINOP_MAX_K cap."""
    raw = os.environ.get("FINOP_MAX_K", str(DEFAULT_MAX_K))
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(f"FINOP_MAX_K must be an integer, got {raw!r}") from None
    if K > limit:
        raise SizeLimitError(f"{what} too large (set FINOP_MAX_K to raise the cap)",
                             requested=K, limit=limit)
