"""Exception types shared across the package.

Each class maps to one CLI exit code, a subclass to its base's (exit 4 for
``ExtractionError``), so scripted callers can branch without scraping messages.
"""
from __future__ import annotations


class NcgameError(Exception):
    """Base class for all package-specific errors."""


class ParseError(NcgameError):
    """Malformed input text (game graph, witness, suite, CNF, config)."""

    def __init__(self, reason: str, line: int | None = None):
        self.reason = reason
        self.line = line
        super().__init__(f"line {line}: {reason}" if line is not None else reason)


class ValidationError(NcgameError):
    """A structurally broken graph, suite, or witness was rejected."""


class CapacityError(NcgameError):
    """A configured size cap was exceeded; the result was not computed."""


class StrategyError(NcgameError):
    """A strategy broke its contract (chose a non-successor, or a
    certificate-guided strategy found no legal move)."""


class ExtractionError(CapacityError):
    """Certificate extraction found no containment set for a node among the
    candidates its `subset_cap` allows, with the instance attached.  The cap
    limits work: a consistent set may lie beyond it, so this is a capacity
    failure, not by itself a solver or extraction defect."""
