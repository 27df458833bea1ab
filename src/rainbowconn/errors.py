"""Domain errors raised across the package.

All of these map to exit code 1 at the CLI; anything else escaping a command
is a bug.  Errors carry enough context to act on (offending vertex/edge,
attempt counts) rather than just a message.
"""

from __future__ import annotations

__all__ = [
    "RainbowError",
    "ParityError",
    "GenerationExhausted",
    "NotConnected",
    "PaletteExhausted",
    "GuardError",
    "NoStructure",
    "GuaranteeViolation",
]


class RainbowError(Exception):
    """Base class for domain errors."""


class ParityError(RainbowError):
    """Regular-graph request with n*r odd: no such graph exists."""


class GenerationExhausted(RainbowError):
    """Rejection sampler hit its attempt cap without an accepted outcome."""

    def __init__(self, attempts: int):
        super().__init__(f"no simple graph after {attempts} attempts; raise max_attempts")
        self.attempts = attempts


class NotConnected(RainbowError):
    """Operation requires a connected graph."""


class PaletteExhausted(RainbowError):
    """Greedy coloring found no free color for some edge."""

    def __init__(self, edge_id: int, blocked: int, palette: int):
        super().__init__(
            f"edge {edge_id}: all {palette} colors blocked ({blocked} distinct in neighborhood)"
        )
        self.edge_id = edge_id


class GuardError(RainbowError):
    """Exact verification refused: state space too large for the bitset walk."""


class NoStructure(RainbowError):
    """Witness scaffolding (disjoint pruned trees + connectors) unavailable here."""


class GuaranteeViolation(RainbowError):
    """A structural guarantee failed: bad input (non-rainbow tree) or a bug."""
