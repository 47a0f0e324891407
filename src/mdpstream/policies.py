"""Decision policies for streaming sessions: solved-table lookup, the
client-side last-sample rule, and a marker for the hindsight planner
(``mdp.solve_ideal``) that optimizes against a fully known bandwidth path."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mdp import PolicyTable
from .model import QualityLadder


@dataclass(frozen=True)
class Proposed:
    """Operator policy: look the decision up in a solved table.

    With ``stationary`` set, every epoch reuses the epoch-0 row, turning the
    time-indexed table into a stationary rule for open-ended sessions.
    """

    table: PolicyTable
    stationary: bool = False


@dataclass(frozen=True)
class Myopic:
    """Client-side last-sample rule: each user independently requests the
    highest rate at or below the bandwidth its previous segment was
    delivered, ignoring the shared cap and everyone else.  The lowest rate
    serves when no rate fits and at session start, with nothing delivered."""

    ladder: QualityLadder
    _upper_rungs = cached_property(lambda self: np.array(self.ladder.rates[1:]))  # not a field

    def decide(self, estimates_kbps) -> np.ndarray:
        """Rate indices for (..., users) delivered bandwidths, where None
        (or NaN, taken as -inf) means nothing delivered yet."""
        estimates = np.fmax(np.asarray(estimates_kbps, dtype=float), -np.inf)
        return np.searchsorted(self._upper_rungs, estimates, side="right")


@dataclass(frozen=True)
class IdealOracle:
    """Marker arm: plan with hindsight against each session's sampled path."""
