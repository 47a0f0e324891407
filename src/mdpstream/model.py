"""Core domain types: bitrate ladders, Markov bandwidth models and the
mapping of raw bandwidth onto channel states."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

_ROW_SUM_TOL = 1e-9
_ENTRY_TOL = 1e-12


class ConfigurationError(ValueError):
    """A model or scenario parameter violates its invariants."""


def left_sum(values) -> float:
    """Sum of floats added left to right from 0.0.  The built-in ``sum``
    compensates float rounding from Python 3.12 on, so its bits depend on
    the interpreter; every float sum that reaches an output or a decision
    goes through here instead."""
    total = 0.0
    for value in values:
        total += value
    return total


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigurationError(message)


def _require_finite(field: str, values) -> None:
    for value in np.ravel(values).tolist():
        _require(math.isfinite(value), f"{field} must be finite, got {value!r}")


@dataclass(frozen=True)
class QualityLadder:
    """Ascending menu of available video bitrates, in Kbps."""

    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "rates", rates)
        _require(len(rates) > 0, "quality ladder must not be empty")
        _require_finite("ladder rates", rates)
        _require(all(r > 0 for r in rates), "ladder rates must be positive")
        _require(
            all(a < b for a, b in zip(rates, rates[1:])),
            "ladder rates must be strictly increasing",
        )

    def __len__(self) -> int:
        return len(self.rates)

    @property
    def r_min(self) -> float:
        return self.rates[0]

    @property
    def r_max(self) -> float:
        return self.rates[-1]


@dataclass(frozen=True, eq=False)
class ChannelModel:
    """Finite-state Markov model of one user's last-hop link.

    ``transition[k, j]`` is the per-period probability of moving from
    bandwidth state k to state j.  ``state_bandwidth`` gives each state's
    representative bandwidth in Kbps; ``boundaries`` gives the ascending
    region edges used to map raw measurements onto states (one fewer entry
    than there are states); each representative lies in its own region.
    """

    transition: np.ndarray
    state_bandwidth: tuple[float, ...]
    boundaries: tuple[float, ...]

    def __post_init__(self) -> None:
        matrix = np.array(self.transition, dtype=float)
        _require(matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1],
                 "transition matrix must be square")
        k = matrix.shape[0]
        _require(k >= 1, "transition matrix must not be empty")
        _require_finite("transition entries", matrix)
        if np.any(matrix < -_ENTRY_TOL) or np.any(matrix > 1 + _ENTRY_TOL):
            raise ConfigurationError("transition entries must lie in [0, 1]")
        matrix = np.clip(matrix, 0.0, 1.0)
        for row in range(k):
            total = float(matrix[row].sum())
            if abs(total - 1.0) > _ROW_SUM_TOL:
                raise ConfigurationError(
                    f"transition row {row} sums to {total!r}, expected 1"
                )
        matrix.setflags(write=False)
        object.__setattr__(self, "transition", matrix)

        bw = tuple(float(b) for b in self.state_bandwidth)
        object.__setattr__(self, "state_bandwidth", bw)
        _require(len(bw) == k, "one representative bandwidth per state required")
        _require_finite("state bandwidths", bw)
        _require(all(b > 0 for b in bw), "state bandwidths must be positive")
        _require(all(a < b for a, b in zip(bw, bw[1:])),
                 "state bandwidths must be strictly increasing")

        edges = tuple(float(b) for b in self.boundaries)
        object.__setattr__(self, "boundaries", edges)
        _require(len(edges) == k - 1, "need exactly one boundary between adjacent states")
        _require_finite("region boundaries", edges)
        _require(all(b > 0 for b in edges), "region boundaries must be positive")
        _require(all(a < b for a, b in zip(edges, edges[1:])),
                 "region boundaries must be strictly increasing")
        for state, b in enumerate(bw):
            mapped = map_bandwidth_to_state(b, self)
            _require(mapped == state, f"state {state}'s representative bandwidth {b} Kbps maps to "
                     f"state {mapped}; adjust the boundaries or the representative")

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]

    @property
    def bw_min(self) -> float:
        return self.state_bandwidth[0]

    def stationary_distribution(self) -> np.ndarray:
        """Long-run state distribution from the balance equations, solved once."""
        if "_stationary" not in vars(self):
            a = np.vstack([self.transition.T - np.eye(self.num_states), np.ones(self.num_states)])
            sol = np.clip(np.linalg.lstsq(a, np.eye(len(a))[-1], rcond=None)[0], 0.0, None)
            object.__setattr__(self, "_stationary", sol / sol.sum())
            self._stationary.setflags(write=False)
        return self._stationary


def map_bandwidth_to_state(measured_kbps: float, channel: ChannelModel) -> int:
    """Map a raw bandwidth measurement onto its channel state index.

    Regions are half-open with the upper edge owned by the higher state, so
    a measurement equal to a boundary maps upward.
    """
    if measured_kbps <= 0:
        raise ValueError(f"measured bandwidth must be positive, got {measured_kbps!r}")
    return bisect_right(channel.boundaries, measured_kbps)


def state_space_size(ladder: QualityLadder, channel: ChannelModel, num_users: int) -> int:
    _require(num_users >= 1, "need at least one user")
    return (len(ladder) * channel.num_states) ** num_users
