"""Core domain types: bitrate ladders, Markov bandwidth models, and the
joint multi-user state and action types."""

from __future__ import annotations

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


@dataclass(frozen=True)
class QualityLadder:
    """Ascending menu of available video bitrates, in Kbps."""

    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "rates", rates)
        _require(len(rates) > 0, "quality ladder must not be empty")
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

    def highest_at_most(self, kbps: float) -> int | None:
        """Index of the fastest rate not exceeding ``kbps``, or None if even
        the lowest rate is too fast."""
        idx = bisect_right(self.rates, kbps) - 1
        return idx if idx >= 0 else None


@dataclass(frozen=True, eq=False)
class ChannelModel:
    """Finite-state Markov model of one user's last-hop link.

    ``transition[k, j]`` is the per-period probability of moving from
    bandwidth state k to state j.  ``state_bandwidth`` gives each state's
    representative bandwidth in Kbps; ``boundaries`` gives the ascending
    region edges used to map raw measurements onto states (one fewer entry
    than there are states).
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
        _require(all(b > 0 for b in bw), "state bandwidths must be positive")
        _require(all(a < b for a, b in zip(bw, bw[1:])),
                 "state bandwidths must be strictly increasing")

        edges = tuple(float(b) for b in self.boundaries)
        object.__setattr__(self, "boundaries", edges)
        _require(len(edges) == k - 1, "need exactly one boundary between adjacent states")
        _require(all(b > 0 for b in edges), "region boundaries must be positive")
        _require(all(a < b for a, b in zip(edges, edges[1:])),
                 "region boundaries must be strictly increasing")

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]

    @property
    def bw_min(self) -> float:
        return self.state_bandwidth[0]

    def bandwidth_of(self, state: int) -> float:
        return self.state_bandwidth[state]

    def stationary_distribution(self) -> np.ndarray:
        """Long-run state distribution, solved from the balance equations."""
        k = self.num_states
        a = np.vstack([self.transition.T - np.eye(k), np.ones((1, k))])
        b = np.zeros(k + 1)
        b[-1] = 1.0
        sol, *_ = np.linalg.lstsq(a, b, rcond=None)
        sol = np.clip(sol, 0.0, None)
        return sol / sol.sum()


@dataclass(frozen=True)
class SystemState:
    """Joint condition of all users at a switching point: the rate index of
    the segment just streamed and the current bandwidth state, per user."""

    rate_indices: tuple[int, ...]
    channel_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        rates = tuple(int(i) for i in self.rate_indices)
        chans = tuple(int(i) for i in self.channel_indices)
        object.__setattr__(self, "rate_indices", rates)
        object.__setattr__(self, "channel_indices", chans)
        _require(len(rates) >= 1, "state needs at least one user")
        _require(len(rates) == len(chans),
                 "state needs one rate index and one channel index per user")
        _require(all(i >= 0 for i in rates + chans), "state indices must be nonnegative")

    @property
    def num_users(self) -> int:
        return len(self.rate_indices)


@dataclass(frozen=True)
class Action:
    """Joint decision: the ladder index assigned to each user for the
    upcoming segment."""

    rate_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        rates = tuple(int(i) for i in self.rate_indices)
        object.__setattr__(self, "rate_indices", rates)
        _require(len(rates) >= 1, "action needs at least one user")
        _require(all(i >= 0 for i in rates), "action indices must be nonnegative")

    @property
    def num_users(self) -> int:
        return len(self.rate_indices)

    def rates_kbps(self, ladder: QualityLadder) -> tuple[float, ...]:
        return tuple(ladder.rates[i] for i in self.rate_indices)


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
