"""Operator-side rate adaptation for competing HTTP video streams.

A mobile operator serving several adaptive-bitrate video sessions over one
bottleneck can pick every client's next segment rate itself.  This package
models that choice as a finite-horizon sequential decision problem: each
user's last-hop link follows a finite-state Markov bandwidth model, and
the operator balances playback income against buffering, rate-variation,
and congestion costs, weighted per user so premium subscribers can be
favored.

The pieces:

- ``model``: bitrate ladders, Markov channel models, bandwidth-to-state mapping
- ``economics``: the profit terms and their normalization constants
- ``mdp``: the canonical state index, feasibility filtering, backward
  induction, the policy table and a hindsight planner (an upper bound)
- ``policies``: the policy arms: solved-table lookup, the client
  throughput rule, and the hindsight marker
- ``sim``: seeded multi-user session simulator with proportional
  bottleneck sharing and fluid playback buffers
- ``metrics``: per-session summaries and cross-run aggregation
- ``presets``: the bundled fair and differentiated case studies
- ``configfile`` / ``cli``: YAML scenario files and the ``mdpstream``
  command line tool (``solve``, ``run``, ``validate``)

Typical library use::

    from mdpstream import derive_constants, presets, mdp, policies, sim, metrics

    config = presets.fair_scenario()
    consts = derive_constants(config.ladder, config.channel, config.profit)
    table = mdp.backward_induction(
        config.ladder, config.channel, config.profit, consts, config.horizon
    )
    paths = sim.channel_paths(config, [0])  # run 0 alone
    trace = sim.simulate(config, policies.Proposed(table), paths)
    print(metrics.summarize(trace, config, arm="proposed", run_index=0))

The ``demos`` directory in the repository walks through each capability.
"""

from .economics import (
    DerivedConstants,
    ProfitParams,
    derive_constants,
)
from .mdp import (
    InfeasibleModelError,
    PolicyTable,
    backward_induction,
    feasible_actions,
    solve_ideal,
)
from .metrics import SessionSummary, aggregate_runs, summarize
from .model import ChannelModel, ConfigurationError, QualityLadder, map_bandwidth_to_state
from .policies import IdealOracle, Myopic, Proposed
from .sim import ScenarioConfig, SegmentRecord, run_session

__version__ = "0.1.0"

__all__ = [
    "ChannelModel",
    "ConfigurationError",
    "DerivedConstants",
    "IdealOracle",
    "InfeasibleModelError",
    "Myopic",
    "PolicyTable",
    "ProfitParams",
    "Proposed",
    "QualityLadder",
    "ScenarioConfig",
    "SegmentRecord",
    "SessionSummary",
    "aggregate_runs",
    "backward_induction",
    "derive_constants",
    "feasible_actions",
    "map_bandwidth_to_state",
    "run_session",
    "solve_ideal",
    "summarize",
]
