"""Fair-service case study: two equal-priority users, fifteen seeded
sessions per policy arm, identical bandwidth draws across arms.

The solved controller should land between the two baselines: clearly
above the client-side myopic rule, below the hindsight planner that sees
each second's bandwidth before choosing."""

from mdpstream.economics import derive_constants
from mdpstream.mdp import backward_induction
from mdpstream.metrics import aggregate_runs, summarize
from mdpstream.policies import IdealOracle, Myopic, Proposed
from mdpstream.presets import fair_scenario
from mdpstream.sim import channel_paths, simulate


def run_arm(config, name, policy, paths):
    trace = simulate(config, policy, paths)
    return aggregate_runs([summarize(trace, config, arm=name, run_index=run)
                           for run in range(config.num_runs)])


def main():
    config = fair_scenario()
    table = backward_induction(
        config.ladder, config.channel, config.profit,
        derive_constants(config.ladder, config.channel, config.profit), config.horizon,
    )
    arms = {
        "proposed": Proposed(table),
        "myopic": Myopic(config.ladder),
        "ideal": IdealOracle(),
    }

    print(f"scenario {config.name}: {config.num_runs} runs x "
          f"{config.horizon} segments, cap "
          f"{config.profit.total_rate_cap_kbps:g} Kbps\n")
    paths = channel_paths(config, range(config.num_runs))  # the same draws for every arm
    results = {name: run_arm(config, name, policy, paths) for name, policy in arms.items()}

    print(f"{'arm':<10} {'profit':>14} {'bitrate u1':>11} {'bitrate u2':>11} "
          f"{'stall ratio u1':>14} {'stall ratio u2':>14}")
    for name, agg in results.items():
        mean, std = agg["profit"]
        print(f"{name:<10} {mean:>8.2f} +-{std:4.2f} "
              f"{agg['u1_avg_bitrate_kbps'][0]:>11.1f} "
              f"{agg['u2_avg_bitrate_kbps'][0]:>11.1f} "
              f"{agg['u1_buffering_ratio'][0]:>14.4f} "
              f"{agg['u2_buffering_ratio'][0]:>14.4f}")

    proposed = results["proposed"]["profit"][0]
    myopic = results["myopic"]["profit"][0]
    ideal = results["ideal"]["profit"][0]
    print(f"\nproposed improves on myopic by {proposed - myopic:+.2f} "
          f"and reaches {proposed / ideal:.1%} of the hindsight planner.")
    print("the rest of the gap is the value of knowing next second's "
          "bandwidth before committing, which a causal policy cannot buy.")


if __name__ == "__main__":
    main()
