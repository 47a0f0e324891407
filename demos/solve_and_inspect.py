"""Solve the fair two-user scenario and poke at the resulting decision
table: which joint rates survive the cap, what the controller does in a
few telling states, and how the horizon changes the last decisions."""

from mdpstream.economics import derive_constants
from mdpstream.mdp import backward_induction, feasible_actions
from mdpstream.presets import fair_scenario


def show(table, config, t, rates, chans):
    chosen = [config.ladder.rates[i] for i in table.actions(t, rates, chans)]
    print(f"   t={t:>3}  rates {rates} channels {chans} -> "
          f"{chosen[0]:>7.2f} + {chosen[1]:>7.2f} Kbps"
          f"   (value {table.value(t, rates, chans):8.3f})")


def main():
    config = fair_scenario()
    actions = feasible_actions(config.num_users, config.ladder, config.profit)
    print(f"{len(actions)} of 25 joint rate pairs fit under the "
          f"{config.profit.total_rate_cap_kbps:g} Kbps cap:")
    for a in actions:
        r = [config.ladder.rates[i] for i in a]
        print(f"   {r[0]:>7.2f} + {r[1]:>7.2f} = {sum(r):>7.2f}")

    table = backward_induction(
        config.ladder, config.channel, config.profit,
        derive_constants(config.ladder, config.channel, config.profit), config.horizon,
    )
    print(f"\nsolved {table.num_states} states x {table.horizon} epochs")

    print("\nearly-horizon decisions (plenty of future to invest in):")
    # both users low, links improving: the controller steps rates up
    show(table, config, 0, (0, 0), (3, 3))
    show(table, config, 0, (0, 0), (1, 1))
    # asymmetric links: the better link carries the higher rate
    show(table, config, 0, (2, 2), (3, 1))
    show(table, config, 0, (2, 2), (1, 3))
    # good links, high rates: hold
    show(table, config, 0, (2, 2), (3, 3))

    print("\nthe same states one epoch before the end (no future left):")
    for rates, chans in [((0, 0), (3, 3)), ((2, 2), (3, 1)), ((2, 2), (3, 3))]:
        show(table, config, table.horizon - 1, rates, chans)

    print("\nepoch-0 values from the worst and best joint channel states:")
    print(f"   both links worst: {table.value(0, (0, 0), (0, 0)):.3f}")
    print(f"   both links best:  {table.value(0, (0, 0), (3, 3)):.3f}")


if __name__ == "__main__":
    main()
