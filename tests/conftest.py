import pytest

from mdpstream import mdp, presets
from mdpstream.economics import derive_constants


@pytest.fixture(scope="session")
def fair_config():
    return presets.fair_scenario()


@pytest.fixture(scope="session")
def diff_config():
    return presets.differentiated_scenario()


@pytest.fixture(scope="session")
def fair_table(fair_config):
    return mdp.backward_induction(
        fair_config.ladder,
        fair_config.channel,
        fair_config.profit,
        derive_constants(fair_config.ladder, fair_config.channel, fair_config.profit),
        fair_config.horizon,
    )


@pytest.fixture(scope="session")
def diff_table(diff_config):
    return mdp.backward_induction(
        diff_config.ladder,
        diff_config.channel,
        diff_config.profit,
        derive_constants(diff_config.ladder, diff_config.channel, diff_config.profit),
        diff_config.horizon,
    )
