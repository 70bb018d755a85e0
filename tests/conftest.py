"""Shared fixtures.  The simulation runs used by several end-to-end checks
are expensive (minutes), so they are computed once per session, and the
tests that use them run after every other test, cheapest fixture first."""

import pytest

from transhop.comms import CommsConfig
from transhop.config import jam_scenario, load_config
from transhop.scenarios import CellConfig, replicate_cell, run_jam_scenario
from transhop.traffic.road import InflowProfile, RoadConfig

INFLOW = 1200.0 / 3600.0
LANDMARK_X = 10000.0

# Session simulation fixtures in the order their tests run, cheapest first
# (set-up about 12 s, 2.1 min and 4.0 min on 2 cores, by `pytest --durations=5`).
EXPENSIVE_FIXTURES = ("jam_result", "single_lane_sweep", "two_lane_cell")


def pytest_collection_modifyitems(items):
    """Run the tests of the expensive fixtures last, so a run reports every
    other result before the long simulations start."""

    def cost(item):
        used = getattr(item, "fixturenames", ())
        ranks = [i + 1 for i, name in enumerate(EXPENSIVE_FIXTURES) if name in used]
        return max(ranks, default=0)

    items.sort(key=cost)


def make_cell(lanes: int, alpha: float, messages: int, seed: int) -> CellConfig:
    road = RoadConfig(
        n_lanes=lanes,
        equipped_fraction=alpha,
        inflow1=InflowProfile(INFLOW),
        inflow2=InflowProfile(INFLOW),
    )
    return CellConfig(
        road=road,
        comm=CommsConfig(landmark_x=LANDMARK_X),
        messages=messages,
        seed=seed,
    )


@pytest.fixture(scope="session")
def two_lane_cell():
    """2 lanes/direction at 5% penetration, 10^4 messages pooled."""
    return replicate_cell(make_cell(2, 0.05, 10000, seed=404), 4)


@pytest.fixture(scope="session")
def single_lane_sweep():
    """Single-lane penetration sweep; pooled replicates per cell.

    All cells share one seed: equipment is drawn as one uniform per inserted
    vehicle and never feeds back into the dynamics, so the four penetrations
    see identical traffic realizations with nested equipped subsets.  That
    pins the comparison across alpha to the equipping level itself instead
    of realization-to-realization platoon luck.
    """
    results = {}
    for alpha in (0.02, 0.04, 0.06, 0.10):
        cell = make_cell(1, alpha, 1200, seed=7000)
        results[alpha] = replicate_cell(cell, 3)
    return results


@pytest.fixture(scope="session")
def jam_result():
    """Bottleneck scenario at the built-in defaults."""
    return run_jam_scenario(jam_scenario(load_config(None), seed=31))
