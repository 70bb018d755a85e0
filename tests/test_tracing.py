"""The benchmark's tracer against the engine surface it wraps and reads.

perfbench/tracing.py replaces module globals of transhop.traffic.road
(idm_acceleration, propose_lane_changes, revalidate_change), wraps
TrafficSim.step and CommsEngine.after_step, and reads each direction's .n
and counters.  This runs a short traced 2-lane simulation to check that
every one of those is still there and still called.
"""

import importlib.util
from pathlib import Path

from transhop.comms import CommsConfig, CommsEngine
from transhop.traffic.road import InflowProfile, RoadConfig, TrafficSim

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_counts_a_two_lane_run():
    cfg = RoadConfig(
        n_lanes=2,
        equipped_fraction=0.05,
        inflow1=InflowProfile(1200.0 / 3600.0),
        inflow2=InflowProfile(1200.0 / 3600.0),
    )
    tracer = load_tracer_class()()
    tracer.install()
    try:
        sim = TrafficSim(cfg, seed=404)
        engine = CommsEngine(sim, CommsConfig(landmark_x=10000.0))
        for _ in range(round(120.0 / cfg.dt)):
            sim.step()
            engine.after_step(sim)
    finally:
        tracer.uninstall()
    tracer.harvest()
    metrics = {k: m["value"] for k, m in tracer.metrics(1, 0.0).items()}

    assert metrics["traffic.steps"] == 480
    for name in (
        "traffic.vehicle_steps",
        "idm.road_calls",
        "idm.mobil_calls",
        "mobil.propose_calls",
        "mobil.revalidate_calls",
    ):
        assert metrics[name] > 0, name
    n = 0
    for d in sim.directions.values():
        assert d.inserted - d.exited == d.n
        n += d.n
    assert metrics["traffic.inserted"] - metrics["traffic.exited"] == n
