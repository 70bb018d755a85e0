from dataclasses import fields, replace

import numpy as np
import pytest

from transhop import scenarios
from transhop.comms import CommsConfig, CommsEngine
from transhop.scenarios import CellConfig, CellResult, _front_positions
from transhop.traffic.road import InflowProfile, RoadConfig, TrafficSim, detector_reading


def front_positions_by_row(field_t, field_x, field_v, v_cong, x_lo, x_hi):
    """The row-by-row congestion scan, kept as the reference."""
    ts, xs = [], []
    for k in range(field_t.size):
        row = field_v[k]
        mask = np.isfinite(row) & (row < v_cong) & (field_x >= x_lo) & (field_x <= x_hi)
        idx = np.flatnonzero(mask)
        if idx.size:
            ts.append(field_t[k])
            xs.append(field_x[idx[0]])
    return np.asarray(ts, dtype=float), np.asarray(xs, dtype=float)


def test_front_scan_matches_row_scan():
    rng = np.random.default_rng(3)
    field_t = np.arange(40) * 30.0
    field_x = np.arange(80) * 250.0 + 125.0
    field_v = rng.uniform(0.0, 35.0, size=(40, 80))
    field_v[rng.random(field_v.shape) < 0.2] = np.nan  # empty cells
    field_v[5] = np.nan
    field_v[6] = 30.0
    for x_lo, x_hi in ((500.0, 10600.0), (9000.0, 10600.0), (0.0, 2e4), (3000.0, 2000.0)):
        got = _front_positions(field_t, field_x, field_v, 30.0 / 3.6, x_lo, x_hi)
        want = front_positions_by_row(field_t, field_x, field_v, 30.0 / 3.6, x_lo, x_hi)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)
    assert got[0].size == 0


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(scenarios, "_warm", None)


def short_cell(alpha=0.05, seed=11, lanes=1, inflow=1200.0, landmark=3000.0, warmup=150.0):
    q = InflowProfile(inflow / 3600.0)
    road = RoadConfig(length=5000.0, n_lanes=lanes, inflow1=q, inflow2=q,
                      equipped_fraction=alpha)
    return CellConfig(road=road, comm=CommsConfig(landmark_x=landmark), messages=4,
                      seed=seed, warmup=warmup)


def fresh_result(cell):
    saved = scenarios._warm
    scenarios._warm = None
    try:
        return scenarios.run_validation_cell(cell)
    finally:
        scenarios._warm = saved


def assert_same_result(got, want):
    for f in fields(CellResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "samples":
            assert a.keys() == b.keys()
            for k in a:
                assert a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes(), k
        else:
            assert a == b, f.name


@pytest.mark.parametrize("alphas", [(0.02, 0.10), (0.10, 0.02)])
def test_restored_cell_equals_a_fresh_cell(empty_cache, alphas):
    cells = [short_cell(alpha) for alpha in alphas]
    want = [fresh_result(cell) for cell in cells]
    assert sum(r.delivered for r in want) > 0
    # the first cell warms and stores; the second and a repeat of it restore
    for cell, w in zip(cells + cells[1:], want + want[1:]):
        assert_same_result(scenarios.run_validation_cell(cell), w)


def test_one_warmup_per_seed_and_one_entry(empty_cache, monkeypatch):
    built = []

    def counting_sim(cfg, seed):
        built.append(seed)
        return TrafficSim(cfg, seed)

    monkeypatch.setattr(scenarios, "TrafficSim", counting_sim)
    for alpha in (0.02, 0.04, 0.06, 0.10):
        scenarios._warmed(short_cell(alpha))
    assert len(built) == 1
    # the last cell shares the first four's key: it misses because the
    # cache keeps only the latest entry
    misses = [short_cell(seed=12), short_cell(lanes=2), short_cell(inflow=900.0),
              short_cell(landmark=2500.0), short_cell(warmup=100.0), short_cell()]
    for k, cell in enumerate(misses, start=2):
        sim, _engine = scenarios._warmed(cell)
        assert len(built) == k
        assert sim.cfg is cell.road


def engine_through_warmup(cell):
    """The cell with its engine attached at t = 0 and stepped through
    warmup with generation off, then run like run_validation_cell."""
    sim = TrafficSim(cell.road, cell.seed)
    engine = CommsEngine(sim, cell.comm)
    engine.generation_enabled = False
    for _ in range(round(cell.warmup / cell.road.dt)):
        sim.step()
        engine.after_step(sim)
    measure_start = sim.t
    det2 = sim.add_probe(cell.comm.landmark_x, direction=2)
    engine.generation_enabled = True
    while engine.created < cell.messages or engine.active_count:
        if engine.created >= cell.messages:
            engine.generation_enabled = False
        sim.step()
        engine.after_step(sim)
    return CellResult(
        lanes=cell.road.n_lanes,
        alpha=cell.road.equipped_fraction,
        seed=cell.seed,
        **{k: getattr(engine, k) for k in scenarios._COUNTS},
        sim_time=sim.t,
        truncated=False,
        samples={k: np.asarray(getattr(engine, f"{k}_samples"), dtype=float)
                 for k in ("tau1", "tau2", "tau3")},
        reading1=detector_reading(engine.landmark_probe, measure_start, sim.t),
        reading2=detector_reading(det2, measure_start, sim.t),
    )


@pytest.mark.parametrize("lanes", [1, 2])
def test_engine_free_warmup_equals_an_engine_through_warmup(empty_cache, lanes):
    cells = [short_cell(alpha, lanes=lanes) for alpha in (0.05, 0.10)]
    want = [engine_through_warmup(cell) for cell in cells]
    assert all(r.delivered > 0 and r.reading1 and r.reading2 for r in want)
    assert_same_result(scenarios.run_validation_cell(cells[0]), want[0])
    warm = scenarios._warm
    assert_same_result(scenarios.run_validation_cell(cells[1]), want[1])
    assert scenarios._warm is warm  # the second cell restored the first's warm state


def test_no_engine_step_during_warmup(empty_cache, monkeypatch):
    stepped = []
    after_step = CommsEngine.after_step

    def recording(engine, sim):
        stepped.append(sim.t)
        after_step(engine, sim)

    monkeypatch.setattr(CommsEngine, "after_step", recording)
    cell = short_cell()
    result = scenarios.run_validation_cell(cell)
    dt = cell.road.dt
    assert stepped[0] == cell.warmup + dt
    assert len(stepped) == round((result.sim_time - cell.warmup) / dt)


def test_jam_detection_refused():
    cell = short_cell()
    with pytest.raises(ValueError, match="jam detection"):
        replace(cell, comm=replace(cell.comm, jam_detection=True))
