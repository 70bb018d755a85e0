"""Experiment orchestration: validation cells and the congestion scenario.

A validation cell runs warmup traffic, then generates landmark messages
until a target count is reached, lets the in-flight ones finish, and
returns the per-stage time samples together with detector-measured traffic
conditions.  The comparison protocol evaluates the closed forms at those
measured conditions, never at the nominal inflow settings.

Cells are self-contained and picklable, so sweeps run in a process pool.
"""

import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import analytics, stats
from .comms import CommsConfig, CommsEngine, message_age_at_distance
from .params import CommParams, TrafficConditions
from .traffic.road import (
    DetectorReading,
    RoadConfig,
    TrafficSim,
    detector_reading,
)


def default_warmup(road: RoadConfig) -> float:
    """Twice the mean free-flow transit time, rounded up to whole steps."""
    transit = road.length / road.desired_speed_mean
    steps = math.ceil(2.0 * transit / road.dt)
    return steps * road.dt


@dataclass
class CellConfig:
    road: RoadConfig
    comm: CommsConfig
    messages: int
    seed: int
    warmup: float | None = None
    max_time: float = 999_000.0

    def __post_init__(self):
        if self.comm.landmark_x is None:
            raise ValueError("validation cells need a landmark position")
        if self.messages < 1:
            raise ValueError("need at least one message")


# the engine's message counters that a CellResult carries, summed when pooled
_COUNTS = ("created", "delivered", "dead_source_exit", "dead_relay_exit")


@dataclass
class CellResult:
    lanes: int
    alpha: float
    seed: int
    created: int
    delivered: int
    dead_source_exit: int
    dead_relay_exit: int
    sim_time: float
    truncated: bool
    samples: dict
    reading1: DetectorReading | None
    reading2: DetectorReading | None


def run_validation_cell(cell: CellConfig) -> CellResult:
    sim = TrafficSim(cell.road, cell.seed)
    engine = CommsEngine(sim, cell.comm)
    engine.generation_enabled = False
    warmup = default_warmup(cell.road) if cell.warmup is None else cell.warmup
    steps = round(warmup / cell.road.dt)
    for _ in range(steps):
        sim.step()
        engine.after_step(sim)
    measure_start = sim.t
    det2 = sim.add_probe(cell.comm.landmark_x, direction=2)
    engine.generation_enabled = True

    truncated = False
    while True:
        if engine.created >= cell.messages:
            engine.generation_enabled = False
            if engine.active_count == 0:
                break
        if sim.t - measure_start > cell.max_time:
            truncated = True
            break
        sim.step()
        engine.after_step(sim)

    return CellResult(
        lanes=cell.road.n_lanes,
        alpha=cell.road.equipped_fraction,
        seed=cell.seed,
        **{k: getattr(engine, k) for k in _COUNTS},
        sim_time=sim.t,
        truncated=truncated,
        samples={
            "tau1": np.asarray(engine.tau1_samples, dtype=float),
            "tau2": np.asarray(engine.tau2_samples, dtype=float),
            "tau3": np.asarray(engine.tau3_samples, dtype=float),
        },
        reading1=detector_reading(engine.landmark_probe, measure_start, sim.t),
        reading2=detector_reading(det2, measure_start, sim.t),
    )


def run_cells(cells, parallel: bool = True):
    """Run independent cells, in a process pool when parallel and useful."""
    cells = list(cells)
    if parallel and len(cells) > 1 and (os.cpu_count() or 1) > 1:
        workers = min(len(cells), os.cpu_count())
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_validation_cell, cells))
    return [run_validation_cell(c) for c in cells]


def _pool_readings(readings):
    readings = [r for r in readings if r is not None]
    if not readings:
        return None
    count = sum(r.count for r in readings)
    window = sum(r.t_end - r.t_start for r in readings)
    inv_speed_sum = sum(r.count / r.mean_speed for r in readings)
    flow = count / window
    mean_speed = count / inv_speed_sum
    return DetectorReading(
        x=readings[0].x,
        direction=readings[0].direction,
        t_start=readings[0].t_start,
        t_end=readings[0].t_start + window,
        count=count,
        flow=flow,
        mean_speed=mean_speed,
        density=flow / mean_speed,
    )


def merge_results(results) -> CellResult:
    """Pool replications of the same cell into one result."""
    results = list(results)
    if not results:
        raise ValueError("nothing to merge")
    first = results[0]
    return replace(
        first,
        **{k: sum(getattr(r, k) for r in results) for k in (*_COUNTS, "sim_time")},
        truncated=any(r.truncated for r in results),
        samples={k: np.concatenate([r.samples[k] for r in results]) for k in first.samples},
        reading1=_pool_readings([r.reading1 for r in results]),
        reading2=_pool_readings([r.reading2 for r in results]),
    )


def replicate_cell(cell: CellConfig, replications: int, parallel: bool = True):
    """Split one cell into seed-shifted replications and pool the outcome."""
    if replications < 1:
        raise ValueError("need at least one replication")
    per = math.ceil(cell.messages / replications)
    cells = [
        replace(cell, messages=per, seed=cell.seed + 1000 * k)
        for k in range(replications)
    ]
    return merge_results(run_cells(cells, parallel=parallel))


def measured_conditions(result: CellResult) -> TrafficConditions:
    """Detector-measured traffic conditions with the cell's penetration."""
    if result.reading1 is None or result.reading2 is None:
        raise ValueError("cell has no detector data")
    return TrafficConditions(
        v1=result.reading1.mean_speed,
        v2=result.reading2.mean_speed,
        rho1=result.reading1.density,
        rho2=result.reading2.density,
        alpha=result.alpha,
    )


def evaluate_cell(result: CellResult, comm: CommParams) -> dict:
    """Compare a cell's samples against the closed forms at measured (v, rho)."""
    tc = measured_conditions(result)
    report = stats.comparison_report(result.samples, analytics.stage_cdfs(tc, comm))
    return {
        **{k: getattr(result, k) for k in ("lanes", "alpha", "seed", "truncated")},
        **{k: getattr(result, k) for k in _COUNTS},
        "sim_time_s": result.sim_time,
        "measured": {
            "v1_kmh": tc.v1 * 3.6,
            "v2_kmh": tc.v2 * 3.6,
            "rho1_per_km": tc.rho1 * 1000.0,
            "rho2_per_km": tc.rho2 * 1000.0,
        },
        "quantities": report,
    }


# -- congestion scenario ---------------------------------------------------


@dataclass
class JamConfig:
    road: RoadConfig
    comm: CommsConfig
    duration: float
    seed: int
    peak_end: float
    field_dt: float = 30.0
    field_dx: float = 250.0
    trajectory_dt: float = 1.0
    age_distance: float = 1000.0

    def __post_init__(self):
        if not self.comm.jam_detection:
            raise ValueError("the congestion scenario needs jam detection")
        if not self.road.bottlenecks:
            raise ValueError("the congestion scenario needs a bottleneck")
        if self.duration <= 0.0 or self.peak_end <= 0.0:
            raise ValueError("duration and peak_end must be positive")


@dataclass
class JamResult:
    field_t: np.ndarray
    field_x: np.ndarray
    field_v: np.ndarray
    breakdown_time: float | None
    front_t: np.ndarray
    front_x: np.ndarray
    front_speed: float | None
    age_stats: object
    trajectory_rows: list
    engine: CommsEngine
    counters: dict


def _front_positions(field_t, field_x, field_v, v_cong, x_lo, x_hi):
    """Times with a congested cell in [x_lo, x_hi] (empty NaN cells never are), and
    the lowest such cell at each."""
    mask = (field_v < v_cong) & (field_x >= x_lo) & (field_x <= x_hi)
    hit = mask.any(axis=1)
    return field_t[hit], field_x[mask[hit].argmax(axis=1)]


def run_jam_scenario(cfg: JamConfig) -> JamResult:
    sim = TrafficSim(cfg.road, cfg.seed)
    engine = CommsEngine(sim, cfg.comm)
    bneck = cfg.road.bottlenecks[0]

    edges = np.arange(0.0, cfg.road.length + cfg.field_dx, cfg.field_dx)
    centers = 0.5 * (edges[:-1] + edges[1:])
    field_rows = []
    field_times = []
    traj_rows = []

    field_every = max(1, round(cfg.field_dt / cfg.road.dt))
    traj_every = max(1, round(cfg.trajectory_dt / cfg.road.dt))
    steps = round(cfg.duration / cfg.road.dt)
    for k in range(steps):
        sim.step()
        engine.after_step(sim)
        if k % traj_every == 0:
            d1 = sim.state(1)
            xs = d1.x
            for i in np.flatnonzero(d1.equipped):
                traj_rows.append(
                    (
                        sim.t,
                        int(d1.vid[i]),
                        1,
                        int(d1.lane[i]),
                        float(xs[i]),
                        float(d1.v[i]),
                        True,
                    )
                )
        if k % field_every == 0:
            d1 = sim.state(1)
            counts, _ = np.histogram(d1.x, bins=edges)
            sums, _ = np.histogram(d1.x, bins=edges, weights=d1.v)
            with np.errstate(invalid="ignore"):
                mean_v = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
            field_rows.append(mean_v)
            field_times.append(sim.t)

    field_t = np.asarray(field_times, dtype=float)
    field_v = np.vstack(field_rows)

    v_cong = cfg.comm.jam.v_congested
    near_lo = bneck.s_start - 1000.0
    near_hi = bneck.s_start + bneck.width + 200.0
    near_t, _ = _front_positions(field_t, centers, field_v, v_cong, near_lo, near_hi)
    breakdown_time = float(near_t[0]) if near_t.size else None

    front_t, front_x = _front_positions(
        field_t, centers, field_v, v_cong, 500.0, near_hi
    )
    front_speed = None
    if breakdown_time is not None:
        sel = (front_t >= breakdown_time + 180.0) & (front_t <= cfg.peak_end)
        if np.count_nonzero(sel) >= 5:
            slope = np.polyfit(front_t[sel], front_x[sel], 1)[0]
            front_speed = -float(slope)

    by_vid: dict[int, list] = {}
    for t, vid, _direction, _lane, x, _v, _equipped in traj_rows:
        by_vid.setdefault(vid, []).append((t, x))
    trajectories = {vid: np.asarray(pts, dtype=float).T for vid, pts in by_vid.items()}
    try:
        age_stats = message_age_at_distance(
            engine.messages, engine.deliveries, trajectories, cfg.age_distance
        )
    except ValueError:
        age_stats = None

    created = Counter(m.kind for m in engine.messages.values())
    # deliveries that reached receivers at least 1 km upstream of the front
    far = Counter(
        engine.messages[d.message_id].kind
        for d in engine.deliveries
        if d.position <= engine.messages[d.message_id].front_position - 1000.0
    )
    counters = {
        "created": engine.created,
        "delivered": engine.delivered,
        "deliveries_total": len(engine.deliveries),
        "upstream_created": created["UpstreamJamFront"],
        "downstream_created": created["DownstreamJamFront"],
        "upstream_delivered_far": far["UpstreamJamFront"],
        "downstream_delivered_far": far["DownstreamJamFront"],
    }
    return JamResult(
        field_t=field_t,
        field_x=centers,
        field_v=field_v,
        breakdown_time=breakdown_time,
        front_t=front_t,
        front_x=front_x,
        front_speed=front_speed,
        age_stats=age_stats,
        trajectory_rows=traj_rows,
        engine=engine,
        counters=counters,
    )
