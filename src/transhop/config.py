"""Declarative run configuration: YAML file -> engine objects.

One file drives every subcommand.  Keys carry their unit in the suffix
(_kmh, _m, _s, _per_km, _veh_h) and are converted to SI exactly once,
here; everything downstream speaks m/s and 1/m.  A user file only needs
the keys it wants to override, the rest come from DEFAULTS.  Unknown keys
are rejected rather than ignored so typos do not silently run a default.
"""

import copy
from dataclasses import replace

import numpy as np
import yaml

from .comms import CommsConfig, JamThresholds
from .params import CommParams, TrafficConditions
from .scenarios import CellConfig, JamConfig
from .traffic.idm import IdmParams
from .traffic.mobil import MobilParams
from .traffic.road import BottleneckSpec, InflowProfile, RoadConfig
from .units import kmh_to_ms, per_km_to_per_m


class ConfigError(ValueError):
    """Malformed or contradictory run configuration."""


DEFAULTS = {
    "seed": 20260816,
    "output_dir": "out",
    "comms": {
        "broadcast_range_m": 200.0,
        "min_distance_m": 1000.0,
        "broadcast_interval_s": 0.0,  # 0 means continuous broadcasting
        "landmark_x_m": 10000.0,
    },
    "traffic": {
        "length_m": 20000.0,
        "lanes_per_direction": 2,
        "time_step_s": 0.25,
        "inflow_per_lane_veh_h": 1200.0,
        "desired_speed_mean_kmh": 120.0,
        "desired_speed_std_kmh": 18.0,
        "desired_speed_floor_kmh": 50.0,
        "idm": {
            "max_accel_ms2": 1.0,
            "comfort_decel_ms2": 1.5,
            "time_headway_s": 1.2,
            "min_gap_m": 2.0,
            "vehicle_length_m": 5.0,
        },
        "mobil": {
            "politeness": 0.2,
            "threshold_ms2": 0.2,
            "safe_braking_ms2": 4.0,
            "interval_s": 1.0,
            "keep_right_bias_ms2": 0.0,
        },
    },
    "analytic": {
        "speed_kmh": 90.0,
        "density_per_km": 30.0,
        "penetrations": [0.01, 0.02, 0.03, 0.05, 0.10, 0.20, 0.50],
        "quantiles": [0.5, 0.9, 0.95],
        "tau_max_s": 600.0,
        "tau_step_s": 1.0,
    },
    "oracle": {
        "samples": 100000,
        "speed_kmh": 90.0,
        "density_per_km": 30.0,
        "penetrations": [0.01, 0.05, 0.10],
    },
    "validate": {
        # each cell is one (lanes, penetration) point; messages are split
        # over the replicates and the pooled samples make one report
        "cells": [
            {"lanes": 2, "penetration": 0.05},
        ],
        "messages": 10000,
        "replicates": 4,
        "max_time_s": 999000.0,
        "parallel": True,
    },
    "jam": {
        "penetration": 0.01,
        "duration_s": 5400.0,
        "peak_end_s": 2400.0,
        "demand_profile_veh_h": [
            [0.0, 1200.0],
            [600.0, 1900.0],
            [2400.0, 1900.0],
            [3000.0, 900.0],
            [5400.0, 900.0],
        ],
        "bottleneck": {
            "position_m": 10000.0,
            "width_m": 400.0,
            "extra_headway_s": 1.4,
            "direction": 1,
        },
        "thresholds": {
            "congested_below_kmh": 30.0,
            "free_above_kmh": 60.0,
            "smoothing_s": 10.0,
        },
        "field_dt_s": 30.0,
        "field_dx_m": 250.0,
        "trajectory_dt_s": 1.0,
        "age_distance_m": 1000.0,
    },
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_whole(value) -> bool:
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def _check_kind(default, value, dotted):
    """A number or list default takes only its own kind, an int default only a
    whole number; list items follow the default's first item."""
    if _is_number(default) and not _is_number(value):
        raise ConfigError(f"'{dotted}' must be a number, not {value!r}")
    if type(default) is int and not _is_whole(value):
        raise ConfigError(f"'{dotted}' must be a whole number, not {value!r}")
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"'{dotted}' must be a list, not {value!r}")
        for k, item in enumerate(value):
            _check_kind(default[0], item, f"{dotted}[{k}]")


def _merge(defaults, override, path):
    if not isinstance(override, dict):
        raise ConfigError(f"section '{path}' must be a mapping")
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        dotted = f"{path}.{key}".lstrip(".")
        if key not in defaults:
            raise ConfigError(f"unknown configuration key '{dotted}'")
        if isinstance(defaults[key], dict):
            value = _merge(defaults[key], value, f"{path}.{key}")
        else:
            _check_kind(defaults[key], value, dotted)
        merged[key] = value
    return merged


def load_config(path: str | None) -> dict:
    """Defaults, deep-merged with the YAML file at `path` when given."""
    if path is None:
        return copy.deepcopy(DEFAULTS)
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("top level of the config file must be a mapping")
    return _merge(DEFAULTS, data, "")


def _positive(value, key):
    if value <= 0.0:
        raise ConfigError(f"'{key}' must be positive")
    return float(value)


def _build(section, cls, *args, **kw):
    """cls(*args, **kw), with the object's own refusal as a ConfigError naming the section."""
    try:
        return cls(*args, **kw)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def comm_params(cfg: dict) -> CommParams:
    c = cfg["comms"]
    r = _positive(c["broadcast_range_m"], "comms.broadcast_range_m")
    r_min = _positive(c["min_distance_m"], "comms.min_distance_m")
    return _build("comms", CommParams, r=r, r_min=r_min)


def comms_config(cfg: dict, **overrides) -> CommsConfig:
    c = cfg["comms"]
    jam = cfg["jam"]["thresholds"]
    kwargs = dict(
        radio=comm_params(cfg),
        landmark_x=float(c["landmark_x_m"]),
        broadcast_interval=float(c["broadcast_interval_s"]),
        jam=_build(
            "jam.thresholds",
            JamThresholds,
            v_congested=kmh_to_ms(float(jam["congested_below_kmh"])),
            v_free=kmh_to_ms(float(jam["free_above_kmh"])),
            smoothing_tau=float(jam["smoothing_s"]),
        ),
    )
    kwargs.update(overrides)
    return _build("comms", CommsConfig, **kwargs)


def road_config(cfg: dict, **overrides) -> RoadConfig:
    t = cfg["traffic"]
    idm, mobil = t["idm"], t["mobil"]
    rate = _positive(t["inflow_per_lane_veh_h"], "traffic.inflow_per_lane_veh_h") / 3600.0
    kwargs = dict(
        length=_positive(t["length_m"], "traffic.length_m"),
        n_lanes=int(t["lanes_per_direction"]),
        dt=_positive(t["time_step_s"], "traffic.time_step_s"),
        idm=_build(
            "traffic.idm",
            IdmParams,
            max_accel=float(idm["max_accel_ms2"]),
            comfort_decel=float(idm["comfort_decel_ms2"]),
            time_headway=float(idm["time_headway_s"]),
            min_gap=float(idm["min_gap_m"]),
            vehicle_length=float(idm["vehicle_length_m"]),
        ),
        mobil=_build(
            "traffic.mobil",
            MobilParams,
            politeness=float(mobil["politeness"]),
            threshold=float(mobil["threshold_ms2"]),
            safe_braking=float(mobil["safe_braking_ms2"]),
            interval=float(mobil["interval_s"]),
            keep_right_bias=float(mobil["keep_right_bias_ms2"]),
        ),
        desired_speed_mean=kmh_to_ms(float(t["desired_speed_mean_kmh"])),
        desired_speed_std=kmh_to_ms(float(t["desired_speed_std_kmh"])),
        desired_speed_floor=kmh_to_ms(float(t["desired_speed_floor_kmh"])),
        inflow1=InflowProfile(points=((0.0, rate),)),
        inflow2=InflowProfile(points=((0.0, rate),)),
    )
    kwargs.update(overrides)
    return _build("traffic", RoadConfig, **kwargs)


def _conditions(cfg: dict, section: str, alpha: float) -> TrafficConditions:
    s = cfg[section]
    v = kmh_to_ms(_positive(s["speed_kmh"], f"{section}.speed_kmh"))
    rho = per_km_to_per_m(_positive(s["density_per_km"], f"{section}.density_per_km"))
    return _build(section, TrafficConditions.symmetric, v=v, rho=rho, alpha=alpha)


def analytic_conditions(cfg: dict, alpha: float) -> TrafficConditions:
    return _conditions(cfg, "analytic", alpha)


def oracle_conditions(cfg: dict, alpha: float) -> TrafficConditions:
    return _conditions(cfg, "oracle", alpha)


def analytic_sweep(cfg: dict) -> tuple[list[float], list[float], np.ndarray]:
    """The `analytic` penetrations, quantile levels and tau grid (s)."""
    a = cfg["analytic"]
    alphas = [float(x) for x in a["penetrations"]]
    if not alphas or any(not 0.0 < x <= 1.0 for x in alphas):
        raise ConfigError("analytic.penetrations must be a list of values in (0, 1]")
    quantiles = [float(q) for q in a["quantiles"]]
    if any(not 0.0 < q < 1.0 for q in quantiles):
        raise ConfigError("analytic.quantiles must lie strictly inside (0, 1)")
    step = float(a["tau_step_s"])
    tau_max = float(a["tau_max_s"])
    if step <= 0.0 or tau_max <= step:
        raise ConfigError("analytic.tau grid needs tau_step_s > 0 and tau_max_s > step")
    return alphas, quantiles, np.arange(0.0, tau_max + 0.5 * step, step)


def oracle_sweep(cfg: dict) -> tuple[int, list[float]]:
    """The `oracle` draw count per penetration, and the penetrations."""
    o = cfg["oracle"]
    n = int(o["samples"])
    if n < 1:
        raise ConfigError("oracle.samples must be at least 1")
    alphas = [float(x) for x in o["penetrations"]]
    if not alphas or any(not 0.0 <= x <= 1.0 for x in alphas):
        raise ConfigError("oracle.penetrations must be a list of values in [0, 1]")
    _unique_keys((f"{x:g}" for x in alphas), "oracle.penetrations")
    return n, alphas


def _unique_keys(keys, where: str) -> None:
    """Refuse sweep points whose report keys collide: the report would hold
    only the last of them."""
    seen = set()
    for key in keys:
        if key in seen:
            raise ConfigError(f"{where} repeats the sweep point {key}")
        seen.add(key)


def cell_label(lanes: int, alpha: float) -> str:
    """A validation cell's key in validate_report.json."""
    return f"lanes={lanes},alpha={alpha:g}"


def validation_cells(cfg: dict, seed: int) -> list[CellConfig]:
    """One CellConfig per sweep point, seeds spaced so replicates never collide.

    Cell idx runs replicate k at seed + 100000 * idx + 1000 * k, so more than
    100 replicates would reuse the next cell's seeds.
    """
    v = cfg["validate"]
    specs = v["cells"]
    if not specs:
        raise ConfigError("validate.cells must be a non-empty list")
    if v["replicates"] < 1:
        raise ConfigError("validate.replicates must be at least 1")
    if len(specs) > 1 and v["replicates"] > 100:
        raise ConfigError(
            "validate.replicates above 100 with more than one cell would reuse "
            "the next cell's seeds"
        )
    comm = comms_config(cfg)
    cells = []
    for idx, spec in enumerate(specs):
        if not isinstance(spec, dict) or set(spec) - {"lanes", "penetration"}:
            raise ConfigError(
                "validate.cells entries must be mappings with keys lanes, penetration"
            )
        lanes = spec.get("lanes", 2)
        if not _is_whole(lanes) or lanes < 1:
            raise ConfigError(f"'validate.cells[{idx}].lanes' must be a whole number, at least 1")
        alpha = spec.get("penetration", 0.05)
        if not _is_number(alpha) or not 0.0 < alpha <= 1.0:
            raise ConfigError(f"'validate.cells[{idx}].penetration' must lie in (0, 1]")
        cells.append(
            _build(
                "validate",
                CellConfig,
                road=road_config(cfg, n_lanes=int(lanes), equipped_fraction=float(alpha)),
                comm=comm,
                messages=int(v["messages"]),
                seed=seed + 100000 * idx,
                max_time=_positive(v["max_time_s"], "validate.max_time_s"),
            )
        )
    _unique_keys(
        (cell_label(c.road.n_lanes, c.road.equipped_fraction) for c in cells), "validate.cells"
    )
    return cells


def jam_scenario(cfg: dict, seed: int) -> JamConfig:
    j = cfg["jam"]
    alpha = float(j["penetration"])
    # zero is allowed: an unequipped run still produces the speed field
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError("jam.penetration must lie in [0, 1]")
    profile = j["demand_profile_veh_h"]
    if not profile or not all(
        isinstance(p, (list, tuple)) and len(p) == 2 for p in profile
    ):
        raise ConfigError("jam.demand_profile_veh_h must be [time_s, veh_h] pairs")
    points = tuple((float(t), float(q) / 3600.0) for t, q in profile)
    b = j["bottleneck"]
    # front detection, the speed field and its window read direction 1 only
    if int(b["direction"]) != 1:
        raise ConfigError("jam.bottleneck.direction must be 1")
    bneck = _build(
        "jam.bottleneck",
        BottleneckSpec,
        direction=1,
        s_start=_positive(b["position_m"], "jam.bottleneck.position_m"),
        width=float(b["width_m"]),
        extra_headway=float(b["extra_headway_s"]),
    )
    road = road_config(
        cfg,
        equipped_fraction=alpha,
        inflow1=_build("jam.demand_profile_veh_h", InflowProfile, points=points),
    )
    # the road refuses a bottleneck past its end; the refusal names the bottleneck
    road = _build("jam.bottleneck", replace, road, bottlenecks=(bneck,))
    # jam messages come from the fronts only, none from the landmark
    comm = comms_config(cfg, jam_detection=True, landmark_x=None)
    return _build(
        "jam",
        JamConfig,
        road=road,
        comm=comm,
        duration=float(j["duration_s"]),
        seed=seed,
        peak_end=float(j["peak_end_s"]),
        field_dt=_positive(j["field_dt_s"], "jam.field_dt_s"),
        field_dx=_positive(j["field_dx_m"], "jam.field_dx_m"),
        trajectory_dt=_positive(j["trajectory_dt_s"], "jam.trajectory_dt_s"),
        age_distance=_positive(j["age_distance_m"], "jam.age_distance_m"),
    )
