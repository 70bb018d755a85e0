"""Intelligent-driver car-following acceleration.

The model balances a free-road term, relaxing toward the desired speed,
against an interaction term built from a dynamic desired gap.  All inputs
are SI.  The functions are vectorized over vehicles.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IdmParams:
    """Driving style and geometry.

    Defaults are a calm passenger-car parameterization; the time headway is
    the single knob local infrastructure effects (road works, narrow
    stretches) modify, which is why the acceleration function accepts a
    per-vehicle override for it.
    """

    max_accel: float = 1.0
    comfort_decel: float = 1.5
    time_headway: float = 1.2
    min_gap: float = 2.0
    vehicle_length: float = 5.0
    exponent: float = 4.0

    def __post_init__(self):
        for name in ("max_accel", "comfort_decel", "time_headway", "min_gap", "vehicle_length"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


def idm_acceleration(v, desired_v, gap, lead_v, p: IdmParams, time_headway=None):
    """Acceleration for vehicles with given speeds, gaps, and leader speeds.

    The per-vehicle inputs are numpy arrays of one shape, or all floats
    for one vehicle (not lists): floats skip every array conversion, and
    their powers round as Python's own float `**` does.

    Args:
        v: own speeds (m/s).
        desired_v: desired speeds (m/s).
        gap: bumper-to-bumper distances to the leader (m); np.inf with
            lead_v == v for a free road, so the interaction term vanishes.
        lead_v: leader speeds (m/s).
        p: model parameters.
        time_headway: optional per-vehicle headway override (float or
            array); defaults to p.time_headway.

    Returns:
        accelerations (m/s^2), unbounded below (emergency braking is the
        model's own response to short gaps, not a clipped special case).
    """
    headway = p.time_headway if time_headway is None else time_headway
    approach = v - lead_v
    braking_scale = 2.0 * math.sqrt(p.max_accel * p.comfort_decel)
    dynamic = v * headway + v * approach / braking_scale
    # a float stays a float: np.maximum would make it a numpy scalar
    desired_gap = p.min_gap + (
        max(dynamic, 0.0) if isinstance(dynamic, float) else np.maximum(0.0, dynamic)
    )
    free_term = (v / desired_v) ** p.exponent
    return p.max_accel * (1.0 - free_term - (desired_gap / gap) ** 2)

