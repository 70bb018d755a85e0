"""Microscopic two-direction freeway simulation.

Car-following (:mod:`idm`), lane changing (:mod:`mobil`), and the road
engine with inflow, detectors, and bottlenecks (:mod:`road`).
"""

from .idm import IdmParams, idm_acceleration
from .mobil import MobilParams
from .road import (
    BottleneckSpec,
    CollisionError,
    CrossingProbe,
    DetectorReading,
    RoadConfig,
    TrafficSim,
    detector_reading,
)

__all__ = [
    "BottleneckSpec",
    "CollisionError",
    "CrossingProbe",
    "DetectorReading",
    "IdmParams",
    "MobilParams",
    "RoadConfig",
    "TrafficSim",
    "detector_reading",
    "idm_acceleration",
]
