"""Conversions between road-engineering units and the SI units used internally.

Everything inside the package is meters, seconds, 1/m.  Command line and
config files speak km/h, veh/km and km; the conversion happens once at that
boundary.
"""


def kmh_to_ms(v: float) -> float:
    return v / 3.6


def ms_to_kmh(v: float) -> float:
    return v * 3.6


def per_km_to_per_m(x: float) -> float:
    return x / 1000.0
