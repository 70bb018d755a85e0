"""Microscopic two-direction freeway simulation.

Car-following (:mod:`idm`), lane changing (:mod:`mobil`), and the road
engine with inflow, detectors, and bottlenecks (:mod:`road`).
"""
