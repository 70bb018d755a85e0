"""Transversal-hop messaging between vehicles on a bi-directional freeway.

A message created by a vehicle travels against its own driving direction by
hopping onto an oncoming "relay" vehicle, riding along with it, and hopping
back once the relay is deep enough inside the destination region.  The
package provides three independent routes to the resulting transmission-time
statistics:

* :mod:`transhop.analytics` - closed-form distribution functions,
* :mod:`transhop.oracle`    - direct Monte Carlo sampling of the idealized
  kinematics (shares nothing with the closed forms except parameter types),
* :mod:`transhop.traffic` / :mod:`transhop.comms` - a microscopic two-lane-
  direction freeway simulation with an explicit message lifecycle.
"""
