"""Parameter types shared by all three routes and the CLI.

TrafficConditions feeds the closed forms and the oracle; CommParams is the
one radio model of the closed forms, the oracle and the message engine.
All quantities are SI: speeds in m/s, densities in 1/m, lengths in m.
Densities are lane totals per driving direction.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class TrafficConditions:
    """Homogeneous traffic description for the two driving directions.

    Direction 1 carries the message source and the final receivers,
    direction 2 carries the relays.

    Attributes:
        v1: speed of direction-1 vehicles (m/s).
        v2: speed of direction-2 vehicles (m/s).
        rho1: lane-total vehicle density of direction 1 (1/m).
        rho2: lane-total vehicle density of direction 2 (1/m).
        alpha: fraction of vehicles equipped with a transceiver, in [0, 1].
    """

    v1: float
    v2: float
    rho1: float
    rho2: float
    alpha: float

    def __post_init__(self):
        if self.v1 <= 0.0 or self.v2 <= 0.0:
            raise ValueError("speeds must be positive")
        if self.rho1 < 0.0 or self.rho2 < 0.0:
            raise ValueError("densities must be non-negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("equipped fraction must lie in [0, 1]")

    @classmethod
    def symmetric(cls, v: float, rho: float, alpha: float) -> "TrafficConditions":
        """Both directions share one speed and one density."""
        return cls(v1=v, v2=v, rho1=rho, rho2=rho, alpha=alpha)

    @property
    def lambda1(self) -> float:
        """Linear density of equipped direction-1 vehicles (1/m)."""
        return self.alpha * self.rho1

    @property
    def lambda2(self) -> float:
        """Linear density of equipped direction-2 vehicles (1/m)."""
        return self.alpha * self.rho2

    @property
    def lambda_tilde1(self) -> float:
        """Equipped direction-1 density rescaled by the closing-speed ratio.

        Receivers approach an oncoming relay at v1 + v2 while the relay
        itself covers ground at v2, so per meter of relay travel the
        encounter rate is lambda1 * (v1 + v2) / v2.  Always >= lambda1.
        """
        return self.lambda1 * (self.v1 + self.v2) / self.v2


@dataclass(frozen=True)
class CommParams:
    """Radio geometry: broadcast range plus the usefulness distance.

    The range has two models, picked by the caller rather than stored here.
    The deterministic model reaches exactly r.  The stochastic model draws
    one exponential range per message with mean r, so the two are always
    compared at the same mean; the draw applies to both hops of the message.
    The closed forms pick the model by function name (delivery_cdf or
    delivery_cdf_distributed), the oracle by its `distributed` keyword.

    Attributes:
        r: broadcast range, or its mean under the stochastic model (m).
        r_min: minimum useful transport distance (m); a message counts as
            delivered only to vehicles at least r_min behind its source.
    """

    r: float
    r_min: float

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValueError("broadcast range must be positive")
        if self.r_min <= 0.0:
            raise ValueError("minimum useful distance must be positive")

    def tau_min(self, v2: float) -> float:
        """Earliest possible delivery time (s), deterministic range.

        The relay must cover r_min - 2r of ground before its broadcasts can
        reach vehicles in the destination region; negative if r_min < 2r.
        """
        return (self.r_min - 2.0 * self.r) / v2
