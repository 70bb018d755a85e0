"""Message layer riding on the traffic engine.

Messages are created by equipped direction-1 vehicles (crossing a landmark,
or detecting a jam front), hop to an opposite-direction relay within range,
travel upstream inside the relay, and are delivered to the first equipped
direction-1 vehicle found in the destination region: positions at least
r_min behind the message's own source position.

The engine runs synchronously after each traffic step.  Landmark crossings
are gathered during the step by a probe, and a state hook creates a front
message where it detects the front; hop geometry is evaluated on the
settled end-of-step state.  Hops are range-inclusive:
a hop happens in a step iff the longitudinal separation is <= r.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .params import CommParams
from .traffic.road import CrossingProbe, TrafficSim

KIND_LANDMARK = "LandmarkTest"
KIND_UPSTREAM = "UpstreamJamFront"
KIND_DOWNSTREAM = "DownstreamJamFront"


@dataclass(frozen=True)
class Message:
    id: int
    kind: str
    source_vid: int
    source_position: float
    creation_time: float
    front_position: float = math.nan
    front_time: float = math.nan


@dataclass(frozen=True)
class Delivery:
    """One reception event; the first per message completes its Transmission."""

    message_id: int
    receiver_vid: int
    time: float
    position: float


@dataclass
class JamThresholds:
    """Speed thresholds and smoothing for on-board front detection."""

    v_congested: float = 30.0 / 3.6
    v_free: float = 60.0 / 3.6
    smoothing_tau: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.v_congested < self.v_free:
            raise ValueError("need 0 < v_congested < v_free")
        if self.smoothing_tau <= 0.0:
            raise ValueError("smoothing_tau must be positive")


@dataclass
class CommsConfig:
    """Radio geometry and message sources.

    The engine reaches the deterministic range radio.r on every hop.
    jam_detection adds the front messages and hands every message to each
    receiver in reach, which the message-age statistic needs.
    """

    radio: CommParams = CommParams(r=200.0, r_min=1000.0)
    landmark_x: float | None = None
    broadcast_interval: float = 0.0
    jam_detection: bool = False
    jam: JamThresholds = field(default_factory=JamThresholds)

    def __post_init__(self):
        if self.broadcast_interval < 0.0:
            raise ValueError("broadcast_interval must be non-negative")


def update_jam_state(state, dt: float, thresholds: JamThresholds):
    """Advance per-vehicle smoothed speeds and flip congestion flags.

    Exponential smoothing uses the exact discrete step for a first-order
    filter, so the smoothed speed is independent of dt for a given history.
    Returns (upstream_idx, downstream_idx): indices of vehicles whose flag
    changed this step, regardless of equipment; the caller filters.
    """
    if state.n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    w = -math.expm1(-dt / thresholds.smoothing_tau)
    state.ema_speed += w * (state.v - state.ema_speed)
    now_congested = (~state.congested) & (state.ema_speed < thresholds.v_congested)
    now_free = state.congested & (state.ema_speed > thresholds.v_free)
    state.congested[now_congested] = True
    state.congested[now_free] = False
    return np.flatnonzero(now_congested), np.flatnonzero(now_free)


def _slot_in(start: float, t_prev: float, t_now: float, interval: float) -> bool:
    # Is there a broadcast slot start + k*interval inside (t_prev, t_now]?
    if interval <= 0.0:
        return True
    k = math.floor((t_now - start) / interval)
    return k >= 0 and start + k * interval > t_prev


class Transmission:
    """One message's trip from its source through one relay to a receiver.

    relay_vid stays None until the first hop; tau2/tau3 stay NaN until the
    relay reaches the destination region and delivers.  The first delivery
    sets receiver_vid and delivery_position.
    """

    __slots__ = ("msg", "relay_vid", "pickup_time", "tau1", "tau2", "tau3",
                 "receiver_vid", "delivery_position", "delivered_to")

    def __init__(self, msg: Message):
        self.msg = msg
        self.relay_vid: int | None = None
        self.pickup_time = math.nan
        self.tau1 = math.nan
        self.tau2 = math.nan
        self.tau3 = math.nan
        self.receiver_vid: int | None = None
        self.delivery_position = math.nan
        self.delivered_to = set()

    @property
    def available(self) -> bool:
        return not math.isnan(self.tau2)

    @property
    def delivered(self) -> bool:
        return not math.isnan(self.tau3)


def _row(vids: np.ndarray, vid: int) -> int:
    """Row of vehicle `vid` in one direction's vid column, or -1 once it has left."""
    rows = np.flatnonzero(vids == vid)
    return int(rows[0]) if rows.size else -1


class CommsEngine:
    """Creates, hops, and delivers messages on top of a TrafficSim.

    Call after_step(sim) once after every sim.step().  Records accumulate
    in .records (each Transmission at its first delivery), .deliveries
    (every reception when jam_detection is on), and the per-stage sample
    lists.  landmark_probe is the direction-1 probe at landmark_x, or None.
    """

    def __init__(self, sim: TrafficSim, cfg: CommsConfig):
        if cfg.landmark_x is not None and not 0.0 < cfg.landmark_x < sim.cfg.length:
            raise ValueError("landmark must sit strictly inside the road")
        self.cfg = cfg
        self.generation_enabled = True
        self.messages: dict[int, Message] = {}
        self.records: list[Transmission] = []
        self.deliveries: list[Delivery] = []
        self.tau1_samples: list[float] = []
        self.tau2_samples: list[float] = []
        self.tau3_samples: list[float] = []
        self.created = 0
        self.delivered = 0
        self.dead_source_exit = 0
        self.dead_relay_exit = 0
        self._active: dict[int, Transmission] = {}
        self._next_id = 0
        self._last_t = sim.t
        self.landmark_probe: CrossingProbe | None = None
        if cfg.landmark_x is not None:
            self.landmark_probe = sim.add_probe(cfg.landmark_x, direction=1)
        if cfg.jam_detection:
            sim.state_hooks.append(self._jam_hook)

    @property
    def active_count(self) -> int:
        return len(self._active)

    # -- message creation ----------------------------------------------

    def _new_message(self, kind, source_vid, position, t, front_position=math.nan,
                     front_time=math.nan):
        msg = Message(
            id=self._next_id,
            kind=kind,
            source_vid=source_vid,
            source_position=position,
            creation_time=t,
            front_position=front_position,
            front_time=front_time,
        )
        self._next_id += 1
        self.messages[msg.id] = msg
        self._active[msg.id] = Transmission(msg)
        self.created += 1

    def _jam_hook(self, sim: TrafficSim, t: float):
        state = sim.state(1)
        up, down = update_jam_state(state, sim.cfg.dt, self.cfg.jam)
        if not self.generation_enabled:
            return
        xs, equipped = state.x, state.equipped
        for kind, idx in ((KIND_UPSTREAM, up), (KIND_DOWNSTREAM, down)):
            for i in idx:
                if equipped[i]:
                    x = float(xs[i])
                    self._new_message(kind, int(state.vid[i]), x, t, front_position=x, front_time=t)

    # -- per-step processing -------------------------------------------

    def after_step(self, sim: TrafficSim):
        """Hop and deliver every active message on the settled state.

        A message retires in the step it ends: its source leaves before a
        hop, its relay leaves, or it is delivered without jam_detection.
        It reads sim.directions, whose rows the step may leave out of
        (s, vid) order across lanes, and never forces that order on the
        whole stack.  Source and relay rows are found by vid.  The equipped
        positions of a direction are read at most once per step, in (s, vid)
        order from DirectionState.equipped_rows(), and only when a message
        needs them: direction 2's for a stage-1 message in its broadcast
        slot, direction 1's for a relay that may deliver.
        """
        t_now = sim.t
        t_prev = self._last_t
        self._last_t = t_now

        if self.landmark_probe is not None:
            alpha = sim.cfg.equipped_fraction
            for t, vid, _lane, _v, u in self.landmark_probe.drain():
                if u < alpha and self.generation_enabled:
                    self._new_message(KIND_LANDMARK, vid, self.landmark_probe.x, t)

        if not self._active:
            return
        d1 = sim.directions[1]
        d2 = sim.directions[2]
        vid1, vid2 = d1.vid, d2.vid
        views = {}

        def equipped(d):
            """d's equipped positions, ascending in x, and their vids."""
            if d.direction not in views:
                rows = d.equipped_rows()
                xe, ve = d.x_of(d.s[rows]), d.vid[rows]
                views[d.direction] = (xe, ve) if d.direction == 1 else (xe[::-1], ve[::-1])
            return views[d.direction]

        r = self.cfg.radio.r
        interval = self.cfg.broadcast_interval
        for mid, tx in list(self._active.items()):
            msg = tx.msg

            # stage 1: the source broadcasts until the nearest relay takes it;
            # the message is lost if its source leaves the road first
            if tx.relay_vid is None:
                si = _row(vid1, msg.source_vid)
                if si < 0:
                    self.dead_source_exit += 1
                    del self._active[mid]
                    continue
                if not _slot_in(msg.creation_time, t_prev, t_now, interval):
                    continue
                xe2, ve2 = equipped(d2)
                xs = d1.x_of(float(d1.s[si]))
                lo = int(np.searchsorted(xe2, xs - r, side="left"))
                hi = int(np.searchsorted(xe2, xs + r, side="right"))
                if hi == lo:
                    continue
                j = min(range(lo, hi), key=lambda j: abs(float(xe2[j]) - xs))
                tx.relay_vid = int(ve2[j])
                tx.pickup_time = t_now
                tx.tau1 = t_now - msg.creation_time
                self.tau1_samples.append(tx.tau1)

            # stages 2 and 3: the relay carries it upstream and delivers
            ri = _row(vid2, tx.relay_vid)
            if ri < 0:
                if not tx.delivered:
                    self.dead_relay_exit += 1
                del self._active[mid]
                continue
            self._relay_step(tx, d2.x_of(float(d2.s[ri])), t_prev, t_now,
                             lambda: equipped(d1))
            if tx.delivered and not self.cfg.jam_detection:
                del self._active[mid]

    def _relay_step(self, tx, xr, t_prev, t_now, receivers):
        """Availability and delivery for a relay now at xr.

        receivers() gives the equipped direction-1 positions (ascending)
        and vids; it is called only if the relay may deliver this step.
        """
        msg = tx.msg
        r = self.cfg.radio.r
        avail_bound = msg.source_position - self.cfg.radio.r_min
        if not tx.available and xr <= avail_bound + r:
            tx.tau2 = t_now - msg.creation_time
            self.tau2_samples.append(tx.tau2)
        if not tx.available:
            return
        if not _slot_in(tx.pickup_time, t_prev, t_now, self.cfg.broadcast_interval):
            return
        xe1, ve1 = receivers()
        hi_bound = min(xr + r, avail_bound)
        lo = int(np.searchsorted(xe1, xr - r, side="left"))
        hi = int(np.searchsorted(xe1, hi_bound, side="right"))
        receivers = [
            j for j in range(hi - 1, lo - 1, -1)
            if int(ve1[j]) not in tx.delivered_to
        ]
        if not self.cfg.jam_detection:
            receivers = receivers[:1]
        for j in receivers:
            rec_vid = int(ve1[j])
            pos = float(xe1[j])
            if pos > avail_bound + 1e-9:
                raise RuntimeError(
                    f"message {msg.id} delivered at x={pos} beyond the destination "
                    f"region (x <= {avail_bound})"
                )
            tx.delivered_to.add(rec_vid)
            self.deliveries.append(Delivery(msg.id, rec_vid, t_now, pos))
            if not tx.delivered:
                tx.tau3 = t_now - msg.creation_time
                self.tau3_samples.append(tx.tau3)
                tx.receiver_vid = rec_vid
                tx.delivery_position = pos
                self.records.append(tx)
                self.delivered += 1


@dataclass(frozen=True)
class AgeStats:
    n: int
    mean_age: float
    ages: np.ndarray


def message_age_at_distance(messages, deliveries, trajectories, distance: float) -> AgeStats:
    """Age of the freshest jam message when a vehicle is `distance` before the front.

    For each receiving vehicle, the active message at any time is the most
    recently delivered one.  The vehicle "is at distance d" when its
    position first crosses front_position - d while that message is active;
    the age is then crossing time minus the front's detection time.  One
    observation per vehicle.

    Args:
        messages: id -> Message (jam kinds carry front position/time).
        deliveries: iterable of Delivery.
        trajectories: receiver vid -> (times array, positions array).
        distance: how far before the front the age is evaluated (m).

    Raises:
        ValueError: no delivered jam messages.
    """
    by_receiver: dict[int, list[Delivery]] = {}
    for d in deliveries:
        msg = messages[d.message_id]
        if math.isnan(msg.front_position):
            continue
        by_receiver.setdefault(d.receiver_vid, []).append(d)
    if not by_receiver:
        raise ValueError("no delivered front messages to evaluate")

    ages = []
    for vid, dels in by_receiver.items():
        traj = trajectories.get(vid)
        if traj is None:
            continue
        ts, xs = traj
        dels.sort(key=lambda d: d.time)
        age = None
        for k, d in enumerate(dels):
            msg = messages[d.message_id]
            target = msg.front_position - distance
            t_hi = dels[k + 1].time if k + 1 < len(dels) else math.inf
            sel = np.flatnonzero((ts >= d.time) & (ts < t_hi) & (xs >= target))
            if sel.size == 0:
                continue
            j = int(sel[0])
            if j > 0 and xs[j - 1] < target and ts[j - 1] >= d.time:
                frac = (target - xs[j - 1]) / (xs[j] - xs[j - 1])
                t_cross = ts[j - 1] + frac * (ts[j] - ts[j - 1])
            else:
                t_cross = float(ts[j])
            age = t_cross - msg.front_time
            break
        if age is not None:
            ages.append(age)
    arr = np.asarray(ages, dtype=float)
    if arr.size == 0:
        raise ValueError("no vehicle reached the evaluation distance with a message")
    return AgeStats(n=int(arr.size), mean_age=float(arr.mean()), ages=arr)
