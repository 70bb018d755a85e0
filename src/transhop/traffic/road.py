"""Two-direction multi-lane freeway engine.

One shared road coordinate x runs from 0 to the road length.  Direction 1
drives toward increasing x, direction 2 toward decreasing x.  Internally
each direction keeps its own driving coordinate s (distance traveled since
the entry point), so both directions run the same update code; s and x
coincide for direction 1 and are mirrored for direction 2.

Both directions' vehicles live in one stacked struct-of-arrays, direction
1's rows first, so each vectorized phase runs once per step for both.  Per
step: accelerations, ballistic advance with stop clamping, re-sort by
position (only where a block is out of order), lane changes on their own
cadence, collision audit (from the step's leader map while no row moved),
crossing probes and state hooks (these see aligned before/after
positions), exit removal, then arrivals and insertion in place.  Inflow is
a thinned Poisson stream per lane, so time-varying demand keeps the
per-direction random streams aligned: all draws for one direction come
from its own generator, which makes each direction's evolution independent
of the other's configuration.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .idm import IdmParams, idm_acceleration
from .mobil import (
    MobilParams,
    lane_members,
    neighbor_maps,
    propose_lane_changes,
    revalidate_change,
)

_FREE_GAP = 1.0e9
_MIN_ENTRY_SPEED = 1.0
_ENTRY_LEVELS = 30  # bisection levels of the entry-speed search
_ENTRY_ROUND = 5  # levels resolved per IDM call; divides _ENTRY_LEVELS

# the stacked per-vehicle columns, all aligned: name -> dtype
_COLUMNS = (
    ("s", float),
    ("prev_s", float),
    ("v", float),
    ("v0", float),
    ("lane", np.int64),
    ("vid", np.int64),
    ("equipped", bool),
    ("ema_speed", float),
    ("congested", bool),
)


def _entry_speed(v0, gap0, lead_speed, idm):
    """Fastest speed at which a vehicle can join behind `lead_speed` at
    `gap0` without braking harder than the comfortable limit.

    Joining drivers adapt their speed to the room ahead instead of
    matching the leader; rejecting too many candidates at the boundary
    would bunch the admitted ones into artificial convoys.

    A 30-level bisection on [0, v0], resolved _ENTRY_ROUND levels per IDM
    call: each call scores every midpoint those levels could visit, in
    heap order (node i's children are 2i + 1 below its midpoint and
    2i + 2 above it), and the walk then takes the path a one-midpoint
    loop would take, with the same Python-float midpoints.  The first
    call also scores v0 itself.  An acceleration scored in an array can
    differ in its last bit from a one-value call (numpy rounds `**` on
    arrays and on scalars differently), which changes the result only if
    a midpoint's acceleration lies within that rounding of the limit.
    """
    gap0 = max(gap0, 1e-6)
    lo, hi = 0.0, v0
    first = [v0]
    for _ in range(_ENTRY_LEVELS // _ENTRY_ROUND):
        spans = [(lo, hi)]
        for k in range(2 ** (_ENTRY_ROUND - 1) - 1):
            a, b = spans[k]
            mid = 0.5 * (a + b)
            spans += [(a, mid), (mid, b)]
        mids = [0.5 * (a + b) for a, b in spans]
        acc = idm_acceleration(np.asarray(first + mids), v0, gap0, lead_speed, idm)
        ok = (acc >= -idm.comfort_decel).tolist()
        if first:
            if ok[0]:
                return v0
            first, ok = [], ok[1:]
        i = 0
        for _ in range(_ENTRY_ROUND):
            if ok[i]:
                lo, i = mids[i], 2 * i + 2
            else:
                hi, i = mids[i], 2 * i + 1
    return lo


class CollisionError(RuntimeError):
    """Two vehicles in the same lane overlap; the state is unphysical."""


@dataclass(frozen=True)
class BottleneckSpec:
    """Local driving-style change over a stretch of road.

    The effective time headway inside [s_start, s_start + width) of the
    given direction's driving coordinate is raised by extra_headway.
    """

    direction: int
    s_start: float
    width: float
    extra_headway: float

    def __post_init__(self):
        if self.direction not in (1, 2):
            raise ValueError("direction must be 1 or 2")
        if self.width <= 0.0:
            raise ValueError("width must be positive")
        if self.extra_headway < 0.0:
            raise ValueError("extra_headway must be non-negative")


class InflowProfile:
    """Per-lane demand in vehicles per second, piecewise linear in time."""

    def __init__(self, points):
        if np.isscalar(points):
            points = [(0.0, float(points))]
        ts = np.asarray([p[0] for p in points], dtype=float)
        qs = np.asarray([p[1] for p in points], dtype=float)
        if ts.size == 0 or np.any(np.diff(ts) <= 0.0) or np.any(qs < 0.0):
            raise ValueError("profile needs increasing times and non-negative rates")
        self.ts = ts
        self.qs = qs
        self.q_max = float(qs.max())

    def value(self, t: float) -> float:
        return float(np.interp(t, self.ts, self.qs))


@dataclass
class RoadConfig:
    length: float = 20000.0
    n_lanes: int = 1
    dt: float = 0.25
    idm: IdmParams = field(default_factory=IdmParams)
    mobil: MobilParams = field(default_factory=MobilParams)
    desired_speed_mean: float = 120.0 / 3.6
    desired_speed_std: float = 18.0 / 3.6
    desired_speed_floor: float = 50.0 / 3.6
    inflow1: InflowProfile = field(default_factory=lambda: InflowProfile(1200.0 / 3600.0))
    inflow2: InflowProfile = field(default_factory=lambda: InflowProfile(1200.0 / 3600.0))
    equipped_fraction: float = 0.0
    bottlenecks: tuple = ()

    def __post_init__(self):
        if self.length <= 0.0 or self.dt <= 0.0:
            raise ValueError("length and dt must be positive")
        if self.n_lanes < 1:
            raise ValueError("need at least one lane per direction")
        if not 0.0 <= self.equipped_fraction <= 1.0:
            raise ValueError("equipped_fraction must lie in [0, 1]")
        if self.desired_speed_floor <= 0.0 or self.desired_speed_mean <= 0.0:
            raise ValueError("desired speeds must be positive")


@dataclass(frozen=True)
class DetectorReading:
    """Aggregated cross-section measurement over a time window.

    flow counts all lanes of the direction; mean_speed is the harmonic mean
    of crossing speeds (space mean), and density = flow / mean_speed.
    """

    x: float
    direction: int
    t_start: float
    t_end: float
    count: int
    flow: float
    mean_speed: float
    density: float


class CrossingProbe:
    """Records every vehicle of one direction crossing a fixed position.

    rows holds one (t, vid, lane, v, equipped) tuple per crossing, in order.
    """

    def __init__(self, x: float, direction: int, s_pos: float):
        self.x = x
        self.direction = direction
        self.s_pos = s_pos
        self.rows = []
        self._drained = 0

    def _observe(self, state: "DirectionState", t: float):
        hit = np.flatnonzero((state.prev_s < self.s_pos) & (state.s >= self.s_pos))
        for i in hit:
            self.rows.append((t, int(state.vid[i]), int(state.lane[i]), float(state.v[i]),
                              bool(state.equipped[i])))

    def drain(self):
        """New crossings since the previous drain."""
        new = self.rows[self._drained:]
        self._drained = len(self.rows)
        return new


def detector_reading(probe: CrossingProbe, t_start: float, t_end: float):
    """Reading over (t_start, t_end], or None if nothing crossed."""
    if t_end <= t_start:
        raise ValueError("empty measurement window")
    speeds = [v for t, _vid, _lane, v, _eq in probe.rows if t_start < t <= t_end]
    n = len(speeds)
    if n == 0:
        return None
    speeds = np.maximum(np.asarray(speeds, dtype=float), 0.01)
    flow = n / (t_end - t_start)
    mean_speed = n / float(np.sum(1.0 / speeds))
    return DetectorReading(
        x=probe.x,
        direction=probe.direction,
        t_start=t_start,
        t_end=t_end,
        count=n,
        flow=flow,
        mean_speed=mean_speed,
        density=flow / mean_speed,
    )


class _Stack:
    """Both directions' per-vehicle columns as one struct-of-arrays.

    Direction 1's rows come first, then direction 2's; rows
    bounds[k - 1]:bounds[k] are direction k's block, sorted by (s, vid)
    between steps.
    """

    def __init__(self):
        self.cols = {name: np.empty(0, dtype=dtype) for name, dtype in _COLUMNS}
        self.bounds = [0, 0, 0]

    @property
    def n(self) -> int:
        return self.bounds[2]

    def take(self, rows: np.ndarray, bounds: list):
        """Keep the given rows, in that order, as blocks ending at bounds."""
        for name, col in self.cols.items():
            self.cols[name] = col[rows]
        self.bounds = bounds

    def resort(self) -> bool:
        """Restore each block's (s, vid) order; return whether any block
        needed sorting.

        A block whose s strictly ascends is in order already.  A stable
        argsort by s orders any other block, unless its sorted s has an
        exact tie: only a lexsort puts tied rows in vid order.
        """
        s, vid = self.cols["s"], self.cols["vid"]
        ascends = s[1:] > s[:-1]
        perm = None
        for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
            if hi - lo < 2 or ascends[lo:hi - 1].all():
                continue
            order = np.argsort(s[lo:hi], kind="stable")
            sorted_s = s[lo:hi][order]
            if np.any(sorted_s[1:] == sorted_s[:-1]):
                order = np.lexsort((vid[lo:hi], s[lo:hi]))
            if perm is None:
                perm = np.arange(self.n)
            perm[lo:hi] = lo + order
        if perm is None:
            return False
        self.take(perm, self.bounds)
        return True

    def insert(self, direction: int, rows: dict):
        """Put rows (column name -> values) that share one s into a
        direction's block, after every row at or below that s.

        The block is in (s, vid) order and the new rows carry fresh,
        ascending vids, so the order holds without a sort.
        """
        lo, hi = self.bounds[direction - 1], self.bounds[direction]
        s_new = float(rows["s"][0])
        at = lo + int(np.searchsorted(self.cols["s"][lo:hi], s_new, side="right"))
        for name, dtype in _COLUMNS:
            col = self.cols[name]
            rows_k = np.asarray(rows[name], dtype=dtype)
            self.cols[name] = np.concatenate((col[:at], rows_k, col[at:]))
        cnt = len(rows["s"])
        self.bounds = [b + cnt if k >= direction else b for k, b in enumerate(self.bounds)]


class DirectionState:
    """One driving direction: its random stream, inflow, pending arrivals,
    bottlenecks and counters, and its block of the stacked vehicle columns.

    Each column in _COLUMNS reads and writes a view of this direction's
    rows, which stay sorted by (s, vid) between steps.  prev_s holds each
    vehicle's position before the latest advance, aligned with the current
    rows, so probes can detect crossings after sorting.  A state built on
    its own keeps its rows in a stack of its own.
    """

    def __init__(self, direction: int, cfg: RoadConfig, seed: int, stack: _Stack | None = None):
        self.direction = direction
        self.cfg = cfg
        self.rng = np.random.default_rng([seed, direction])
        self._stack = _Stack() if stack is None else stack
        self._vid_counter = 0
        self._pending = deque()
        profile = cfg.inflow1 if direction == 1 else cfg.inflow2
        self._profile = profile
        self._next_candidate = self._exp_gap() if profile.q_max > 0.0 else math.inf
        self.inserted = 0
        self.exited = 0
        self.arrivals = 0
        self.blocked_steps = 0
        self.lane_changes = 0
        self._bottlenecks = [b for b in cfg.bottlenecks if b.direction == direction]

    @property
    def _rows(self) -> slice:
        bounds = self._stack.bounds
        return slice(bounds[self.direction - 1], bounds[self.direction])

    # -- coordinates ---------------------------------------------------

    def x_of(self, s):
        return s if self.direction == 1 else self.cfg.length - s

    def s_of(self, x):
        return x if self.direction == 1 else self.cfg.length - x

    @property
    def x(self):
        return self.x_of(self.s)

    @property
    def n(self) -> int:
        rows = self._rows
        return rows.stop - rows.start

    # -- boundaries ----------------------------------------------------

    def _exp_gap(self) -> float:
        # one candidate stream per direction; per-lane rate times lane count
        return float(
            self.rng.exponential(1.0 / (self._profile.q_max * self.cfg.n_lanes))
        )

    def _collect_arrivals(self, t_new: float):
        if self._profile.q_max <= 0.0:
            return
        while self._next_candidate <= t_new:
            t_arr = self._next_candidate
            accept = self.rng.random() < self._profile.value(t_arr) / self._profile.q_max
            if accept:
                v0 = max(
                    self.cfg.desired_speed_floor,
                    float(self.rng.normal(self.cfg.desired_speed_mean, self.cfg.desired_speed_std)),
                )
                equipped = bool(self.rng.random() < self.cfg.equipped_fraction)
                self._pending.append((v0, equipped))
                self.arrivals += 1
            self._next_candidate = t_arr + self._exp_gap()

    def _try_insert(self):
        """Feed waiting arrivals in, entering the lane with the most room.

        Drivers joining the road pick whichever lane offers the largest
        entry gap, so a slow vehicle near the boundary gates only its own
        lane instead of the whole inflow.  At most one vehicle enters per
        lane per step and the queue stays first-come first-served.
        """
        if not self._pending:
            return
        inserted_rows = []
        open_lanes = {}
        s, v = self.s, self.v
        for k, m in enumerate(lane_members(self.lane, self.cfg.n_lanes)):
            if m.size:
                tail = int(m[0])
                open_lanes[k] = (
                    float(s[tail]) - self.cfg.idm.vehicle_length,
                    float(v[tail]),
                )
            else:
                open_lanes[k] = (_FREE_GAP, -1.0)
        while self._pending and open_lanes:
            v0, equipped = self._pending[0]
            best = max(open_lanes, key=lambda k: open_lanes[k][0])
            gap0, lead_speed = open_lanes[best]
            if lead_speed < 0.0:
                v_ins = v0
            else:
                v_ins = _entry_speed(v0, gap0, lead_speed, self.cfg.idm)
            if gap0 >= self.cfg.idm.min_gap and v_ins >= _MIN_ENTRY_SPEED:
                self._pending.popleft()
                inserted_rows.append((best, v_ins, v0, equipped))
                del open_lanes[best]
            else:
                break
        if self._pending:
            self.blocked_steps += 1
        if not inserted_rows:
            return
        lanes, speeds, desired, equipped = zip(*inserted_rows)
        self._add_vehicles(
            s=np.zeros(len(lanes)), lane=lanes, v=speeds, v0=desired, equipped=equipped
        )

    def seed_vehicle(self, x, lane, speed, desired_speed, equipped=False) -> int:
        """Place a vehicle directly; for tests and hand-built scenes."""
        s = self.s_of(x)
        if not 0.0 <= s <= self.cfg.length:
            raise ValueError("position outside the road")
        (vid,) = self._add_vehicles(
            s=[s], lane=[lane], v=[speed], v0=[desired_speed], equipped=[equipped]
        )
        return int(vid)

    def _add_vehicles(self, **new) -> np.ndarray:
        """Put vehicles given by their s, lane, v, v0 and equipped values
        into this direction's block, in (s, vid) order.

        They get fresh vids, prev_s = s, a smoothed speed of v and no
        congestion flag.  Returns the new vids.
        """
        cnt = len(new["s"])
        counters = self._vid_counter + np.arange(cnt, dtype=np.int64)
        self._vid_counter += cnt
        new["vid"] = counters * 2 + (self.direction - 1)
        new.update(prev_s=new["s"], ema_speed=new["v"], congested=np.zeros(cnt, dtype=bool))
        self._stack.insert(self.direction, new)
        self.inserted += cnt
        return new["vid"]


def _column(name: str) -> property:
    """A DirectionState column: a view of the direction's rows of the
    stacked column.  Assigning to it writes those rows in place."""

    def view(self):
        return self._stack.cols[name][self._rows]

    def write(self, values):
        view(self)[...] = values

    return property(view, write)


for _name in dict(_COLUMNS):
    setattr(DirectionState, _name, _column(_name))


class TrafficSim:
    """Steps both directions as one stacked vehicle state and hosts probes
    and per-step state hooks.

    Every vectorized phase runs once per step over the rows of both
    directions.  Per-lane splits are keyed by the road lane,
    (direction - 1) * n_lanes + lane, so a lane of one direction is never
    next to a lane of the other.  State hooks run after motion and lane
    changes but before exit removal and insertion, so prev_s/s are aligned
    for every vehicle the hook sees.
    """

    def __init__(self, cfg: RoadConfig, seed: int):
        self.cfg = cfg
        self.t = 0.0
        self.step_count = 0
        self._stack = _Stack()
        self.directions = {k: DirectionState(k, cfg, seed, self._stack) for k in (1, 2)}
        self.probes = []
        self.state_hooks = []
        self._mobil_every = max(1, round(cfg.mobil.interval / cfg.dt))

    def state(self, direction: int) -> DirectionState:
        return self.directions[direction]

    def add_probe(self, x: float, direction: int) -> CrossingProbe:
        if not 0.0 < x < self.cfg.length:
            raise ValueError("probe must sit strictly inside the road")
        d = self.directions[direction]
        probe = CrossingProbe(x, direction, d.s_of(x))
        self.probes.append(probe)
        return probe

    # -- dynamics ------------------------------------------------------

    def _road_lanes(self) -> np.ndarray:
        lane = self._stack.cols["lane"].copy()
        lane[self._stack.bounds[1]:] += self.cfg.n_lanes
        return lane

    def _effective_headway(self) -> np.ndarray:
        headway = np.full(self._stack.n, self.cfg.idm.time_headway)
        for d in self.directions.values():
            block = headway[d._rows]
            s = d.s
            for b in d._bottlenecks:
                inside = (s >= b.s_start) & (s < b.s_start + b.width)
                block[inside] += b.extra_headway
        return headway

    def _accel(self, lead: np.ndarray, headway: np.ndarray) -> np.ndarray:
        """IDM accelerations from neighbor_maps()'s leaders and _effective_headway()."""
        cols = self._stack.cols
        s, v = cols["s"], cols["v"]
        gap = s[lead] - s - self.cfg.idm.vehicle_length
        lead_v = v[lead]
        free = lead < 0  # first in its lane: nothing ahead
        gap[free] = _FREE_GAP
        lead_v[free] = v[free]
        return idm_acceleration(v, cols["v0"], gap, lead_v, self.cfg.idm, headway)

    def _advance(self, acc: np.ndarray, dt: float):
        cols = self._stack.cols
        v_before = cols["v"]
        v_after = v_before + acc * dt
        stopping = v_after < 0.0
        travel = np.where(
            stopping,
            v_before * v_before / (2.0 * np.maximum(-acc, 1e-12)),
            0.5 * (v_before + np.maximum(v_after, 0.0)) * dt,
        )
        cols["prev_s"] = cols["s"]
        cols["s"] = cols["s"] + np.maximum(travel, 0.0)
        cols["v"] = np.maximum(v_after, 0.0)

    def _lane_pass(self) -> bool:
        """Apply the MOBIL lane changes; return whether any vehicle changed
        lane."""
        lanes = self.cfg.n_lanes
        if lanes < 2:
            return False
        cols = self._stack.cols
        s, v, v0, lane = cols["s"], cols["v"], cols["v0"], cols["lane"]
        road_lanes = self._road_lanes()
        maps = neighbor_maps(s, road_lanes, 2 * lanes)
        headway = self._effective_headway()
        acc = self._accel(maps[1], headway)
        idx, target, incentive = propose_lane_changes(
            s, v, v0, acc, headway, maps, lanes, self.cfg.idm, self.cfg.mobil,
        )
        if idx.size == 0:
            return False
        # each direction's changes in its own order; a revalidation reads
        # only its own direction's target lane, so interleaving them is safe
        order = np.argsort(-incentive, kind="stable")
        changed = False
        for j in order:
            i = int(idx[j])
            tgt = int(target[j])
            if revalidate_change(
                i, tgt, s, v, v0, road_lanes, headway, self.cfg.idm, self.cfg.mobil,
            ):
                road_lanes[i] = tgt
                lane[i] = tgt % lanes
                self.directions[tgt // lanes + 1].lane_changes += 1
                changed = True
        return changed

    def _check_collisions(self, t: float, lead: np.ndarray | None = None):
        """Raise CollisionError for the first overlapping pair of a lane.

        `lead`, the step's leader map, still pairs every vehicle with the
        one ahead of it when no row moved since it was built; then one
        check over it clears the usual case, and only an overlap needs
        the per-lane scan that names it.
        """
        cols = self._stack.cols
        s = cols["s"]
        if lead is not None and not np.any(
            (s[lead] - s - self.cfg.idm.vehicle_length < 0.0) & (lead >= 0)
        ):
            return
        lanes = self.cfg.n_lanes
        for k, m in enumerate(lane_members(self._road_lanes(), 2 * lanes)):
            if m.size < 2:
                continue
            sm = s[m]
            gaps = sm[1:] - sm[:-1] - self.cfg.idm.vehicle_length
            bad = np.nonzero(gaps < 0.0)[0]
            if bad.size:
                i = m[bad[0]]
                j = m[bad[0] + 1]
                raise CollisionError(
                    f"t={t:.2f}s direction {k // lanes + 1} lane {k % lanes}: vehicles "
                    f"{int(cols['vid'][i])} and {int(cols['vid'][j])} overlap "
                    f"(gap {gaps[bad[0]]:.3f} m)"
                )

    def _remove_exited(self):
        gone = self._stack.cols["s"] > self.cfg.length
        if not np.any(gone):
            return
        n1, n = self._stack.bounds[1], self._stack.n
        gone1 = int(np.count_nonzero(gone[:n1]))
        gone_all = int(np.count_nonzero(gone))
        self.directions[1].exited += gone1
        self.directions[2].exited += gone_all - gone1
        self._stack.take(np.flatnonzero(~gone), [0, n1 - gone1, n - gone_all])

    def step(self):
        dt = self.cfg.dt
        t_new = self.t + dt
        s = self._stack.cols["s"]
        _, lead, _ = neighbor_maps(s, self._road_lanes(), 2 * self.cfg.n_lanes)
        self._advance(self._accel(lead, self._effective_headway()), dt)
        # a re-sorted block or a lane change can outdate `lead`
        moved = self._stack.resort()
        if self.step_count % self._mobil_every == 0:
            moved |= self._lane_pass()
        self._check_collisions(t_new, None if moved else lead)
        for p in self.probes:
            p._observe(self.directions[p.direction], t_new)
        for hook in self.state_hooks:
            hook(self, t_new)
        self._remove_exited()
        for d in self.directions.values():
            d._collect_arrivals(t_new)
            d._try_insert()
        self.t = t_new
        self.step_count += 1

    def run(self, duration: float):
        steps = max(0, round(duration / self.cfg.dt))
        for _ in range(steps):
            self.step()
