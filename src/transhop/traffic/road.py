"""Two-direction multi-lane freeway engine.

One shared road coordinate x runs from 0 to the road length.  Direction 1
drives toward increasing x, direction 2 toward decreasing x.  Internally
each direction keeps its own driving coordinate s (distance traveled since
the entry point), so both directions run the same update code; s and x
coincide for direction 1 and are mirrored for direction 2.

Both directions' vehicles live in one stacked struct-of-arrays, direction
1's rows first, so each vectorized phase runs once per step for both.
Each road lane's rows ascend in (s, vid), but the lanes of one direction
may interleave in any order: vehicles in neighbouring lanes pass each
other without moving a row.  Per step: accelerations from the lane
split's leader map, ballistic advance with stop clamping, an overlap check
on that same map, a re-sort to the full (s, vid) order only before a lane
pass or an audit, lane changes on their own cadence, the collision audit
(only if the overlap check flagged a pair or a lane change was made),
crossing probes and state hooks (these see aligned before/after
positions), exit removal, arrivals and insertion in place, and last the
lane split for the next step.  The split, with its leader and follower
maps, is kept until a row moves or changes lane, so a step with no
re-sort, exit, insertion or lane change builds it at most once.  Whatever
reads the full order restores it: sim.state(k), the probes and the
message engine's equipped view.  Inflow is
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
from .mobil import MobilParams, neighbor_maps, propose_lane_changes, revalidate_change

_FREE_GAP = 1.0e9
_MIN_ENTRY_SPEED = 1.0
_ENTRY_LEVELS = 30  # bisection levels of the entry-speed search

# the stacked per-vehicle columns, all aligned: name -> dtype
_COLUMNS = (
    ("s", float),
    ("prev_s", float),
    ("v", float),
    ("v0", float),
    ("lane", np.int64),
    ("vid", np.int64),
    ("equip_u", float),  # equipment draw: equipped while below the penetration
    ("ema_speed", float),
    ("congested", bool),
)


def _entry_speed(v0, gap0, lead_speed, idm):
    """Fastest speed at which a vehicle can join behind `lead_speed` at
    `gap0` without braking harder than the comfortable limit.

    Joining drivers adapt their speed to the room ahead instead of
    matching the leader; rejecting too many candidates at the boundary
    would bunch the admitted ones into artificial convoys.

    v0 itself if it is admissible, else the lower end of a 30-level
    bisection on [0, v0], one IDM call on floats per level.  IDM's
    acceleration falls as the speed rises, so the result is within
    v0 * 2**-30 below the admissible limit, or 0.0 if even standing still
    brakes too hard.
    """
    gap0 = max(gap0, 1e-6)
    if idm_acceleration(v0, v0, gap0, lead_speed, idm) >= -idm.comfort_decel:
        return v0
    lo, hi = 0.0, v0
    for _ in range(_ENTRY_LEVELS):
        mid = 0.5 * (lo + hi)
        if idm_acceleration(mid, v0, gap0, lead_speed, idm) >= -idm.comfort_decel:
            lo = mid
        else:
            hi = mid
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

    def __eq__(self, other):
        if not isinstance(other, InflowProfile):
            return NotImplemented
        return np.array_equal(self.ts, other.ts) and np.array_equal(self.qs, other.qs)


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
        if self.desired_speed_std < 0.0:
            raise ValueError("desired_speed_std must be non-negative")
        if any(b.s_start + b.width > self.length for b in self.bottlenecks):
            raise ValueError("a bottleneck must end within the road")


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

    rows holds one (t, vid, lane, v, equip_u) tuple per crossing, in time
    order and, within a step, in (s, vid) order; the vehicle is equipped
    iff equip_u < the road's equipped_fraction.
    """

    def __init__(self, x: float, direction: int, s_pos: float):
        self.x = x
        self.direction = direction
        self.s_pos = s_pos
        self.rows = []
        self._drained = 0

    def _observe(self, state: "DirectionState", t: float):
        hit = np.flatnonzero((state.prev_s < self.s_pos) & (state.s >= self.s_pos))
        if hit.size > 1:  # lanes may interleave: one step's crossings in (s, vid) order
            hit = hit[np.lexsort((state.vid[hit], state.s[hit]))]
        for i in hit:
            self.rows.append((t, int(state.vid[i]), int(state.lane[i]), float(state.v[i]),
                              float(state.equip_u[i])))

    def drain(self):
        """New crossings since the previous drain."""
        new = self.rows[self._drained:]
        self._drained = len(self.rows)
        return new


def detector_reading(probe: CrossingProbe, t_start: float, t_end: float):
    """Reading over (t_start, t_end], or None if nothing crossed."""
    if t_end <= t_start:
        raise ValueError("empty measurement window")
    speeds = [v for t, _vid, _lane, v, _u in probe.rows if t_start < t <= t_end]
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
    bounds[k - 1]:bounds[k] are direction k's block.  Between steps each
    road lane's rows ascend in (s, vid), but a block's lanes may
    interleave; resort() restores each block's full (s, vid) order, which
    is canonical, so it yields the same rows from any arrangement.  A row's
    road lane is (direction - 1) * n_lanes + lane, so a lane of one
    direction is never next to a lane of the other.
    split holds the rows' latest neighbor_maps() by road lane, or None;
    whatever moves a row or changes a lane drops it.  TrafficSim.step()
    builds it last, for the next step's IDM; within a step only the lane
    pass and the collision audit may build it again.
    """

    def __init__(self, n_lanes: int):
        self.cols = {name: np.empty(0, dtype=dtype) for name, dtype in _COLUMNS}
        self.bounds = [0, 0, 0]
        self.n_lanes = n_lanes
        self.split = None

    @property
    def n(self) -> int:
        return self.bounds[2]

    def road_lanes(self) -> np.ndarray:
        lane = self.cols["lane"].copy()
        lane[self.bounds[1]:] += self.n_lanes
        return lane

    def lane_split(self):
        """neighbor_maps() of the rows by road lane, kept until a row moves
        or changes lane."""
        if self.split is None:
            self.split = neighbor_maps(self.road_lanes(), 2 * self.n_lanes)
        return self.split

    def take(self, rows: np.ndarray, bounds: list):
        """Keep the given rows, in that order, as blocks ending at bounds."""
        for name, col in self.cols.items():
            self.cols[name] = col[rows]
        self.bounds = bounds
        self.split = None

    def resort(self):
        """Restore each block's (s, vid) order from any arrangement.

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
        if perm is not None:
            self.take(perm, self.bounds)

    def insert(self, direction: int, rows: dict):
        """Put rows (column name -> values) that share one s into a
        direction's block, before its first row above that s.

        The new rows carry fresh, ascending vids, so each lane keeps its
        (s, vid) order if the block is in that order, or if no row of the
        new rows' lanes sits at or below s.  Arrivals, at s = 0, meet the
        second condition: a lane takes one only when its rearmost row is
        more than a vehicle length in.
        """
        lo, hi = self.bounds[direction - 1], self.bounds[direction]
        above = np.flatnonzero(self.cols["s"][lo:hi] > float(rows["s"][0]))
        at = lo + int(above[0]) if above.size else hi
        for name, dtype in _COLUMNS:
            col = self.cols[name]
            rows_k = np.asarray(rows[name], dtype=dtype)
            self.cols[name] = np.concatenate((col[:at], rows_k, col[at:]))
        cnt = len(rows["s"])
        self.bounds = [b + cnt if k >= direction else b for k, b in enumerate(self.bounds)]
        self.split = None


class DirectionState:
    """One driving direction: its random stream, inflow, pending arrivals
    and counters, and its block of the stacked vehicle columns.

    Each column in _COLUMNS reads and writes a view of this direction's
    rows in the order the step left them: each lane's rows ascend in
    (s, vid), but the lanes may interleave.  TrafficSim.state() restores
    the full (s, vid) order, and equipped_rows() reads it.  prev_s holds
    each vehicle's position before the latest advance, aligned with the
    current rows, so probes can detect crossings after any reordering.
    """

    def __init__(self, direction: int, cfg: RoadConfig, seed: int, stack: _Stack):
        self.direction = direction
        self.cfg = cfg
        self.rng = np.random.default_rng([seed, direction])
        self._stack = stack
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
                self._pending.append((v0, self.rng.random()))
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
        cols = self._stack.cols
        s, v = cols["s"], cols["v"]
        rows = self._rows
        lane = cols["lane"][rows]
        for k in range(self.cfg.n_lanes):
            # a lane's rows ascend in s, so its rearmost row is its first
            in_k = lane == k
            if in_k.any():
                tail = rows.start + int(in_k.argmax())
                open_lanes[k] = (
                    float(s[tail]) - self.cfg.idm.vehicle_length,
                    float(v[tail]),
                )
            else:
                open_lanes[k] = (_FREE_GAP, -1.0)
        while self._pending and open_lanes:
            v0, u = self._pending[0]
            best = max(open_lanes, key=lambda k: open_lanes[k][0])
            gap0, lead_speed = open_lanes[best]
            if lead_speed < 0.0:
                v_ins = v0
            else:
                v_ins = _entry_speed(v0, gap0, lead_speed, self.cfg.idm)
            if gap0 >= self.cfg.idm.min_gap and v_ins >= _MIN_ENTRY_SPEED:
                self._pending.popleft()
                inserted_rows.append((best, v_ins, v0, u))
                del open_lanes[best]
            else:
                break
        if self._pending:
            self.blocked_steps += 1
        if not inserted_rows:
            return
        lanes, speeds, desired, draws = zip(*inserted_rows)
        self._add_vehicles(
            s=np.zeros(len(lanes)), lane=lanes, v=speeds, v0=desired, equip_u=draws
        )

    def seed_vehicle(self, x, lane, speed, desired_speed, equipped=False) -> int:
        """Place a vehicle directly; for tests and hand-built scenes.

        Its equipment holds at every penetration: the draw is -inf if
        equipped, +inf if not.  The stack is re-sorted first, so the row
        joins its block at its (s, vid) place, in any lane and at any s.
        """
        s = self.s_of(x)
        if not 0.0 <= s <= self.cfg.length:
            raise ValueError("position outside the road")
        self._stack.resort()
        (vid,) = self._add_vehicles(
            s=[s], lane=[lane], v=[speed], v0=[desired_speed],
            equip_u=[-math.inf if equipped else math.inf],
        )
        return int(vid)

    @property
    def equipped(self) -> np.ndarray:
        """Which of this direction's vehicles carry a transceiver at the
        road's penetration; a new array, not a view."""
        return self.equip_u < self.cfg.equipped_fraction

    def equipped_rows(self) -> np.ndarray:
        """Rows of this direction's equipped vehicles, in (s, vid) order.

        The subset is sorted only if its s does not strictly ascend, so a
        subset already in order, as on one lane, costs one comparison.
        """
        rows = np.flatnonzero(self.equipped)
        s = self.s[rows]
        if np.any(s[1:] <= s[:-1]):
            rows = rows[np.lexsort((self.vid[rows], s))]
        return rows

    def _add_vehicles(self, **new) -> np.ndarray:
        """Put vehicles given by their s, lane, v, v0 and equip_u values
        into this direction's block (see _Stack.insert).

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
    directions.  The step's IDM reads the stack's lane split, built at the
    end of the step before; the lane pass and the collision audit read it
    too, rebuilt only if a re-sort or a lane change dropped it, and
    insertion reads each lane's rearmost row from the lane column.  State
    hooks run after motion and lane changes but before exit removal and
    insertion, so prev_s/s are aligned for every vehicle the hook sees.

    Only the lane pass and the audit need the full (s, vid) order, so the
    step re-sorts only before them; every other phase works row by row or
    through the leader map, which names vehicles, not positions.
    state(k) restores the order before it returns; directions[k] is the
    same object without that re-sort, for readers that find rows by vid.
    """

    def __init__(self, cfg: RoadConfig, seed: int):
        self.cfg = cfg
        self.t = 0.0
        self.step_count = 0
        self._stack = _Stack(cfg.n_lanes)
        self.directions = {k: DirectionState(k, cfg, seed, self._stack) for k in (1, 2)}
        self.probes = []
        self.state_hooks = []
        self._mobil_every = max(1, round(cfg.mobil.interval / cfg.dt))

    def state(self, direction: int) -> DirectionState:
        """The direction's state, with the stack in (s, vid) order."""
        self._stack.resort()
        return self.directions[direction]

    def add_probe(self, x: float, direction: int) -> CrossingProbe:
        if not 0.0 < x < self.cfg.length:
            raise ValueError("probe must sit strictly inside the road")
        d = self.directions[direction]
        probe = CrossingProbe(x, direction, d.s_of(x))
        self.probes.append(probe)
        return probe

    # -- dynamics ------------------------------------------------------

    def _effective_headway(self) -> np.ndarray:
        stack = self._stack
        headway = np.full(stack.n, self.cfg.idm.time_headway)
        for b in self.cfg.bottlenecks:
            lo, hi = stack.bounds[b.direction - 1], stack.bounds[b.direction]
            s = stack.cols["s"][lo:hi]
            inside = (s >= b.s_start) & (s < b.s_start + b.width)
            headway[lo:hi][inside] += b.extra_headway
        return headway

    def _accel(self, lead: np.ndarray, headway: np.ndarray) -> np.ndarray:
        """IDM accelerations from the lane split's leaders and _effective_headway()."""
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
        stop = np.flatnonzero(v_after < 0.0)  # would reverse within the step
        v_after = np.maximum(v_after, 0.0)
        travel = 0.5 * (v_before + v_after) * dt
        if stop.size:
            v_stop = v_before[stop]
            travel[stop] = v_stop * v_stop / (2.0 * np.maximum(-acc[stop], 1e-12))
        cols["prev_s"] = cols["s"]
        cols["s"] = cols["s"] + np.maximum(travel, 0.0)
        cols["v"] = v_after

    def _lane_pass(self) -> bool:
        """Apply the MOBIL lane changes; return whether any was made."""
        lanes = self.cfg.n_lanes
        if lanes < 2:
            return False
        cols = self._stack.cols
        s, v, v0, lane = cols["s"], cols["v"], cols["v0"], cols["lane"]
        maps = self._stack.lane_split()
        headway = self._effective_headway()
        acc = self._accel(maps[1], headway)
        idx, target, incentive = propose_lane_changes(
            s, v, v0, acc, headway, maps, lanes, self.cfg.idm, self.cfg.mobil,
        )
        road_lanes = self._stack.road_lanes()
        changed = False
        # each direction's changes in its own order; a revalidation reads
        # only its own direction's target lane, so interleaving them is safe
        for j in np.argsort(-incentive, kind="stable"):
            i = int(idx[j])
            tgt = int(target[j])
            if revalidate_change(
                i, tgt, s, v, v0, road_lanes, headway, self.cfg.idm, self.cfg.mobil,
            ):
                road_lanes[i] = tgt
                lane[i] = tgt % lanes
                self.directions[tgt // lanes + 1].lane_changes += 1
                self._stack.split = None
                changed = True
        return changed

    def _check_collisions(self, t: float):
        """Raise CollisionError for the rearmost overlapping pair of the
        lowest road lane that has one.

        The split's leader map pairs every vehicle with the one ahead of
        it in its lane, and rows ascend in s within a lane, so the first
        overlapping row of that lane is the rear of that pair.
        """
        cols = self._stack.cols
        s = cols["s"]
        lead = self._stack.lane_split()[1]
        gap = s[lead] - s - self.cfg.idm.vehicle_length
        bad = np.flatnonzero((gap < 0.0) & (lead >= 0))
        if not bad.size:
            return
        road_lane = self._stack.road_lanes()[bad]
        at = int(np.argmin(road_lane))  # the lowest lane's first, rearmost row
        i, k, lanes = bad[at], int(road_lane[at]), self.cfg.n_lanes
        raise CollisionError(
            f"t={t:.2f}s direction {k // lanes + 1} lane {k % lanes}: vehicles "
            f"{int(cols['vid'][i])} and {int(cols['vid'][lead[i]])} overlap "
            f"(gap {gap[i]:.3f} m)"
        )

    def _remove_exited(self):
        s, length = self._stack.cols["s"], self.cfg.length
        n1, n = self._stack.bounds[1], self._stack.n
        if not n or s.max() <= length:
            return
        gone = s > length
        gone1 = int(np.count_nonzero(gone[:n1]))
        gone_all = int(np.count_nonzero(gone))
        self.directions[1].exited += gone1
        self.directions[2].exited += gone_all - gone1
        self._stack.take(np.flatnonzero(~gone), [0, n1 - gone1, n - gone_all])

    def step(self):
        dt = self.cfg.dt
        t_new = self.t + dt
        lead = self._stack.lane_split()[1]
        self._advance(self._accel(lead, self._effective_headway()), dt)
        # With no pair of the pre-move leader map closer than a vehicle
        # length, every lane keeps its order, so the rows need no re-sort
        # and the audit could find nothing, unless a lane change moved a
        # row.  The lane pass and the audit read the full (s, vid) order.
        s = self._stack.cols["s"]
        overlap = np.any((s[lead] - s < self.cfg.idm.vehicle_length) & (lead >= 0))
        lane_step = self.step_count % self._mobil_every == 0
        if overlap or lane_step:
            self._stack.resort()
        changed = lane_step and self._lane_pass()
        if overlap or changed:
            self._check_collisions(t_new)
        for p in self.probes:
            p._observe(self.directions[p.direction], t_new)
        for hook in self.state_hooks:
            hook(self, t_new)
        self._remove_exited()
        for d in self.directions.values():
            d._collect_arrivals(t_new)
            d._try_insert()
        self._stack.lane_split()
        self.t = t_new
        self.step_count += 1

    def run(self, duration: float):
        steps = max(0, round(duration / self.cfg.dt))
        for _ in range(steps):
            self.step()
