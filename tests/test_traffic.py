import numpy as np
import pytest
from scipy.optimize import brentq

from transhop.traffic.idm import IdmParams, idm_acceleration
from transhop.traffic.road import (
    _COLUMNS,
    BottleneckSpec,
    CollisionError,
    InflowProfile,
    RoadConfig,
    TrafficSim,
    _entry_speed,
    _Stack,
    detector_reading,
)

QUIET = dict(inflow1=InflowProfile(0.0), inflow2=InflowProfile(0.0))


def quiet_sim(n_lanes=1, seed=0, **kw):
    return TrafficSim(RoadConfig(n_lanes=n_lanes, **QUIET, **kw), seed=seed)


class TestInflowProfile:
    def test_scalar_shorthand(self):
        p = InflowProfile(0.25)
        assert p.value(0.0) == 0.25
        assert p.value(1e9) == 0.25
        assert p.q_max == 0.25

    def test_piecewise_linear(self):
        p = InflowProfile([(0.0, 0.0), (100.0, 1.0), (200.0, 1.0)])
        assert p.value(50.0) == 0.5
        assert p.value(150.0) == 1.0
        assert p.value(1e9) == 1.0  # constant past the last point
        assert p.q_max == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            InflowProfile([(0.0, 1.0), (0.0, 2.0)])
        with pytest.raises(ValueError):
            InflowProfile([(0.0, -1.0)])


class TestFreeFlow:
    def test_ballistic_at_desired_speed(self):
        sim = quiet_sim()
        sim.state(1).seed_vehicle(x=100.0, lane=0, speed=25.0, desired_speed=25.0)
        sim.run(100.0)
        d = sim.state(1)
        assert d.v[0] == pytest.approx(25.0, abs=1e-9)
        assert d.x[0] == pytest.approx(100.0 + 25.0 * 100.0, abs=1e-6)

    def test_relaxes_to_desired_speed(self):
        sim = quiet_sim()
        sim.state(1).seed_vehicle(x=100.0, lane=0, speed=10.0, desired_speed=30.0)
        speeds = []
        for _ in range(800):
            sim.step()
            speeds.append(float(sim.state(1).v[0]))
        arr = np.array(speeds)
        assert np.all(np.diff(arr) > 0.0)
        assert np.all(arr <= 30.0)
        assert arr[-1] == pytest.approx(30.0, abs=1e-6)

    def test_direction_two_drives_toward_zero(self):
        sim = quiet_sim()
        sim.state(2).seed_vehicle(x=15000.0, lane=0, speed=25.0, desired_speed=25.0)
        sim.run(40.0)
        d = sim.state(2)
        assert d.direction == 2
        assert d.x[0] == pytest.approx(15000.0 - 25.0 * 40.0, abs=1e-6)


class TestCarFollowing:
    def test_steady_gap_matches_root_of_acceleration(self):
        p = IdmParams()
        root = brentq(
            lambda g: idm_acceleration(20.0, 30.0, g, 20.0, p), 5.0, 200.0, xtol=1e-12
        )
        assert root == pytest.approx(29.02412789387479, abs=1e-9)

        sim = quiet_sim()
        d = sim.state(1)
        d.seed_vehicle(x=500.0, lane=0, speed=20.0, desired_speed=20.0)
        d.seed_vehicle(x=460.0, lane=0, speed=20.0, desired_speed=30.0)
        sim.run(600.0)
        gap = float(np.diff(d.s)[0]) - sim.cfg.idm.vehicle_length
        assert gap == pytest.approx(root, abs=0.05)

    def test_collision_raises(self):
        sim = quiet_sim()
        d = sim.state(1)
        d.seed_vehicle(x=100.0, lane=0, speed=0.0, desired_speed=20.0)
        d.seed_vehicle(x=103.0, lane=0, speed=0.0, desired_speed=20.0)
        with pytest.raises(CollisionError, match="overlap"):
            sim.step()

    @pytest.mark.parametrize("direction", [1, 2])
    def test_overlap_without_move_names_the_first_pair(self, direction):
        """An overlap on a step where no row moves and no lane pass runs,
        which the audit first finds through the step's leader map, is
        named by the per-lane scan: the first pair of the lane, with its
        gap."""
        sim = quiet_sim()
        for k in (1, 2):
            sim.state(k).seed_vehicle(x=5000.0, lane=0, speed=20.0, desired_speed=20.0)
        sim.run(0.5)
        d = sim.state(direction)
        for ahead in (0.0, 3.5, 60.0, 64.0):  # two overlapping pairs
            d.seed_vehicle(x=d.x_of(200.0 + ahead), lane=0, speed=0.0, desired_speed=20.0)
        assert sim.step_count % sim._mobil_every != 0
        with pytest.raises(CollisionError) as err:
            sim.step()
        assert np.all(np.diff(d.s) > 0.0)  # the re-sort moved nothing
        assert str(err.value) == (
            f"t=0.75s direction {direction} lane 0: vehicles {direction + 1} and "
            f"{direction + 3} overlap (gap -1.469 m)"
        )


class TestLaneChanging:
    def test_overtakes_slow_leader(self):
        sim = quiet_sim(n_lanes=2)
        d = sim.state(1)
        d.seed_vehicle(x=300.0, lane=0, speed=15.0, desired_speed=15.0)
        fast = d.seed_vehicle(x=250.0, lane=0, speed=30.0, desired_speed=33.0)
        sim.run(30.0)
        assert d.lane_changes >= 1
        is_fast = d.vid == fast
        assert d.x[is_fast][0] > d.x[~is_fast].max()

    def test_single_lane_never_changes(self):
        sim = quiet_sim(n_lanes=1)
        d = sim.state(1)
        d.seed_vehicle(x=300.0, lane=0, speed=15.0, desired_speed=15.0)
        d.seed_vehicle(x=250.0, lane=0, speed=30.0, desired_speed=33.0)
        sim.run(30.0)
        assert d.lane_changes == 0
        assert np.all(d.lane == 0)


class TestProbesAndDetectors:
    def test_probe_position_validation(self):
        sim = quiet_sim()
        for x in (0.0, 20000.0, -5.0):
            with pytest.raises(ValueError):
                sim.add_probe(x, 1)

    def test_seed_position_validation(self):
        sim = quiet_sim()
        with pytest.raises(ValueError):
            sim.state(1).seed_vehicle(x=20001.0, lane=0, speed=10.0, desired_speed=20.0)

    def test_drain_returns_only_new_rows(self):
        sim = quiet_sim()
        d = sim.state(1)
        d.seed_vehicle(x=990.0, lane=0, speed=20.0, desired_speed=20.0)
        d.seed_vehicle(x=900.0, lane=0, speed=20.0, desired_speed=20.0, equipped=True)
        probe = sim.add_probe(1000.0, 1)
        sim.run(1.0)
        first = probe.drain()
        assert len(first) == 1 and probe.drain() == []
        sim.run(10.0)
        second = probe.drain()
        assert len(second) == 1
        assert second[0][4] is True  # the equipped trailer
        assert first[0][1] != second[0][1]

    def test_detector_reading_exact(self):
        sim = quiet_sim(n_lanes=3)
        d = sim.state(1)
        for lane, v, back in ((0, 20.0, 100.0), (1, 25.0, 100.0), (2, 40.0, 100.0)):
            d.seed_vehicle(x=1000.0 - back, lane=lane, speed=v, desired_speed=v)
        probe = sim.add_probe(1000.0, 1)
        sim.run(20.0)
        r = detector_reading(probe, 0.0, 20.0)
        assert r.count == 3
        assert r.flow == pytest.approx(3.0 / 20.0)
        hmean = 3.0 / (1.0 / 20.0 + 1.0 / 25.0 + 1.0 / 40.0)
        assert r.mean_speed == pytest.approx(hmean, rel=1e-6)
        assert r.density == pytest.approx(r.flow / hmean, rel=1e-6)
        assert detector_reading(probe, 30.0, 40.0) is None
        with pytest.raises(ValueError):
            detector_reading(probe, 10.0, 10.0)


class TestBoundaries:
    def test_candidate_rate_scales_with_lanes(self):
        from transhop.traffic.road import DirectionState

        for lanes, rate in ((1, 1.0 / 3.0), (2, 2.0 / 3.0)):
            cfg = RoadConfig(n_lanes=lanes, inflow1=InflowProfile(1.0 / 3.0))
            d = DirectionState(1, cfg, seed=5)
            gaps = [d._exp_gap() for _ in range(20000)]
            assert np.mean(gaps) == pytest.approx(1.0 / rate, rel=0.02)

    def test_realized_inflow_and_conservation(self):
        sim = TrafficSim(RoadConfig(), seed=3)  # 1200 veh/h, one lane each way
        sim.run(1800.0)
        for k in (1, 2):
            d = sim.state(k)
            assert d.inserted - d.exited == d.n
            assert d.inserted == d.arrivals  # free flow admits everything
            assert d.inserted == pytest.approx(600.0, rel=0.05)
            assert np.all(d.v0 >= sim.cfg.desired_speed_floor)

    def test_directions_evolve_independently(self):
        a = TrafficSim(RoadConfig(inflow2=InflowProfile(600.0 / 3600.0)), seed=9)
        b = TrafficSim(RoadConfig(inflow2=InflowProfile(1800.0 / 3600.0)), seed=9)
        a.run(400.0)
        b.run(400.0)
        assert np.array_equal(a.state(1).s, b.state(1).s)
        assert np.array_equal(a.state(1).v, b.state(1).v)
        assert not np.array_equal(a.state(2).s, b.state(2).s)

    def test_zero_width_bottleneck_is_identity(self):
        plain = TrafficSim(RoadConfig(), seed=17)
        noop = TrafficSim(
            RoadConfig(
                bottlenecks=(
                    BottleneckSpec(direction=1, s_start=8000.0, width=400.0, extra_headway=0.0),
                )
            ),
            seed=17,
        )
        plain.run(600.0)
        noop.run(600.0)
        for k in (1, 2):
            assert np.array_equal(plain.state(k).s, noop.state(k).s)
            assert np.array_equal(plain.state(k).v, noop.state(k).v)
            assert np.array_equal(plain.state(k).vid, noop.state(k).vid)

    def test_bottleneck_spec_validation(self):
        with pytest.raises(ValueError):
            BottleneckSpec(direction=3, s_start=0.0, width=1.0, extra_headway=0.0)
        with pytest.raises(ValueError):
            BottleneckSpec(direction=1, s_start=0.0, width=0.0, extra_headway=0.0)
        with pytest.raises(ValueError):
            BottleneckSpec(direction=1, s_start=0.0, width=1.0, extra_headway=-0.1)


class TestPlatooning:
    """Single-lane traffic condenses into platoons over distance; a second
    lane lets faster drivers escape, keeping headways far more regular."""

    @staticmethod
    def _cv(probe, t_min):
        rows = [r for r in probe.drain() if r[0] > t_min and r[2] == 0]
        h = np.diff(np.asarray([r[0] for r in rows]))
        assert h.size > 200
        return float(h.std() / h.mean())

    @pytest.fixture(scope="class")
    @classmethod
    def headway_cvs(cls):
        out = {}
        for lanes in (1, 2):
            sim = TrafficSim(RoadConfig(n_lanes=lanes), seed=11)
            near = sim.add_probe(2000.0, 1)
            far = sim.add_probe(18000.0, 1)
            sim.run(2700.0)
            out[lanes] = (cls._cv(near, 900.0), cls._cv(far, 900.0))
        return out

    def test_single_lane_dispersion_grows_downstream(self, headway_cvs):
        near, far = headway_cvs[1]
        assert far > 1.5 * near

    def test_second_lane_suppresses_platooning(self, headway_cvs):
        assert headway_cvs[2][1] < 0.6 * headway_cvs[1][1]


def scalar_entry_speed(v0, gap0, lead_speed, idm):
    """The entry-speed bisection one midpoint per IDM call: the reference
    the batched search in the engine must reproduce exactly."""
    gap0 = max(gap0, 1e-6)
    if idm_acceleration(v0, v0, gap0, lead_speed, idm) >= -idm.comfort_decel:
        return v0
    lo, hi = 0.0, v0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if idm_acceleration(mid, v0, gap0, lead_speed, idm) >= -idm.comfort_decel:
            lo = mid
        else:
            hi = mid
    return lo


class TestEntrySpeed:
    IDM = IdmParams()

    def check(self, v0, gap0, lead_speed):
        got = _entry_speed(v0, gap0, lead_speed, self.IDM)
        assert type(got) is float
        assert got == scalar_entry_speed(v0, gap0, lead_speed, self.IDM), (v0, gap0, lead_speed)
        return got

    def test_edge_cases(self):
        min_gap = self.IDM.min_gap
        # room enough: the desired speed itself, returned as given
        assert self.check(30.0, 500.0, 30.0) == 30.0
        for gap0 in (0.0, -3.0):  # clamped to 1e-6
            assert self.check(30.0, gap0, 10.0) == 0.0
        assert 0.0 < self.check(25.0, 1.5, 35.0) < 25.0  # a faster leader, close
        assert 0.0 < self.check(30.0, 40.0, 0.0) < 30.0  # a leader at rest
        for gap0 in (min_gap + 1e-9, min_gap + 1e-3):
            self.check(30.0, gap0, 20.0)

    def test_equals_scalar_bisection(self):
        rng = np.random.default_rng(20261019)
        n = 10_000
        v0 = rng.uniform(50.0 / 3.6, 180.0 / 3.6, n)
        gap0 = rng.uniform(-2.0, 150.0, n)
        lead_speed = rng.uniform(0.0, 50.0, n)
        admissible = 0
        for args in zip(v0.tolist(), gap0.tolist(), lead_speed.tolist()):
            admissible += self.check(*args) == args[0]
        assert 0 < admissible < n  # both the early return and the search ran


def make_stack(block1, block2):
    """A stack with the given blocks of (s, vid) rows; column v tags each
    row with its storage index so that every column's reordering shows."""
    stack = _Stack()
    rows = list(block1) + list(block2)
    stack.cols = {name: np.zeros(len(rows), dtype=dtype) for name, dtype in _COLUMNS}
    stack.cols["s"][:] = [s for s, _ in rows]
    stack.cols["vid"][:] = [vid for _, vid in rows]
    stack.cols["v"][:] = np.arange(len(rows))
    stack.bounds = [0, len(block1), len(rows)]
    return stack


def lexsort_reference(stack):
    """Each block's rows in (s, vid) order, by one lexsort per block."""
    s, vid = stack.cols["s"], stack.cols["vid"]
    bounds = stack.bounds
    return np.concatenate([
        lo + np.lexsort((vid[lo:hi], s[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]).astype(np.int64)


class TestStackOrder:
    def assert_resorts_like_lexsort(self, stack):
        perm = lexsort_reference(stack)
        before = {name: col.copy() for name, col in stack.cols.items()}
        bounds = list(stack.bounds)
        moved = stack.resort()
        # a block out of strict ascent counts as moved even if its ties
        # were in vid order already
        assert moved or np.array_equal(perm, np.arange(perm.size))
        assert stack.bounds == bounds
        for name, col in stack.cols.items():
            assert col.dtype == before[name].dtype
            assert np.array_equal(col, before[name][perm]), name
        return moved

    def test_ascending_blocks_do_not_move(self):
        # block 2 starts below block 1's last s: no row of either block moves
        stack = make_stack([(10.0, 0), (20.0, 2), (30.0, 4)], [(5.0, 1), (25.0, 3)])
        assert self.assert_resorts_like_lexsort(stack) is False

    @pytest.mark.parametrize("empty", [1, 2])
    def test_one_empty_block(self, empty):
        rows = [(30.0, 0), (10.0, 2), (20.0, 4)]
        blocks = ([], rows) if empty == 1 else (rows, [])
        assert self.assert_resorts_like_lexsort(make_stack(*blocks)) is True
        assert self.assert_resorts_like_lexsort(make_stack([], [])) is False
        assert self.assert_resorts_like_lexsort(make_stack([(1.0, 0)], [])) is False

    def test_exact_tie_sorts_by_vid(self):
        # the tied rows are stored against vid order; a stable sort by s
        # alone would keep them that way
        stack = make_stack([(5.0, 8), (5.0, 4), (1.0, 6)], [(2.0, 3), (2.0, 1)])
        assert self.assert_resorts_like_lexsort(stack) is True
        assert stack.cols["vid"].tolist() == [6, 4, 8, 1, 3]

    def test_tie_already_in_vid_order_stays(self):
        stack = make_stack([(1.0, 2), (1.0, 4), (3.0, 0)], [(0.5, 1)])
        self.assert_resorts_like_lexsort(stack)
        assert stack.cols["vid"].tolist() == [2, 4, 0, 1]

    def test_random_blocks(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            blocks = []
            for direction in (1, 2):
                n = int(rng.integers(0, 12))
                s = rng.integers(0, 6, n) * 0.5 + rng.choice([0.0, 1e-3], n)
                vid = rng.permutation(n) * 2 + direction - 1
                blocks.append(list(zip(s.tolist(), vid.tolist())))
            self.assert_resorts_like_lexsort(make_stack(*blocks))

    @pytest.mark.parametrize("direction", [1, 2])
    def test_arrival_goes_after_a_row_at_the_same_s(self, direction):
        sim = quiet_sim()
        d = sim.state(direction)
        entry = d.x_of(0.0)
        for x in (d.x_of(300.0), d.x_of(100.0), entry):
            d.seed_vehicle(x=x, lane=0, speed=0.0, desired_speed=20.0)
        new = d.seed_vehicle(x=entry, lane=0, speed=0.0, desired_speed=20.0)
        mid = d.seed_vehicle(x=d.x_of(100.0), lane=0, speed=0.0, desired_speed=20.0)
        assert d.s.tolist() == [0.0, 0.0, 100.0, 100.0, 300.0]
        assert d.vid[1] == new and d.vid[3] == mid
        stack = sim._stack
        assert np.array_equal(lexsort_reference(stack), np.arange(stack.n))

    def test_arrivals_in_several_lanes_share_the_entry(self):
        stack = make_stack([(0.0, 0), (50.0, 2)], [(0.0, 1)])
        stack.insert(1, {
            "s": np.zeros(2), "prev_s": np.zeros(2), "v": [9.0, 9.0], "v0": [30.0, 30.0],
            "lane": [0, 1], "vid": [4, 6], "equipped": [False, True],
            "ema_speed": [9.0, 9.0], "congested": [False, False],
        })
        assert stack.bounds == [0, 4, 5]
        assert stack.cols["vid"].tolist() == [0, 4, 6, 2, 1]
        assert stack.cols["lane"].tolist() == [0, 0, 1, 0, 0]
        assert stack.cols["equipped"].tolist() == [False, False, True, False, False]
