import math

import numpy as np
import pytest

from transhop.comms import (
    KIND_DOWNSTREAM,
    KIND_LANDMARK,
    KIND_UPSTREAM,
    CommsConfig,
    CommsEngine,
    Delivery,
    JamThresholds,
    Message,
    message_age_at_distance,
    update_jam_state,
)
from transhop.traffic.road import InflowProfile, RoadConfig, TrafficSim, detector_reading

V = 25.0  # everyone drives 25 m/s in the hand-built scenes


def scene(n_lanes=1, length=20000.0, seed=0, **comm_kw):
    cfg = RoadConfig(
        n_lanes=n_lanes,
        length=length,
        inflow1=InflowProfile(0.0),
        inflow2=InflowProfile(0.0),
    )
    sim = TrafficSim(cfg, seed=seed)
    return sim, CommsEngine(sim, CommsConfig(**comm_kw))


def put(sim, direction, x, equipped=True, speed=V, lane=0):
    return sim.state(direction).seed_vehicle(
        x=x, lane=lane, speed=speed, desired_speed=speed, equipped=equipped
    )


def drive(sim, engine, duration):
    for _ in range(round(duration / sim.cfg.dt)):
        sim.step()
        engine.after_step(sim)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CommsConfig(broadcast_range=0.0)
        with pytest.raises(ValueError):
            CommsConfig(min_distance=-1.0)
        with pytest.raises(ValueError):
            CommsConfig(broadcast_interval=-0.1)
        with pytest.raises(ValueError):
            JamThresholds(v_congested=20.0, v_free=10.0)
        with pytest.raises(ValueError):
            JamThresholds(smoothing_tau=0.0)

    def test_landmark_must_sit_inside_road(self):
        for x in (0.0, 20000.0, -3.0):
            with pytest.raises(ValueError, match="landmark"):
                scene(landmark_x=x)


class TestSingleHopChain:
    """Source at 5000 m, oncoming relay at 5230 m, receiver at 2000 m.

    Closing speed is 50 m/s, the step grid is 0.25 s, and hops happen on the
    settled end-of-step state, so every stage time lands on an exactly
    predictable grid point: separation 230 -> 200 takes 0.6 s (first step
    end 0.75), the relay reaches the reach-in point 4200 at 41.2 s (step end
    41.25), and the receiver enters the relay's window at 60.6 s (60.75).
    """

    def run_chain(self, **comm_kw):
        sim, engine = scene(**comm_kw)
        src = put(sim, 1, 5000.0)
        relay = put(sim, 2, 5230.0)
        rcv = put(sim, 1, 2000.0)
        engine._new_message(KIND_LANDMARK, src, 5000.0, 0.0)
        drive(sim, engine, 70.0)
        return engine, relay, rcv

    def test_stage_times_exact(self):
        engine, relay, rcv = self.run_chain()
        assert len(engine.records) == 1
        rec = engine.records[0]
        assert rec.tau1 == 0.75
        assert rec.tau2 == 41.25
        assert rec.tau3 == 60.75
        assert rec.relay_vid == relay
        assert rec.receiver_vid == rcv
        # the receiver trails the source in the same lane, so it falls a few
        # centimeters short of the ballistic position over the minute
        assert rec.delivery_position == pytest.approx(2000.0 + V * 60.75, abs=0.1)
        assert engine.delivered == 1
        assert engine.active_count == 0  # settled and retired

    def test_sample_lists_mirror_records(self):
        engine, _, _ = self.run_chain()
        assert engine.tau1_samples == [0.75]
        assert engine.tau2_samples == [41.25]
        assert engine.tau3_samples == [60.75]

    def test_record_carries_its_message(self):
        engine, _, _ = self.run_chain()
        (rec,) = engine.records
        assert rec.msg.kind == KIND_LANDMARK
        assert rec.msg.creation_time == 0.0
        assert rec.msg.source_position == 5000.0
        assert (rec.tau1, rec.tau2, rec.tau3) == (0.75, 41.25, 60.75)

    def test_delivery_stays_inside_destination_region(self):
        engine, _, _ = self.run_chain()
        assert engine.records[0].delivery_position <= 5000.0 - 1000.0

    def test_stages_in_causal_order(self):
        engine, _, rcv = self.run_chain()
        assert engine.created == 1
        (rec,) = engine.records
        assert 0.0 < rec.tau1 < rec.tau2 < rec.tau3
        assert engine.tau1_samples == [rec.tau1]
        assert engine.tau2_samples == [rec.tau2]
        assert engine.tau3_samples == [rec.tau3]
        delivery = Delivery(rec.msg.id, rcv, rec.tau3, rec.delivery_position)
        assert engine.deliveries == [delivery]


class TestHopSelection:
    def test_in_range_at_creation_hops_next_step(self):
        sim, engine = scene()
        src = put(sim, 1, 5000.0)
        put(sim, 2, 5100.0)
        engine._new_message(KIND_LANDMARK, src, 5000.0, 0.0)
        drive(sim, engine, 1.0)
        assert engine.tau1_samples == [0.25]

    def test_nearest_relay_wins(self):
        sim, engine = scene()
        src = put(sim, 1, 5000.0)
        put(sim, 2, 5100.0)  # 93.75 m away at first step end
        near = put(sim, 2, 4950.0)  # 62.5 m away
        put(sim, 1, 2000.0)  # meets the relay upstream at 55 s
        engine._new_message(KIND_LANDMARK, src, 5000.0, 0.0)
        drive(sim, engine, 70.0)
        assert engine.tau1_samples == [0.25]  # one hop, in the first step
        (rec,) = engine.records
        assert rec.relay_vid == near

    def test_unequipped_relay_is_invisible(self):
        sim, engine = scene()
        src = put(sim, 1, 5000.0)
        put(sim, 2, 5230.0, equipped=False)
        engine._new_message(KIND_LANDMARK, src, 5000.0, 0.0)
        drive(sim, engine, 20.0)
        assert engine.records == []
        assert engine.active_count == 1  # still holding out for a relay


class TestReceiverSelection:
    def geometry(self, **comm_kw):
        sim, engine = scene(n_lanes=2, **comm_kw)
        src = put(sim, 1, 5000.0)
        put(sim, 2, 5230.0)
        ahead = put(sim, 1, 2000.0, lane=0)
        behind = put(sim, 1, 1995.0, lane=1)
        engine._new_message(KIND_LANDMARK, src, 5000.0, 0.0)
        drive(sim, engine, 70.0)
        return engine, ahead, behind

    def test_downstream_receiver_preferred(self):
        engine, ahead, behind = self.geometry()
        assert len(engine.records) == 1
        assert engine.records[0].receiver_vid == ahead
        # single-delivery mode never hands the message to the second vehicle
        assert all(d.receiver_vid == ahead for d in engine.deliveries)

    def test_jam_detection_delivers_to_every_receiver(self):
        engine, ahead, behind = self.geometry(jam_detection=True)
        got = {d.receiver_vid for d in engine.deliveries}
        assert got == {ahead, behind}
        assert engine.records[0].receiver_vid == ahead  # record keeps the first


class TestPeriodicBroadcast:
    def test_slot_gating(self):
        """Source slots anchor at creation, relay slots at pickup; the
        availability stage stays purely geometric."""
        sim, engine = scene(broadcast_interval=10.0)
        src = put(sim, 1, 5000.0)
        put(sim, 2, 5400.0)
        put(sim, 1, 2000.0)
        engine._new_message(KIND_LANDMARK, src, 5000.0, 0.0)
        drive(sim, engine, 75.0)
        rec = engine.records[0]
        assert rec.tau1 == 10.0  # geometrically in range from 4.25 s
        assert rec.tau2 == 48.0  # 48 s is not a slot of either clock
        assert rec.tau3 == 70.0  # window entered at 64 s, next relay slot

    def test_continuous_same_geometry_is_faster(self):
        sim, engine = scene()
        src = put(sim, 1, 5000.0)
        put(sim, 2, 5400.0)
        put(sim, 1, 2000.0)
        engine._new_message(KIND_LANDMARK, src, 5000.0, 0.0)
        drive(sim, engine, 75.0)
        rec = engine.records[0]
        # at 4.0 s the separation is exactly 200 m and hops are range-inclusive
        assert rec.tau1 == 4.0
        assert rec.tau2 == 48.0
        assert rec.tau3 < 70.0


class TestLifecycleCounters:
    def test_dead_relay_exit(self):
        sim, engine = scene()
        src = put(sim, 1, 900.0)  # destination region lies off the road
        put(sim, 2, 1000.0)
        engine._new_message(KIND_LANDMARK, src, 900.0, 0.0)
        drive(sim, engine, 50.0)
        assert engine.dead_relay_exit == 1
        assert engine.dead_source_exit == 0
        assert engine.records == []
        assert engine.active_count == 0

    def test_dead_source_exit(self):
        sim, engine = scene()
        src = put(sim, 1, 19900.0)
        engine._new_message(KIND_LANDMARK, src, 19900.0, 0.0)
        drive(sim, engine, 10.0)
        assert engine.dead_source_exit == 1
        assert engine.dead_relay_exit == 0
        assert engine.active_count == 0


class TestLandmarkCreation:
    def test_every_equipped_crossing_creates_one_message(self):
        cfg = RoadConfig(length=6000.0, equipped_fraction=1.0)
        sim = TrafficSim(cfg, seed=29)
        engine = CommsEngine(sim, CommsConfig(landmark_x=3000.0))
        check = sim.add_probe(3000.0, 1)
        for _ in range(round(400.0 / cfg.dt)):
            sim.step()
            engine.after_step(sim)
        crossings = check.drain()
        assert len(crossings) > 50
        assert engine.created == len(crossings)
        by_time = sorted(engine.messages.values(), key=lambda m: m.creation_time)
        assert [m.creation_time for m in by_time] == [c[0] for c in crossings]
        assert all(m.source_position == 3000.0 for m in by_time)
        assert all(m.kind == KIND_LANDMARK for m in by_time)

    def test_landmark_probe_reads_like_a_probe_added_later(self):
        """A cell's direction-1 detector is the engine's landmark probe: over
        (t0, t1] it reads exactly what a probe added at t0 reads."""
        cfg = RoadConfig(length=6000.0, equipped_fraction=0.1)
        sim = TrafficSim(cfg, seed=11)
        engine = CommsEngine(sim, CommsConfig(landmark_x=3000.0))
        drive(sim, engine, 300.0)
        rows = engine.landmark_probe.rows
        while rows[-1][0] != sim.t:  # end on a step with a crossing, left out below
            drive(sim, engine, cfg.dt)
        t0 = sim.t
        late = sim.add_probe(3000.0, 1)
        drive(sim, engine, 300.0)
        reading = detector_reading(engine.landmark_probe, t0, sim.t)
        assert reading.count > 20
        assert reading == detector_reading(late, t0, sim.t)

    def test_no_equipment_no_messages(self):
        sim, engine = scene(length=6000.0, landmark_x=3000.0)
        put(sim, 1, 2990.0, equipped=False)
        drive(sim, engine, 5.0)
        assert engine.created == 0


class TestJamDetection:
    def test_front_messages_with_hysteresis(self):
        sim, engine = scene(jam_detection=True)
        d1 = sim.state(1)
        blocker = put(sim, 1, 6000.0, equipped=False, speed=0.0)
        d1.v0[np.flatnonzero(d1.vid == blocker)[0]] = 0.01
        probe_car = put(sim, 1, 3000.0, speed=30.0)
        drive(sim, engine, 150.0)
        kinds = [m.kind for m in engine.messages.values()]
        assert kinds == [KIND_UPSTREAM]

        # free the blocker; the probe car speeds back up and reports recovery
        d1.v0[np.flatnonzero(d1.vid == blocker)[0]] = 30.0
        drive(sim, engine, 150.0)
        kinds = [m.kind for m in engine.messages.values()]
        assert kinds == [KIND_UPSTREAM, KIND_DOWNSTREAM]
        for m in engine.messages.values():
            assert m.source_vid == probe_car
            assert not math.isnan(m.front_position)
            assert m.front_time > 0.0

    def test_smoothing_is_exact_first_order_filter(self):
        sim, _ = scene()
        d = sim.state(1)
        put(sim, 1, 100.0, speed=20.0)
        thr = JamThresholds(smoothing_tau=10.0)
        d.v[0] = 0.0  # speed collapses, smoothed speed must follow the filter
        ema = 20.0
        for _ in range(5):
            update_jam_state(d, 0.25, thr)
            ema += -math.expm1(-0.25 / 10.0) * (0.0 - ema)
            assert d.ema_speed[0] == pytest.approx(ema, rel=1e-12)

    def test_smoothing_independent_of_step_size(self):
        sim_a, _ = scene()
        sim_b, _ = scene()
        for sim in (sim_a, sim_b):
            put(sim, 1, 100.0, speed=20.0)
            sim.state(1).v[0] = 5.0
        thr = JamThresholds(smoothing_tau=10.0)
        for _ in range(8):
            update_jam_state(sim_a.state(1), 0.25, thr)
        update_jam_state(sim_b.state(1), 2.0, thr)
        assert sim_a.state(1).ema_speed[0] == pytest.approx(
            sim_b.state(1).ema_speed[0], rel=1e-12
        )


class TestMessageAge:
    def build(self):
        messages = {
            0: Message(0, KIND_UPSTREAM, 1, 5200.0, 100.0,
                       front_position=5000.0, front_time=100.0),
        }
        deliveries = [Delivery(0, 7, 110.0, 4450.0)]
        traj = {7: (np.array([100.0, 110.0, 120.0, 130.0]),
                    np.array([4300.0, 4450.0, 4600.0, 4750.0]))}
        return messages, deliveries, traj

    def test_exact_grid_crossing(self):
        messages, deliveries, traj = self.build()
        st = message_age_at_distance(messages, deliveries, traj, distance=400.0)
        assert st.n == 1
        assert st.mean_age == pytest.approx(20.0)  # crosses 4600 at t=120

    def test_interpolated_crossing(self):
        messages, deliveries, traj = self.build()
        st = message_age_at_distance(messages, deliveries, traj, distance=350.0)
        # target 4650 crossed a third of the way from t=120 to t=130
        assert st.mean_age == pytest.approx(70.0 / 3.0, rel=1e-12)

    def test_freshest_message_wins(self):
        messages, deliveries, traj = self.build()
        messages[1] = Message(1, KIND_UPSTREAM, 2, 5200.0, 118.0,
                              front_position=5000.0, front_time=118.0)
        deliveries.append(Delivery(1, 7, 118.0, 4570.0))
        st = message_age_at_distance(messages, deliveries, traj, distance=350.0)
        assert st.mean_age == pytest.approx(70.0 / 3.0 - 18.0, rel=1e-9)

    def test_raises_when_nothing_to_evaluate(self):
        messages, deliveries, traj = self.build()
        with pytest.raises(ValueError):
            message_age_at_distance(messages, [], traj, distance=400.0)
        short = {7: (np.array([100.0, 110.0]), np.array([4300.0, 4450.0]))}
        with pytest.raises(ValueError):
            message_age_at_distance(messages, deliveries, short, distance=400.0)
