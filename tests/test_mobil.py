import numpy as np
import pytest

from transhop.traffic.idm import IdmParams, idm_acceleration
from transhop.traffic.mobil import (
    _FREE_GAP,
    MobilParams,
    neighbor_maps,
    propose_lane_changes,
)


def reference_propose_lane_changes(
    s: np.ndarray,
    v: np.ndarray,
    v0: np.ndarray,
    lane: np.ndarray,
    accel: np.ndarray,
    headway: np.ndarray,
    n_lanes: int,
    idm_p: IdmParams,
    p: MobilParams,
):
    """The per-candidate dict loop the vectorized side pick replaced."""

    def _gather(values, idx, fallback):
        out = values[np.maximum(idx, 0)]
        return np.where(idx >= 0, out, fallback)

    if n_lanes < 2:
        return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, float))
    members, lead, fol = neighbor_maps(lane, n_lanes)
    length = idm_p.vehicle_length

    best_inc = {}
    best_tgt = {}
    for src_lane in range(n_lanes):
        src = members[src_lane]
        if src.size == 0:
            continue
        for tgt_lane in (src_lane - 1, src_lane + 1):
            if not 0 <= tgt_lane < n_lanes:
                continue
            tgt = members[tgt_lane]
            if tgt.size:
                pos = np.searchsorted(s[tgt], s[src], side="left")
                nl = np.where(pos < tgt.size, tgt[np.minimum(pos, tgt.size - 1)], -1)
                nf = np.where(pos > 0, tgt[np.maximum(pos - 1, 0)], -1)
            else:
                nl = np.full(src.size, -1, dtype=np.int64)
                nf = np.full(src.size, -1, dtype=np.int64)

            gap_nl = _gather(s, nl, 0.0) - s[src] - length
            gap_nl = np.where(nl >= 0, gap_nl, _FREE_GAP)
            v_nl = _gather(v, nl, 0.0)
            v_nl = np.where(nl >= 0, v_nl, v[src])
            own_new = idm_acceleration(v[src], v0[src], gap_nl, v_nl, idm_p, headway[src])

            gap_nf = s[src] - _gather(s, nf, 0.0) - length
            gap_nf = np.where(nf >= 0, gap_nf, _FREE_GAP)
            nf_new = idm_acceleration(
                _gather(v, nf, 0.0),
                _gather(v0, nf, 1.0),
                np.maximum(gap_nf, 1e-6),
                v[src],
                idm_p,
                _gather(headway, nf, idm_p.time_headway),
            )
            nf_new = np.where(nf >= 0, nf_new, 0.0)
            nf_old = _gather(accel, nf, 0.0)

            of = fol[src]
            cl = lead[src]
            of_old = _gather(accel, of, 0.0)
            gap_of = _gather(s, cl, 0.0) - _gather(s, of, 0.0) - length
            gap_of = np.where((of >= 0) & (cl >= 0), gap_of, _FREE_GAP)
            v_cl = np.where(cl >= 0, _gather(v, cl, 0.0), _gather(v, of, 0.0))
            of_new = idm_acceleration(
                _gather(v, of, 0.0),
                _gather(v0, of, 1.0),
                np.maximum(gap_of, 1e-6),
                v_cl,
                idm_p,
                _gather(headway, of, idm_p.time_headway),
            )
            of_new = np.where(of >= 0, of_new, 0.0)

            incentive = (own_new - accel[src]) + p.politeness * (
                (nf_new - nf_old) + (of_new - of_old)
            )
            if tgt_lane > src_lane:
                side_threshold = p.threshold + p.keep_right_bias
            else:
                side_threshold = p.threshold - p.keep_right_bias
            surplus = incentive - side_threshold
            admissible = (
                (gap_nl >= idm_p.min_gap)
                & (gap_nf >= idm_p.min_gap)
                & (nf_new >= -p.safe_braking)
                & (surplus > 0.0)
            )
            for j in np.flatnonzero(admissible):
                i = int(src[j])
                inc = float(surplus[j])
                if inc > best_inc.get(i, -np.inf):
                    best_inc[i] = inc
                    best_tgt[i] = tgt_lane

    if not best_inc:
        return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, float))
    idx = np.array(sorted(best_inc), dtype=np.int64)
    target = np.array([best_tgt[i] for i in idx], dtype=np.int64)
    incentive = np.array([best_inc[i] for i in idx], dtype=float)
    return idx, target, incentive


IDM = IdmParams()


def random_state(n_lanes, seed, n=300):
    """A sorted road stretch with random lanes, speeds and accelerations."""
    rng = np.random.default_rng(seed)
    s = np.cumsum(rng.uniform(1.0, 30.0, n))
    v = rng.uniform(5.0, 35.0, n)
    v0 = rng.uniform(20.0, 40.0, n)
    lane = rng.integers(0, n_lanes, n).astype(np.int64)
    accel = rng.uniform(-3.0, 1.0, n)
    headway = np.where(rng.random(n) < 0.2, 2.6, IDM.time_headway)
    return s, v, v0, lane, accel, headway


def assert_same_as_reference(s, v, v0, lane, accel, headway, n_lanes, p):
    want = reference_propose_lane_changes(s, v, v0, lane, accel, headway, n_lanes, IDM, p)
    maps = neighbor_maps(lane, n_lanes)
    got = propose_lane_changes(s, v, v0, accel, headway, maps, n_lanes, IDM, p)
    for w, g in zip(want, got):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    return got


def assert_blocks_match_reference(states, n_lanes, p):
    """Stack the states as consecutive blocks of n_lanes road lanes each, the
    way the road engine stacks its directions.  Each block's proposals must
    be the reference loop's on that block alone, shifted to the block's rows
    and road lanes."""
    sizes = [state[0].size for state in states]
    block = np.repeat(np.arange(len(states)), sizes)
    s, v, v0, lane, accel, headway = (np.concatenate(col) for col in zip(*states))
    maps = neighbor_maps(lane + n_lanes * block, n_lanes * len(states))
    got = propose_lane_changes(s, v, v0, accel, headway, maps, n_lanes, IDM, p)
    assert np.array_equal(got[1] // n_lanes, block[got[0]])  # no target leaves its block
    first_row = 0
    for b, (state, size) in enumerate(zip(states, sizes)):
        idx, target, incentive = reference_propose_lane_changes(*state, n_lanes, IDM, p)
        want = (idx + first_row, target + n_lanes * b, incentive)
        mine = block[got[0]] == b
        for w, g in zip(want, got):
            assert g.dtype == w.dtype
            assert np.array_equal(g[mine], w)
        first_row += size
    return got


@pytest.mark.parametrize("n_lanes", [2, 3, 4])
@pytest.mark.parametrize("bias", [0.0, 0.3])
def test_side_pick_matches_loop_reference(n_lanes, bias):
    p = MobilParams(keep_right_bias=bias)
    proposals = 0
    for seed in range(20):
        state = random_state(n_lanes, seed)
        idx, _, _ = assert_same_as_reference(*state, n_lanes, p)
        proposals += idx.size
    assert proposals > 100


@pytest.mark.parametrize("n_lanes", [2, 3])
@pytest.mark.parametrize("bias", [0.0, 0.3])
def test_side_pick_matches_loop_reference_per_block(n_lanes, bias):
    p = MobilParams(keep_right_bias=bias)
    proposals = 0
    for seed in range(20):
        states = [random_state(n_lanes, seed), random_state(n_lanes, seed + 100, n=250)]
        idx, _, _ = assert_blocks_match_reference(states, n_lanes, p)
        proposals += idx.size
    assert proposals > 200


def test_exact_tie_goes_to_lower_lane():
    # a fast car closing on a slow one, with nothing in the lanes beside
    s = np.array([100.0, 130.0])
    v = np.array([30.0, 10.0])
    v0 = np.array([33.0, 10.0])
    headway = np.full(2, IDM.time_headway)
    accel = idm_acceleration(v, v0, np.array([25.0, _FREE_GAP]), v[[1, 1]], IDM)
    p = MobilParams(politeness=0.0)  # the slow car gains nothing by moving

    def propose(lane_no, n_lanes):
        lane = np.full(2, lane_no, dtype=np.int64)
        return assert_same_as_reference(s, v, v0, lane, accel, headway, n_lanes, p)

    _, up_target, up = propose(0, 2)  # only a move up is possible
    _, down_target, down = propose(1, 2)  # only a move down is possible
    assert (up_target.tolist(), down_target.tolist()) == ([1], [0])
    assert up[0] == down[0] > 0.0

    idx, target, incentive = propose(1, 3)  # both sides, scoring exactly alike
    assert idx.tolist() == [0]
    assert target.tolist() == [0]
    assert incentive[0] == up[0]

    # the same scene in each of two stacked blocks: each takes its own lower lane
    state = (s, v, v0, np.full(2, 1, dtype=np.int64), accel, headway)
    idx, target, incentive = assert_blocks_match_reference([state, state], 3, p)
    assert idx.tolist() == [0, 2]
    assert target.tolist() == [0, 3]
    assert incentive.tolist() == [up[0], up[0]]


def test_single_lane_proposes_nothing():
    s, v, v0, lane, accel, headway = random_state(1, seed=0)
    idx, target, incentive = assert_same_as_reference(
        s, v, v0, lane, accel, headway, 1, MobilParams()
    )
    assert idx.size == target.size == incentive.size == 0
