"""Lane-changing decisions balancing own gain against imposed braking.

A change is proposed when the acceleration gained by the subject, plus a
politeness-weighted sum of the accelerations gained or lost by the new and
old followers, clears a switching threshold; it is admissible only when the
new follower is not forced below a safe braking limit and both new gaps are
at least the standing minimum gap.  Decisions are computed in one vectorized
pass over the candidates of every adjacent-lane pair; the road engine
re-validates each winner against the mutating lane occupancy before
applying it.

Lane 0 is the rightmost lane and passing happens toward higher indices.
An optional keep-right bias (off by default) raises the bar for moves to
the left and lowers it for moves back to the right, the usual European
freeway discipline; decisions are symmetric when the bias is zero.
"""

from dataclasses import dataclass

import numpy as np

from .idm import IdmParams, idm_acceleration

_FREE_GAP = 1.0e9


@dataclass(frozen=True)
class MobilParams:
    politeness: float = 0.2
    threshold: float = 0.2
    safe_braking: float = 4.0
    interval: float = 1.0
    keep_right_bias: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.politeness <= 1.0:
            raise ValueError("politeness must lie in [0, 1]")
        if self.threshold < 0.0 or self.safe_braking <= 0.0 or self.interval <= 0.0:
            raise ValueError("threshold must be >= 0, safe_braking and interval > 0")
        if self.keep_right_bias < 0.0:
            raise ValueError("keep_right_bias must be >= 0")


def lane_members(lane: np.ndarray, n_lanes: int) -> list:
    """members[k]: ascending indices of the vehicles in lane k."""
    # flatnonzero without its ravel wrapper: this runs several times a step
    return [np.nonzero(lane == k)[0] for k in range(n_lanes)]


def neighbor_maps(s: np.ndarray, lane: np.ndarray, n_lanes: int):
    """Per-lane leader/follower indices for vehicles sorted by position
    within each lane.

    Returns (members, lead, fol): members is lane_members(); lead[i]/fol[i]
    are same-lane neighbor indices or -1.
    """
    lead = np.full(s.size, -1, dtype=np.int64)
    fol = lead.copy()
    members = lane_members(lane, n_lanes)
    for m in members:
        if m.size >= 2:
            lead[m[:-1]] = m[1:]
            fol[m[1:]] = m[:-1]
    return members, lead, fol


def _gather(values: np.ndarray, idx: np.ndarray, fallback):
    out = values[np.maximum(idx, 0)]
    return np.where(idx >= 0, out, fallback)


def propose_lane_changes(
    s: np.ndarray,
    v: np.ndarray,
    v0: np.ndarray,
    accel: np.ndarray,
    headway: np.ndarray,
    maps,
    n_lanes: int,
    idm_p: IdmParams,
    p: MobilParams,
):
    """Candidate lane changes for the current state.

    maps is neighbor_maps() of the state, split by road lane: the lanes of
    one driving direction form a block of n_lanes consecutive road lanes,
    and a vehicle may only move to the road lane beside it in its own
    block.  s must be ascending within each road lane.  accel is each
    vehicle's current acceleration and headway its current effective time
    headway (arrays aligned with s).

    Returns:
        (idx, target, incentive) arrays, idx ascending and at most one entry
        per vehicle, target a road lane.  When both neighbors qualify the
        larger surplus wins, and on an exact tie the lower target lane.
        Incentive is reported as the surplus over the side's threshold so
        that scores of leftward and rightward moves rank against each other
        fairly.
    """
    members, lead, fol = maps
    length = idm_p.vehicle_length

    # the target-lane neighbors of every (source lane, side) pair
    parts = []
    for src_lane, src in enumerate(members):
        if src.size == 0:
            continue
        for tgt_lane in (src_lane - 1, src_lane + 1):
            if tgt_lane // n_lanes != src_lane // n_lanes:
                continue  # off the road, or a lane of the other block
            tgt = members[tgt_lane]
            if tgt.size:
                pos = np.searchsorted(s[tgt], s[src], side="left")
                nl = np.where(pos < tgt.size, tgt[np.minimum(pos, tgt.size - 1)], -1)
                nf = np.where(pos > 0, tgt[np.maximum(pos - 1, 0)], -1)
            else:
                nl = np.full(src.size, -1, dtype=np.int64)
                nf = np.full(src.size, -1, dtype=np.int64)
            if tgt_lane > src_lane:
                side_threshold = p.threshold + p.keep_right_bias
            else:
                side_threshold = p.threshold - p.keep_right_bias
            parts.append((src, nl, nf, tgt_lane, side_threshold))
    if not parts:
        return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, float))
    srcs, nls, nfs, tgt_lanes, thresholds = zip(*parts)
    src, nl, nf = (np.concatenate(col) for col in (srcs, nls, nfs))
    sizes = [a.size for a in srcs]
    target = np.repeat(np.asarray(tgt_lanes, dtype=np.int64), sizes)
    side_threshold = np.repeat(np.asarray(thresholds, dtype=float), sizes)

    # every candidate scored at once
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
    surplus = incentive - side_threshold
    admissible = np.flatnonzero(
        (gap_nl >= idm_p.min_gap)
        & (gap_nf >= idm_p.min_gap)
        & (nf_new >= -p.safe_braking)
        & (surplus > 0.0)
    )
    src, target, surplus = src[admissible], target[admissible], surplus[admissible]

    # one target per vehicle: the largest surplus, then the lower lane
    order = np.lexsort((target, -surplus, src))
    src, target, surplus = src[order], target[order], surplus[order]
    first = np.ones(src.size, dtype=bool)
    first[1:] = src[1:] != src[:-1]
    return src[first], target[first], surplus[first]


def revalidate_change(
    i: int,
    tgt_lane: int,
    s: np.ndarray,
    v: np.ndarray,
    v0: np.ndarray,
    lane: np.ndarray,
    headway: np.ndarray,
    idm_p: IdmParams,
    p: MobilParams,
) -> bool:
    """Safety re-check of one proposed change against current occupancy.

    Earlier changes in the same pass may have altered the target lane, so
    gaps and the new follower's braking are checked again; the incentive
    from the batch decision is not revisited.
    """
    tgt = np.flatnonzero(lane == tgt_lane)
    length = idm_p.vehicle_length
    pos = int(np.searchsorted(s[tgt], s[i], side="left")) if tgt.size else 0
    if pos < tgt.size:
        nl = int(tgt[pos])
        if s[nl] - s[i] - length < idm_p.min_gap:
            return False
    if pos > 0:
        nf = int(tgt[pos - 1])
        gap_nf = s[i] - s[nf] - length
        if gap_nf < idm_p.min_gap:
            return False
        braking = idm_acceleration(
            v[nf], v0[nf], gap_nf, v[i], idm_p, headway[nf]
        )
        if braking < -p.safe_braking:
            return False
    return True
