import numpy as np

from transhop.scenarios import _front_positions


def front_positions_by_row(field_t, field_x, field_v, v_cong, x_lo, x_hi):
    """The row-by-row congestion scan, kept as the reference."""
    ts, xs = [], []
    for k in range(field_t.size):
        row = field_v[k]
        mask = np.isfinite(row) & (row < v_cong) & (field_x >= x_lo) & (field_x <= x_hi)
        idx = np.flatnonzero(mask)
        if idx.size:
            ts.append(field_t[k])
            xs.append(field_x[idx[0]])
    return np.asarray(ts, dtype=float), np.asarray(xs, dtype=float)


def test_front_scan_matches_row_scan():
    rng = np.random.default_rng(3)
    field_t = np.arange(40) * 30.0
    field_x = np.arange(80) * 250.0 + 125.0
    field_v = rng.uniform(0.0, 35.0, size=(40, 80))
    field_v[rng.random(field_v.shape) < 0.2] = np.nan  # empty cells
    field_v[5] = np.nan
    field_v[6] = 30.0
    for x_lo, x_hi in ((500.0, 10600.0), (9000.0, 10600.0), (0.0, 2e4), (3000.0, 2000.0)):
        got = _front_positions(field_t, field_x, field_v, 30.0 / 3.6, x_lo, x_hi)
        want = front_positions_by_row(field_t, field_x, field_v, 30.0 / 3.6, x_lo, x_hi)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)
    assert got[0].size == 0
