"""Reference copy of ``flow._land`` as it bisected each crossing step.

Row i re-took its crossing step with lengths bisected in [0, h_i], at most
90 times, until the endpoint had |f - c_i| <= level_tol; a failed
retraction moved the upper end down.  :func:`land` takes and returns what
``flow._land`` does; tests/test_flow.py runs crossing ensembles through both
and checks that the secant landing lands every row this one lands.
"""

import numpy as np


def land(fld, y, g, sign, c, h, f_start, f_end):
    """The deleted bisection landing, with its collapse test ``hi - lo <= 1e-16 * h``."""
    Z = fld.Z
    k = len(y)
    lo, hi = np.zeros(k), h.copy()
    searching = np.ones(k, dtype=bool)
    landed = np.zeros(k, dtype=bool)
    y_land, h_land, f_land = np.zeros_like(y), np.zeros(k), np.zeros(k)
    for _ in range(90):
        s = np.flatnonzero(searching)
        if not s.size:
            break
        mid = 0.5 * (lo[s] + hi[s])
        y_mid, _, ok = fld.advance(y[s], sign[s, None] * g[s], mid, sign[s])
        hi[s[~ok]] = mid[~ok]
        s, mid, y_mid = s[ok], mid[ok], y_mid[ok]
        f_mid = fld.f.evaluate(y_mid)
        hit = np.abs(f_mid - c[s]) <= Z.level_tol
        y_land[s[hit]], h_land[s[hit]], f_land[s[hit]] = y_mid[hit], mid[hit], f_mid[hit]
        landed[s[hit]] = True
        searching[s[hit]] = False
        s, mid, f_mid = s[~hit], mid[~hit], f_mid[~hit]
        same_side = (f_mid - c[s] > 0) == (f_start[s] - c[s] > 0)
        lo[s[same_side]] = mid[same_side]
        hi[s[~same_side]] = mid[~same_side]
        searching[s[hi[s] - lo[s] <= 1e-16 * h[s]]] = False
    return landed, y_land, h_land, f_land
