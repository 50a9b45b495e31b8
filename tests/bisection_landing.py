"""Reference copy of ``flow._land`` as it bisected each crossing step.

Member i re-took its crossing step with lengths bisected in [0, h_i], at
most 90 times, until the endpoint had |f - c_i| <= level_tol; a failed
retraction moved the upper end down.  :func:`land` takes the same arguments
as ``flow._land``; tests/test_flow.py runs crossing ensembles through both
and checks that the secant landing lands every row this one lands.
"""

import numpy as np

from morseflow.space import row_sums


def land(fld, cr, finish, keep_samples):
    """The deleted bisection landing, with its collapse test ``hi - lo <= 1e-16 * h``."""
    Z = fld.Z
    k = len(cr)
    lo, hi = np.zeros(k), cr.h.copy()
    searching = np.ones(k, dtype=bool)
    landed = np.zeros(k, dtype=bool)
    y_land, h_land, f_land = np.zeros_like(cr.y), np.zeros(k), np.zeros(k)
    for _ in range(90):
        s = np.flatnonzero(searching)
        if not s.size:
            break
        mid = 0.5 * (lo[s] + hi[s])
        y_mid, _, ok = fld.advance(cr.y[s], cr.sign[s, None] * cr.g[s], mid, cr.sign[s])
        hi[s[~ok]] = mid[~ok]
        s, mid, y_mid = s[ok], mid[ok], y_mid[ok]
        f_mid = fld.f.evaluate(y_mid)
        hit = np.abs(f_mid - cr.c[s]) <= Z.level_tol
        y_land[s[hit]], h_land[s[hit]], f_land[s[hit]] = y_mid[hit], mid[hit], f_mid[hit]
        landed[s[hit]] = True
        searching[s[hit]] = False
        s, mid, f_mid = s[~hit], mid[~hit], f_mid[~hit]
        same_side = (f_mid - cr.c[s] > 0) == (cr.fy[s] - cr.c[s] > 0)
        lo[s[same_side]] = mid[same_side]
        hi[s[~same_side]] = mid[~same_side]
        searching[s[hi[s] - lo[s] <= 1e-16 * cr.h[s]]] = False

    finish(cr.select(~landed), "landing_failed")
    cr = cr.select(landed)
    y_land, h_land, f_land = y_land[landed], h_land[landed], f_land[landed]
    inside = Z.inside_box(y_land)
    finish(cr.select(~inside), "left_box")
    cr, y_land, h_land, f_land = cr.select(inside), y_land[inside], h_land[inside], f_land[inside]
    g_land = fld.projected_grad(y_land)
    gn_land = np.sqrt(row_sums(g_land * g_land))
    cr.arc = cr.arc + h_land * 0.5 * (cr.gn + gn_land)
    cr.t = cr.t + h_land
    cr.y, cr.fy, cr.gn = y_land, f_land, gn_land
    cr.n_accepted = cr.n_accepted + 1
    keep_samples(cr, np.flatnonzero(cr.record))
    finish(cr, "reach_level")
