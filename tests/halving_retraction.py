"""Reference copy of ``SingularSpace.retract_batch`` as it ran with its own line search.

Each Gauss-Newton iteration halved one step length for every row still
searching, 25 times, and kept each row's first lower residual; a NaN
residual is never lower.  ``space.line_search`` must pick the same points,
residuals and norms as :func:`halving_search`, and ``retract_batch`` must
return the points and mask of :func:`retract_batch`, bit for bit;
tests/test_space.py checks both.
"""

import numpy as np

from morseflow.space import row_sums


def halving_search(resid, x, D, r):
    """Per row, the first of ``x - D / 2^k``, k = 0 ... 24, whose residual norm is below r.

    Returns the mask of the rows that found one and full-length arrays of
    points, residuals and norms, which hold the found rows' values.
    """
    N = len(x)
    X, G, res = x.copy(), None, np.full(N, np.nan)
    rows = np.arange(N)
    # every row still searching has halved equally often, so one
    # step length serves them all
    lam = 1.0
    for _ in range(25):
        x_new = x - lam * D
        g_new = resid(x_new)
        r_new = np.sqrt(row_sums(g_new * g_new))
        if G is None:
            G = np.full((N, g_new.shape[1]), np.nan)
        down = r_new < r
        if down.all():
            X[rows], G[rows], res[rows] = x_new, g_new, r_new
            rows = rows[:0]
            break
        hit = rows[down]
        X[hit], G[hit], res[hit] = x_new[down], g_new[down], r_new[down]
        up = ~down
        rows, x, D, r = rows[up], x[up], D[up], r[up]
        lam *= 0.5
    found = np.ones(N, dtype=bool)
    found[rows] = False
    return found, X, G, res


def retract_batch(Z, X, max_iter=50):
    """The deleted ``retract_batch``, with its halving loop as :func:`halving_search`."""
    X = np.array(X, dtype=float)
    if not len(Z.constraints):
        return X, np.ones(len(X), dtype=bool)
    G = Z.constraints.evaluate(X)
    res = np.sqrt(row_sums(G * G))
    alive = np.ones(len(X), dtype=bool)
    for _ in range(max_iter):
        rows = (alive & (res > Z.retract_tol)).nonzero()[0]
        if not rows.size:
            break
        x = X[rows]
        D = Z._min_norm_steps(Z.constraints.jacobian_at(x), G[rows])
        down, x_new, g_new, r_new = halving_search(Z.constraints.evaluate, x, D, res[rows])
        hit = rows[down]
        X[hit], G[hit], res[hit] = x_new[down], g_new[down], r_new[down]
        alive[rows[~down]] = False
    return X, alive & (res <= Z.retract_tol)
