"""Reference copy of the critical search's Gauss-Newton as it ran in fixed blocks.

Every seed block of BLOCK rows iterated until its slowest row was done,
and its central differences displaced one column at a time.  The pool in
``critical._refine`` must return the same X, R and mask, bit for bit;
tests/test_critical.py checks that on the full default grids, and checks
``critical._central_differences`` against the copy here.
"""

import numpy as np

from morseflow.critical import _lstsq_steps
from morseflow.space import LINE_SEARCH_ROUNDS, norms as _norms

BLOCK = 64


def _central_differences(resid, X):
    N, n = X.shape
    H = 1e-7 * np.maximum(1.0, np.abs(X))
    P = np.repeat(X[None], 2 * n, axis=0)
    for j in range(n):
        P[2 * j, :, j] += H[:, j]
        P[2 * j + 1, :, j] -= H[:, j]
    D = resid(P.reshape(2 * n * N, n)).reshape(n, 2, N, -1)
    return ((D[:, 0] - D[:, 1]) / (2.0 * H.T[:, :, None])).transpose(1, 2, 0)


def refine(resid, X0, tol, jac=None, max_iter=80, polish_iter=40, max_step_len=None):
    X = np.array(X0, dtype=float)
    blocks = [_refine_block(resid, X[lo:lo + BLOCK], tol, jac, max_iter, polish_iter, max_step_len)
              for lo in range(0, max(len(X), 1), BLOCK)]
    return X, np.concatenate([R for R, _ in blocks]), np.concatenate([ok for _, ok in blocks])


def _refine_block(resid, X, tol, jac, max_iter, polish_iter, max_step_len):
    n = X.shape[1]
    R = resid(X)
    rn = _norms(R)
    ok = np.isfinite(rn)
    stall = np.zeros(len(X), dtype=int)
    rows = ok.nonzero()[0]
    for _ in range(max_iter):
        rows = rows[rn[rows] >= tol]
        if not rows.size:
            break
        x = X[rows]
        step = _lstsq_steps(jac(x) if jac else _central_differences(resid, x), -R[rows])
        finite = np.isfinite(step).all(axis=1)
        ok[rows[~finite]] = False
        rows, x, step = rows[finite], x[finite], step[finite]
        t = np.ones(len(rows))
        if max_step_len is not None:
            sn = _norms(step)
            long = sn > max_step_len
            t[long] = max_step_len / sn[long]
        todo, tried = np.arange(len(rows)), 0
        for width in LINE_SEARCH_ROUNDS:
            T = t[todo, None] * 0.5 ** np.arange(tried, tried + width)
            xn = x[todo, None, :] + T[:, :, None] * step[todo, None, :]
            r_new = resid(xn.reshape(-1, n)).reshape(len(todo), width, -1)
            rn_new = _norms(r_new)
            down = np.isfinite(rn_new) & (rn_new < rn[rows[todo], None])
            found, k = down.any(axis=1), down.argmax(axis=1)
            hit, k = rows[todo[found]], k[found]
            xn, r_new, rn_new = xn[found, k], r_new[found, k], rn_new[found, k]
            stall[hit] = np.where(rn_new > 0.5 * rn[hit], stall[hit] + 1, 0)
            X[hit], R[hit], rn[hit] = xn, r_new, rn_new
            todo, tried = todo[~found], tried + width
            if not todo.size:
                break
        ok[rows[todo]] = False
        ok[rows[stall[rows] >= 6]] = False
        rows = rows[ok[rows]]
    ok &= rn < tol
    rows = ok.nonzero()[0]
    for _ in range(polish_iter):
        if not rows.size:
            break
        x = X[rows]
        step = _lstsq_steps(jac(x) if jac else _central_differences(resid, x), -R[rows])
        finite = np.isfinite(step).all(axis=1)
        rows, xn, step = rows[finite], x[finite] + step[finite], step[finite]
        r_new = resid(xn)
        rn_new = _norms(r_new)
        kept = np.isfinite(rn_new) & (rn_new <= np.maximum(rn[rows], tol))
        rows, xn, step = rows[kept], xn[kept], step[kept]
        X[rows], R[rows], rn[rows] = xn, r_new[kept], rn_new[kept]
        rows = rows[_norms(step) >= 1e-14 * (1.0 + _norms(xn))]
    return R, ok
