"""Reference copy of the null-space kernel as it kept each row a strided view of J.

``orthogonal_rows`` here returns lists of m arrays: the rows ``J[:, i]``,
copied only when a rotation turns them, their squared norms and the
rotated residuals.  ``space.orthogonal_rows`` keeps the rows as the
contiguous blocks of one (m, N, n) array and must give the same bits;
tests/test_space.py checks that through projection, steps and retraction.
This copy sweeps every pair of rows whatever ``pairs`` holds, so the same
checks show that leaving out the pairs ``space.rotating_pairs`` drops
changes no bit.
"""

import numpy as np

from morseflow.space import EPS, JACOBI_SWEEPS, row_sums


def orthogonal_rows(J, rank_tol, pairs, R=None):
    m = J.shape[1]
    if m == 1:
        b = J[:, 0]
        return [b], [row_sums(b * b)], None if R is None else [R[:, 0]]
    B = [J[:, i] for i in range(m)]
    W = None if R is None else [R[:, i] for i in range(m)]
    s2 = [row_sums(b * b) for b in B]
    tol = J.shape[2] * EPS
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for _ in range(JACOBI_SWEEPS):
        turned = False
        for i, j in pairs:
            gamma = row_sums(B[i] * B[j])
            k = (np.abs(gamma) > tol * np.sqrt(s2[i]) * np.sqrt(s2[j])).nonzero()[0]
            si, sj = s2[i][k], s2[j][k]
            live = np.minimum(si, sj) > (tol * tol) * np.maximum(si, sj)
            if not live.any():
                continue
            k, si, sj = k[live], si[live], sj[live]
            turned = True
            zeta = (sj - si) / (2.0 * gamma[k])
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            _rotate(B, i, j, k, c[:, None], s[:, None])
            if W is not None:
                _rotate(W, i, j, k, c, s)
            for r in (i, j):
                s2[r][k] = row_sums(B[r][k] ** 2)
        if not turned:
            break
    s2max = s2[0]
    for s in s2[1:]:
        s2max = np.maximum(s2max, s)
    cut = (rank_tol * rank_tol) * s2max
    nan = 0.0 * s2max
    return B, [np.where(s > cut, s, nan) for s in s2], W


def _rotate(A, i, j, k, c, s):
    """Rotate entries i and j of the list A at the stack entries k, into new arrays."""
    ai, aj = A[i][k], A[j][k]
    A[i], A[j] = A[i].copy(), A[j].copy()
    A[i][k] = c * ai - s * aj
    A[j][k] = s * ai + c * aj
