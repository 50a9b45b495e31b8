"""Zero sets of polynomial systems inside a box, with tangent-space projection.

The working space is ``Z = {x : g(x) = 0}`` for a (possibly empty) polynomial
system ``g``, intersected with an axis-aligned box.  Nothing here assumes Z is
smooth: the tangent space at a point is the numerical null space of the
constraint Jacobian, with the effective rank cut at ``RANK_TOL`` relative to
the largest singular value.  Where the rank drops the null space simply grows;
only ``effective_rank`` (``classify``'s probe count) reads the rank itself.

Membership is residual-based (``||g(x)|| <= MEMBER_TOL`` and x inside the
box), and points are put back on Z by Gauss-Newton least-squares steps.
Projection and retraction share one kernel, :func:`orthogonal_rows`, which
orthogonalises the rows of every Jacobian of a batch by one-sided Jacobi
rotations; it compares only the row pairs that :func:`rotating_pairs` derives
from the variables each constraint uses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .polynomial import Polynomial, PolynomialSystem, _points

# singular values of Dg at or below RANK_TOL times the largest are cut
RANK_TOL = 1e-8
# a point is on Z when its residual is at most MEMBER_TOL
MEMBER_TOL = 1e-8
# cap on the one-sided Jacobi sweeps of orthogonal_rows; a few rows
# converge in a handful
JACOBI_SWEEPS = 30
# retract_batch, and so project_to_level_set, takes at most this many Gauss-Newton steps
GAUSS_NEWTON_ITER = 50
# the 25 step lengths t, t/2, ..., t/2^24 of a line search, tried in rounds of these sizes
LINE_SEARCH_ROUNDS = (1, 5, 8, 11)
EPS = np.finfo(float).eps


class RetractionError(RuntimeError):
    """Gauss-Newton failed to bring the constraint residual below tolerance."""


@dataclass(frozen=True)
class SingularSpace:
    """``g^{-1}(0)`` restricted to a box.

    Parameters
    ----------
    ambient_dim : dimension n of the ambient space.
    constraints : polynomial system g (may be empty, giving Z = R^n in the box).
    box : per-coordinate (lo, hi) bounds; the numerical working region.
    retract_tol : target residual for ``retract``.
    level_tol : target residual for ``project_to_level_set`` and level landings.

    The rank cut of Dg and the membership residual are the module constants
    ``RANK_TOL`` and ``MEMBER_TOL``, the same for every space.
    """

    ambient_dim: int
    constraints: PolynomialSystem
    box: tuple[tuple[float, float], ...]
    retract_tol: float = 1e-10
    level_tol: float = 1e-10

    def __post_init__(self):
        if len(self.constraints.variables) != self.ambient_dim:
            raise ValueError(
                f"constraints use {len(self.constraints.variables)} variables, ambient_dim is {self.ambient_dim}"
            )
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        if len(box) != self.ambient_dim:
            raise ValueError(f"box has {len(box)} intervals, expected {self.ambient_dim}")
        for lo, hi in box:
            if not lo < hi:
                raise ValueError(f"degenerate box interval ({lo}, {hi})")
        object.__setattr__(self, "box", box)

    @cached_property
    def box_diameter(self) -> float:
        spans = np.array([hi - lo for lo, hi in self.box])
        return float(np.linalg.norm(spans))

    @cached_property
    def _box_bounds(self) -> np.ndarray:
        """The box as a read-only (2, n) array: its lower bounds, then its upper bounds."""
        bounds = np.array(self.box).T
        bounds.setflags(write=False)
        return bounds

    @cached_property
    def _row_pairs(self) -> list[tuple[int, int]]:
        """The pairs of rows of Dg that a Jacobi sweep can turn, from the variables each constraint uses."""
        return rotating_pairs([{i for t in p.terms for i, e in enumerate(t.exponents) if e} for p in self.constraints])

    # -- membership ----------------------------------------------------

    def residual(self, x: Sequence[float] | np.ndarray) -> float | np.ndarray:
        """Euclidean norm of g(x); 0 for an unconstrained space.

        x is one point, giving a float, or an (N, n) block, giving one norm
        per row, each equal to the one-point result for that row.
        """
        x = _points(x, self.ambient_dim)
        X = np.atleast_2d(x)
        res = row_norms(self.constraints.evaluate(X)) if len(self.constraints) else np.zeros(len(X))
        return float(res[0]) if x.ndim == 1 else res

    def inside_box(self, x: Sequence[float] | np.ndarray) -> bool | np.ndarray:
        """Whether every coordinate lies in its closed interval; NaN lies in none.

        x is one point, giving a bool, or an (N, n) block, giving one flag per row.
        """
        x = _points(x, self.ambient_dim)
        lo, hi = self._box_bounds
        inside = ((x >= lo) & (x <= hi)).all(axis=-1)
        return bool(inside) if x.ndim == 1 else inside

    def is_member(self, x: Sequence[float] | np.ndarray) -> bool | np.ndarray:
        """Whether the residual is at most MEMBER_TOL inside the box; NaN is never a member.

        x is one point, giving a bool, or an (N, n) block, giving one flag per row.
        """
        return (self.residual(x) <= MEMBER_TOL) & self.inside_box(x)

    # -- tangent structure ----------------------------------------------

    def effective_rank(self, x: Sequence[float] | np.ndarray) -> int:
        """Rank of Dg(x) with singular values at or below RANK_TOL * sigma_max dropped."""
        x = np.asarray(x, dtype=float)
        return int(self.tangent_project_batch(x[None, :], np.zeros_like(x)[None, :])[1][0])

    def tangent_project(self, x: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> np.ndarray:
        """Orthogonal projection of v onto the null space of Dg(x).

        At rank-deficient points the null space grows (at a fully degenerate
        Jacobian the projection is the identity).  The projection is
        idempotent by construction.  This is :meth:`tangent_project_batch`
        on one row.
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        return self.tangent_project_batch(x[None, :], v[None, :])[0][0]

    def tangent_project_batch(self, X: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project each row of V onto the null space of Dg at the same row of X.

        The projection removes the components along the orthogonalised rows
        of Dg (:func:`orthogonal_rows`), so singular values at or below
        ``RANK_TOL`` times the largest are cut; also returns the effective
        rank of Dg at each row.  Row i of the result depends on row i of the
        input only, bit for bit, whatever the batch around it.
        """
        X = np.asarray(X, dtype=float)
        V = np.asarray(V, dtype=float)
        if not len(self.constraints):
            return V.copy(), np.zeros(len(X), dtype=int)
        B, s2, _ = orthogonal_rows(self.constraints.jacobian_at(X), RANK_TOL, self._row_pairs)
        P, rank = V, 0
        for b, s in zip(B, s2):
            kept = s != 0.0
            P = P - b * np.divide(row_sums(b * V), s, out=np.zeros(len(s)), where=kept)[:, None]
            rank = rank + kept
        return P, rank

    # -- retraction ------------------------------------------------------

    def retract(self, x: Sequence[float] | np.ndarray) -> np.ndarray:
        """Pull x back onto Z: :meth:`retract_batch` on one point.

        Raises :class:`RetractionError` when the residual is not below
        ``retract_tol``.
        """
        x = np.array(x, dtype=float)
        points, ok = self.retract_batch(x[None, :])
        if not ok[0]:
            raise RetractionError(
                f"residual {self.residual(points[0]):.3e} > {self.retract_tol:.1e} "
                f"after retracting x = {x.tolist()}")
        return points[0]

    def retract_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pull every row of X back onto Z by damped Gauss-Newton on g.

        Each step is the minimum-norm least-squares solution of
        ``Dg(x) d = -g(x)`` with the rank cut at ``RANK_TOL``, from the
        orthogonalised rows of :func:`orthogonal_rows`, shortened per row by
        :func:`line_search` until that row's residual decreases.
        A row stops when its residual is at most ``retract_tol``, and fails
        when no length decreases it or GAUSS_NEWTON_ITER steps do not get it
        there.  Returns the points and a mask of the rows that succeeded;
        a failed row holds its last iterate.  Rows do not interact.
        """
        X = np.array(X, dtype=float)
        if not len(self.constraints):
            return X, np.ones(len(X), dtype=bool)
        G = self.constraints.evaluate(X)
        res = norms(G)
        alive = np.ones(len(X), dtype=bool)
        for _ in range(GAUSS_NEWTON_ITER):
            rows = (alive & (res > self.retract_tol)).nonzero()[0]
            if not rows.size:
                break
            x = X[rows]
            D = self._min_norm_steps(self.constraints.jacobian_at(x), -G[rows])
            down, *new = line_search(self.constraints.evaluate, x, D, res[rows], np.ones(len(rows)))
            X[rows[down]], G[rows[down]], res[rows[down]] = new
            alive[rows[~down]] = False
        return X, alive & (res <= self.retract_tol)

    def _min_norm_steps(self, J: np.ndarray, R: np.ndarray) -> np.ndarray:
        """Minimum-norm solutions of ``J[i] d = R[i]`` for stacked J, shape (N, m, n).

        The rank is cut at ``RANK_TOL``, as in :meth:`tangent_project_batch`.
        """
        B, s2, W = orthogonal_rows(J, RANK_TOL, self._row_pairs, R)
        D = None
        for b, s, w in zip(B, s2, W):
            step = b * np.divide(w, s, out=np.zeros(len(s)), where=s != 0.0)[:, None]
            D = step if D is None else D + step
        return D


def min_norm_steps(J: np.ndarray, R: np.ndarray, rank_tol: float) -> np.ndarray:
    """Minimum-norm least-squares solutions of ``J[i] d = R[i]`` for a stack J, shape (N, M, n).

    The SVD solution with singular values at or below ``rank_tol`` times the
    largest cut; ``rank_tol = eps * max(M, n)`` is the default cut of
    numpy's least-squares solver, which the critical search uses on its
    (m + n) x n systems.  A matrix with a non-finite entry gets a NaN step
    and leaves the rest of the stack alone.
    """
    U, s, Vt, kept = _rank_cut_svd(J, rank_tol)
    k = s.shape[1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    coef = row_sums(U[:, :, :k].transpose(0, 2, 1) * R[:, None, :]) * inv
    return row_sums(Vt[:, :k].transpose(0, 2, 1) * coef[:, None, :])


def line_search(resid, X: np.ndarray, D: np.ndarray, rn: np.ndarray, t: np.ndarray):
    """Per row, the first of the points ``X + t D / 2^k``, k = 0 ... 24, whose residual is finite and below rn.

    resid maps an (N, n) block to its rows' residuals.  The full step goes
    first, on every row; the rows that refuse it try the halvings in the
    remaining rounds of ``LINE_SEARCH_ROUNDS``, one resid call per round.
    Returns the mask of the rows that found a point and, for those rows,
    the point, its residual and the residual's norm.  Rows do not interact.
    """
    xn = X + t[:, None] * D
    R = resid(xn)
    RN = norms(R)
    hit = RN < rn  # a NaN or infinite norm is below nothing
    if hit.all():
        return hit, xn, R, RN
    todo, tried = (~hit).nonzero()[0], 1
    for width in LINE_SEARCH_ROUNDS[1:]:
        T = t[todo, None] * 0.5 ** np.arange(tried, tried + width)
        x = X[todo, None, :] + T[:, :, None] * D[todo, None, :]
        r = resid(x.reshape(-1, X.shape[1])).reshape(len(todo), width, -1)
        rn_new = norms(r)
        down = rn_new < rn[todo, None]
        found, k = down.any(axis=1), down.argmax(axis=1)
        rows, k = todo[found], k[found]
        hit[rows], xn[rows], R[rows], RN[rows] = True, x[found, k], r[found, k], rn_new[found, k]
        todo, tried = todo[~found], tried + width
        if not todo.size:
            break
    return hit, xn[hit], R[hit], RN[hit]


def norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis of A, summed by :func:`row_sums`."""
    return np.sqrt(row_sums(A * A))


def row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of A, shape (N, k).

    Each entry is bit for bit ``np.linalg.norm`` of its row alone: a
    row-times-column product runs the same dot kernel as a 1-D norm.
    """
    return np.sqrt(np.matmul(A[:, None, :], A[:, :, None])[:, 0, 0])


def row_sums(A: np.ndarray) -> np.ndarray:
    """Sum over the last axis, term by term from the first.

    The order of the additions is fixed, so a row's sum does not depend on
    how many rows are summed with it.
    """
    total = A[..., 0].copy()
    for j in range(1, A.shape[-1]):
        total += A[..., j]
    return total


def rotating_pairs(supports: Sequence[set[int]]) -> list[tuple[int, int]]:
    """The row pairs (i, j), i < j, that :func:`orthogonal_rows` can ever turn.

    supports[i] holds the columns where row i of every Jacobian may be
    non-zero; its other entries are exactly 0.0.  Rows that share a column
    are joined, and a pair is kept when its rows lie in one connected
    component of that graph.  A rotation mixes two rows of one component,
    so every row stays 0.0 outside its component's columns; a pair from
    two components then has a 0.0 factor in every product of its inner
    product, which is ±0 or NaN and never passes the sweep's test.
    """
    label = list(range(len(supports)))
    for i in range(len(supports)):
        for j in range(i):
            if supports[i] & supports[j]:
                old = label[i]
                label = [label[j] if lab == old else lab for lab in label]
    return [(i, j) for i in range(len(label)) for j in range(i + 1, len(label)) if label[i] == label[j]]


def orthogonal_rows(J: np.ndarray, rank_tol: float, pairs: Sequence[tuple[int, int]], R: np.ndarray | None = None):
    """Rotate the rows of every matrix of a stack J, shape (N, m, n), until they are orthogonal.

    One-sided (Hestenes) Jacobi: plane rotations, one orthogonal m x m
    matrix Q per stack entry, turn the rows of J into rows b_i of ``Q J``
    that are mutually orthogonal, so the b_i span the row space of J and
    their norms are its singular values.  Each sweep compares the row pairs
    of ``pairs`` in their order (:func:`rotating_pairs` leaves out those
    that can never turn).  A pair is rotated only where it is not yet
    orthogonal (cosine above n * eps) and neither row is rounding noise
    beside the other (norm ratio at most n * eps); sweeps run until no pair
    turns, at most ``JACOBI_SWEEPS``.  A single row is never rotated.

    Returns three arrays: the rows B, shape (m, N, n), with B[i] the rows
    b_i; their squared norms, shape (m, N), set to 0 where ``sigma_i <=
    rank_tol * sigma_max`` (the row is cut); and, when R (N, m) is given,
    the entries of ``Q R``, shape (m, N), else None.  One row's B is a view
    of J; with two or more rows B is a transposed copy of J, so each B[i]
    is C-contiguous: numpy multiplies a strided (N, n) view ``J[:, i]`` 3
    to 7 times slower.  J and R are not written to.  Each stack entry is
    rotated on its own, bit for bit.  A matrix with a non-finite entry (or
    squared row norms that overflow) is never rotated, and its squared
    norms are not finite: with two or more rows all of them are NaN.
    """
    m = J.shape[1]
    if m == 1:
        # one row is orthogonal already and is its own largest: nothing to turn or
        # cut; its norms are summed on the 2-D view, which costs less than the 3-D one
        b = J[:, 0]
        return b[None], row_sums(b * b)[None], None if R is None else R.T
    B = J.transpose(1, 0, 2).copy()
    W = None if R is None else R.T.copy()
    s2 = row_sums(B * B)
    tol = J.shape[2] * EPS
    for _ in range(JACOBI_SWEEPS):
        turned = False
        for i, j in pairs:
            gamma = row_sums(B[i] * B[j])
            k = (np.abs(gamma) > tol * np.sqrt(s2[i]) * np.sqrt(s2[j])).nonzero()[0]
            if not k.size:
                continue
            # a row within n * eps of the other's norm is rounding noise,
            # which the rank cut drops; turning it only stirs the noise
            si, sj = s2[i, k], s2[j, k]
            live = np.minimum(si, sj) > (tol * tol) * np.maximum(si, sj)
            if not live.any():
                continue
            k, si, sj = k[live], si[live], sj[live]
            turned = True
            # the rotation that zeroes the pair's inner product (Rutishauser's formulas)
            zeta = (sj - si) / (2.0 * gamma[k])
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            bi, bj = B[i, k], B[j, k]
            B[i, k], B[j, k] = c[:, None] * bi - s[:, None] * bj, s[:, None] * bi + c[:, None] * bj
            if W is not None:
                wi, wj = W[i, k], W[j, k]
                W[i, k], W[j, k] = c * wi - s * wj, s * wi + c * wj
            for r in (i, j):
                s2[r, k] = row_sums(B[r, k] ** 2)
        if not turned:
            break
    s2max = s2.max(axis=0)
    cut = (rank_tol * rank_tol) * s2max
    nan = 0.0 * s2max  # 0 where the matrix is finite, NaN where it is not
    return B, np.where(s2 > cut, s2, nan), W


def _rank_cut_svd(J: np.ndarray, rank_tol: float):
    """SVD of each matrix of a stack (N, m, n), with the effective rank cut.

    Returns ``U, s, Vt`` and the mask of the singular values kept: those
    above ``rank_tol`` times the largest, so the rank is the mask's row sum.
    A matrix with a non-finite entry gets NaN factors and keeps nothing, so
    it cannot stop the SVD of the rest of the stack.
    """
    try:
        U, s, Vt = np.linalg.svd(J)
    except np.linalg.LinAlgError:
        N, m, n = J.shape
        finite = np.isfinite(J.reshape(N, m * n)).all(axis=1)
        U, s, Vt = np.full((N, m, m), np.nan), np.full((N, min(m, n)), np.nan), np.full((N, n, n), np.nan)
        if finite.any():
            U[finite], s[finite], Vt[finite] = np.linalg.svd(J[finite])
    return U, s, Vt, s > rank_tol * s[:, :1]


def project_to_level_set(
    f: Polynomial, Z: SingularSpace, X: np.ndarray, c: float
) -> tuple[np.ndarray, np.ndarray]:
    """Project every row of X onto ``Z ∩ {f = c}``.

    This is :meth:`SingularSpace.retract_batch` on the joint system
    ``g(x) = 0, f(x) - c = 0`` with target residual ``level_tol``.  Returns
    the points and a mask of the rows that succeeded: each of those reached
    the joint residual inside the box, so it has ``|f - c| <= level_tol``
    and, as ``level_tol <= MEMBER_TOL``, satisfies ``is_member``.  A failed
    row holds its last iterate.  Rows do not interact.
    """
    joint = replace(
        Z,
        constraints=PolynomialSystem(Z.constraints.variables, (*Z.constraints.components, f - float(c))),
        retract_tol=Z.level_tol,
    )
    points, ok = joint.retract_batch(X)
    return points, ok & Z.inside_box(points)
