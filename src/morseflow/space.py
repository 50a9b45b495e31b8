"""Zero sets of polynomial systems inside a box, with tangent-space projection.

The working space is ``Z = {x : g(x) = 0}`` for a (possibly empty) polynomial
system ``g``, intersected with an axis-aligned box.  Nothing here assumes Z is
smooth: the tangent space at a point is the numerical null space of the
constraint Jacobian, with the effective rank cut at ``rank_tol`` relative to
the largest singular value.  Where the rank drops the null space simply grows;
callers that care about rank transitions can ask for the rank directly.

Membership is residual-based (``||g(x)|| <= tol`` and x inside the box), and
points are put back on Z by Gauss-Newton least-squares steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .polynomial import Polynomial, PolynomialSystem, gradient

__all__ = [
    "SingularSpace",
    "RetractionError",
    "LevelProjectionError",
    "riemannian_grad",
    "project_to_level_set",
]


class RetractionError(RuntimeError):
    """Gauss-Newton failed to bring the constraint residual below tolerance."""


class LevelProjectionError(RuntimeError):
    """Joint (constraint, level) projection failed to converge."""


@dataclass(frozen=True)
class SingularSpace:
    """``g^{-1}(0)`` restricted to a box.

    Parameters
    ----------
    ambient_dim : dimension n of the ambient space.
    constraints : polynomial system g (may be empty, giving Z = R^n in the box).
    box : per-coordinate (lo, hi) bounds; the numerical working region.
    rank_tol : relative singular-value cutoff for the effective rank of Dg.
    member_tol : residual tolerance used by ``is_member``.
    retract_tol : target residual for ``retract``.
    level_tol : target residual for ``project_to_level_set`` and level landings.
    """

    ambient_dim: int
    constraints: PolynomialSystem
    box: tuple[tuple[float, float], ...]
    rank_tol: float = 1e-8
    member_tol: float = 1e-8
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

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    # -- membership ----------------------------------------------------

    def residual(self, x: Sequence[float] | np.ndarray) -> float:
        """Euclidean norm of g(x); 0 for an unconstrained space."""
        if not len(self.constraints):
            return 0.0
        return float(np.linalg.norm(self.constraints.evaluate(np.asarray(x, dtype=float))))

    def inside_box(self, x: Sequence[float] | np.ndarray, margin: float = 0.0) -> bool:
        """Whether every coordinate lies in its interval; NaN lies in none."""
        x = np.asarray(x, dtype=float)
        for xi, (lo, hi) in zip(x, self.box):
            if not lo + margin <= xi <= hi - margin:
                return False
        return True

    def is_member(self, x: Sequence[float] | np.ndarray, tol: float | None = None) -> bool:
        tol = self.member_tol if tol is None else tol
        return self.residual(x) <= tol and self.inside_box(x)

    # -- tangent structure ----------------------------------------------

    def constraint_jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.constraints.jacobian_at(x)

    def effective_rank(self, x: Sequence[float] | np.ndarray) -> int:
        """Rank of Dg(x) with singular values at or below rank_tol * sigma_max dropped."""
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

        Singular values at or below ``rank_tol`` times the largest are cut;
        also returns the effective rank of Dg at each row.  Row i of the
        result depends on row i of the input only, bit for bit, whatever
        the batch around it.
        """
        X = np.asarray(X, dtype=float)
        V = np.asarray(V, dtype=float)
        m = len(self.constraints)
        if not m:
            return V.copy(), np.zeros(len(X), dtype=int)
        J = self.constraints.jacobian_at(X)
        if m == 1:
            row = J[:, 0]
            s2 = row_sums(row * row)
            coef = np.zeros(len(X))
            np.divide(row_sums(row * V), s2, out=coef, where=s2 != 0.0)
            return V - row * coef[:, None], (s2 != 0.0).astype(int)
        _, _, Vt, kept = _rank_cut_svd(J, self.rank_tol)
        rank = kept.sum(axis=1)
        null = np.arange(self.ambient_dim)[None, :] >= rank[:, None]
        coef = np.where(null, row_sums(Vt * V[:, None, :]), 0.0)
        return row_sums(Vt.transpose(0, 2, 1) * coef[:, None, :]), rank

    # -- retraction ------------------------------------------------------

    def retract(self, x: Sequence[float] | np.ndarray, max_iter: int = 50) -> np.ndarray:
        """Pull x back onto Z: :meth:`retract_batch` on one point.

        Raises :class:`RetractionError` when the residual is not below
        ``retract_tol``.
        """
        x = np.array(x, dtype=float)
        points, ok = self.retract_batch(x[None, :], max_iter)
        if not ok[0]:
            raise RetractionError(
                f"residual {self.residual(points[0]):.3e} > {self.retract_tol:.1e} "
                f"after retracting x = {x.tolist()}")
        return points[0]

    def retract_batch(self, X: np.ndarray, max_iter: int = 50) -> tuple[np.ndarray, np.ndarray]:
        """Pull every row of X back onto Z by damped Gauss-Newton on g.

        Each step is the minimum-norm least-squares solution of
        ``Dg(x) d = g(x)`` (closed form for one constraint, a rank-cut SVD
        otherwise), halved per row until that row's residual decreases.
        A row stops when its residual is at most ``retract_tol``, and fails
        when no halving decreases it or ``max_iter`` steps do not get it
        there.  Returns the points and a mask of the rows that succeeded;
        a failed row holds its last iterate.  Rows do not interact.
        """
        X = np.array(X, dtype=float)
        if not len(self.constraints):
            return X, np.ones(len(X), dtype=bool)
        G = self.constraints.evaluate(X)
        res = np.sqrt(row_sums(G * G))
        alive = np.ones(len(X), dtype=bool)
        for _ in range(max_iter):
            rows = (alive & (res > self.retract_tol)).nonzero()[0]
            if not rows.size:
                break
            x, r = X[rows], res[rows]
            D = self._min_norm_steps(self.constraints.jacobian_at(x), G[rows])
            # every row still searching has halved equally often, so one
            # step length serves them all
            lam = 1.0
            for _ in range(25):
                x_new = x - lam * D
                g_new = self.constraints.evaluate(x_new)
                r_new = np.sqrt(row_sums(g_new * g_new))
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
            alive[rows] = False
        return X, alive & (res <= self.retract_tol)

    def _min_norm_steps(self, J: np.ndarray, R: np.ndarray) -> np.ndarray:
        """Minimum-norm solutions of ``J[i] d = R[i]`` for stacked J, shape (N, m, n)."""
        if J.shape[1] == 1:
            row = J[:, 0]
            s2 = row_sums(row * row)
            coef = np.zeros(len(J))
            np.divide(R[:, 0], s2, out=coef, where=s2 != 0.0)
            return row * coef[:, None]
        return min_norm_steps(J, R, self.rank_tol)


def min_norm_steps(J: np.ndarray, R: np.ndarray, rank_tol: float) -> np.ndarray:
    """Minimum-norm least-squares solutions of ``J[i] d = R[i]`` for a stack J, shape (N, M, n).

    The SVD solution with singular values at or below ``rank_tol`` times the
    largest cut; ``rank_tol = eps * max(M, n)`` is the cut of
    ``np.linalg.lstsq(rcond=None)``.  A matrix with a non-finite entry
    gets a NaN step and leaves the rest of the stack alone.
    """
    U, s, Vt, kept = _rank_cut_svd(J, rank_tol)
    k = s.shape[1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    coef = row_sums(U[:, :, :k].transpose(0, 2, 1) * R[:, None, :]) * inv
    return row_sums(Vt[:, :k].transpose(0, 2, 1) * coef[:, None, :])


def row_sums(A: np.ndarray) -> np.ndarray:
    """Sum over the last axis, term by term from the first.

    The order of the additions is fixed, so a row's sum does not depend on
    how many rows are summed with it.
    """
    total = A[..., 0].copy()
    for j in range(1, A.shape[-1]):
        total += A[..., j]
    return total


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


def riemannian_grad(f: Polynomial, Z: SingularSpace, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Ambient gradient of f projected onto the tangent space of Z at x."""
    x = np.asarray(x, dtype=float)
    amb = gradient(f).evaluate(x)
    return Z.tangent_project(x, amb)


def project_to_level_set(
    f: Polynomial,
    Z: SingularSpace,
    x: Sequence[float] | np.ndarray,
    c: float,
    max_iter: int = 60,
) -> np.ndarray:
    """Newton least-squares projection onto ``Z  ∩ {f = c}``.

    Solves the joint system ``g(x) = 0, f(x) - c = 0`` from the given start;
    the result satisfies ``is_member`` and ``|f - c| < level_tol``.  Raises
    :class:`LevelProjectionError` on non-convergence.
    """
    x = np.array(x, dtype=float)
    c = float(c)
    grad_f = gradient(f)

    def joint(p: np.ndarray) -> np.ndarray:
        g = Z.constraints.evaluate(p) if len(Z.constraints) else np.zeros(0)
        return np.concatenate([g, [f.evaluate(p) - c]])

    r = joint(x)
    res = float(np.linalg.norm(r))
    for _ in range(max_iter):
        if res <= Z.level_tol:
            return x
        J_g = Z.constraint_jacobian(x) if len(Z.constraints) else np.zeros((0, Z.ambient_dim))
        J = np.vstack([J_g, grad_f.evaluate(x)[None, :]])
        d = np.linalg.lstsq(J, r, rcond=Z.rank_tol)[0]
        lam = 1.0
        for _ in range(25):
            x_new = x + (-lam) * d
            r_new = joint(x_new)
            res_new = float(np.linalg.norm(r_new))
            if res_new < res:
                break
            lam *= 0.5
        else:
            raise LevelProjectionError(f"stalled at joint residual {res:.3e}")
        x, r, res = x_new, r_new, res_new
    if res <= Z.level_tol:
        return x
    raise LevelProjectionError(f"joint residual {res:.3e} > {Z.level_tol:.1e} after {max_iter} iterations")
