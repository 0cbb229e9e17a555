"""Ambient spacetime: metric, Christoffel, and Riemann evaluators along the
embedding.

Curved backgrounds are supported only through user-supplied analytic
evaluators (no numerical differentiation of the metric), so the error budget
stays with the worldsheet discretization.  Evaluators are batch callables:
they take points of shape (..., N) and return (..., N, N), (..., N, N, N),
(..., N, N, N, N) respectively.  Signature is fixed to (-,+,...,+).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import NORMAL, WORLDSHEET_LOWER, Field

Evaluator = Callable[[np.ndarray], np.ndarray]


class BackgroundError(ValueError):
    """Invalid background construction or evaluator output."""


@dataclass(frozen=True)
class BackgroundSpacetime:
    """Lorentzian background of dimension ``dim`` with analytic evaluators.

    ``flat`` marks exactly-flat backgrounds; downstream code uses it to skip
    Christoffel/Riemann terms entirely so that flat runs are bit-identical
    to code paths that omit those terms.  Every construction checks the
    metric and Riemann evaluators at sampled points (:meth:`_check_samples`).
    """

    dim: int
    metric: Evaluator
    christoffel: Evaluator
    riemann: Evaluator
    name: str = "custom"
    flat: bool = False

    def __post_init__(self):
        if self.dim < 3:
            raise BackgroundError(
                f"need dim >= 3 (a string worldsheet requires a normal direction), got {self.dim}"
            )
        self._check_samples()

    def _check_samples(self, tol: float = 1e-10) -> None:
        # 16 fixed points, |x| <= 2, every coordinate of both signs (a sine
        # sampled every 1.7 rad, a golden-angle phase per coordinate); no
        # random draw, so validating a config loads no numpy.random
        pts = 2.0 * np.sin(1.7 * np.arange(16)[:, None] + 2.4 * np.arange(self.dim) + 0.3)
        g = np.asarray(self.metric(pts), dtype=float)
        if g.shape != (16, self.dim, self.dim):
            raise BackgroundError(f"metric evaluator returned shape {g.shape}")
        if np.abs(g - np.swapaxes(g, -1, -2)).max() > tol:
            raise BackgroundError("metric evaluator is not symmetric at sampled points")
        eigs = np.linalg.eigvalsh(g)
        if not ((eigs < 0).sum(axis=-1) == 1).all():
            raise BackgroundError("metric is not Lorentzian (-,+,...,+) at sampled points")
        r = np.asarray(self.riemann(pts), dtype=float)
        if r.shape != (16,) + (self.dim,) * 4:
            raise BackgroundError(f"riemann evaluator returned shape {r.shape}")
        for wrong, right in [
            (r, -np.swapaxes(r, 1, 2)),
            (r, -np.swapaxes(r, 3, 4)),
            (r, np.transpose(r, (0, 3, 4, 1, 2))),
        ]:
            if np.abs(wrong - right).max() > tol:
                raise BackgroundError("riemann evaluator violates algebraic symmetries")

    def metric_at(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.metric(points), dtype=float)

    def christoffel_at(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.christoffel(points), dtype=float)

    def riemann_at(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.riemann(points), dtype=float)


def _const_evaluator(arr: np.ndarray) -> Evaluator:
    """The evaluator of a constant: a read-only view of ``arr`` broadcast to
    every point, so the one copy is the caller's, in the layout it needs."""
    def ev(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points)
        return np.broadcast_to(arr, points.shape[:-1] + arr.shape)

    return ev


def minkowski_metric(n: int) -> np.ndarray:
    """The Minkowski metric diag(-1, 1, ..., 1) of dimension ``n``."""
    return np.diag([-1.0] + [1.0] * (n - 1))


def minkowski(n: int) -> BackgroundSpacetime:
    """Flat diag(-1, 1, ..., 1) background with vanishing connection/curvature."""
    if n < 3:
        raise BackgroundError(f"minkowski background needs n >= 3, got {n}")
    return BackgroundSpacetime(
        dim=n,
        metric=_const_evaluator(minkowski_metric(n)),
        christoffel=_const_evaluator(np.zeros((n, n, n))),
        riemann=_const_evaluator(np.zeros((n, n, n, n))),
        name=f"minkowski{n}",
        flat=True,
    )


def synthetic_constant_curvature(n: int, curvature: float) -> BackgroundSpacetime:
    """Flat metric paired with the space-form Riemann tensor
    R_abcd = curvature * (g_ac g_bd - g_ad g_bc).

    A verification fixture: the pair is not a consistent spacetime, but the
    Riemann evaluator has all the algebraic symmetries, which is what the
    contraction code consumes.
    """
    if n < 3:
        raise BackgroundError(f"need n >= 3, got {n}")
    eta = minkowski_metric(n)
    riem = curvature * (np.einsum("ac,bd->abcd", eta, eta) - np.einsum("ad,bc->abcd", eta, eta))
    return BackgroundSpacetime(
        dim=n,
        metric=_const_evaluator(eta),
        christoffel=_const_evaluator(np.zeros((n, n, n))),
        riemann=_const_evaluator(riem),
        name=f"space_form(k={curvature})",
        flat=False,
    )


def riemann_slots(
    bg: BackgroundSpacetime,
    tangents: Field,
    normals: Field,
    points: np.ndarray,
) -> Field:
    """Untraced Riemann coupling M_{ab}^i_j = R(n_j, e_a, e_b, n^i) with the
    slot order R(Y1, Y2)Y3, Y4 |-> R_abgn Y1^a Y2^b Y3^g Y4^n (each
    argument feeds its own tensor slot).  All slots take contravariant
    vectors; the evaluator carries all-lower indices, evaluated at
    ``points`` (the embedding values, shape (n_tau, n_sigma, dim)).  Output
    indices (a, b, i, j).  Identically zero on flat backgrounds.
    """
    e = tangents.values
    n = normals.values
    if e.shape[-1] != bg.dim or n.shape[-1] != bg.dim:
        raise BackgroundError(
            f"tangent/normal spacetime dimension does not match background dim={bg.dim}"
        )
    k = n.shape[2]
    idx = (WORLDSHEET_LOWER, WORLDSHEET_LOWER, NORMAL, NORMAL)
    if bg.flat:
        return Field(tangents.grid, np.zeros(e.shape[:2] + (2, 2, k, k)), idx)
    riem = bg.riemann_at(points)
    m = np.einsum("...xbgn,...jx,...ab,...cg,...in->...acij", riem, n, e, e, n)
    return Field(tangents.grid, m, idx)

