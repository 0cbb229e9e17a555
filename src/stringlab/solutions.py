"""Exact closed-string worldsheets and symmetry-generated solutions of the
linearized dynamics.

Both families are built in conformal gauge (dX.dX' = 0, dX^2 + dX'^2 = 0)
with vanishing mean curvature, so they solve the equations of motion exactly
in the continuum; discretization residuals are what the tests budget.
Family derivatives (spacetime isometries and the scale modulus) project
onto the normal frame to give exact solutions of the linearized equations,
sidestepping any PDE solver: a symmetry-generated field isolates operator
bugs from solver bugs.

Masked regions (string folds, collapse instants) are part of each
solution's definition; the geometry builder's degeneracy scan re-detects
them at runtime and the tests cross-check the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .background import BackgroundSpacetime, minkowski
from .geometry import Embedding, GeometryBundle, build_geometry
from .grid import NORMAL, SPACETIME, Field, Mask, WorldsheetGrid

ChartFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class SolutionError(ValueError):
    """Bad solution parameters or unknown family selector."""


@dataclass(frozen=True)
class ExactSolution:
    """An exact worldsheet: analytic chart, family derivatives, known masks.

    ``modulus`` names the family direction that changes the solution's
    parameter, not an isometry: the second field of the default Jacobi pair.

    ``frame`` optionally supplies an analytic orthonormal normal frame as
    the geometry builder's seeds.  The default coordinate seeds can spin at
    sub-grid scales on worldsheets whose tangent planes sweep past the
    coordinate axes: on the spinning string (129x64) they send deform-check
    to O(1) discrepancies and conserve to a relative divergence of 15, so
    that family keeps its analytic frame.
    """

    name: str
    params: dict
    background: BackgroundSpacetime
    chart: ChartFn
    family: dict[str, ChartFn] = field(repr=False)
    modulus: str
    masked_rectangles: Callable[[WorldsheetGrid], list] = field(repr=False, default=lambda g: [])
    frame: ChartFn | None = field(repr=False, default=None)

    def mask(self, grid: WorldsheetGrid) -> Mask:
        rects = self.masked_rectangles(grid)
        return Mask.from_rectangles(grid, rects) if rects else Mask.full(grid)

    def embedding(self, grid: WorldsheetGrid) -> Embedding:
        tt, ss = grid.meshgrid()
        return Embedding(
            self.background, Field(grid, self.chart(tt, ss), (SPACETIME,)), self.mask(grid)
        )

    def geometry(self, grid: WorldsheetGrid) -> GeometryBundle:
        frame = None if self.frame is None else self.frame(*grid.meshgrid())
        return build_geometry(self.embedding(grid), frame=frame)

    def family_names(self) -> list[str]:
        return sorted(self.family)

    def family_velocity(self, grid: WorldsheetGrid, which: str) -> Field:
        """Spacetime derivative of the solution family along one parameter
        or isometry direction."""
        if which not in self.family:
            raise SolutionError(
                f"{self.name} has no family direction {which!r}; available: {self.family_names()}"
            )
        tt, ss = grid.meshgrid()
        return Field(grid, self.family[which](tt, ss), (SPACETIME,))


def _translations(dim: int) -> dict[str, ChartFn]:
    names = ["translation_t", "translation_x", "translation_y", "translation_z"][:dim]
    out = {}
    for mu, name in enumerate(names):
        def vel(tt, ss, _mu=mu):
            v = np.zeros(tt.shape + (dim,))
            v[..., _mu] = 1.0
            return v

        out[name] = vel
    return out


def _rotations(chart: ChartFn, dim: int) -> dict[str, ChartFn]:
    """Spatial rotation generators evaluated along the worldsheet."""
    planes = [("rotation_xy", 1, 2), ("rotation_yz", 2, 3), ("rotation_xz", 1, 3)]
    out = {}
    for name, i1, i2 in planes:
        if max(i1, i2) >= dim:
            continue

        def vel(tt, ss, _i1=i1, _i2=i2):
            x = chart(tt, ss)
            v = np.zeros_like(x)
            v[..., _i1] = -x[..., _i2]
            v[..., _i2] = x[..., _i1]
            return v

        out[name] = vel
    return out


def _boosts(chart: ChartFn, dim: int) -> dict[str, ChartFn]:
    """Boost generators (t mixing with one spatial axis) along the worldsheet."""
    axes = [("boost_x", 1), ("boost_y", 2), ("boost_z", 3)]
    out = {}
    for name, ax in axes:
        if ax >= dim:
            continue

        def vel(tt, ss, _ax=ax):
            x = chart(tt, ss)
            v = np.zeros_like(x)
            v[..., 0] = x[..., _ax]
            v[..., _ax] = x[..., 0]
            return v

        out[name] = vel
    return out


def pulsating_circular_string(radius: float = 1.0, dim: int = 4) -> ExactSolution:
    """Circular string breathing at the speed set by its radius:
    X = (R tau, R cos tau cos sigma, R cos tau sin sigma, [0]).

    Collapses at cos tau = 0; rows too close to a collapse instant are
    declared masked (irrelevant for the usual tau windows inside (0, pi/2)).
    """
    if radius <= 0:
        raise SolutionError(f"radius must be positive, got {radius}")
    if dim not in (3, 4):
        raise SolutionError(f"dim must be 3 or 4, got {dim}")
    r = float(radius)

    def chart(tt, ss):
        comps = [r * tt, r * np.cos(tt) * np.cos(ss), r * np.cos(tt) * np.sin(ss)]
        if dim == 4:
            comps.append(np.zeros_like(tt))
        return np.stack(comps, axis=-1)

    def radius_velocity(tt, ss):
        return chart(tt, ss) / r

    def sigma_shift(tt, ss):
        comps = [np.zeros_like(tt), -r * np.cos(tt) * np.sin(ss), r * np.cos(tt) * np.cos(ss)]
        if dim == 4:
            comps.append(np.zeros_like(tt))
        return np.stack(comps, axis=-1)

    def masked_rectangles(grid: WorldsheetGrid) -> list:
        rects = []
        near = np.abs(np.cos(grid.tau)) < 1e-2
        for it in np.nonzero(near)[0]:
            rects.append((it - 1, it + 1, 0, grid.n_sigma - 1))
        return rects

    family = dict(_translations(dim))
    family.update(_rotations(chart, dim))
    family["radius"] = radius_velocity
    family["sigma_shift"] = sigma_shift
    return ExactSolution(
        name="pulsating_circular_string",
        params={"radius": r, "dim": dim},
        background=minkowski(dim),
        chart=chart,
        family=family,
        modulus="radius",
        masked_rectangles=masked_rectangles,
    )


def rotating_folded_string(amplitude: float = 1.0) -> ExactSolution:
    """Rigidly rotating straight string: X = (A tau, A cos sigma cos tau,
    A cos sigma sin tau).  The endpoints sigma = 0, pi move at the speed of
    light (tangent degeneracy); three-column bands around both folds are
    part of the solution's declared mask.
    """
    if amplitude <= 0:
        raise SolutionError(f"amplitude must be positive, got {amplitude}")
    a = float(amplitude)

    def chart(tt, ss):
        return np.stack(
            [a * tt, a * np.cos(ss) * np.cos(tt), a * np.cos(ss) * np.sin(tt)], axis=-1
        )

    def amplitude_velocity(tt, ss):
        return chart(tt, ss) / a

    def sigma_shift(tt, ss):
        return np.stack(
            [np.zeros_like(tt), -a * np.sin(ss) * np.cos(tt), -a * np.sin(ss) * np.sin(tt)],
            axis=-1,
        )

    def masked_rectangles(grid: WorldsheetGrid) -> list:
        half = grid.n_sigma // 2
        return [
            (0, grid.n_tau - 1, -1, 1),
            (0, grid.n_tau - 1, half - 1, half + 1),
        ]

    family = dict(_translations(3))
    family.update(_rotations(chart, 3))
    family["amplitude"] = amplitude_velocity
    family["sigma_shift"] = sigma_shift
    return ExactSolution(
        name="rotating_folded_string",
        params={"amplitude": a},
        background=minkowski(3),
        chart=chart,
        family=family,
        modulus="amplitude",
        masked_rectangles=masked_rectangles,
    )


def spinning_two_plane_string(scale: float = 1.0) -> ExactSolution:
    """Closed string spinning in two orthogonal planes: the left-mover
    rotates in (x, y), the right-mover in (y, z),

        X = (2 a tau, a cos(tau+sigma),
             a sin(tau+sigma) + a cos(tau-sigma), a sin(tau-sigma)).

    Exactly on shell (null left/right movers), with two independent and
    non-commuting extrinsic-curvature directions; this is the family whose
    two-form picks up a nonzero topological-coupling contribution (on
    worldsheets curved along a single normal direction that contribution
    cancels identically).  Cusps occur where cos(tau+sigma) sin(tau-sigma)
    = -1, i.e. on the rows tau = 3 pi/4 mod pi; rows too close to a cusp
    are declared masked.
    """
    if scale <= 0:
        raise SolutionError(f"scale must be positive, got {scale}")
    a = float(scale)

    def chart(tt, ss):
        u = tt + ss
        v = tt - ss
        return np.stack(
            [2 * a * tt, a * np.cos(u), a * np.sin(u) + a * np.cos(v), a * np.sin(v)], axis=-1
        )

    def scale_velocity(tt, ss):
        return chart(tt, ss) / a

    def sigma_shift(tt, ss):
        u = tt + ss
        v = tt - ss
        return np.stack(
            [np.zeros_like(tt), -a * np.sin(u), a * np.cos(u) + a * np.sin(v), -a * np.cos(v)],
            axis=-1,
        )

    def masked_rectangles(grid: WorldsheetGrid) -> list:
        rects = []
        tt, ss = grid.meshgrid()
        weight = 1.0 + np.cos(tt + ss) * np.sin(tt - ss)
        for it in np.nonzero((weight < 1e-2).any(axis=1))[0]:
            rects.append((it - 1, it + 1, 0, grid.n_sigma - 1))
        return rects

    def frame(tt, ss):
        # smooth analytic normals: the first is the left-mover acceleration
        # projected off the (null) tangent pair, the second its Levi-Civita
        # dual against the tangents (orthogonal to all three by construction)
        u = tt + ss
        v = tt - ss
        zero = np.zeros_like(tt)
        one = np.ones_like(tt)
        xl1 = a * np.stack([one, -np.sin(u), np.cos(u), zero], axis=-1)
        xr1 = a * np.stack([one, zero, -np.sin(v), np.cos(v)], axis=-1)
        xl2 = a * np.stack([zero, -np.cos(u), -np.sin(u), zero], axis=-1)
        eta = np.diag([-1.0, 1.0, 1.0, 1.0])

        def dot(p, q):
            return np.einsum("...m,mn,...n->...", p, eta, q)

        cross = dot(xl1, xr1)  # = -a^2 (1 + cos u sin v), nonzero off cusps
        w1 = xl2 - (dot(xl2, xr1) / cross)[..., None] * xl1
        n1 = w1 / np.sqrt(dot(w1, w1))[..., None]
        eps = _levi_civita_4()
        dual_low = np.einsum(
            "anrs,...n,...r,...s->...a", eps, xl1 + xr1, xl1 - xr1, n1
        )
        n2 = np.einsum("am,...m->...a", np.linalg.inv(eta), dual_low)
        n2 = n2 / np.sqrt(np.abs(dot(n2, n2)))[..., None]
        return np.stack([n1, n2], axis=-2)

    family = dict(_translations(4))
    family.update(_rotations(chart, 4))
    family.update(_boosts(chart, 4))
    family["scale"] = scale_velocity
    family["sigma_shift"] = sigma_shift
    return ExactSolution(
        name="spinning_two_plane_string",
        params={"scale": a},
        background=minkowski(4),
        chart=chart,
        family=family,
        modulus="scale",
        masked_rectangles=masked_rectangles,
        frame=frame,
    )


def _levi_civita_4() -> np.ndarray:
    import itertools

    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        parity = 1.0
        p = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    parity = -parity
        eps[perm] = parity
    return eps


def jacobi_from_family(sol: ExactSolution, geo: GeometryBundle, which: str) -> Field:
    """Normal projection of a family derivative: an (approximate, to
    discretization accuracy) solution of the linearized equations."""
    v = sol.family_velocity(geo.grid, which)
    phi = np.einsum("...im,...m->...i", geo.n_low, v.values)
    return Field(geo.grid, phi, (NORMAL,))


_REGISTRY = {
    "pulsating_circular_string": (pulsating_circular_string, ("radius", "dim")),
    "rotating_folded_string": (rotating_folded_string, ("amplitude",)),
    "spinning_two_plane_string": (spinning_two_plane_string, ("scale",)),
}


def solution_names() -> list[str]:
    return sorted(_REGISTRY)


def make_solution(name: str, params: dict) -> ExactSolution:
    """Instantiate a solution by name with keyword parameters (the CLI entry
    point into the library)."""
    if name not in _REGISTRY:
        raise SolutionError(f"unknown solution {name!r}; available: {solution_names()}")
    factory, allowed = _REGISTRY[name]
    unknown = set(params) - set(allowed)
    if unknown:
        raise SolutionError(f"{name}: unknown parameters {sorted(unknown)}; allowed: {allowed}")
    return factory(**params)
