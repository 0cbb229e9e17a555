"""Exact closed-string worldsheets and symmetry-generated solutions of the
linearized dynamics.

All three families (pulsating, folded, spinning) are built in conformal
gauge (dX.dX' = 0, dX^2 + dX'^2 = 0) with vanishing mean curvature, so they
solve the equations of motion exactly in the continuum; discretization
residuals are what the tests budget.  Family derivatives (spacetime
isometries and the scale modulus) project onto the normal frame to give
exact solutions of the linearized equations, sidestepping any PDE solver: a
symmetry-generated field isolates operator bugs from solver bugs.

Degenerate points (string folds, collapse instants) are part of each
solution's definition.  A solution's declared mask is its degenerate points
grown by one grid step with :func:`stringlab.grid.dilate`, the rule by
which the geometry builder's degeneracy scan grows the points it detects at
runtime, and the tests cross-check the two.

Each fact about a family is stated once.  Its factory holds the chart, the
declared degenerate points (folded's fold columns, or the closed-form
weight that ``_degenerate_rows`` turns into degenerate rows); no family
supplies a normal frame, which the geometry builder reads off the
tangents.  ``_family``, the one constructor of a
family, checks the scale parameter and derives every direction from the
chart: translations, the rotations and boosts of ``_GENERATORS``, the
modulus as ``chart / scale``, and ``sigma_shift`` as the complex-step
sigma derivative of the chart.  The registry takes each family's name and
parameters from its factory, and ``make_solution`` checks given values
against the factory's annotations with ``read_arguments``, which the CLI
also applies to the grid and action sections.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .background import BackgroundSpacetime, minkowski
from .geometry import Embedding, GeometryBundle, build_geometry
from .grid import NORMAL, SPACETIME, Field, Mask, WorldsheetGrid, dilate

ChartFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class SolutionError(ValueError):
    """Bad solution parameters or unknown family selector."""


@dataclass(frozen=True)
class ExactSolution:
    """An exact worldsheet: analytic chart, family derivatives, known masks.

    ``degenerate`` gives a grid's degenerate points, as a boolean array of
    the grid's shape; :meth:`mask` masks them and every point one grid step
    from them.

    ``modulus`` names the family direction that changes the solution's
    parameter, not an isometry: the second field of the default Jacobi pair.

    A solution carries no normal frame: :meth:`geometry` builds the one
    that :func:`stringlab.geometry.build_geometry` reads off the tangents.
    """

    name: str
    params: dict
    background: BackgroundSpacetime
    chart: ChartFn
    family: dict[str, ChartFn] = field(repr=False)
    modulus: str
    degenerate: Callable[[WorldsheetGrid], np.ndarray] = field(
        repr=False, default=lambda g: np.zeros(g.shape, dtype=bool))

    def mask(self, grid: WorldsheetGrid) -> Mask:
        return Mask(grid, ~dilate(self.degenerate(grid), grid))

    def embedding(self, grid: WorldsheetGrid) -> Embedding:
        tt, ss = grid.meshgrid()
        return Embedding(
            self.background, Field(grid, self.chart(tt, ss), (SPACETIME,)), self.mask(grid)
        )

    def geometry(self, grid: WorldsheetGrid) -> GeometryBundle:
        return build_geometry(self.embedding(grid))

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


# isometry generators (name, i, j, sign) acting as v^i = sign x^j, v^j = x^i:
# spatial rotations, then boosts (t mixing with one spatial axis)
_GENERATORS = (
    ("rotation_xy", 1, 2, -1.0),
    ("rotation_yz", 2, 3, -1.0),
    ("rotation_xz", 1, 3, -1.0),
    ("boost_x", 0, 1, 1.0),
    ("boost_y", 0, 2, 1.0),
    ("boost_z", 0, 3, 1.0),
)


def _family(name: str, params: dict, chart: ChartFn, dim: int, modulus: str,
            degenerate: Callable[[WorldsheetGrid], np.ndarray], boosts: bool = False) -> ExactSolution:
    """The family ``name`` in ``dim``-dimensional Minkowski space, with every
    direction derived from its chart: the translations, the rotations (and
    boosts when asked) of ``_GENERATORS`` evaluated along the worldsheet,
    the modulus and the sigma shift.  Every chart is linear in its one scale
    parameter ``params[modulus]``, which must be positive, so the modulus
    velocity is ``chart / scale``.

    The sigma shift is the complex step ``chart(tau, sigma + i h).imag / h``
    with h = 2**-60: exact to the last bit, with no subtraction, and the
    division by a power of two is exact.  So a chart must be analytic in
    sigma: numpy arithmetic and elementary functions only, with no ``abs``,
    ``where``, ``maximum`` or comparison."""
    scale, h = params[modulus], 2.0 ** -60
    if not scale > 0:
        raise SolutionError(f"{modulus} must be positive, got {scale}")

    def translation(tt, ss, mu):
        v = np.zeros(tt.shape + (dim,))
        v[..., mu] = 1.0
        return v

    def generator(tt, ss, i, j, sign):
        x = chart(tt, ss)
        v = np.zeros_like(x)
        v[..., i] = sign * x[..., j]
        v[..., j] = x[..., i]
        return v

    names = ["translation_t", "translation_x", "translation_y", "translation_z"][:dim]
    family = {direction: partial(translation, mu=mu) for mu, direction in enumerate(names)}
    for direction, i, j, sign in _GENERATORS:
        if j < dim and (boosts or i > 0):
            family[direction] = partial(generator, i=i, j=j, sign=sign)
    family[modulus] = lambda tt, ss: chart(tt, ss) / scale
    family["sigma_shift"] = lambda tt, ss: chart(tt, ss + 1j * h).imag / h
    return ExactSolution(name=name, params=params, background=minkowski(dim), chart=chart,
                         family=family, modulus=modulus, degenerate=degenerate)


def _degenerate_rows(weight: ChartFn) -> Callable[[WorldsheetGrid], np.ndarray]:
    """Declared degenerate points: the rows where a closed-form weight,
    evaluated on the grid's tau and sigma axes, drops below 1e-2."""

    def degenerate(grid: WorldsheetGrid) -> np.ndarray:
        near = (weight(grid.tau[:, None], grid.sigma[None, :]) < 1e-2).any(axis=1)
        return np.repeat(near[:, None], grid.n_sigma, axis=1)

    return degenerate


def pulsating_circular_string(radius: float = 1.0, dim: int = 4) -> ExactSolution:
    """Circular string breathing at the speed set by its radius:
    X = (R tau, R cos tau cos sigma, R cos tau sin sigma, [0]).

    Collapses at cos tau = 0; rows too close to a collapse instant are
    declared masked (irrelevant for the usual tau windows inside (0, pi/2)).
    """
    if dim not in (3, 4):
        raise SolutionError(f"dim must be 3 or 4, got {dim}")
    r = float(radius)

    def chart(tt, ss):
        comps = [r * tt, r * np.cos(tt) * np.cos(ss), r * np.cos(tt) * np.sin(ss)]
        if dim == 4:
            comps.append(np.zeros_like(tt))
        return np.stack(comps, axis=-1)

    return _family("pulsating_circular_string", {"radius": r, "dim": dim}, chart, dim, "radius",
                   _degenerate_rows(lambda tt, ss: np.abs(np.cos(tt))))


def rotating_folded_string(amplitude: float = 1.0) -> ExactSolution:
    """Rigidly rotating straight string: X = (A tau, A cos sigma cos tau,
    A cos sigma sin tau).  The endpoints sigma = 0, pi move at the speed of
    light (tangent degeneracy): the two fold columns are the solution's
    declared degenerate points, so three-column bands around both are
    masked.
    """
    a = float(amplitude)

    def chart(tt, ss):
        return np.stack(
            [a * tt, a * np.cos(ss) * np.cos(tt), a * np.cos(ss) * np.sin(tt)], axis=-1
        )

    def degenerate(grid: WorldsheetGrid) -> np.ndarray:
        folds = np.zeros(grid.shape, dtype=bool)
        folds[:, ::grid.n_sigma // 2] = True  # columns 0 and n_sigma/2
        return folds

    return _family("rotating_folded_string", {"amplitude": a}, chart, 3, "amplitude", degenerate)


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
    = -1, i.e. on the rows tau = 3 pi/4 mod pi.  The rows too close to a
    cusp are declared degenerate by the weight (1 + sin 2 tau)/2: the exact
    minimum over a row of 1 + cos(tau+sigma) sin(tau-sigma) =
    1 + (sin 2 tau - sin 2 sigma)/2, taken at sigma = pi/4 mod pi.  A grid
    samples that sigma only when n_sigma is a multiple of 8, so the weight
    on the grid's own points would declare different rows at other widths.
    """
    a = float(scale)

    def chart(tt, ss):
        u = tt + ss
        v = tt - ss
        return np.stack(
            [2 * a * tt, a * np.cos(u), a * np.sin(u) + a * np.cos(v), a * np.sin(v)], axis=-1
        )

    return _family("spinning_two_plane_string", {"scale": a}, chart, 4, "scale",
                   _degenerate_rows(lambda tt, ss: 0.5 * (1.0 + np.sin(2.0 * tt))), boosts=True)


def jacobi_from_family(sol: ExactSolution, geo: GeometryBundle, which: str) -> Field:
    """Normal projection of a family derivative: an (approximate, to
    discretization accuracy) solution of the linearized equations."""
    v = sol.family_velocity(geo.grid, which)
    phi = np.einsum("...im,...m->...i", geo.n_low, v.values)
    return Field(geo.grid, phi, (NORMAL,))


_REGISTRY = {
    factory.__name__: factory
    for factory in (pulsating_circular_string, rotating_folded_string, spinning_two_plane_string)
}

# what a value accepts, by its annotation: a float must lie in float range,
# which NaN, infinities and huge ints do not; neither may be a boolean
_PARAM_TYPES = {
    float: (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max, "a finite number"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
}


def read_arguments(fn: Callable, values: dict, label: str, error: type[Exception]) -> dict:
    """``values`` checked as keyword arguments of ``fn``, by its signature:
    no unknown key, no missing required key, and each value accepted by the
    rule of its annotation in ``_PARAM_TYPES``.  Returns the given values,
    floats as ``float``; anything else raises ``error``, naming the key as
    ``label.format(key)``."""
    params = inspect.signature(fn, eval_str=True).parameters
    unknown = sorted(set(values) - set(params))
    if unknown:
        names = ", ".join(map(label.format, unknown))
        raise error(f"unknown {names}; allowed: {tuple(params)}")
    for key, param in params.items():
        if key not in values and param.default is param.empty:
            raise error(f"missing required key {key!r}")
    out = {}
    for key, val in values.items():
        test, need = _PARAM_TYPES[params[key].annotation]
        if not test(val):
            raise error(f"{label.format(key)} must be {need}, got {val!r}")
        out[key] = float(val) if params[key].annotation is float else val
    return out


def solution_names() -> list[str]:
    return sorted(_REGISTRY)


def make_solution(name: str, params: dict) -> ExactSolution:
    """Instantiate a solution by name with keyword parameters (the CLI entry
    point into the library)."""
    if name not in _REGISTRY:
        raise SolutionError(f"unknown solution {name!r}; available: {solution_names()}")
    factory = _REGISTRY[name]
    return factory(**read_arguments(factory, params, f"{name} parameter {{!r}}", SolutionError))
