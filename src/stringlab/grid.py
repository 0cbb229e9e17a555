"""Discretization substrate: grids, labelled tensor fields, derivatives,
and quadrature.

A closed-string worldsheet chart is periodic in sigma (period fixed to
2*pi) and lives on an open tau window, so the two directions get different
kernels: spectral (FFT) differentiation in sigma, 4th-order finite
differences in tau.  All arithmetic is float64; reductions run in a fixed
order so repeated runs are bit-identical.

Index labels carried by a :class:`Field`:

    ``'a'``  worldsheet covariant index (dimension 2, order tau then sigma)
    ``'A'``  worldsheet contravariant index (dimension 2)
    ``'i'``  normal-frame index (dimension = spacetime dim - 2)
    ``'mu'`` spacetime index (dimension = background dim)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SIGMA_PERIOD = 2.0 * np.pi

WORLDSHEET_LOWER = "a"
WORLDSHEET_UPPER = "A"
NORMAL = "i"
SPACETIME = "mu"

_KNOWN_LABELS = (WORLDSHEET_LOWER, WORLDSHEET_UPPER, NORMAL, SPACETIME)


class GridError(ValueError):
    """Invalid grid, mask, or field layout."""


@dataclass(frozen=True)
class WorldsheetGrid:
    """Uniform (tau, sigma) grid: bounded tau window x periodic sigma circle.

    sigma_k = k * 2*pi/n_sigma for k = 0..n_sigma-1 (the point at 2*pi wraps
    to index 0); tau_j spans [tau_min, tau_max] inclusive.
    """

    n_tau: int
    n_sigma: int
    tau_min: float
    tau_max: float

    def __post_init__(self):
        if self.n_tau < 9:
            raise GridError(f"n_tau must be >= 9 for the tau stencils, got {self.n_tau}")
        if self.n_sigma < 8 or self.n_sigma % 2 != 0:
            raise GridError(
                f"n_sigma must be even and >= 8 for spectral differentiation, got {self.n_sigma}"
            )
        if not self.tau_max > self.tau_min:
            raise GridError(f"empty tau window [{self.tau_min}, {self.tau_max}]")

    @property
    def h_tau(self) -> float:
        return (self.tau_max - self.tau_min) / (self.n_tau - 1)

    @property
    def h_sigma(self) -> float:
        return SIGMA_PERIOD / self.n_sigma

    @property
    def tau(self) -> np.ndarray:
        return np.linspace(self.tau_min, self.tau_max, self.n_tau)

    @property
    def sigma(self) -> np.ndarray:
        return np.arange(self.n_sigma) * self.h_sigma

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_tau, self.n_sigma)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(tau, sigma) coordinate arrays of shape (n_tau, n_sigma)."""
        return np.meshgrid(self.tau, self.sigma, indexing="ij")


@dataclass(frozen=True)
class Mask:
    """Active-point mask; True entries participate in norms and integrals.

    Masked-out regions are unions of grid rectangles (sigma wraps).  A run
    is rejected when fewer than half the points stay active.
    """

    grid: WorldsheetGrid
    active: np.ndarray = field(repr=False)

    def __post_init__(self):
        act = np.asarray(self.active, dtype=bool)
        if act.shape != self.grid.shape:
            raise GridError(f"mask shape {act.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "active", act)
        frac = act.mean()
        if frac < 0.5:
            raise GridError(f"mask leaves only {frac:.0%} of points active (< 50%); run rejected")

    @classmethod
    def full(cls, grid: WorldsheetGrid) -> "Mask":
        return cls(grid, np.ones(grid.shape, dtype=bool))

    @classmethod
    def from_rectangles(cls, grid: WorldsheetGrid, rectangles) -> "Mask":
        """Mask out a union of inclusive index rectangles (t0, t1, s0, s1).

        tau indices are clipped to the grid; sigma indices wrap around the
        circle (s0 may exceed s1 after wrapping).
        """
        act = np.ones(grid.shape, dtype=bool)
        for t0, t1, s0, s1 in rectangles:
            tt = np.arange(max(0, t0), min(grid.n_tau - 1, t1) + 1)
            ss = np.arange(s0, s1 + 1) % grid.n_sigma
            act[np.ix_(tt, ss)] = False
        return cls(grid, act)

    @property
    def n_active(self) -> int:
        return int(self.active.sum())

    def row_active(self, tau_index: int) -> bool:
        return bool(self.active[tau_index].all())


class Field:
    """Dense real tensor field on a grid with labelled indices.

    ``values`` has shape ``(n_tau, n_sigma, *dims)`` with one trailing axis
    per entry of ``indices``.  Fields are immutable by convention: operations
    return new instances and never write into their inputs.
    """

    __slots__ = ("grid", "indices", "values")

    def __init__(self, grid: WorldsheetGrid, values, indices: tuple[str, ...] = ()):
        values = np.asarray(values, dtype=np.float64)
        indices = tuple(indices)
        if values.ndim != 2 + len(indices):
            raise GridError(
                f"field with indices {indices} needs {2 + len(indices)} axes, "
                f"got array of shape {values.shape}"
            )
        if values.shape[:2] != grid.shape:
            raise GridError(f"field shape {values.shape[:2]} does not match grid {grid.shape}")
        for pos, label in enumerate(indices):
            if label not in _KNOWN_LABELS:
                raise GridError(f"unknown index label {label!r}")
            if label in (WORLDSHEET_LOWER, WORLDSHEET_UPPER) and values.shape[2 + pos] != 2:
                raise GridError(
                    f"worldsheet index at position {pos} has dimension "
                    f"{values.shape[2 + pos]}, expected 2"
                )
        self.grid = grid
        self.indices = indices
        self.values = values

    @property
    def is_scalar(self) -> bool:
        return not self.indices

    def check_finite(self, mask: Mask | None = None, name: str = "field") -> None:
        """Raise if any active point holds a non-finite value."""
        vals = self.values
        finite = np.isfinite(vals).reshape(vals.shape[0], vals.shape[1], -1).all(axis=-1)
        if mask is not None:
            finite = finite | ~mask.active
        if not finite.all():
            it, isig = np.argwhere(~finite)[0]
            raise GridError(f"{name} is not finite at grid point (tau={it}, sigma={isig})")

    def __repr__(self):
        return f"Field(indices={self.indices}, shape={self.values.shape})"


def _require_same_grid(f: Field, grid: WorldsheetGrid, op: str) -> None:
    if f.grid is not grid and f.grid != grid:
        raise GridError(f"{op}: field grid {f.grid} does not match {grid}")


def d_sigma(f: Field) -> Field:
    """Spectral (Fourier) derivative along the periodic sigma direction.

    Exact for trigonometric polynomials of degree < n_sigma/2; the Nyquist
    mode's derivative is set to zero (the standard real-output choice).
    """
    n = f.grid.n_sigma
    if f.values.shape[1] != n:
        raise GridError(f"sigma extent {f.values.shape[1]} does not match grid n_sigma={n}")
    spec = np.fft.rfft(f.values, axis=1)
    k = np.arange(spec.shape[1], dtype=np.float64)
    k[-1] = 0.0
    k = k.reshape((1, -1) + (1,) * (f.values.ndim - 2))
    out = np.fft.irfft(spec * (1j * k), n=n, axis=1)
    return Field(f.grid, out, f.indices)


# 6-point one-sided stencils (5th order, exact through degree 5) for the two
# rows at each tau boundary; the smaller error constant keeps boundary rows
# from dominating curvature errors where the metric steepens.
_EDGE0 = np.array([-137.0, 300.0, -300.0, 200.0, -75.0, 12.0]) / 60.0
_EDGE1 = np.array([-12.0, -65.0, 120.0, -60.0, 20.0, -3.0]) / 60.0


def fd4_axis0(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative along axis 0 of a (n, m) float64 array.

    Central 5-point stencil in the interior, one-sided 6-point stencils on
    the first and last two rows.  Requires n >= 9 so the one-sided rows do
    not overlap.
    """
    v = values
    n = v.shape[0]
    if n < 9:
        raise ValueError(f"fd4_axis0 needs at least 9 rows, got {n}")
    out = np.empty_like(v)
    inv12h = 1.0 / (12.0 * h)
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) * inv12h
    for row, coeff in ((0, _EDGE0), (1, _EDGE1)):
        c = coeff / h
        out[row] = sum(c[m] * v[m] for m in range(6))
        out[-1 - row] = -sum(c[m] * v[-1 - m] for m in range(6))
    return out


def d_tau(f: Field) -> Field:
    """4th-order finite-difference derivative along tau.

    Central stencil in the interior, one-sided at the first/last two rows;
    exact for polynomials of degree <= 4.
    """
    g = f.grid
    if g.n_tau < 9:
        raise GridError(f"n_tau={g.n_tau} too small for the 4th-order tau stencil")
    out = fd4_axis0(f.values.reshape(g.n_tau, -1), g.h_tau)
    return Field(g, out.reshape(f.values.shape), f.indices)


def integrate_sigma_slice(f: Field, tau_index: int) -> float:
    """Periodic trapezoid (= spectral) quadrature over the sigma circle at a
    fixed tau row; exact for resolved trigonometric polynomials."""
    if not f.is_scalar:
        raise GridError("integrate_sigma_slice expects a scalar field")
    if not 0 <= tau_index < f.grid.n_tau:
        raise GridError(f"tau_index {tau_index} out of range [0, {f.grid.n_tau})")
    return float(f.values[tau_index].sum() * f.grid.h_sigma)


def tau_trapezoid_weights(grid: WorldsheetGrid) -> np.ndarray:
    w = np.full(grid.n_tau, grid.h_tau)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def integrate_patch(f: Field, mask: Mask) -> float:
    """Trapezoid-in-tau x spectral-in-sigma quadrature over active points."""
    if not f.is_scalar:
        raise GridError("integrate_patch expects a scalar field")
    _require_same_grid(f, mask.grid, "integrate_patch")
    if mask.n_active == 0:
        raise GridError("integrate_patch: empty mask")
    w = tau_trapezoid_weights(f.grid)[:, None] * f.grid.h_sigma
    contrib = np.where(mask.active, f.values * w, 0.0)
    return float(contrib.sum())


def masked_max_abs(values: np.ndarray, active: np.ndarray) -> float:
    """max |values| over active grid points (extra trailing axes allowed)."""
    flat = np.abs(values.reshape(values.shape[0], values.shape[1], -1)).max(axis=-1)
    sel = flat[active]
    return float(sel.max()) if sel.size else 0.0
