"""Discretization substrate: grids, labelled tensor fields, derivatives,
and quadrature.

A closed-string worldsheet chart is periodic in sigma (period fixed to
2*pi) and lives on an open tau window, so the two directions get different
kernels: a spectral differentiation matrix in sigma (one dense product per
call, faster than an FFT up to n_sigma = 128 to 512 depending on the
machine; see :func:`d_sigma`), 4th-order finite differences in tau.  All
arithmetic is float64; reductions run in a fixed order so repeated runs are
bit-identical.

Index labels carried by a :class:`Field`:

    ``'a'``  worldsheet covariant index (dimension 2, order tau then sigma)
    ``'A'``  worldsheet contravariant index (dimension 2)
    ``'i'``  normal-frame index (dimension = spacetime dim - 2)
    ``'mu'`` spacetime index (dimension = background dim)

Storage rule: a field's values have shape ``(n_tau, n_sigma, *dims)``
(points first, so subscripts read ``...ab`` and a component is
``values[..., i]``), but they are stored component-major, with the two grid
axes innermost in memory: each component is one contiguous
(n_tau, n_sigma) block.  The index axes are 2 to 4 long; contractions over
them ran 5 to 20 times faster with the long grid axes inner (129x32 grid,
numpy 2.4).  Keeping the shape and changing only the strides leaves every
subscript as it is; einsum and ufunc outputs keep the layout of their
inputs, so it carries through the arithmetic.  :class:`Field` enforces the
rule, and :func:`grid_innermost` and :func:`grid_full` apply it to arrays
that are not fields.

The stencils reach the rest of the package through :func:`gradient` (both
written into one buffer, on a new leading index) and :func:`divergence`,
not through stencils stacked by hand.  :func:`stencils` is the buffer
under :func:`gradient`, with the tau and sigma stencils on different
inputs: the traced entries of a covariant divergence
(:func:`stringlab.geometry.covariant_divergence`).  :func:`d_tau` and
:func:`d_sigma` are the same two kernels, one axis at a time, for a caller
that needs one direction only: the Riemann block of
:func:`stringlab.geometry.intrinsic_geometry`.

A grid's tau rows come in blocks of equal height: one block on a full
grid, one per band on a :class:`RowBand` that stacks the bands of several
rows or copies of a grid.  Every tau operation views a field through
:meth:`WorldsheetGrid.by_block`, as (rows per block, blocks, ...), so the
tau stencil restarts at each seam between blocks; sigma operations act row
by row and need no view.  Which rows are a row's band is one rule, the full
grid's ``_band_span``: a stack is built by it, finds a row's block by it,
and a slice's band is checked against the mask by it.

A :class:`Mask` leaves out the degenerate points of a worldsheet, declared
by its solution or detected by the geometry build, and every point one
grid step from them: :func:`dilate` grows both the same way, within each
block of rows and wrapping in sigma.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

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
    to index 0); tau_j spans [tau_min, tau_max] inclusive.  Its tau rows form
    one block: the tau stencils run over all of them (see :class:`RowBand`
    for a grid of several blocks).
    """

    n_tau: int
    n_sigma: int
    tau_min: float
    tau_max: float
    where = ""  # the rows of a stack of bands, for errors raised on it

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

    @property
    def block_rows(self) -> int:
        """Tau rows per block: the tau stencils restart at each block."""
        return self.n_tau

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(tau, sigma) coordinate arrays of shape (n_tau, n_sigma)."""
        return np.meshgrid(self.tau, self.sigma, indexing="ij")

    def by_block(self, values: np.ndarray) -> np.ndarray:
        """``values`` (tau rows on axis 0) viewed as (rows per block,
        blocks, ...), without a copy: a tau stencil along axis 0 of the
        view restarts at every seam between blocks.  Writing into the view
        writes into ``values``."""
        return values.reshape((-1, self.block_rows) + values.shape[1:]).swapaxes(0, 1)

    def full_row(self, local: int) -> int:
        """The full-grid number of this grid's tau row ``local``."""
        return local

    def local_row(self, tau_index: int) -> int:
        """The index in this grid of tau row ``tau_index``, numbered as in
        the full grid."""
        if not 0 <= tau_index < self.n_tau:
            raise GridError(f"tau_index {tau_index} out of range [0, {self.n_tau})")
        return tau_index

    def _band_span(self, tau_index: int) -> tuple[int, int]:
        """The band of tau row ``tau_index`` as (first row, height), in
        full-grid numbers: the rows within BAND_RADIUS of it, shifted to
        stay inside the grid (all of it if it has fewer rows)."""
        height = min(2 * BAND_RADIUS + 1, self.n_tau)
        return max(0, min(self.local_row(tau_index) - BAND_RADIUS, self.n_tau - height)), height

    def bands(self, rows) -> "RowBand":
        """The bands of tau rows ``rows`` stacked as one grid, one block per
        distinct band in the order of their first rows: rows with the same
        band share its block, and overlapping bands are separate blocks."""
        spans = sorted({self._band_span(r) for r in rows})
        if not spans:
            raise GridError("no tau rows to take the bands of")
        (first, height), (last, _) = spans[0], spans[-1]
        tau = self.tau
        return RowBand(len(spans) * height, self.n_sigma, float(tau[first]),
                       float(tau[last + height - 1]), self, tuple(lo for lo, _ in spans))

    def copies(self, k: int) -> "RowBand":
        """``k`` copies of this grid stacked in tau as one grid, its blocks
        repeated ``k`` times: a field built on the stack is, copy by copy,
        the one built on this grid alone."""
        return RowBand(k * self.n_tau, self.n_sigma, self.tau_min, self.tau_max, self, (0,) * k)


@dataclass(frozen=True)
class RowBand(WorldsheetGrid):
    """The bands of some tau rows of a full grid, stacked in tau as one grid
    of their own (:meth:`WorldsheetGrid.bands`), or copies of a grid
    (:meth:`WorldsheetGrid.copies`).

    Each band is a block of the same number of consecutive full-grid rows,
    and ``first_rows`` holds the full-grid number of each block's first
    row; on copies the same first rows recur, once per copy, and a row is
    found in the first block that is its band.  The tau stencils restart
    at every block (:meth:`by_block`) and a row's sigma derivative does not
    depend on the rows beside it (``_LEAST_PRODUCT``), so every field built
    on the stack is, block by block and bit for bit, the one built on that
    band alone (a codimension-1 normal frame up to the sign of the rows
    whose orientation walk starts at another column, which the two-form
    does not see); and a build of many
    bands pays the fixed cost of one.  Each band's tau values and spacing are the full grid's, to
    the last bit.  Recomputed from the band's own window they differ in the
    last bits (``linspace`` puts up to 7 of the 13 rows 1 or 2 ulps off on
    a 129-row grid), and the nested one-sided edge stencils amplify that a
    millionfold; with the same values, every stencil and chart evaluation
    repeats the full grid's arithmetic on the rows they share.  The rows
    keep their full-grid numbers, in :meth:`local_row` and
    :meth:`full_row` and in the errors that name them.  A row's band is
    the one its ``parent`` spans, and the bands of more rows are taken in
    the parent too, never of the stack itself."""

    parent: WorldsheetGrid = field(repr=False)
    first_rows: tuple[int, ...]

    @property
    def block_rows(self) -> int:
        return self.n_tau // len(self.first_rows)

    @property
    def where(self) -> str:
        return " on tau rows " + ", ".join(f"{lo} to {lo + self.block_rows - 1}"
                                           for lo in self.first_rows)

    @property
    def h_tau(self) -> float:
        return self.parent.h_tau

    @property
    def tau(self) -> np.ndarray:
        tau = self.parent.tau
        return np.concatenate([tau[lo:lo + self.block_rows] for lo in self.first_rows])

    def full_row(self, local: int) -> int:
        block, offset = divmod(local, self.block_rows)
        return self.first_rows[block] + offset

    def local_row(self, tau_index: int) -> int:
        """The index of tau row ``tau_index`` in the block that is its own
        band: the rows its two-form reads.  A row whose band is not a block
        here is a GridError."""
        lo, _ = self._band_span(tau_index)
        if lo not in self.first_rows:
            raise GridError(f"the band of tau row {tau_index} is not a block of the grid{self.where}")
        return self.first_rows.index(lo) * self.block_rows + tau_index - lo

    def _band_span(self, tau_index: int) -> tuple[int, int]:
        return self.parent._band_span(tau_index)

    def bands(self, rows) -> "RowBand":
        """The bands of ``rows`` in the full grid."""
        return self.parent.bands(rows)

    def copies(self, k: int) -> "RowBand":
        return replace(self, n_tau=k * self.n_tau, first_rows=self.first_rows * k)


@dataclass(frozen=True)
class Mask:
    """Active-point mask; True entries participate in norms and integrals.

    The masked-out points are those within one grid step of a degenerate
    point (:func:`dilate`), declared by a solution or detected by the
    geometry build.  A run is rejected when fewer than half the points stay
    active.
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
            raise GridError(f"mask leaves only {frac:.0%} of points active{self.grid.where} "
                            "(< 50%); run rejected")

    @classmethod
    def full(cls, grid: WorldsheetGrid) -> "Mask":
        return cls(grid, np.ones(grid.shape, dtype=bool))

    def slice_row(self, tau_index: int) -> int:
        """The index in this grid of the slice on tau row ``tau_index``
        (numbered as in the full grid).  A GridError names the row unless it
        lies in the grid and its band is active: the row itself, and every
        row its two-form's nested tau stencils reach, as the full grid
        spans its band; no grid is built for the check.  On a stack of
        bands that is the block that is the row's own band, whatever the
        blocks beside it hold."""
        row = self.grid.local_row(tau_index)
        if not self.active[row].all():
            raise GridError(f"tau row {tau_index} intersects the masked region")
        first, height = self.grid._band_span(tau_index)
        lo = row - (tau_index - first)
        if not self.active[lo:lo + height].all():
            raise GridError(f"the stencils of tau row {tau_index} reach the masked region: its "
                            f"band on tau rows {first} to {first + height - 1} is not all active")
        return row


def dilate(points: np.ndarray, grid: WorldsheetGrid) -> np.ndarray:
    """``points`` grown by one grid step in every direction (the 3x3 block
    around each): clipped at the tau edges of each block of ``grid``,
    wrapping in sigma."""
    rows = points.copy()
    grown, src = grid.by_block(rows), grid.by_block(points)
    grown[1:] |= src[:-1]
    grown[:-1] |= src[1:]
    wrapped = np.concatenate((rows[:, -1:], rows, rows[:, :1]), axis=1)
    return wrapped[:, :-2] | wrapped[:, 1:-1] | wrapped[:, 2:]


def _is_grid_innermost(values: np.ndarray) -> bool:
    item = values.itemsize
    return values.strides[1] == item and values.strides[0] == values.shape[1] * item


def grid_innermost(values: np.ndarray) -> np.ndarray:
    """The same array, stored with the grid axes (0 and 1) innermost.

    Copies only when the two grid axes are not already one contiguous
    (n_tau, n_sigma) block per component."""
    if _is_grid_innermost(values):
        return values
    moved = np.ascontiguousarray(np.moveaxis(values, (0, 1), (-2, -1)))
    return np.moveaxis(moved, (-2, -1), (0, 1))


def grid_full(shape: tuple[int, ...], fill_value: float) -> np.ndarray:
    """``np.full(shape, fill_value)`` stored with the grid axes innermost."""
    shape = tuple(shape)
    return np.moveaxis(np.full(shape[2:] + shape[:2], fill_value), (-2, -1), (0, 1))


class Field:
    """Dense real tensor field on a grid with labelled indices.

    ``values`` has shape ``(n_tau, n_sigma, *dims)`` with one trailing axis
    per entry of ``indices``, and is stored component-major: the grid axes
    are innermost in memory (see the module docstring).  The constructor
    copies an array stored any other way.  Fields are immutable by
    convention: operations return new instances and never write into their
    inputs.
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
        self.values = grid_innermost(values)

    @property
    def is_scalar(self) -> bool:
        return not self.indices

    def check_finite(self, mask: Mask | None = None, name: str = "field") -> None:
        """Raise if any active point holds a non-finite value."""
        vals = self.values
        finite = np.isfinite(vals).all(axis=tuple(range(2, vals.ndim)))
        if mask is not None:
            finite = finite | ~mask.active
        if not finite.all():
            it, isig = np.argwhere(~finite)[0]
            raise GridError(f"{name} is not finite at grid point "
                            f"(tau={self.grid.full_row(it)}, sigma={isig})")

    def __repr__(self):
        return f"Field(indices={self.indices}, shape={self.values.shape})"


def _require_same_grid(f: Field, grid: WorldsheetGrid, op: str) -> None:
    if f.grid is not grid and f.grid != grid:
        raise GridError(f"{op}: field grid {f.grid} does not match {grid}")


@functools.lru_cache(maxsize=8)
def sigma_derivative_matrix(n: int) -> np.ndarray:
    """The n x n spectral differentiation matrix D of the periodic sigma grid
    (n even): ``(D v)_j`` is the derivative at sigma_j of the band-limited
    interpolant of v, with the Nyquist mode's derivative set to zero (the
    standard real-output choice).

    Closed form (Trefethen, *Spectral Methods in MATLAB*, ch. 3):
    ``D[j, k] = c[(j - k) % n]`` with ``c_d = (-1)^d cot(d pi / n) / 2``,
    ``c_0 = c_{n/2} = 0`` and ``c_{n-d} = -c_d``, so D is circulant and
    exactly antisymmetric.  Built on first use per n, cached read-only.
    """
    d = np.arange(1, n // 2)
    c = np.zeros(n)
    c[1:n // 2] = 0.5 * (-1.0) ** d / np.tan(d * np.pi / n)
    c[n // 2 + 1:] = -c[n // 2 - 1:0:-1]
    mat = c[(np.arange(n)[:, None] - np.arange(n)) % n]
    mat.flags.writeable = False
    return mat


# OpenBLAS computes small products with other kernels, whose roundoff
# differs in the last bit: with OpenBLAS 0.3.31 on an AVX-512 x86-64 VM, the
# rows of a product of up to about 1,200 entries differed from the same rows
# in a larger product.  A smaller product is padded with zero rows to this
# many entries, so the sigma derivative of a row does not depend on how many
# rows share its product: a band alone, a stack of bands and the full grid
# give the same bits.
_LEAST_PRODUCT = 2048


def _sigma_derivative(values: np.ndarray, out: np.ndarray) -> None:
    """Write the sigma derivative of component-major ``values`` into ``out``,
    given as its (..., n_tau, n_sigma) C-contiguous view: one GEMM of the
    contiguous sigma rows against D^T, of at least ``_LEAST_PRODUCT``
    entries.

    Every entry of a row meets every input of that row, so one NaN or inf
    makes the whole output row non-finite, for :meth:`Field.check_finite`
    to report.  The product raises the invalid flag only when its input
    already holds an inf (inf * 0 on D's zeros, inf - inf), so that flag is
    not turned into a warning."""
    n = out.shape[-1]
    rows = np.moveaxis(values, (0, 1), (-2, -1)).reshape(-1, n)
    dest = out.reshape(-1, n)
    short = -(-_LEAST_PRODUCT // n) - len(rows)
    if short > 0:
        rows = np.concatenate([rows, np.zeros((short, n))])
        dest = np.empty(rows.shape)
    with np.errstate(invalid="ignore"):
        np.matmul(rows, sigma_derivative_matrix(n).T, out=dest)
    if short > 0:
        out.reshape(-1, n)[...] = dest[:-short]


def d_sigma(f: Field) -> Field:
    """Spectral derivative along the periodic sigma direction.

    Exact for trigonometric polynomials of degree < n_sigma/2; the Nyquist
    mode's derivative is zero.  One product with the dense
    :func:`sigma_derivative_matrix` costs O(n_sigma^2) per row against an
    FFT's O(n_sigma log n_sigma), but it is one BLAS call with no complex
    temporaries.  Per call on 129 rows of a 6-component field, one BLAS
    thread, 2-core Xeon VM (numpy 2.4, OpenBLAS 0.3.31), median of three
    runs, the FFT form against the product:

        n_sigma   32     128    256    512    1024
        FFT       0.40   1.9    4.0    9.5    12.6   ms
        product   0.07   0.73   2.5    8.9    32.4   ms

    An earlier measurement on the same kind of VM put the crossover between
    n_sigma = 128 and 256 (FFT 1.45/2.7/6.2 ms, product 1.0/3.4/13.5 ms at
    128/256/512).  The lab's grids use n_sigma <= 128.
    """
    out = np.empty(f.values.shape[2:] + f.values.shape[:2])
    _sigma_derivative(f.values, out)
    return Field(f.grid, np.moveaxis(out, (-2, -1), (0, 1)), f.indices)


# 6-point one-sided stencils (5th order, exact through degree 5) for the two
# rows at each tau boundary, one row each; the smaller error constant keeps
# boundary rows from dominating curvature errors where the metric steepens.
_EDGES = np.array([
    [-137.0, 300.0, -300.0, 200.0, -75.0, 12.0],
    [-12.0, -65.0, 120.0, -60.0, 20.0, -3.0],
]) / 60.0
# one-sided rows per tau edge, which is also the central stencil's
# half-width: the rows a check skips to read central stencils only
TAU_REACH = len(_EDGES)
TAU_ORDER = 4  # the central stencil's order of accuracy
# tau rows kept on each side of a slice by its band: the tau stencil's reach
# per nested derivative, times the 3 nested derivatives the current reads
# (x -> e -> d e -> grad K).  At this radius no tau stencil that reaches the
# slice row's current reads a one-sided edge row of the band that the full
# grid reads centrally.
BAND_RADIUS = 3 * TAU_REACH


def fd4_axis0(values: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Fourth-order first derivative along axis 0 of a float64 array.

    Central 5-point stencil in the interior, one-sided 6-point stencils on
    the first and last two rows.  Requires n >= 9 so the one-sided rows do
    not overlap.  Writes into ``out`` (same shape) when given, and returns it.

    A non-finite input makes every output row whose stencil reads it
    non-finite, for :meth:`Field.check_finite` to report; as in
    :func:`_sigma_derivative`, the invalid flag that inf - inf raises there
    is not turned into a warning.
    """
    v = values
    n = v.shape[0]
    if n < 9:
        raise ValueError(f"fd4_axis0 needs at least 9 rows, got {n}")
    if out is None:
        out = np.empty_like(v)  # keeps the input's memory layout
    with np.errstate(invalid="ignore"):
        inv12h = 1.0 / (12.0 * h)
        # (v[:-4] - 8 v[1:-3] + 8 v[3:-1] - v[4:]) / 12h, accumulated in the
        # output: full-size temporaries cost more than the arithmetic
        acc = out[2:-2]
        np.multiply(v[1:-3], 8.0, out=acc)
        np.subtract(v[:-4], acc, out=acc)
        acc += 8.0 * v[3:-1]
        acc -= v[4:]
        acc *= inv12h
        # both edge rows of a side in one contraction; the last rows mirror the
        # first, on the reversed rows and with the opposite sign
        rows, width = _EDGES.shape
        edges = _EDGES / h
        out[:rows] = np.einsum("rm,m...->r...", edges, v[:width])
        out[:-rows - 1:-1] = -np.einsum("rm,m...->r...", edges, v[:-width - 1:-1])
    return out


def d_tau(f: Field) -> Field:
    """4th-order finite-difference derivative along tau.

    Central stencil in the interior, one-sided at the first/last two rows
    of each block of the grid; exact for polynomials of degree <= 4.
    """
    g = f.grid
    out = np.empty_like(f.values)
    fd4_axis0(g.by_block(f.values), g.h_tau, out=g.by_block(out))
    return Field(g, out, f.indices)


def stencils(grid: WorldsheetGrid, tau_values: np.ndarray, sigma_values: np.ndarray) -> np.ndarray:
    """d_tau of ``tau_values`` and d_sigma of ``sigma_values`` (component-
    major values of one shape) stacked on a new axis 2, stored with the grid
    axes innermost.  Both stencils write straight into their halves of one
    buffer, and each entry's arithmetic does not depend on what else the
    call differentiates."""
    buf = np.empty((2,) + tau_values.shape[2:] + grid.shape)
    out = np.moveaxis(buf, (-2, -1), (0, 1))
    fd4_axis0(grid.by_block(tau_values), grid.h_tau, out=grid.by_block(out[:, :, 0]))
    _sigma_derivative(sigma_values, buf[1])
    return out


def gradient(f: Field) -> Field:
    """Worldsheet gradient: d_tau f and d_sigma f stacked on a new leading
    lower index, stored with the grid axes innermost."""
    return Field(f.grid, stencils(f.grid, f.values, f.values), (WORLDSHEET_LOWER,) + f.indices)


def divergence(v: Field) -> Field:
    """d_a v^a, contracting the derivative with the first index of ``v``."""
    if not v.indices or v.indices[0] != WORLDSHEET_UPPER:
        raise GridError(f"divergence expects a leading upper worldsheet index, got {v.indices}")
    g = v.grid
    vals = v.values
    out = np.empty(vals.shape[3:] + g.shape)
    _sigma_derivative(vals[:, :, 1], out)
    out = np.moveaxis(out, (-2, -1), (0, 1))
    acc = g.by_block(out)
    acc += fd4_axis0(g.by_block(vals[:, :, 0]), g.h_tau)
    return Field(g, out, v.indices[1:])


def integrate_sigma_slice(f: Field, tau_index: int) -> float:
    """Periodic trapezoid (= spectral) quadrature over the sigma circle at a
    fixed tau row; exact for resolved trigonometric polynomials."""
    if not f.is_scalar:
        raise GridError("integrate_sigma_slice expects a scalar field")
    return float(f.values[f.grid.local_row(tau_index)].sum() * f.grid.h_sigma)


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
    w = tau_trapezoid_weights(f.grid)[:, None] * f.grid.h_sigma
    contrib = np.where(mask.active, f.values * w, 0.0)
    return float(contrib.sum())


def masked_max_abs(values: np.ndarray, active: np.ndarray) -> float:
    """max |values| over active grid points (extra trailing axes allowed).
    NaN when no point is active: a check over no points fails."""
    per_point = np.abs(values).max(axis=tuple(range(2, values.ndim)))
    sel = per_point[active]
    return float(sel.max()) if sel.size else float("nan")
