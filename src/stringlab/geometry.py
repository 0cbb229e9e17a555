"""Worldsheet geometry of an embedded surface.

From a discretized embedding X^mu(tau, sigma) this module builds every
geometric object the rest of the package consumes: tangent frames, induced
metric, worldsheet Christoffel/Riemann/Ricci/Einstein tensors, an
orthonormal normal frame, extrinsic curvature, and the normal-bundle
connection, plus the covariant derivative machinery on top of them.

A build has two stages.  :func:`intrinsic_geometry` runs from the embedding
to the Einstein tensor and builds no normal frame; :func:`frame_geometry`
adds the frame, the extrinsic curvature and the normal connection.
:func:`build_geometry` runs both, and comparisons that read only intrinsic
fields run the first alone.

The normal frame is read off the tangents, point by point, by one rule
for every worldsheet and every build: the Levi-Civita dual of the lowered
tangents (and, in four dimensions, of the last coordinate axis taken off
them).  A rotation of the normals is a gauge of the normal bundle
(Capovilla & Guven, Phys. Rev. D 51 (1995) 6736), so the rule changes no
gauge-invariant output; what it buys is that no solution or rebuild
supplies a frame and that a band's frame is the full grid's.  Being
pointwise, the rule gives a displaced chart the base frame plus O(eps),
and a reparametrized chart the base frame pulled back.

Two conventions that everything downstream relies on:

* Extrinsic curvature sign: K_ab^i = -n^i . (d_a d_b X + Gamma(bg) e_a e_b).
  With this sign the first variation of the induced metric is
  2 K_ab^i phi_i + grad terms, which the finite-difference oracles in
  :mod:`stringlab.deformation` verify directly.  A closed string of
  outward normal n then has K_sigma_sigma = +1.

* Worldsheet Riemann: R^a_{bcd} is defined so the commutator on vectors is
  [nabla_c, nabla_d] V^a = R^a_{bcd} V^b, Ricci is R_bd = R^a_{bad}, and the
  flat-background Gauss relation reads R = K^i K_i - K_ab^i K^{ab}_i.

Curvature is assembled in determinant-weighted form: the Christoffel
numerator P^a_{bc} = Gamma^a_{bc} * (-det gamma) is a polynomial in smooth
fields, so every grid derivative in the curvature chain acts on smooth data
and the (singular) division by the determinant happens pointwise.  On
worldsheets with degenerate points (string folds) this keeps the curvature
accurate on active points instead of letting pole values poison the
spectral stencils.

R^a_{bcd} is antisymmetric in cd, so on a two-dimensional worldsheet its
block cd = tau sigma is all of it.  A build forms and keeps that block
alone, ``riem_tau_sigma``, four components from the six terms of the
general formula; a reader of R contracts the block (R^a_{b sigma tau} is
its negative, and cd = tau tau and sigma sigma vanish), as
:func:`stringlab.deformation.vary_connection` does.  It does not reduce
further, to the one
independent component R_{tau sigma tau sigma}: Ricci would then be
proportional to gamma by construction and G exactly 0, so every Einstein
check would pass vacuously.  From four components, G measures the discrete
chain's metric-compatibility defect, which falls as the grid is refined.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .background import BackgroundSpacetime
from .grid import (
    NORMAL,
    SPACETIME,
    WORLDSHEET_LOWER,
    WORLDSHEET_UPPER,
    Field,
    GridError,
    Mask,
    WorldsheetGrid,
    d_sigma,
    d_tau,
    dilate,
    divergence,
    gradient,
    grid_full,
    grid_innermost,
    masked_max_abs,
    stencils,
)

DEGENERACY_TOL = 1e-10
SEED_SKIP_TOL = 1e-8


class GeometryError(ValueError):
    """Geometry construction failure, annotated with the offending point."""

    @classmethod
    def at_point(cls, message: str, grid: WorldsheetGrid, it: int, isig: int) -> "GeometryError":
        """The error at local point (it, isig) of ``grid``, named by its
        full-grid tau row."""
        return cls(f"{message} at grid point (tau_index={grid.full_row(it)}, sigma_index={isig})")


@dataclass(frozen=True)
class Embedding:
    """Map X^mu(tau, sigma) into a background, with a declared active mask."""

    background: BackgroundSpacetime
    x: Field
    mask: Mask | None = None

    def __post_init__(self):
        if self.x.indices != (SPACETIME,):
            raise GridError(f"embedding chart must carry a single spacetime index, got {self.x.indices}")
        if self.x.values.shape[-1] != self.background.dim:
            raise GridError(
                f"chart dimension {self.x.values.shape[-1]} does not match background dim {self.background.dim}"
            )
        if self.mask is None:
            object.__setattr__(self, "mask", Mask.full(self.x.grid))

    @property
    def grid(self) -> WorldsheetGrid:
        return self.x.grid


@dataclass(frozen=True)
class IntrinsicGeometry:
    """The fields of an embedding up to the Einstein tensor: everything built
    from the tangents and the induced metric, nothing from the normal frame.
    Of the worldsheet Riemann tensor it keeps the block R^a_{b tau sigma},
    which on a two-dimensional worldsheet is all of it."""

    embedding: Embedding
    grid: WorldsheetGrid
    background: BackgroundSpacetime
    mask: Mask                 # declared mask intersected with detected degeneracies
    detected: np.ndarray       # points auto-masked by the degeneracy scan
    # arrays that are not Fields follow the Field storage rule (grid axes innermost)
    g: np.ndarray              # background metric along the embedding (nt, ns, N, N)
    e: Field                   # tangents e_a^mu, indices (a, mu)
    e_low: np.ndarray          # g_{mu nu} e_a^nu
    gamma: Field               # induced metric (a, a)
    gamma_inv: Field           # inverse induced metric (A, A)
    gamma_det: np.ndarray      # det gamma (negative on active points)
    adjugate: np.ndarray       # adj(gamma): gamma . adj = det * Id
    vol: Field                 # sqrt(-det gamma)
    conn: Field                # worldsheet Christoffel Gamma^a_{bc}, indices (A, a, a)
    riem_tau_sigma: Field      # R^a_{b tau sigma}, all of R (module docstring), indices (A, a)
    ricci: Field               # (a, a)
    scalar: Field              # scalar curvature
    einstein: Field            # (a, a)


@dataclass(frozen=True)
class GeometryBundle(IntrinsicGeometry):
    """Immutable bundle of every derived geometric field of one embedding:
    the intrinsic fields, then the normal frame and what is built on it."""

    n: Field                   # orthonormal normal frame n_i^mu, indices (i, mu)
    n_low: np.ndarray
    K: Field                   # extrinsic curvature K_ab^i, indices (a, a, i)
    K_upup: Field              # K^{ab i}, both worldsheet indices raised, indices (A, A, i)
    K_mean: Field              # K^i = gamma^ab K_ab^i
    normal_conn: Field         # omega_a^{ij}, indices (a, i, i), antisymmetric in ij
    # values derived from this geometry, each computed on first use (see
    # :func:`cached`): the current's and the operator's coefficients
    # ("current_coeffs", "linearized_coeffs"), the coefficients of the
    # operator's mean-curvature terms ("mean_curvature_coeffs"), and per
    # input object, keyed by the object itself, ("normal_gradient", phi),
    # ("phi_derivatives", phi) and the connection variation
    # ("vary_connection", deformation)
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def codim(self) -> int:
        return self.background.dim - 2


# ---------------------------------------------------------------------------
# masked-value hygiene


def fill_masked_along_sigma(values: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Replace values at masked points by linear interpolation between the
    nearest active sigma neighbours in the same row (wrapping).

    Used before feeding fields with masked singular points into the sigma
    spectral stencil, so pole values cannot poison the transform.  Rows with
    no active point are left untouched; in a row with one active point every
    masked point takes its value.  All masked points are filled in one
    gather, with the same per-element arithmetic as a point-by-point loop.
    """
    if active.all():
        return values
    nt, ns = active.shape
    out = values.copy(order="K")
    cols = np.arange(ns)
    # nearest active column at or before / at or after each point; -1 / ns if none
    before = np.maximum.accumulate(np.where(active, cols, -1), axis=1)
    after = np.minimum.accumulate(np.where(active, cols, ns)[:, ::-1], axis=1)[:, ::-1]
    t, s = np.nonzero(~active & active.any(axis=1)[:, None])
    # wrapping: before the row's first active column comes its last one
    left = np.where(before[t, s] >= 0, before[t, s], before[t, -1])
    right = np.where(after[t, s] < ns, after[t, s], after[t, 0])
    span = (right - left) % ns
    with np.errstate(divide="ignore", invalid="ignore"):  # span 0: one active point
        wl = np.where(span > 0, ((right - s) % ns) / span, 0.5)
    wl = wl.reshape(wl.shape + (1,) * (values.ndim - 2))
    out[t, s] = wl * out[t, left] + (1.0 - wl) * out[t, right]
    return out


# ---------------------------------------------------------------------------
# normal frame


def _levi_civita_dual(*vectors: np.ndarray) -> np.ndarray:
    """eps_{a b ...} v1^b v2^c ... pointwise, for the dim - 1 vectors of dim
    3 or 4 components on the last axis, with the permutation symbol
    (eps_{01...} = +1) and no metric.  By cofactors: component a is (-1)^a
    times the determinant of the vectors without column a, each minor
    expanded along its first vector over the minors of the rest."""
    dim = len(vectors) + 1
    minors = {(c,): vectors[-1][..., c] for c in range(dim)}
    for size, v in enumerate(reversed(vectors[:-1]), start=2):
        expanded = {}
        for cols in itertools.combinations(range(dim), size):
            out = v[..., cols[0]] * minors[cols[1:]]
            for i in range(1, size):
                term = v[..., cols[i]] * minors[cols[:i] + cols[i + 1:]]
                out = out + term if i % 2 == 0 else out - term
            expanded[cols] = out
        minors = expanded
    comps = [minors[tuple(c for c in range(dim) if c != a)] for a in range(dim)]
    return np.moveaxis(np.stack([m if a % 2 == 0 else -m for a, m in enumerate(comps)]), 0, -1)


def _unit(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v / sqrt(|g(v, v)|); NaN where g(v, v) is 0 (a masked point)."""
    norm2 = np.einsum("...mn,...m,...n->...", g, v, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        return v / np.sqrt(np.abs(norm2))[..., None]


def _orthonormal_normal_frame(g, e, e_low, gamma_inv, mask):
    """Orthonormal normal frame of the tangents, one rule per codimension,
    read off the tangents point by point.

    * Codimension 1: the dual of the two lowered tangents, normalized, and
      carried along each row across masked columns by :func:`_orient_frame`.
    * Codimension 2: slot 2 is the last coordinate axis off the tangents,
      by :func:`_last_axis_off_tangents`.  Slot 1 is the dual of the
      lowered tangents and slot 2, normalized: orthogonal to all three by
      construction, and (n_1, e_tau, e_sigma, n_2) has one orientation at
      every point.
    * Codimension 3 or more has no rule: the build raises.

    No rule reads a neighbouring point, save the codimension-1 walk along
    a row, so a band's frame is the full grid's.
    """
    nt, ns, dim = e.shape[0], e.shape[1], e.shape[-1]
    tangents = (e_low[..., 0, :], e_low[..., 1, :])
    if dim == 3:
        normal = _unit(g, _levi_civita_dual(*tangents))
        _orient_frame(normal, mask.active)
        return normal[..., None, :]
    if dim != 4:
        raise GeometryError(f"no normal frame rule for codimension {dim - 2}")
    n2 = _last_axis_off_tangents(g, e, e_low, gamma_inv, mask)
    normals = grid_full((nt, ns, 2, dim), 0.0)
    normals[..., 0, :] = _unit(g, _levi_civita_dual(*tangents, np.einsum("...mn,...n->...m", g, n2)))
    normals[..., 1, :] = n2
    return normals


def _last_axis_off_tangents(g, e, e_low, gamma_inv, mask):
    """The last coordinate axis minus its part in the tangent plane,
    normalized, taken off the tangents twice.

    Where the first residual's norm is at most SEED_SKIP_TOL, an active
    point raises, naming the first, and a masked one stays NaN.  The second
    pass refines: an axis near the tangent plane leaves a small residual
    that loses digits to cancellation, and one more projection restores
    them.
    """
    def off_tangents(v, e_dot_v):
        """v minus e_a gamma^{ab} (e_b . v), given e_b . v (contracted
        pairwise, a fraction of one three-operand einsum)."""
        return v - np.einsum("...a,...am->...m", np.einsum("...ab,...b->...a", gamma_inv, e_dot_v), e)

    # the last axis's dots with the tangents are e_low[..., -1]
    v = off_tangents(np.eye(e.shape[-1])[-1], e_low[..., -1])
    norm2 = np.einsum("...mn,...m,...n->...", g, v, v)
    ok = norm2 > SEED_SKIP_TOL * SEED_SKIP_TOL
    missing = mask.active & ~ok
    if missing.any():
        it, isig = np.argwhere(missing)[0]
        raise GeometryError.at_point("the last coordinate axis lies in the tangent plane",
                                     mask.grid, it, isig)
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = np.where(ok[..., None], v / np.sqrt(norm2)[..., None], np.nan)
    return _unit(g, off_tangents(unit, np.einsum("...am,...m->...a", e_low, unit)))


def _orient_frame(normal: np.ndarray, active: np.ndarray) -> None:
    """Carry a codimension-1 normal's orientation across masked columns.

    The dual of the tangents turns over where e_sigma does, at a fold: on
    each side of a masked column it is smooth, with opposite senses.  Each
    row is walked in sigma (wrapping) from the column of the first active
    point, and a point's sign follows the last point visited; see
    :func:`_walk_signs` for the dots and the signs.  The walks read the
    normal's contiguous component planes in place; only a first active
    column other than 0 makes them read a copy rolled to start there.
    """
    ns = normal.shape[1]
    s0 = int(np.argmax(active)) % ns
    planes = np.moveaxis(normal, -1, 0)  # (dim, nt, ns), views
    signs = _walk_signs(np.roll(planes, -s0, axis=2) if s0 else planes,
                        np.roll(active, -s0, axis=1))
    planes *= np.roll(signs, s0, axis=1)


def _walk_signs(planes: np.ndarray, part: np.ndarray) -> np.ndarray:
    """Signs of the steps of walks along the last axis of ``planes`` (dim,
    walks, steps), one plane per component, that start at step 0 and visit
    the steps where ``part`` is set: a step flips when its dot with the
    previous one, as flipped, is negative, so its sign is the parity of the
    negative dots since the last dot of 0 or NaN.

    The walks run as one flat sequence, each restarting at its step 0 with
    a dot of 0.  Every dot of neighbouring steps is taken on the planes as
    they lie; only a step after masked steps gathers the last one visited."""
    n, steps = part.shape
    flat = planes.reshape(len(planes), n * steps)
    part = part.flatten()
    part[::steps] = True
    dots = np.concatenate([[0.0], np.einsum("mi,mi->i", flat[:, :-1], flat[:, 1:])])
    at = np.flatnonzero(part[1:] & ~part[:-1]) + 1
    if at.size:
        last = np.maximum.accumulate(np.where(part, np.arange(n * steps), 0))
        dots[at] = np.einsum("mi,mi->i", flat[:, last[at - 1]], flat[:, at])
    dots[::steps] = 0.0
    flips = part & (dots < 0)
    count = np.cumsum(flips)
    count -= np.maximum.accumulate(np.where(part & ~flips & ~(dots > 0), count, 0))
    return np.where(part & (count % 2 == 1), -1.0, 1.0).reshape(n, steps)


# ---------------------------------------------------------------------------
# geometry build


def _require_periodic_chart(x: Field, dx_s: np.ndarray) -> None:
    """Reject charts that are not genuinely periodic in sigma.

    Sampling a non-periodic map (a straight segment, say) on the circle
    produces wild disagreement between the spectral derivative and a local
    difference quotient; smooth periodic charts agree to O(h^2).
    """
    vals = x.values
    h = x.grid.h_sigma
    with np.errstate(invalid="ignore"):  # a displaced chart may be inf on masked rows
        # the central difference (v[s + 1] - v[s - 1]) / 2h, wrapping
        local = np.empty_like(vals)
        np.subtract(vals[:, 2:], vals[:, :-2], out=local[:, 1:-1])
        local[:, 0], local[:, -1] = vals[:, 1] - vals[:, -1], vals[:, 0] - vals[:, -2]
        local /= 2.0 * h
        scale = 1.0 + np.abs(local).max()
        gap = np.abs(dx_s - local).max()
    if gap > 0.5 * scale:
        raise GeometryError(
            "chart is not periodic in sigma (spectral and local derivatives "
            f"disagree by {gap:.2e}); embed the closed string, not a segment"
        )


def build_geometry(emb: Embedding) -> GeometryBundle:
    """Compute the full geometry bundle of an embedding: the intrinsic stage,
    then the frame stage on top of it.

    The normal frame is read off the tangents (see
    :func:`_orthonormal_normal_frame`), on a rebuild as on a first build.
    """
    return frame_geometry(intrinsic_geometry(emb))


def intrinsic_geometry(emb: Embedding) -> IntrinsicGeometry:
    """The intrinsic stage of a build: tangents, induced metric, its inverse
    and determinant, the degeneracy mask, and the curvature chain from the
    Christoffel symbols to the Einstein tensor.  No normal frame is built,
    so a comparison that reads only these fields stops here."""
    bg = emb.background
    grid = emb.grid

    x = emb.x
    e = gradient(x)  # tangents e_a^mu
    e_vals = e.values
    _require_periodic_chart(x, e_vals[:, :, 1])
    g = grid_innermost(bg.metric_at(x.values))
    e_low = np.einsum("...mn,...an->...am", g, e_vals)
    gamma = np.einsum("...am,...bm->...ab", e_vals, e_low)
    det = gamma[..., 0, 0] * gamma[..., 1, 1] - gamma[..., 0, 1] * gamma[..., 1, 0]

    # degeneracy scan: the points where the tangent Gram matrix collapses
    # (folds, collapse instants), grown by one grid step as a solution's
    # declared degenerate points are
    detected = dilate(np.abs(det) < DEGENERACY_TOL, grid)
    active = emb.mask.active & ~detected
    mask = Mask(grid, active)  # re-validates the 50% active floor

    bad = active & (det > -DEGENERACY_TOL)
    if bad.any():
        it, isig = np.argwhere(bad)[0]
        raise GeometryError.at_point(
            f"induced metric is not Lorentzian (det gamma = {det[it, isig]:.3e})", grid, it, isig
        )

    d = -det  # positive on active points
    adj = np.empty_like(gamma)
    adj[..., 0, 0] = gamma[..., 1, 1]
    adj[..., 1, 1] = gamma[..., 0, 0]
    adj[..., 0, 1] = -gamma[..., 0, 1]
    adj[..., 1, 0] = -gamma[..., 1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma_inv = -adj / d[..., None, None]
        vol = np.sqrt(np.where(d > 0, d, np.nan))

    # determinant-weighted Christoffel: Gamma^a_{bc} = P^a_{bc} / (-det)
    gamma_f = Field(grid, gamma, (WORLDSHEET_LOWER, WORLDSHEET_LOWER))
    dgam = gradient(gamma_f).values  # (..., c, a, b)
    sym = (
        np.einsum("...bdc->...dbc", dgam)      # d_b gamma_dc
        + np.einsum("...cdb->...dbc", dgam)    # d_c gamma_db
        - dgam                                 # d_d gamma_bc
    )
    p_num = -0.5 * np.einsum("...ad,...dbc->...abc", adj, sym)
    del dgam, sym  # each stage frees its stencil intermediates: the peak heap is what a build touches
    with np.errstate(divide="ignore", invalid="ignore"):
        conn = p_num / d[..., None, None, None]

    # Riemann from the weighted Christoffel; every stencil below acts on the
    # smooth numerator fields, divisions stay pointwise.  R^a_{b tau sigma}
    # is all of R and all a build keeps of it (see the module docstring):
    # its numerator reads only d_tau P^a_{sigma b} and d_sigma P^a_{tau b},
    # and adds the six terms of the general formula in their order
    p_tau, p_sig = p_num[..., 0, :], p_num[..., 1, :]  # P^a_{tau b}, P^a_{sigma b}
    mixed = (WORLDSHEET_UPPER, WORLDSHEET_LOWER)
    dd_det = gradient(Field(grid, d)).values  # (..., e)
    d_ab = d[..., None, None]
    num = d_tau(Field(grid, p_sig, mixed)).values * d_ab - p_sig * dd_det[..., 0, None, None]
    num -= d_sigma(Field(grid, p_tau, mixed)).values * d_ab
    num += p_tau * dd_det[..., 1, None, None]
    num += np.einsum("...ae,...eb->...ab", p_tau, p_sig)
    num -= np.einsum("...ae,...eb->...ab", p_sig, p_tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = num / (d * d)[..., None, None]  # R^a_{b tau sigma}
    del dd_det, num
    # R_bd = R^a_{bad}: R_{b tau} = R^sigma_{b sigma tau}, R_{b sigma} = R^tau_{b tau sigma}
    ricci = np.empty_like(r)
    ricci[..., 0], ricci[..., 1] = -r[..., 1, :], r[..., 0, :]
    with np.errstate(invalid="ignore"):
        scal = np.einsum("...bd,...bd->...", gamma_inv, ricci)
    einstein = ricci - 0.5 * gamma * scal[..., None, None]

    intrinsic = IntrinsicGeometry(
        embedding=emb,
        grid=grid,
        background=bg,
        mask=mask,
        detected=detected,
        g=g,
        e=e,
        e_low=e_low,
        gamma=gamma_f,
        gamma_inv=Field(grid, gamma_inv, (WORLDSHEET_UPPER, WORLDSHEET_UPPER)),
        gamma_det=det,
        adjugate=adj,
        vol=Field(grid, vol),
        conn=Field(grid, conn, (WORLDSHEET_UPPER, WORLDSHEET_LOWER, WORLDSHEET_LOWER)),
        riem_tau_sigma=Field(grid, r, (WORLDSHEET_UPPER, WORLDSHEET_LOWER)),
        ricci=Field(grid, ricci, (WORLDSHEET_LOWER, WORLDSHEET_LOWER)),
        scalar=Field(grid, scal),
        einstein=Field(grid, einstein, (WORLDSHEET_LOWER, WORLDSHEET_LOWER)),
    )
    _validate_intrinsic(intrinsic)
    return intrinsic


def frame_geometry(intrinsic: IntrinsicGeometry) -> GeometryBundle:
    """The frame stage of a build: the normal frame read off the tangents,
    extrinsic curvature, its trace and the normal-bundle connection,
    bundled with the intrinsic fields."""
    bg = intrinsic.background
    grid = intrinsic.grid
    nt, ns = grid.shape
    dim = bg.dim
    x = intrinsic.embedding.x
    g, e_vals, e_low = intrinsic.g, intrinsic.e.values, intrinsic.e_low
    gamma_inv = intrinsic.gamma_inv.values
    active = intrinsic.mask.active

    normals = _orthonormal_normal_frame(g, e_vals, e_low, gamma_inv, intrinsic.mask)
    n_low = np.einsum("...mn,...in->...im", g, normals)

    # extrinsic curvature K_ab^i = -n^i . (dd X + Gamma(bg) e e), symmetrized
    # (dd is d_b e_a, in (b, a) order: the symmetrization makes the order moot)
    dd = gradient(intrinsic.e).values
    if not bg.flat:
        gamma_bg = bg.christoffel_at(x.values)
        dd = dd + np.einsum("...mnl,...an,...bl->...abm", gamma_bg, e_vals, e_vals)
    K = -np.einsum("...im,...abm->...abi", n_low, dd)
    del dd
    K = 0.5 * (K + np.swapaxes(K, 2, 3))
    with np.errstate(invalid="ignore"):
        K_mean = np.einsum("...ab,...abi->...i", gamma_inv, K)
    K = Field(grid, K, (WORLDSHEET_LOWER, WORLDSHEET_LOWER, NORMAL))
    K_upup = raise_index(intrinsic, raise_index(intrinsic, K, 0), 1)

    # normal-bundle connection omega_a^{ij} = g(n^i, D_a n^j), antisymmetrized
    k_codim = dim - 2
    if k_codim == 1:
        omega = grid_full((nt, ns, 2, 1, 1), 0.0)
    else:
        # differentiate after interpolating over masked points
        n_f = Field(grid, fill_masked_along_sigma(normals, active), (NORMAL, SPACETIME))
        dn = gradient(n_f).values  # (nt, ns, a, j, mu)
        if not bg.flat:
            dn = dn + np.einsum("...mnl,...an,...jl->...ajm", gamma_bg, e_vals, normals)
        omega = np.einsum("...im,...ajm->...aij", n_low, dn)
        omega = 0.5 * (omega - np.swapaxes(omega, -1, -2))

    geo = GeometryBundle(
        **vars(intrinsic),
        n=Field(grid, normals, (NORMAL, SPACETIME)),
        n_low=n_low,
        K=K,
        K_upup=K_upup,
        K_mean=Field(grid, K_mean, (NORMAL,)),
        normal_conn=Field(grid, omega, (WORLDSHEET_LOWER, NORMAL, NORMAL)),
    )
    _validate_frame(geo)
    return geo


def _validate_intrinsic(geo: IntrinsicGeometry) -> None:
    act = geo.mask.active
    ident = np.einsum("...ab,...bc->...ac", geo.gamma_inv.values, geo.gamma.values)
    eye = np.eye(2)
    if masked_max_abs(ident - eye, act) > 1e-10:
        raise GeometryError("gamma_inv . gamma deviates from the identity")
    for name in ("vol", "conn", "riem_tau_sigma", "scalar"):
        getattr(geo, name).check_finite(geo.mask, name=name)


def _validate_frame(geo: GeometryBundle) -> None:
    act = geo.mask.active
    ndotn = np.einsum("...im,...jm->...ij", geo.n_low, geo.n.values)
    k = geo.codim
    if masked_max_abs(ndotn - np.eye(k), act) > 1e-9:
        raise GeometryError("normal frame is not orthonormal")
    ndote = np.einsum("...im,...am->...ia", geo.n_low, geo.e.values)
    if masked_max_abs(ndote, act) > 1e-9:
        raise GeometryError("normal frame is not orthogonal to the tangents")
    for name in ("K", "K_mean", "normal_conn"):
        getattr(geo, name).check_finite(geo.mask, name=name)


def cached(geo: GeometryBundle, key, compute):
    """``compute()``, evaluated on the first call with ``key`` and kept in
    ``geo.cache``.  A key naming an input holds the input object itself,
    so a recycled id() can never serve another object's value.  Every
    caller gets the same arrays, so none may write into them."""
    if key not in geo.cache:
        geo.cache[key] = compute()
    return geo.cache[key]


# ---------------------------------------------------------------------------
# index algebra and covariant derivatives


# letters for the index axes a contraction leaves alone; upper case, so they
# cannot meet the lower-case subscripts of the connections
_SPECTATORS = "BCDEFG"


def _subscripts(n_axes: int, pos: int, letter: str) -> str:
    """einsum subscripts of ``n_axes`` index axes, ``letter`` at ``pos``."""
    idx = _SPECTATORS[:n_axes]
    return idx[:pos] + letter + idx[pos + 1:]


def _contract_axis(matrix: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
    """Contract matrix[..., x, y] with values along ``axis`` (as index y).

    One einsum with the position spelled out: moving the axis and flattening
    the rest would copy the component-major values back to points-first."""
    n, pos = values.ndim - 2, axis - 2
    src, dst = _subscripts(n, pos, "y"), _subscripts(n, pos, "x")
    return np.einsum(f"...xy,...{src}->...{dst}", matrix, values)


def raise_index(geo: IntrinsicGeometry, f: Field, pos: int) -> Field:
    if f.indices[pos] != WORLDSHEET_LOWER:
        raise GridError(f"raise_index: position {pos} holds {f.indices[pos]!r}, not 'a'")
    vals = _contract_axis(geo.gamma_inv.values, f.values, 2 + pos)
    labels = list(f.indices)
    labels[pos] = WORLDSHEET_UPPER
    return Field(f.grid, vals, tuple(labels))


def lower_index(geo: GeometryBundle, f: Field, pos: int) -> Field:
    if f.indices[pos] != WORLDSHEET_UPPER:
        raise GridError(f"lower_index: position {pos} holds {f.indices[pos]!r}, not 'A'")
    vals = _contract_axis(geo.gamma.values, f.values, 2 + pos)
    labels = list(f.indices)
    labels[pos] = WORLDSHEET_LOWER
    return Field(f.grid, vals, tuple(labels))


def covariant_gradient(geo: GeometryBundle, f: Field) -> Field:
    """Covariant derivative, prepending one lower worldsheet index.

    Worldsheet indices get Levi-Civita corrections, normal-frame indices get
    the normal-bundle connection, each added into the gradient's own
    buffer; the result on a field with indices (i1, ..., ik) carries
    indices (a, i1, ..., ik).
    """
    out = gradient(f).values
    _add_corrections(geo, f, out, traced=False)
    return Field(f.grid, out, (WORLDSHEET_LOWER,) + f.indices)


def covariant_divergence(geo: GeometryBundle, f: Field) -> Field:
    """nabla_c f^{c ...}: the trace of :func:`covariant_gradient` over its
    derivative index and ``f``'s first index, which must be upper.

    Only the traced entries are formed: d_tau of the f^tau block and
    d_sigma of the f^sigma block, and each correction on the diagonal,
    added in the gradient's order and traced by the same einsum, so the
    result is the full gradient's trace bit for bit at half its work."""
    if not f.indices or f.indices[0] != WORLDSHEET_UPPER:
        raise GridError(f"covariant_divergence expects a leading upper index, got {f.indices}")
    out = stencils(f.grid, f.values[:, :, 0], f.values[:, :, 1])
    _add_corrections(geo, f, out, traced=True)
    rest = _SPECTATORS[1:len(f.indices)]
    return Field(f.grid, np.einsum(f"...c{rest}->...{rest}", out), f.indices[1:])


def _add_corrections(geo: GeometryBundle, f: Field, out: np.ndarray, traced: bool) -> None:
    """Add the connection terms of f's covariant derivative into ``out``,
    one einsum per index position, contracting it where it stands, in
    position order: Levi-Civita for worldsheet indices, the normal-bundle
    connection for normal ones.  ``out`` holds d_c f at (c, i1, ...), or,
    ``traced``, only its entries with i1 = c, at (c, i2, ...)."""
    n = len(f.indices)
    for pos, label in enumerate(f.indices):
        if label == SPACETIME:
            raise GridError("covariant_gradient does not support spacetime indices")
        if label == NORMAL:
            table, coeffs = "cij", geo.normal_conn.values
            src, dst = _subscripts(n, pos, "j"), _subscripts(n, pos, "i")
        else:
            table, coeffs = ("eca" if label == WORLDSHEET_LOWER else "ace"), geo.conn.values
            src, dst = _subscripts(n, pos, "e"), _subscripts(n, pos, "a")
        if traced:  # f's first index is the derivative index c
            dst = dst[1:]
            table, src = ("cce", src) if pos == 0 else (table, "c" + src[1:])
        add = np.subtract if label == WORLDSHEET_LOWER else np.add
        add(out, np.einsum(f"...{table},...{src}->...c{dst}", coeffs, f.values), out=out)


def normal_gradient(geo: GeometryBundle, phi: Field) -> Field:
    """Normal-bundle covariant derivative of a normal-components field:
    (grad phi)_a^i = d_a phi^i + omega_a^i_j phi^j.

    Taken once per geometry and field object, after the field's checks:
    the Laplacian, both operator evaluators and the current all read the
    one Field kept in ``geo.cache``.  Tangential and higher-rank
    derivatives are not kept: they would hold large fields as long as the
    geometry."""
    if phi.indices != (NORMAL,):
        raise GridError(f"normal_gradient expects a pure normal field, got {phi.indices}")
    if phi.values.shape[-1] != geo.codim:
        raise GridError(
            f"normal field has {phi.values.shape[-1]} components, geometry has codim {geo.codim}"
        )
    return cached(geo, ("normal_gradient", phi), lambda: covariant_gradient(geo, phi))


def normal_laplacian(geo: GeometryBundle, phi: Field) -> Field:
    """Worldsheet Laplacian on normal-bundle fields, divergence form.

    Uses the density-weighted inverse metric sqrt(-det) gamma^{ab} =
    -adj^{ab}/sqrt(-det) (conformal weight zero in 2D, hence smooth across
    folds) so the stencils act on well-behaved data.
    """
    w = normal_gradient(geo, phi)
    act = geo.mask.active
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = -geo.adjugate / geo.vol.values[..., None, None]
    v = np.einsum("...ab,...bi->...ai", weight, w.values)
    v = fill_masked_along_sigma(v, act)
    div = divergence(Field(geo.grid, v, (WORLDSHEET_UPPER, NORMAL))).values
    rot = np.einsum("...ab,...aij,...bj->...i", geo.gamma_inv.values, geo.normal_conn.values, w.values)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = div / geo.vol.values[..., None] + rot
    return Field(geo.grid, out, (NORMAL,))


def normal_laplacian_double_trace(geo: GeometryBundle, phi: Field) -> Field:
    """Same Laplacian as the trace of two covariant gradients (cross-check)."""
    h = covariant_gradient(geo, covariant_gradient(geo, phi))
    out = np.einsum("...ab,...abi->...i", geo.gamma_inv.values, h.values)
    return Field(geo.grid, out, (NORMAL,))


def gauss_scalar_curvature(geo: GeometryBundle) -> Field:
    """Scalar curvature from the extrinsic data: K^i K_i - K_ab^i K^{ab i}.

    Valid on flat backgrounds; an independent cross-check of the
    Christoffel-built curvature (and of the extrinsic-curvature sign).
    """
    kk = np.einsum("...abi,...abi->...", geo.K_upup.values, geo.K.values)
    kmean2 = np.einsum("...i,...i->...", geo.K_mean.values, geo.K_mean.values)
    return Field(geo.grid, kmean2 - kk)
