"""Covariant phase-space machinery: the bilinear current, the
self-adjointness identity behind it, the symplectic two-form on a
constant-tau slice, and its invariance properties.

The anticommuting one-forms of the continuum construction are realized
numerically on ordered pairs (phi1, phi2) of ordinary normal fields.  The
two-form is the antisymmetrized slice integral

    omega(phi1, phi2) = (1/2) [omega_raw(phi1, phi2) - omega_raw(phi2, phi1)],
    omega_raw = Int dsigma sqrt(-gamma) j^tau(phi1, phi2),

with the future-pointing tau-covector fixing the orientation.  The current
j^a itself is the boundary term of the self-adjointness identity

    phi1 . (P phi2) - (P phi1) . phi2 = div_a j^a,

valid pointwise for arbitrary smooth normal fields on on-shell geometry;
when both arguments solve the linearized equations the current is
covariantly conserved and omega is slice-independent.

Six labelled pieces j1..j6 assemble the current; :func:`bilinear_current`
also evaluates the algebraically simplified closed form directly, and the
two must agree to roundoff (an independent check of the simplification).
The closed form is a pointwise kernel in the current's cached coefficients
(:func:`~stringlab.dynamics.current_coefficients`, not the operator's
fourth-derivative ones) and the fields' normal gradients, split into a
tension part A and a topological part B so that j = T A + b B.  Every
evaluator reads a field through one helper, :func:`_field_operands`: its
values, its normal gradient (taken once, on the geometry's grid) and that
gradient raised, on the rows the caller asks for.  :func:`bilinear_current`
runs the kernel on the whole grid.  The two-form is evaluated as a table,
:func:`two_form_table`, over a list of fields, a list of couplings and a
list of tau rows: the kernel runs once per ordered pair of fields, on the
requested rows stacked together; A and B then serve every coupling, and
each row is summed over the slice.  Every cell equals, bit
for bit, the kernel run on that pair, coupling and row alone, so
:func:`symplectic_form` is one cell of a one-row table.

The two-form on a row reads only the 2 * BAND_RADIUS + 1 rows its nested
tau stencils reach, so the lab evaluates it on the band of its row: a
geometry built by the same :func:`~stringlab.geometry.build_geometry` on
those rows alone, with the full grid's tau values.  The bands of all the
rows of one table are stacked in one grid
(:meth:`~stringlab.grid.WorldsheetGrid.bands`), one block per band, with
the tau stencils restarting at each seam, so one build and one table serve
every slice.  The rows keep their full-grid numbers, each row is read from
the block that is its own band, and every cell equals the one of its band
alone and, on the probed grids, the full grid's, bit for bit.  The gauge
check compares the two-form of one band's geometry, evaluated once, with
that of each of its reparametrized rebuilds on the same row.  The rebuilds
are one build too: one copy of the band per circle map, stacked in the
same way (:meth:`~stringlab.grid.WorldsheetGrid.copies`), each field pulled
back through every map with one FFT, and one kernel pass over the copies'
slice rows; every copy equals, bit for bit, its map's rebuild alone.

Both evaluators contract in pairs: every einsum takes two operands, with
the fields contracted into K and grad K first.  Without a planned path
numpy's einsum loops over every index combination at every point: on a
129x32 grid one five-operand term of the current takes 1.6 ms, its
hand-written pairs 0.12 ms.  The pairs are not planned at run time with
``optimize=`` or ``einsum_path``: the greedy planner took the same 1.6 ms
on that term, and on one row of 32 points a planned call takes 8 times
as long as the same call unplanned (33 against 4 us for a pair, 220
against 27 us for the five-operand term).
"""

from __future__ import annotations

import numpy as np

from .deformation import DeformationField, deform_embedding, displacement
from .dynamics import (
    ActionParams,
    current_coefficients,
    require_onshell,
    stability_operator_apply,
    symplectic_potential,
)
from .geometry import Embedding, GeometryBundle, build_geometry, normal_gradient
from .grid import (
    NORMAL,
    WORLDSHEET_UPPER,
    Field,
    GridError,
    Mask,
    divergence,
    masked_max_abs,
)


def _field_operands(geo: GeometryBundle, phi: Field, rows=slice(None)):
    """What the current reads of one field, on tau rows ``rows`` (local
    indices, all of them by default): its values phi_i, its normal gradient
    grad_b phi_i (taken on the whole grid, where the tau stencil spans
    rows) and that gradient raised, grad^a phi_i."""
    g = normal_gradient(geo, phi).values[rows]
    up = np.einsum("...ab,...bi->...ai", current_coefficients(geo).gi[rows], g)
    return phi.values[rows], g, up


def current_pieces(
    geo: GeometryBundle, phi1: Field, phi2: Field, p: ActionParams
) -> tuple[Field, ...]:
    """The six labelled pieces of the current, exactly as they arise from
    moving derivatives off the second argument in the self-adjointness
    computation.  Tension enters only the first piece; the rest are
    proportional to the topological coupling.

    Each piece is its own sum of the terms below, every contraction taken
    in pairs; none of the closed form's intermediates or regrouping is
    used, so the two evaluators stay independent."""
    c = current_coefficients(geo)
    (f1, g1, up1), (f2, g2, up2) = _field_operands(geo, phi1), _field_operands(geo, phi2)
    gi, b = c.gi, p.gb_coupling
    sh = geo.grid.shape + (2,)
    grid = geo.grid

    j1 = p.tension * (
        -np.einsum("...i,...ai->...a", f1, up2) + np.einsum("...ai,...i->...a", up1, f2)
    )
    if b == 0.0:
        zero = Field(grid, np.zeros(sh), (WORLDSHEET_UPPER,))
        return (Field(grid, j1, (WORLDSHEET_UPPER,)),) + (zero,) * 5

    # the fields contracted into K and grad K, and the raised indices the
    # pieces name
    k_f1 = np.einsum("...bci,...i->...bc", c.k_upup, f1)            # K^{bci} phi1_i
    gk_f1 = np.einsum("...befi,...i->...bef", c.gk, f1)            # grad_b K_ef^i phi1_i
    gk_f2 = np.einsum("...bcej,...j->...bce", c.gk, f2)            # grad_b K_ce^j phi2_j
    k_mixed = np.einsum("...ae,...cej->...caj", gi, c.k_low)        # K_c^{aj}
    k_mixed_f2 = np.einsum("...cbj,...j->...cb", k_mixed, f2)      # K_c^{bj} phi2_j
    k_up_f2 = np.einsum("...ce,...cb->...eb", gi, k_mixed_f2)      # K^{ebj} phi2_j
    div_f2 = np.einsum("...ce,...cbe->...b", gi, gk_f2)            # grad_c K_b^{cj} phi2_j

    # j2: 4b K^{bci} grad_b K_c^{aj} phi1_i phi2_j
    j2 = 4 * b * np.einsum(
        "...ae,...e->...a", gi, np.einsum("...bc,...bce->...e", k_f1, gk_f2)
    )
    # j3: 4b K^{abi} grad_c K_b^{cj} phi1_i phi2_j
    j3 = 4 * b * np.einsum("...ab,...b->...a", k_f1, div_f2)
    # j4: b [ 4 K^{cbi} K_c^{aj} phi1 grad_b phi2 - 4 grad_b K^{cai} K_c^{bj} phi1 phi2
    #         - 4 K^{cai} grad_b K_c^{bj} phi1 phi2 - 4 K^{cai} K_c^{bj} grad_b phi1 phi2 ]
    j4 = 4 * np.einsum(
        "...cj,...caj->...a", np.einsum("...cb,...bj->...cj", k_f1, g2), k_mixed
    )
    j4 = j4 - 4 * np.einsum(
        "...af,...f->...a", gi, np.einsum("...bef,...eb->...f", gk_f1, k_up_f2)
    )
    j4 = j4 - 4 * np.einsum("...ca,...c->...a", k_f1, div_f2)
    k_g1 = np.einsum("...efi,...bi->...bef", c.k_low, g1)           # K_ef^i grad_b phi1_i
    j4 = j4 - 4 * np.einsum(
        "...af,...f->...a", gi, np.einsum("...bef,...eb->...f", k_g1, k_up_f2)
    )
    j4 = b * j4
    # j5: -4b K^{cdi} grad^a K_cd^j phi1 phi2
    j5 = -4 * b * np.einsum(
        "...ae,...e->...a", gi, np.einsum("...cd,...ecd->...e", k_f1, gk_f2)
    )
    # j6: b [ -2 K.K^{ij} phi1 grad^a phi2 + 2 grad^a K^{cdi} K_cd^j phi1 phi2
    #          + 2 K^{cdi} grad^a K_cd^j phi1 phi2 + 2 K.K^{ij} grad^a phi1 phi2 ]
    j6 = -2 * np.einsum("...j,...aj->...a", np.einsum("...ij,...i->...j", c.kk, f1), up2)
    j6 = j6 + 2 * np.einsum(
        "...ae,...e->...a", gi, np.einsum("...ecd,...cd->...e", gk_f1, k_up_f2)
    )
    j6 = j6 + 2 * np.einsum(
        "...ae,...e->...a", gi, np.einsum("...cd,...ecd->...e", k_f1, gk_f2)
    )
    j6 = j6 + 2 * np.einsum("...ai,...i->...a", up1, np.einsum("...ij,...j->...i", c.kk, f2))
    j6 = b * j6

    return tuple(
        Field(grid, jv, (WORLDSHEET_UPPER,)) for jv in (j1, j2, j3, j4, j5, j6)
    )


def _current_parts(coefficients, field1, field2, topological):
    """Pointwise kernel of the simplified current, split by coupling: the
    tension part A and the raised topological covector B, so that
    j = T A + b B (B is None when ``topological`` is false).  It reads the
    current's coefficients and each field's :func:`_field_operands`, all on
    the same leading point axes (the full grid, one tau row or a stack of
    rows), so the caller chooses where the current is evaluated.

    The fields are contracted into K and grad K first; every topological
    term then ends in gamma^{ae}, so the terms are summed into one covector
    and raised once."""
    gi, k_low, k_upup, gk, kk = coefficients
    (f1, g1, up1), (f2, g2, up2) = field1, field2
    tension = -np.einsum("...i,...ai->...a", f1, up2) + np.einsum("...ai,...i->...a", up1, f2)
    if not topological:
        return tension, None
    k1 = np.einsum("...bci,...i->...bc", k_upup, f1)       # K^{bc i} phi1_i
    k2 = np.einsum("...bcj,...j->...bc", k_upup, f2)       # K^{bc j} phi2_j
    gk1 = np.einsum("...bcei,...i->...bce", gk, f1)        # grad_b K_ce^i phi1_i
    gk2 = np.einsum("...bcej,...j->...bce", gk, f2)        # grad_b K_ce^j phi2_j
    g2k = np.einsum("...bj,...cej->...bce", g2, k_low)     # grad_b phi2_j K_ce^j
    g1k = np.einsum("...bi,...efi->...bef", g1, k_low)     # K_ef^i grad_b phi1_i
    # + 4 K^{bci} grad_b K_c^{aj}
    cov = 4 * np.einsum("...bc,...bce->...e", k1, gk2)
    # - 4 K^{cdi} grad^a K_cd^j + 2 K^{cdi} grad^a K_cd^j, as one term
    cov = cov - 2 * np.einsum("...cd,...ecd->...e", k1, gk2)
    # + 4 K^{cbi} K_c^{aj} phi1 grad_b phi2
    cov = cov + 4 * np.einsum("...cb,...bce->...e", k1, g2k)
    # - 4 (grad_b K^{cai} phi1 + K^{cai} grad_b phi1) K_c^{bj} phi2
    cov = cov - 4 * np.einsum("...bef,...eb->...f", gk1 + g1k, k2)
    # + 2 grad^a K^{cdi} K_cd^j
    cov = cov + 2 * np.einsum("...ecd,...cd->...e", gk1, k2)
    # - 2 K.K^{ij} phi1 grad^a phi2 + 2 K.K^{ij} grad^a phi1 phi2
    cov = cov - 2 * np.einsum("...j,...bj->...b", np.einsum("...ij,...i->...j", kk, f1), g2)
    cov = cov + 2 * np.einsum("...bi,...i->...b", g1, np.einsum("...ij,...j->...i", kk, f2))
    return tension, np.einsum("...ae,...e->...a", gi, cov)


def _couple(tension: np.ndarray, topological, p: ActionParams) -> np.ndarray:
    """The current T A + b B of one coupling from the kernel's two parts."""
    j = p.tension * tension
    if p.gb_coupling != 0.0:
        j = j + p.gb_coupling * topological
    return j


def bilinear_current(geo: GeometryBundle, phi1: Field, phi2: Field, p: ActionParams) -> Field:
    """The worldsheet current j^a of the ordered pair (phi1, phi2) in its
    simplified closed form (two of the piece terms cancel when everything
    is written out); evaluated directly, not by summing
    :func:`current_pieces`."""
    parts = _current_parts(current_coefficients(geo), _field_operands(geo, phi1),
                           _field_operands(geo, phi2), p.gb_coupling != 0.0)
    return Field(geo.grid, _couple(*parts, p), (WORLDSHEET_UPPER,))


def sum_of_pieces(geo: GeometryBundle, phi1: Field, phi2: Field, p: ActionParams) -> Field:
    total = sum(piece.values for piece in current_pieces(geo, phi1, phi2, p))
    return Field(geo.grid, total, (WORLDSHEET_UPPER,))


def worldsheet_divergence(geo: GeometryBundle, j: Field) -> Field:
    """Covariant divergence of a worldsheet vector:
    (1/sqrt(-g)) d_a (sqrt(-g) j^a)."""
    if j.indices != (WORLDSHEET_UPPER,):
        raise GridError(f"divergence expects an upper worldsheet vector, got {j.indices}")
    dens = Field(geo.grid, geo.vol.values[..., None] * j.values, j.indices)
    div = divergence(dens).values
    with np.errstate(divide="ignore", invalid="ignore"):
        return Field(geo.grid, div / geo.vol.values)


def self_adjointness_residual(
    geo: GeometryBundle, phi1: Field, phi2: Field, p: ActionParams
) -> tuple[Field, float, Field]:
    """Pointwise defect of the self-adjointness identity,
    phi1 . (P phi2) - (P phi1) . phi2 - div_a j^a, its scale, and the
    current j it was built from.

    The scale is the largest of the three cancelling terms' max |.| on
    active points (floored at 1e-30): the natural relative yardstick for
    the residual.  An off-shell identity in the field arguments (they need
    not solve the linearized equations); the geometry must be on shell."""
    p1 = stability_operator_apply(geo, phi1, p).values
    p2 = stability_operator_apply(geo, phi2, p).values
    left = np.einsum("...i,...i->...", phi1.values, p2)
    right = np.einsum("...i,...i->...", p1, phi2.values)
    j = bilinear_current(geo, phi1, phi2, p)
    div = worldsheet_divergence(geo, j).values
    act = geo.mask.active
    scale = max(
        masked_max_abs(left, act), masked_max_abs(right, act), masked_max_abs(div, act), 1e-30
    )
    return Field(geo.grid, left - right - div), scale, j


def conservation_residual(
    geo: GeometryBundle, phi1: Field, phi2: Field, p: ActionParams
) -> Field:
    """Covariant divergence of the current; bounded by the linearized
    residuals of the two arguments when they approximately solve the
    linearized equations."""
    return worldsheet_divergence(geo, bilinear_current(geo, phi1, phi2, p))


def symplectic_form(
    geo: GeometryBundle, phi1: Field, phi2: Field, p: ActionParams, tau_index: int
) -> float:
    """omega(phi1, phi2): the antisymmetrized slice integral of the current
    at a fixed tau row (the sigma circle there is the Cauchy slice; the
    slice element is the future-pointing tau-covector, so the integrand is
    sqrt(-g) j^tau).  One entry of :func:`two_form_table`."""
    return float(two_form_table(geo, [phi1, phi2], [p], [tau_index])[0, 0, 0, 1])


def two_form_table(geo: GeometryBundle, fields, params, rows) -> np.ndarray:
    """omega[p, r, A, B] = omega(fields[A], fields[B]) with couplings
    ``params[p]`` on tau row ``rows[r]``: an array of shape
    (len(params), len(rows), F, F), antisymmetric in A, B.

    Rows are numbered as in the full grid, on a stack of bands too, where
    each is read from the block of its own band.  Every row must lie in the
    grid, and its band must miss the masked region
    (:meth:`~stringlab.grid.Mask.slice_row`); all rows are checked, in order,
    before any arithmetic.  Each field's normal gradient is taken once on
    the geometry's grid (the tau stencil spans rows) and raised once.  The
    current kernel then runs once per ordered pair (A, B), on the
    requested rows stacked together, and its tension and topological parts
    serve every coupling.  Each row is summed with the periodic trapezoid
    rule of :func:`~stringlab.grid.integrate_sigma_slice`, and the entry is
    (1/2) [raw(A, B) - raw(B, A)]; a diagonal entry takes one kernel pass
    and is exactly 0.0 (or NaN where the current is not finite)."""
    return _two_form_rows(geo, fields, params, [geo.mask.slice_row(t) for t in rows])


def _two_form_rows(geo: GeometryBundle, fields, params, rows) -> np.ndarray:
    """:func:`two_form_table` on the checked local rows ``rows`` of
    ``geo``'s grid: one kernel pass per ordered pair of fields."""
    coeffs = [a[rows] for a in current_coefficients(geo)]
    operands = [_field_operands(geo, phi, rows) for phi in fields]
    topological = any(p.gb_coupling != 0.0 for p in params)
    weight = geo.vol.values[rows]
    raw = np.empty((len(params), len(rows), len(fields), len(fields)))
    for a, field1 in enumerate(operands):
        for b, field2 in enumerate(operands):
            parts = _current_parts(coeffs, field1, field2, topological)
            for k, p in enumerate(params):
                j = _couple(*parts, p)
                raw[k, :, a, b] = (weight * j[..., 0]).sum(axis=-1) * geo.grid.h_sigma
    return 0.5 * (raw - np.swapaxes(raw, -1, -2))


# ---------------------------------------------------------------------------
# exterior derivative of the potential, realized by finite differences


def potential_variation_current(
    geo: GeometryBundle,
    phi1: Field,
    phi2: Field,
    p: ActionParams,
    eps: float = 1e-4,
) -> Field:
    """Finite-difference realization of the phase-space exterior derivative
    of the symplectic potential, evaluated on the pair (phi1, phi2).

    Each directional term freezes the spacetime displacement vector of one
    argument, deforms the surface along the other, re-decomposes the frozen
    vector in the deformed frames (this regenerates tangential components,
    which carry the tension part of the current), and differences the
    potential; antisymmetrizing the two orders gives the current to compare
    against sqrt(-g) times the antisymmetrized bilinear current.
    """
    require_onshell(geo, p)
    t12 = _directional_potential_derivative(geo, phi1, phi2, p, eps)
    t21 = _directional_potential_derivative(geo, phi2, phi1, p, eps)
    return Field(geo.grid, t12 - t21, (WORLDSHEET_UPPER,))


def _directional_potential_derivative(geo, decomp_phi, probe_phi, p, eps) -> np.ndarray:
    """d/d eps of Psi^a[X + eps * n.probe](decomposition of n.decomp)."""
    frozen = displacement(geo, DeformationField.normal_only(decomp_phi)).values
    probe = DeformationField.normal_only(probe_phi)
    psis = []
    for sgn in (+1.0, -1.0):
        geo2 = build_geometry(deform_embedding(geo, probe, sgn * eps), frame=geo.n.values)
        phi_n = Field(
            geo2.grid, np.einsum("...im,...m->...i", geo2.n_low, frozen), (NORMAL,)
        )
        phi_t = Field(
            geo2.grid,
            np.einsum("...ab,...bm,...m->...a", geo2.gamma_inv.values, geo2.e_low, frozen),
            (WORLDSHEET_UPPER,),
        )
        psis.append(symplectic_potential(geo2, DeformationField(phi_n, phi_t), p).values)
    return (psis[0] - psis[1]) / (2.0 * eps)


# ---------------------------------------------------------------------------
# gauge invariance


def resample_sigma(values: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of grid data (axis 1 periodic)
    at the sigma points of each row of ``sources`` (maps, points), or of its
    one row; exact for resolved trigonometric content.  One FFT serves every
    map, and the results are stacked in tau as one copy of the grid per map,
    shape (maps * n_tau, points, ...)."""
    n = values.shape[1]
    coeff = np.fft.rfft(values, axis=1)
    k = np.arange(coeff.shape[1])
    weights = np.full(coeff.shape[1], 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    sources = np.atleast_2d(sources)
    phase = np.exp(1j * sources[..., None] * k) * weights  # (maps, points, nk)
    flat = coeff.reshape(coeff.shape[0], coeff.shape[1], -1)
    out = np.einsum("csk,tkr->ctsr", phase, flat).real / n
    return out.reshape((-1, sources.shape[1]) + values.shape[2:])


def reparametrized_rebuild(geo: GeometryBundle, fields, sources):
    """``geo`` rebuilt from scratch after pulling its embedding and normal
    frame back through each row of ``sources`` (new source points of the
    grid sigma values, one row per map), and ``fields`` pulled back
    likewise.  One build serves every map: its grid is one copy of
    ``geo``'s per map (:meth:`~stringlab.grid.WorldsheetGrid.copies`),
    copy c seeded with frame c (the components' basis) and holding the
    declared mask of ``geo``.  Every copy is, bit for bit, the rebuild
    through its map alone."""
    emb, stack = geo.embedding, geo.grid.copies(len(sources))
    x, frame, *pulled = (resample_sigma(f.values, sources) for f in (emb.x, geo.n, *fields))
    mask = Mask(stack, np.tile(emb.mask.active, (len(sources), 1)))
    rebuilt = build_geometry(Embedding(emb.background, Field(stack, x, emb.x.indices), mask), frame)
    return rebuilt, [Field(stack, phi, (NORMAL,)) for phi in pulled]


def reparametrized_forms(
    geo: GeometryBundle, phi1: Field, phi2: Field, p: ActionParams, sources, tau_index: int
) -> np.ndarray:
    """The two-form on row ``tau_index`` of each copy of
    :func:`reparametrized_rebuild`, one per map.  Each copy's slice row is
    checked against that copy's mask (:meth:`~stringlab.grid.Mask.slice_row`),
    in order, then one kernel pass covers every copy's row."""
    stack, fields = reparametrized_rebuild(geo, [phi1, phi2], sources)
    rows = [Mask(geo.grid, active).slice_row(tau_index) + c * geo.grid.n_tau
            for c, active in enumerate(np.split(stack.mask.active, len(sources)))]
    return _two_form_rows(stack, fields, [p], rows)[0, :, 0, 1]


def gauge_invariance_check(
    geo: GeometryBundle,
    phi1: Field,
    phi2: Field,
    p: ActionParams,
    sigma_maps,
    tau_index: int,
) -> list[float]:
    """Relative change of the two-form under each circle reparametrization
    of ``sigma_maps``, one per map.

    Each map sends the grid sigma values to new source points s(sigma)
    (orientation preserving).  Before any arithmetic every map is checked
    to give one source point per grid column and to be invertible on the
    grid.  The two-form on ``geo``, evaluated once, is compared with
    :func:`reparametrized_forms` on the same row: one rebuild of one copy
    of ``geo``'s grid per map.  On the band of the row
    (``grid.bands([row])``), both read only the rows the two-form needs.
    No maps give an empty list, and nothing is rebuilt.
    """
    sigma = geo.grid.sigma
    sources = [np.asarray(sigma_map(sigma), dtype=float) for sigma_map in sigma_maps]
    for c, s in enumerate(sources):
        if s.shape != sigma.shape:
            raise GridError(f"sigma map {c} returned shape {s.shape}, not one source point "
                            f"per grid column {sigma.shape}")
    if not all((np.diff(np.append(s, s[0] + 2.0 * np.pi)) > 0).all() for s in sources):
        raise GridError("reparametrization is not invertible on the grid")
    omega0 = symplectic_form(geo, phi1, phi2, p, tau_index)
    if not sources:
        return []
    return [relative_change(w - omega0, omega0)
            for w in reparametrized_forms(geo, phi1, phi2, p, sources, tau_index)]


def relative_change(change: float, reference: float) -> float:
    """|change| / |reference|, the two-form's one relative measure.  An
    exactly zero reference gives inf or NaN, which fails every tolerance:
    a vanishing two-form is no evidence of invariance."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(abs(change)) / abs(reference))
