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
The closed form is a pointwise kernel in the cached operator coefficients
and the fields' normal gradients: :func:`bilinear_current` runs it on the
whole grid, while the two-form runs the same kernel on the requested tau
row only.
"""

from __future__ import annotations

import numpy as np

from .deformation import DeformationField, deform_embedding
from .dynamics import (
    ActionParams,
    operator_coefficients,
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
    d_sigma,
    d_tau,
    masked_max_abs,
)


def _pair_setup(geo: GeometryBundle, phi1: Field, phi2: Field):
    c = operator_coefficients(geo)
    g1 = normal_gradient(geo, phi1).values
    g2 = normal_gradient(geo, phi2).values
    gi = c.gi
    up1 = np.einsum("...ab,...bi->...ai", gi, g1)
    up2 = np.einsum("...ab,...bi->...ai", gi, g2)
    return c, phi1.values, phi2.values, g1, g2, up1, up2


def current_pieces(
    geo: GeometryBundle, phi1: Field, phi2: Field, p: ActionParams
) -> tuple[Field, ...]:
    """The six labelled pieces of the current, exactly as they arise from
    moving derivatives off the second argument in the self-adjointness
    computation.  Tension enters only the first piece; the rest are
    proportional to the topological coupling."""
    c, f1, f2, g1, g2, up1, up2 = _pair_setup(geo, phi1, phi2)
    gi, b = c.gi, p.gb_coupling
    sh = geo.grid.shape + (2,)
    grid = geo.grid

    j1 = p.tension * (
        -np.einsum("...i,...ai->...a", f1, up2) + np.einsum("...ai,...i->...a", up1, f2)
    )
    if b == 0.0:
        zero = Field(grid, np.zeros(sh), (WORLDSHEET_UPPER,))
        return (Field(grid, j1, (WORLDSHEET_UPPER,)),) + (zero,) * 5

    # j2: 4b K^{bci} grad_b K_c^{aj} phi1_i phi2_j
    j2 = 4 * b * np.einsum(
        "...bci,...ae,...bcej,...i,...j->...a", c.k_upup, gi, c.gk, f1, f2
    )
    # j3: 4b K^{abi} grad_c K_b^{cj} phi1_i phi2_j
    j3 = 4 * b * np.einsum(
        "...abi,...ce,...cbej,...i,...j->...a", c.k_upup, gi, c.gk, f1, f2
    )
    # j4: b [ 4 K^{cbi} K_c^{aj} phi1 grad_b phi2 - 4 grad_b K^{cai} K_c^{bj} phi1 phi2
    #         - 4 K^{cai} grad_b K_c^{bj} phi1 phi2 - 4 K^{cai} K_c^{bj} grad_b phi1 phi2 ]
    j4 = 4 * np.einsum("...cbi,...ae,...cej,...i,...bj->...a", c.k_upup, gi, c.k_low, f1, g2)
    gk_ca_up = np.einsum("...ce,...af,...befi->...bcai", gi, gi, c.gk)  # grad_b K^{cai}
    j4 = j4 - 4 * np.einsum("...bcai,...bf,...cfj,...i,...j->...a", gk_ca_up, gi, c.k_low, f1, f2)
    k_ca_up = np.einsum("...ce,...af,...efi->...cai", gi, gi, c.k_low)  # K^{cai}
    j4 = j4 - 4 * np.einsum(
        "...cai,...be,...bcej,...i,...j->...a", k_ca_up, gi, c.gk, f1, f2
    )
    j4 = j4 - 4 * np.einsum("...cai,...be,...cej,...bi,...j->...a", k_ca_up, gi, c.k_low, g1, f2)
    j4 = b * j4
    # j5: -4b K^{cdi} grad^a K_cd^j phi1 phi2
    j5 = -4 * b * np.einsum(
        "...cdi,...ae,...ecdj,...i,...j->...a", c.k_upup, gi, c.gk, f1, f2
    )
    # j6: b [ -2 K.K^{ij} phi1 grad^a phi2 + 2 grad^a K^{cdi} K_cd^j phi1 phi2
    #          + 2 K^{cdi} grad^a K_cd^j phi1 phi2 + 2 K.K^{ij} grad^a phi1 phi2 ]
    grad_kk = np.einsum("...ae,...ecdi,...cdj->...aij", gi, c.gk, c.k_upup)
    j6 = -2 * np.einsum("...ij,...i,...aj->...a", c.kk, f1, up2)
    j6 = j6 + 2 * np.einsum("...aij,...i,...j->...a", grad_kk, f1, f2)
    j6 = j6 + 2 * np.einsum("...aji,...i,...j->...a", grad_kk, f1, f2)
    j6 = j6 + 2 * np.einsum("...ij,...ai,...j->...a", c.kk, up1, f2)
    j6 = b * j6

    return tuple(
        Field(grid, jv, (WORLDSHEET_UPPER,)) for jv in (j1, j2, j3, j4, j5, j6)
    )


def _current_values(gi, k_low, k_upup, gk, kk, f1, f2, g1, g2, up1, up2, p) -> np.ndarray:
    """Pointwise kernel of the simplified current.  Every operand carries the
    same leading point axes (the full grid or one tau row), so the caller
    chooses where the current is evaluated."""
    b = p.gb_coupling
    j = p.tension * (
        -np.einsum("...i,...ai->...a", f1, up2) + np.einsum("...ai,...i->...a", up1, f2)
    )
    if b != 0.0:
        acc = 4 * np.einsum("...bci,...ae,...bcej,...i,...j->...a", k_upup, gi, gk, f1, f2)
        acc = acc - 4 * np.einsum("...cdi,...ae,...ecdj,...i,...j->...a", k_upup, gi, gk, f1, f2)
        acc = acc + 4 * np.einsum("...cbi,...ae,...cej,...i,...bj->...a", k_upup, gi, k_low, f1, g2)
        gk_ca_up = np.einsum("...ce,...af,...befi->...bcai", gi, gi, gk)
        acc = acc - 4 * np.einsum("...bcai,...bf,...cfj,...i,...j->...a", gk_ca_up, gi, k_low, f1, f2)
        k_ca_up = np.einsum("...ce,...af,...efi->...cai", gi, gi, k_low)
        acc = acc - 4 * np.einsum("...cai,...be,...cej,...bi,...j->...a", k_ca_up, gi, k_low, g1, f2)
        acc = acc - 2 * np.einsum("...ij,...i,...aj->...a", kk, f1, up2)
        grad_kk = np.einsum("...ae,...ecdi,...cdj->...aij", gi, gk, k_upup)
        acc = acc + 2 * np.einsum("...aij,...i,...j->...a", grad_kk, f1, f2)
        acc = acc + 2 * np.einsum("...aji,...i,...j->...a", grad_kk, f1, f2)
        acc = acc + 2 * np.einsum("...ij,...ai,...j->...a", kk, up1, f2)
        j = j + b * acc
    return j


def _current_coefficients(c) -> tuple[np.ndarray, ...]:
    """The coefficient fields :func:`_current_values` takes, in its order."""
    return c.gi, c.k_low, c.k_upup, c.gk, c.kk


def bilinear_current(geo: GeometryBundle, phi1: Field, phi2: Field, p: ActionParams) -> Field:
    """The worldsheet current j^a of the ordered pair (phi1, phi2) in its
    simplified closed form (two of the piece terms cancel when everything
    is written out); evaluated directly, not by summing
    :func:`current_pieces`."""
    c, *operands = _pair_setup(geo, phi1, phi2)
    j = _current_values(*_current_coefficients(c), *operands, p)
    return Field(geo.grid, j, (WORLDSHEET_UPPER,))


def sum_of_pieces(geo: GeometryBundle, phi1: Field, phi2: Field, p: ActionParams) -> Field:
    pieces = current_pieces(geo, phi1, phi2, p)
    total = np.zeros(geo.grid.shape + (2,))
    for piece in pieces:
        total = total + piece.values
    return Field(geo.grid, total, (WORLDSHEET_UPPER,))


def worldsheet_divergence(geo: GeometryBundle, j: Field) -> Field:
    """Covariant divergence of a worldsheet vector:
    (1/sqrt(-g)) d_a (sqrt(-g) j^a)."""
    if j.indices != (WORLDSHEET_UPPER,):
        raise GridError(f"divergence expects an upper worldsheet vector, got {j.indices}")
    dens = geo.vol.values[..., None] * j.values
    div = (
        d_tau(Field(geo.grid, dens[..., 0])).values
        + d_sigma(Field(geo.grid, dens[..., 1])).values
    )
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
    sqrt(-g) j^tau).

    The current is evaluated with the same pointwise kernel as
    :func:`bilinear_current`, on the requested row only."""
    raw12, raw21 = raw_slice_integrals(geo, phi1, phi2, p, tau_index)
    return 0.5 * (raw12 - raw21)


def raw_slice_integrals(
    geo: GeometryBundle, phi1: Field, phi2: Field, p: ActionParams, tau_index: int
) -> tuple[float, float]:
    """Both orderings of the un-antisymmetrized slice integral (the
    symmetric remainder is a diagnostic, not asserted to vanish).

    The row must lie in the grid and miss the masked region.  The gradients
    of the fields are taken on the full grid (the tau stencil spans rows);
    the current kernel then runs on the requested row only, once per
    ordering, and the row is summed with the periodic trapezoid rule of
    :func:`~stringlab.grid.integrate_sigma_slice`."""
    grid = geo.grid
    if not 0 <= tau_index < grid.n_tau:
        raise GridError(f"tau_index {tau_index} out of range [0, {grid.n_tau})")
    if not geo.mask.row_active(tau_index):
        raise GridError(f"tau row {tau_index} intersects the masked region")
    c, *operands = _pair_setup(geo, phi1, phi2)
    coeffs = [a[tau_index] for a in _current_coefficients(c)]
    f1, f2, g1, g2, up1, up2 = (a[tau_index] for a in operands)
    vol = geo.vol.values[tau_index]
    j12 = _current_values(*coeffs, f1, f2, g1, g2, up1, up2, p)
    j21 = _current_values(*coeffs, f2, f1, g2, g1, up2, up1, p)
    return (
        float((vol * j12[:, 0]).sum() * grid.h_sigma),
        float((vol * j21[:, 0]).sum() * grid.h_sigma),
    )


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
    frozen = np.einsum("...im,...i->...m", geo.n.values, decomp_phi.values)
    probe = DeformationField.normal_only(probe_phi)
    psis = []
    for sgn in (+1.0, -1.0):
        geo2 = build_geometry(deform_embedding(geo, probe, sgn * eps))
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


def resample_sigma(values: np.ndarray, new_sigma: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of grid data (axis 1 periodic)
    at arbitrary sigma points; exact for resolved trigonometric content."""
    n = values.shape[1]
    coeff = np.fft.rfft(values, axis=1)
    k = np.arange(coeff.shape[1])
    weights = np.full(coeff.shape[1], 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    phase = np.exp(1j * np.outer(new_sigma, k)) * weights  # (ns_new, nk)
    rest = values.shape[2:]
    flat = coeff.reshape(coeff.shape[0], coeff.shape[1], -1)
    out = np.einsum("sk,tkr->tsr", phase, flat).real / n
    return out.reshape(values.shape[:1] + new_sigma.shape + rest)


def gauge_invariance_check(
    geo: GeometryBundle,
    phi1: Field,
    phi2: Field,
    p: ActionParams,
    sigma_map,
    tau_index: int,
) -> float:
    """Relative change of the two-form under a circle reparametrization.

    ``sigma_map`` sends the grid sigma values to new source points s(sigma)
    (orientation preserving); the embedding and the field components are
    pulled back through the trigonometric interpolant, the geometry is
    rebuilt from scratch, and the two-form is recomputed on the same row.
    """
    grid = geo.grid
    s = np.asarray(sigma_map(grid.sigma), dtype=float)
    wrapped = np.concatenate([s, [s[0] + 2.0 * np.pi]])
    if not (np.diff(wrapped) > 0).all():
        raise GridError("reparametrization is not invertible on the grid")
    omega0 = symplectic_form(geo, phi1, phi2, p, tau_index)
    emb = geo.embedding
    x2 = Field(grid, resample_sigma(emb.x.values, s), emb.x.indices)
    geo2 = build_geometry(Embedding(emb.background, x2, emb.mask))
    f1 = Field(grid, resample_sigma(phi1.values, s), (NORMAL,))
    f2 = Field(grid, resample_sigma(phi2.values, s), (NORMAL,))
    omega1 = symplectic_form(geo2, f1, f2, p, tau_index)
    denom = abs(omega0) if omega0 != 0.0 else 1.0
    return abs(omega1 - omega0) / denom
