"""Action, equations of motion, symplectic potential, and linearized
dynamics of the tension + worldsheet-curvature action

    S = -tension * Int sqrt(-gamma) + gb_coupling * Int sqrt(-gamma) R.

The curvature term is topological on a two-dimensional worldsheet: the
equations of motion reduce to vanishing mean curvature with no gb_coupling
dependence, while the boundary-term structure (the symplectic potential)
keeps explicit gb_coupling terms.  That asymmetry is what the phase-space
machinery in :mod:`stringlab.symplectic` quantifies.

The linearized dynamics has two independently written evaluators:
:func:`linearized_residual` (general-dimension form, einsum style, Einstein
blocks included) and :func:`linearized_residual_string` (string form,
explicit index loops).  Their agreement on strings is an acceptance test,
so neither is derived from the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import riemann_slots
from .deformation import DeformationField, deform_embedding, vary_connection
from .geometry import (
    GeometryBundle,
    build_geometry,
    covariant_gradient,
    normal_gradient,
    normal_laplacian,
    raise_index,
)
from .grid import (
    NORMAL,
    WORLDSHEET_UPPER,
    Field,
    integrate_patch,
    masked_max_abs,
)

ONSHELL_FACTOR = 1e-3


class DynamicsError(ValueError):
    """Invalid dynamics input (bad parameters, off-shell geometry, ...)."""


@dataclass(frozen=True)
class ActionParams:
    """Couplings of the action: tension, topological-term coupling, and the
    worldsheet dimension (fixed to 2 in this package)."""

    tension: float
    gb_coupling: float = 0.0
    worldsheet_dim: int = 2

    def __post_init__(self):
        if self.tension < 0:
            raise DynamicsError(f"tension must be >= 0, got {self.tension}")
        if self.tension == 0.0 and self.gb_coupling == 0.0:
            raise DynamicsError("tension and gb_coupling cannot both vanish")
        if self.worldsheet_dim != 2:
            raise DynamicsError("only two-dimensional worldsheets are supported")


def action_value(geo: GeometryBundle, p: ActionParams) -> float:
    """-tension * area + gb_coupling * curvature integral over active points."""
    area = integrate_patch(geo.vol, geo.mask)
    curv = integrate_patch(Field(geo.grid, geo.vol.values * geo.scalar.values), geo.mask)
    return -p.tension * area + p.gb_coupling * curv


def eom_residual(geo: GeometryBundle, p: ActionParams) -> Field:
    """Equations-of-motion residual: tension * K^i + 2 beta G_ab K^{ab i}.

    On two-dimensional worldsheets the Einstein-tensor term sits at the
    discretization floor, making the residual beta-independent; the term is
    evaluated anyway (it is the general form, and its smallness is tested).
    """
    c = operator_coefficients(geo)
    gb_term = 2.0 * p.gb_coupling * np.einsum(
        "...ab,...abi->...i", geo.einstein.values, c.k_upup
    )
    return Field(geo.grid, p.tension * geo.K_mean.values + gb_term, (NORMAL,))


def max_eom_residual(geo: GeometryBundle, p: ActionParams) -> float:
    return masked_max_abs(eom_residual(geo, p).values, geo.mask.active)


def require_onshell(geo: GeometryBundle, p: ActionParams) -> None:
    bound = ONSHELL_FACTOR * p.tension
    worst = max_eom_residual(geo, p)
    if worst > bound:
        raise DynamicsError(
            f"geometry is off shell: max |eom residual| = {worst:.3e} exceeds {bound:.3e}"
        )


# ---------------------------------------------------------------------------
# symplectic potential


def symplectic_potential(geo: GeometryBundle, d: DeformationField, p: ActionParams) -> Field:
    """Boundary-term density of the first variation of the action, general
    form (Einstein-tensor term included):

    Psi^a = sqrt(-g) [ -tension phi^a - 2 beta G^{ab} phi_b
                       + beta gamma^{cd} DGamma^a_{cd}
                       - beta gamma^{ab} DGamma^c_{cb} ].
    """
    beta = p.gb_coupling
    gi = geo.gamma_inv.values
    out = -p.tension * d.phi_tangent.values
    if beta != 0.0:
        g_up = np.einsum("...ac,...bd,...cd->...ab", gi, gi, geo.einstein.values)
        phi_low = np.einsum("...ab,...b->...a", geo.gamma.values, d.phi_tangent.values)
        out = out - 2.0 * beta * np.einsum("...ab,...b->...a", g_up, phi_low)
        dconn = vary_connection(geo, d).values
        out = out + beta * np.einsum("...cd,...acd->...a", gi, dconn)
        out = out - beta * np.einsum("...ab,...ccb->...a", gi, dconn)
    return Field(geo.grid, geo.vol.values[..., None] * out, (WORLDSHEET_UPPER,))


def symplectic_potential_string(geo: GeometryBundle, d: DeformationField, p: ActionParams) -> Field:
    """String-specialized potential (no Einstein term), coded independently
    with explicit index loops."""
    dconn = vary_connection(geo, d).values
    gi = geo.gamma_inv.values
    vol = geo.vol.values
    out = np.zeros(geo.grid.shape + (2,))
    for a in range(2):
        acc = -p.tension * d.phi_tangent.values[..., a]
        if p.gb_coupling != 0.0:
            trace = np.zeros(geo.grid.shape)
            mixed = np.zeros(geo.grid.shape)
            for cc in range(2):
                for dd in range(2):
                    trace = trace + gi[..., cc, dd] * dconn[..., a, cc, dd]
                mixed = mixed + gi[..., a, cc] * (dconn[..., 0, 0, cc] + dconn[..., 1, 1, cc])
            acc = acc + p.gb_coupling * (trace - mixed)
        out[..., a] = vol * acc
    return Field(geo.grid, out, (WORLDSHEET_UPPER,))


# ---------------------------------------------------------------------------
# linearized dynamics: coefficient cache


class _LinearizedCoefficients:
    """Geometry-dependent coefficient fields of the linearized operator,
    computed once per geometry and reused across operator applications."""

    def __init__(self, geo: GeometryBundle):
        k = geo.K
        self.k_low = k.values                                  # K_ab^i       (a, b, i)
        self.k_upup = raise_index(geo, raise_index(geo, k, 0), 1).values  # K^{ab i}
        self.kk = np.einsum("...abi,...abj->...ij", self.k_upup, self.k_low)
        self.k_mean = geo.K_mean.values
        gk_f = covariant_gradient(geo, k)
        self.gk = gk_f.values                                  # grad_c K_ab^i (c, a, b, i)
        self.ggk = covariant_gradient(geo, gk_f).values        # grad_d grad_c K_ab^i
        gi = geo.gamma_inv.values
        self.gi = gi
        self.lap_k = np.einsum("...dc,...dcabi->...abi", gi, self.ggk)
        gkm_f = covariant_gradient(geo, geo.K_mean)
        self.g_kmean = gkm_f.values                            # (c, i)
        self.gg_kmean = covariant_gradient(geo, gkm_f).values  # (d, c, i)
        self.lap_kmean = np.einsum("...dc,...dci->...i", gi, self.gg_kmean)
        self.scalar = geo.scalar.values
        slots = riemann_slots(geo.background, geo.e, geo.n, points=geo.embedding.x.values)
        self.m_slots = slots.values                            # (a, b, i, j)
        self.m_traced = np.einsum("...ab,...abij->...ij", gi, self.m_slots)


def operator_coefficients(geo: GeometryBundle) -> _LinearizedCoefficients:
    if "linearized_coeffs" not in geo.cache:
        geo.cache["linearized_coeffs"] = _LinearizedCoefficients(geo)
    return geo.cache["linearized_coeffs"]


def _check_normal_field(geo: GeometryBundle, phi: Field) -> None:
    if phi.indices != (NORMAL,):
        raise DynamicsError(f"expected a purely normal field, got indices {phi.indices}")
    if phi.values.shape[-1] != geo.codim:
        raise DynamicsError(
            f"normal field has {phi.values.shape[-1]} components, geometry codim is {geo.codim}"
        )


def _phi_derivatives(geo: GeometryBundle, phi: Field):
    gphi = normal_gradient(geo, phi)
    ggphi = covariant_gradient(geo, gphi).values  # (d, c, i) outer derivative first
    lap = normal_laplacian(geo, phi).values
    return gphi.values, ggphi, lap


# ---------------------------------------------------------------------------
# general-dimension evaluator (einsum style)


def _beta_terms_einsum(geo, c, phi_vals, gphi, ggphi, lap, include_mean: bool) -> np.ndarray:
    """Topological-coupling terms of the linearized operator, per unit beta.

    ``include_mean`` keeps the mean-curvature-proportional terms (present in
    the full linearization, dropped in the on-shell operator where they
    vanish identically)."""
    gi = c.gi
    ph = phi_vals
    out = 4 * np.einsum("...abi,...ce,...cbaej,...j->...i", c.k_upup, gi, c.ggk, ph)
    out = out + 4 * np.einsum("...abi,...ce,...baej,...cj->...i", c.k_upup, gi, c.gk, gphi)
    out = out + 4 * np.einsum("...abi,...ce,...caej,...bj->...i", c.k_upup, gi, c.gk, gphi)
    out = out + 4 * np.einsum("...abi,...ce,...aej,...cbj->...i", c.k_upup, gi, c.k_low, ggphi)
    out = out - 2 * np.einsum("...abi,...abj,...j->...i", c.k_upup, c.lap_k, ph)
    out = out - 4 * np.einsum("...abi,...cabj,...ce,...ej->...i", c.k_upup, c.gk, gi, gphi)
    out = out - 2 * np.einsum("...ij,...j->...i", c.kk, lap)
    out = out - 2 * c.scalar[..., None] * np.einsum("...ij,...j->...i", c.kk, ph)
    if not include_mean:
        return out
    km = c.k_mean
    out = out - 2 * np.einsum("...abi,...baj,...j->...i", c.k_upup, c.gg_kmean, ph)
    out = out - 4 * np.einsum("...abi,...aj,...bj->...i", c.k_upup, c.g_kmean, gphi)
    out = out - 2 * np.einsum("...abi,...j,...baj->...i", c.k_upup, km, ggphi)
    ric_k = np.einsum("...cd,...cdj->...j", geo.ricci.values, c.k_upup)
    out = out + 2 * np.einsum("...j,...j,...i->...i", ric_k, ph, km)
    out = out + 2 * np.einsum("...i,...j,...j->...i", km, c.lap_kmean, ph)
    out = out + 4 * np.einsum("...i,...cd,...cj,...dj->...i", km, gi, c.g_kmean, gphi)
    out = out + 2 * np.einsum("...i,...j,...j->...i", km, km, lap)
    div_div_k = np.einsum("...gf,...ce,...cgfej->...j", gi, gi, c.ggk)
    out = out - 2 * np.einsum("...i,...j,...j->...i", km, div_div_k, ph)
    div_k = np.einsum("...gf,...gfej->...ej", gi, c.gk)
    out = out - 4 * np.einsum("...i,...ce,...ej,...cj->...i", km, gi, div_k, gphi)
    out = out - 2 * np.einsum("...i,...cgj,...cgj->...i", km, c.k_upup, ggphi)
    return out


def linearized_residual(geo: GeometryBundle, phi: Field, p: ActionParams) -> Field:
    """Linearization of the equations of motion around the given geometry,
    applied to a normal deformation (general-dimension form).

    The Einstein-tensor blocks are evaluated with the numerical Einstein
    tensor; on strings they sit at the discretization floor.
    """
    _check_normal_field(geo, phi)
    c = operator_coefficients(geo)
    ph = phi.values
    gphi, ggphi, lap = _phi_derivatives(geo, phi)
    out = p.tension * (
        -lap
        - np.einsum("...ij,...j->...i", c.kk, ph)
        + np.einsum("...ij,...j->...i", c.m_traced, ph)
    )
    if p.gb_coupling != 0.0:
        out = out + p.gb_coupling * _beta_terms_einsum(
            geo, c, ph, gphi, ggphi, lap, include_mean=True
        )
    return Field(geo.grid, out + einstein_block(geo, phi, p).values, (NORMAL,))


def einstein_block(geo: GeometryBundle, phi: Field, p: ActionParams) -> Field:
    """Einstein-tensor-proportional blocks of the linearized operator:

    2 beta G^{ab} [ -grad_a grad_b phi^i + K_ad^i K^d_b^j phi_j
                    + R(n^j, e_a, e_b, n^i) phi_j ]
    - 8 beta K^b_d^i K^{adj} phi_j G_ab
    """
    _check_normal_field(geo, phi)
    beta = p.gb_coupling
    if beta == 0.0:
        return Field(geo.grid, np.zeros(phi.values.shape), (NORMAL,))
    c = operator_coefficients(geo)
    gi = c.gi
    ph = phi.values
    _, ggphi, _ = _phi_derivatives(geo, phi)
    g_up = np.einsum("...ac,...bd,...cd->...ab", gi, gi, geo.einstein.values)
    term = -np.einsum("...ab,...abi->...i", g_up, ggphi)
    term = term + np.einsum("...ab,...adi,...de,...ebj,...j->...i", g_up, c.k_low, gi, c.k_low, ph)
    term = term + np.einsum("...ab,...abij,...j->...i", g_up, c.m_slots, ph)
    out = 2.0 * beta * term
    k_mixed = np.einsum("...be,...edi->...bdi", gi, c.k_low)           # K^b_d^i
    k_up2 = np.einsum("...ae,...df,...efj->...adj", gi, gi, c.k_low)   # K^{adj}
    out = out - 8.0 * beta * np.einsum(
        "...ab,...bdi,...adj,...j->...i", geo.einstein.values, k_mixed, k_up2, ph
    )
    return Field(geo.grid, out, (NORMAL,))


# ---------------------------------------------------------------------------
# string-specialized evaluator (loop style, independent coding)


def linearized_residual_string(
    geo: GeometryBundle, phi: Field, p: ActionParams
) -> tuple[Field, float]:
    """String form of the linearized operator, written as explicit loops
    over worldsheet indices, and its scale.

    The scale is the largest single-term magnitude on active points, the
    natural yardstick for cancellation-sensitive comparisons against this
    operator.
    """
    _check_normal_field(geo, phi)
    c = operator_coefficients(geo)
    s, b = p.tension, p.gb_coupling
    ph = phi.values
    gphi, ggphi, lap = _phi_derivatives(geo, phi)
    gi = c.gi

    def dotj(coeff_j, vec_j):
        return np.einsum("...j,...j->...", coeff_j, vec_j)

    terms = [
        -s * lap,
        -s * np.einsum("...ij,...j->...i", c.kk, ph),
        s * np.einsum("...ij,...j->...i", c.m_traced, ph),
    ]
    if b != 0.0:
        sh = ph.shape
        t_ggk = np.zeros(sh)       # K^{ab} grad grad K contracted against phi
        t_gk_c = np.zeros(sh)      # K^{ab} grad_b K_a^c . grad_c phi
        t_gk_b = np.zeros(sh)      # K^{ab} grad_c K_a^c . grad_b phi
        t_k_ggphi = np.zeros(sh)   # K^{ab} K_a^c . grad_c grad_b phi
        t_lapk = np.zeros(sh)
        t_gk_up = np.zeros(sh)     # K^{ab} grad_c K_ab . grad^c phi
        for a in range(2):
            for bb in range(2):
                kab = c.k_upup[..., a, bb, :]
                t_lapk += kab * dotj(c.lap_k[..., a, bb, :], ph)[..., None]
                for cc in range(2):
                    for e in range(2):
                        w = gi[..., cc, e]
                        t_ggk += kab * (w * dotj(c.ggk[..., cc, bb, a, e, :], ph))[..., None]
                        t_gk_c += kab * (w * dotj(c.gk[..., bb, a, e, :], gphi[..., cc, :]))[..., None]
                        t_gk_b += kab * (w * dotj(c.gk[..., cc, a, e, :], gphi[..., bb, :]))[..., None]
                        t_k_ggphi += kab * (w * dotj(c.k_low[..., a, e, :], ggphi[..., cc, bb, :]))[..., None]
                        t_gk_up += kab * (w * dotj(c.gk[..., cc, a, bb, :], gphi[..., e, :]))[..., None]
        terms += [
            4 * b * t_ggk,
            4 * b * t_gk_c,
            4 * b * t_gk_b,
            4 * b * t_k_ggphi,
            -2 * b * t_lapk,
            -4 * b * t_gk_up,
            -2 * b * np.einsum("...ij,...j->...i", c.kk, lap),
            -2 * b * c.scalar[..., None] * np.einsum("...ij,...j->...i", c.kk, ph),
        ]

        km = c.k_mean
        t_ggkm = np.zeros(sh)
        t_gkm = np.zeros(sh)
        t_km_ggphi = np.zeros(sh)
        for a in range(2):
            for bb in range(2):
                kab = c.k_upup[..., a, bb, :]
                t_ggkm += kab * dotj(c.gg_kmean[..., bb, a, :], ph)[..., None]
                t_gkm += kab * dotj(c.g_kmean[..., a, :], gphi[..., bb, :])[..., None]
                t_km_ggphi += kab * dotj(km, ggphi[..., bb, a, :])[..., None]
        rk = np.zeros(sh)
        for cc in range(2):
            for dd in range(2):
                rk += _ricci_up_component(geo, cc, dd)[..., None] * c.k_low[..., cc, dd, :]
        grad_pair = np.zeros(geo.grid.shape)
        for cc in range(2):
            for dd in range(2):
                grad_pair += gi[..., cc, dd] * dotj(c.g_kmean[..., cc, :], gphi[..., dd, :])
        div_k = np.zeros(gphi.shape)       # (grad_g K^{g c j}) held at slot c
        divdiv_j = np.zeros(sh)
        for cc in range(2):
            for g1 in range(2):
                for f1 in range(2):
                    for e1 in range(2):
                        w = (gi[..., g1, f1] * gi[..., cc, e1])[..., None]
                        div_k[..., cc, :] += w * c.gk[..., g1, f1, e1, :]
                        divdiv_j += w * c.ggk[..., cc, g1, f1, e1, :]
        t_divk_gphi = np.zeros(geo.grid.shape)
        for cc in range(2):
            t_divk_gphi += dotj(div_k[..., cc, :], gphi[..., cc, :])
        t_kup_ggphi = np.zeros(geo.grid.shape)
        for cc in range(2):
            for g1 in range(2):
                t_kup_ggphi += dotj(c.k_upup[..., cc, g1, :], ggphi[..., cc, g1, :])
        terms += [
            -2 * b * t_ggkm,
            -4 * b * t_gkm,
            -2 * b * t_km_ggphi,
            2 * b * km * dotj(rk, ph)[..., None],
            2 * b * km * dotj(c.lap_kmean, ph)[..., None],
            4 * b * km * grad_pair[..., None],
            2 * b * km * dotj(km, lap)[..., None],
            -2 * b * km * dotj(divdiv_j, ph)[..., None],
            -4 * b * km * t_divk_gphi[..., None],
            -2 * b * km * t_kup_ggphi[..., None],
        ]

    total = np.zeros(ph.shape)
    for t in terms:
        total = total + t
    scale = max(masked_max_abs(t, geo.mask.active) for t in terms)
    return Field(geo.grid, total, (NORMAL,)), scale


def _ricci_up_component(geo: GeometryBundle, a: int, b: int) -> np.ndarray:
    gi = geo.gamma_inv.values
    out = np.zeros(geo.grid.shape)
    for cc in range(2):
        for dd in range(2):
            out += gi[..., a, cc] * gi[..., b, dd] * geo.ricci.values[..., cc, dd]
    return out


def stability_operator_apply(geo: GeometryBundle, phi: Field, p: ActionParams) -> Field:
    """On-shell linearized operator: the mean-curvature-proportional terms
    are dropped (their coefficients vanish identically on solutions).
    Rejects geometries whose equations-of-motion residual is above
    threshold, since the dropped terms are only negligible there."""
    require_onshell(geo, p)
    _check_normal_field(geo, phi)
    c = operator_coefficients(geo)
    ph = phi.values
    gphi, ggphi, lap = _phi_derivatives(geo, phi)
    out = p.tension * (
        -lap
        - np.einsum("...ij,...j->...i", c.kk, ph)
        + np.einsum("...ij,...j->...i", c.m_traced, ph)
    )
    if p.gb_coupling != 0.0:
        out = out + p.gb_coupling * _beta_terms_einsum(
            geo, c, ph, gphi, ggphi, lap, include_mean=False
        )
    return Field(geo.grid, out, (NORMAL,))


# ---------------------------------------------------------------------------
# finite-difference linearization oracle


def linearized_fd_oracle(
    geo: GeometryBundle, phi: Field, p: ActionParams, eps: float = 1e-4
) -> Field:
    """Central difference of the equations-of-motion residual along a normal
    deformation, rebuilding the geometry from scratch on both sides.

    Around on-shell geometries this independently checks the linearized
    operator: frame-adjustment terms are proportional to the residual
    itself and drop out at this order.
    """
    _check_normal_field(geo, phi)
    d = DeformationField.normal_only(phi)
    res = []
    for sgn in (+1.0, -1.0):
        geo2 = build_geometry(deform_embedding(geo, d, sgn * eps))
        res.append(eom_residual(geo2, p).values)
    return Field(geo.grid, (res[0] - res[1]) / (2.0 * eps), (NORMAL,))
