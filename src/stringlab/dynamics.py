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
so neither is derived from the other.  The einsum operator is assembled in
one place: :func:`linearized_residual` and the on-shell
:func:`stability_operator_apply` differ only in the mean-curvature terms and
the Einstein blocks, which :func:`linearized_residual` returns beside the
full residual so that each block is evaluated once.

What the evaluators share are their inputs, each computed once per
geometry and kept in ``geo.cache``: the coefficient fields (those of the
mean-curvature terms only when a full linearization reads them), and each
field's grad phi, grad grad phi and lap phi (:func:`_phi_derivatives`).
The two symplectic potentials likewise share one connection variation per
deformation.  Sharing inputs that both already took from the same function
removes no independent check: the assembly of each operator (einsum
against index loops) and of each potential (general against string form)
stays separate.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .background import riemann_slots
from .deformation import DeformationField, deform_embedding, vary_connection
from .geometry import (
    GeometryBundle,
    build_geometry,
    cached,
    covariant_gradient,
    normal_gradient,
    normal_laplacian,
)
from .grid import (
    NORMAL,
    WORLDSHEET_LOWER,
    WORLDSHEET_UPPER,
    Field,
    grid_full,
    integrate_patch,
    masked_max_abs,
)

ONSHELL_FACTOR = 1e-3


class DynamicsError(ValueError):
    """Invalid dynamics input (bad parameters, off-shell geometry, ...)."""


@dataclass(frozen=True)
class ActionParams:
    """Couplings of the action: tension and topological-term coupling.  The
    worldsheet is two-dimensional throughout the package."""

    tension: float
    gb_coupling: float = 0.0

    def __post_init__(self):
        if self.tension < 0:
            raise DynamicsError(f"tension must be >= 0, got {self.tension}")
        if self.tension == 0.0 and self.gb_coupling == 0.0:
            raise DynamicsError("tension and gb_coupling cannot both vanish")


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
    gb_term = 2.0 * p.gb_coupling * np.einsum(
        "...ab,...abi->...i", geo.einstein.values, geo.K_upup.values
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
        dconn = _connection_variation(geo, d)
        out = out + beta * np.einsum("...cd,...acd->...a", gi, dconn)
        out = out - beta * np.einsum("...ab,...ccb->...a", gi, dconn)
    return Field(geo.grid, geo.vol.values[..., None] * out, (WORLDSHEET_UPPER,))


def symplectic_potential_string(geo: GeometryBundle, d: DeformationField, p: ActionParams) -> Field:
    """String-specialized potential (no Einstein term), coded independently
    with explicit index loops."""
    beta = p.gb_coupling
    dconn = _connection_variation(geo, d) if beta != 0.0 else None
    gi = geo.gamma_inv.values
    vol = geo.vol.values
    out = np.zeros(geo.grid.shape + (2,))
    for a in range(2):
        acc = -p.tension * d.phi_tangent.values[..., a]
        if beta != 0.0:
            trace = np.zeros(geo.grid.shape)
            mixed = np.zeros(geo.grid.shape)
            for cc in range(2):
                for dd in range(2):
                    trace = trace + gi[..., cc, dd] * dconn[..., a, cc, dd]
                mixed = mixed + gi[..., a, cc] * (dconn[..., 0, 0, cc] + dconn[..., 1, 1, cc])
            acc = acc + beta * (trace - mixed)
        out[..., a] = vol * acc
    return Field(geo.grid, out, (WORLDSHEET_UPPER,))


def _connection_variation(geo: GeometryBundle, d: DeformationField) -> np.ndarray:
    """The values of :func:`vary_connection`, computed once per geometry
    and deformation: both potentials read them, at every beta."""
    return cached(geo, ("vary_connection", d), lambda: vary_connection(geo, d).values)


# ---------------------------------------------------------------------------
# linearized dynamics: coefficient cache


class CurrentCoefficients(NamedTuple):
    """The coefficient fields the bilinear current reads, in the order its
    pointwise kernel takes them; the operator's coefficients extend them."""

    gi: np.ndarray       # gamma^{ab}
    k_low: np.ndarray    # K_ab^i       (a, b, i)
    k_upup: np.ndarray   # K^{ab i}
    gk: np.ndarray       # grad_c K_ab^i (c, a, b, i)
    kk: np.ndarray       # K^{ab i} K_ab^j


def current_coefficients(geo: GeometryBundle) -> CurrentCoefficients:
    """The current's coefficients, computed once per geometry."""
    k, k_upup = geo.K, geo.K_upup.values
    return cached(geo, "current_coeffs", lambda: CurrentCoefficients(
        gi=geo.gamma_inv.values,
        k_low=k.values,
        k_upup=k_upup,
        gk=covariant_gradient(geo, k).values,
        kk=np.einsum("...abi,...abj->...ij", k_upup, k.values),
    ))


class _LinearizedCoefficients:
    """Geometry-dependent coefficient fields of the linearized operator,
    computed once per geometry and reused across operator applications:
    the current's coefficients and the fourth-derivative ones on top.  The
    mean-curvature terms' coefficients are apart, in
    :func:`mean_curvature_coefficients`: the on-shell operator reads none."""

    def __init__(self, geo: GeometryBundle):
        self.gi, self.k_low, self.k_upup, self.gk, self.kk = current_coefficients(geo)
        gi = self.gi
        self.k_mean = geo.K_mean.values
        gk_f = Field(geo.grid, self.gk, (WORLDSHEET_LOWER,) + geo.K.indices)
        self.ggk = covariant_gradient(geo, gk_f).values        # grad_d grad_c K_ab^i
        self.lap_k = np.einsum("...dc,...dcabi->...abi", gi, self.ggk)
        self.scalar = geo.scalar.values
        slots = riemann_slots(geo.background, geo.e, geo.n, points=geo.embedding.x.values)
        self.m_slots = slots.values                            # (a, b, i, j)
        self.m_traced = (grid_full(self.m_slots.shape[:2] + self.m_slots.shape[-2:], 0.0)
                         if geo.background.flat  # the slots are zeros
                         else np.einsum("...ab,...abij->...ij", gi, self.m_slots))


def operator_coefficients(geo: GeometryBundle) -> _LinearizedCoefficients:
    return cached(geo, "linearized_coeffs", lambda: _LinearizedCoefficients(geo))


def mean_curvature_coefficients(geo: GeometryBundle) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coefficients of the operator's mean-curvature terms: grad_c K^i
    (c, i), grad_d grad_c K^i (d, c, i) and lap K^i, computed once per
    geometry on first use.  Only the full linearization reads them, in both
    evaluators; the on-shell operator does not."""
    def compute():
        g_kmean = covariant_gradient(geo, geo.K_mean)
        gg_kmean = covariant_gradient(geo, g_kmean).values
        return g_kmean.values, gg_kmean, np.einsum("...dc,...dci->...i", geo.gamma_inv.values, gg_kmean)

    return cached(geo, "mean_curvature_coeffs", compute)


def _phi_derivatives(geo: GeometryBundle, phi: Field):
    """grad phi, grad grad phi (outer derivative first) and lap phi,
    computed once per geometry and field: both evaluators read them, at
    every beta."""
    gphi = normal_gradient(geo, phi)
    return cached(geo, ("phi_derivatives", phi), lambda: (
        gphi.values, covariant_gradient(geo, gphi).values, normal_laplacian(geo, phi).values))


# ---------------------------------------------------------------------------
# general-dimension evaluator (einsum style)


def _beta_terms_einsum(geo, c, phi_vals, gphi, ggphi, lap, include_mean: bool) -> np.ndarray:
    """Topological-coupling terms of the linearized operator, per unit beta.

    ``include_mean`` keeps the mean-curvature-proportional terms (present in
    the full linearization, dropped in the on-shell operator where they
    vanish identically).

    Every contraction is pairwise: on the full grid one three- to
    four-operand einsum costs several times its pairwise steps.  The terms
    that end in K^{ab i} are summed into one x_ab first, and those that end
    in K^i into one scalar."""
    gi = c.gi
    ph = phi_vals
    # x_ab = 4 grad^e grad_b K_ae.phi + 4 grad_b K_ae.grad^e phi + 4 grad^c K_ac.grad_b phi
    #        + 4 K_a^c.grad_c grad_b phi - 2 lap K_ab.phi - 4 grad_c K_ab.grad^c phi
    #        [- 2 grad_b grad_a K.phi - 4 grad_a K.grad_b phi - 2 K.grad_b grad_a phi],
    # the bracket only with include_mean
    grad_up_e = np.einsum("...ce,...cj->...ej", gi, gphi)     # gamma^{ce} grad_c phi^j
    grad_up_c = np.einsum("...ce,...ej->...cj", gi, gphi)     # gamma^{ce} grad_e phi^j
    ggk_phi = np.einsum("...cbaej,...j->...cbae", c.ggk, ph)
    div_a = np.einsum("...ce,...caej->...aj", gi, c.gk)       # gamma^{ce} grad_c K_ae^j
    k_mixed = np.einsum("...ce,...aej->...acj", gi, c.k_low)  # K_a^{c j}
    x = 4 * np.einsum("...ce,...cbae->...ab", gi, ggk_phi)
    x = x + 4 * np.einsum("...baej,...ej->...ab", c.gk, grad_up_e)
    x = x + 4 * np.einsum("...aj,...bj->...ab", div_a, gphi)
    x = x + 4 * np.einsum("...acj,...cbj->...ab", k_mixed, ggphi)
    x = x - 2 * np.einsum("...abj,...j->...ab", c.lap_k, ph)
    x = x - 4 * np.einsum("...cabj,...cj->...ab", c.gk, grad_up_c)
    if include_mean:
        km = c.k_mean
        g_kmean, gg_kmean, lap_kmean = mean_curvature_coefficients(geo)
        x = x - 2 * np.einsum("...baj,...j->...ab", gg_kmean, ph)
        x = x - 4 * np.einsum("...aj,...bj->...ab", g_kmean, gphi)
        x = x - 2 * np.einsum("...j,...baj->...ab", km, ggphi)
    out = np.einsum("...abi,...ab->...i", c.k_upup, x)
    out = out - 2 * np.einsum("...ij,...j->...i", c.kk, lap)
    out = out - 2 * c.scalar[..., None] * np.einsum("...ij,...j->...i", c.kk, ph)
    if not include_mean:
        return out
    ric_k = np.einsum("...cd,...cdj->...j", geo.ricci.values, c.k_upup)
    div_k = np.einsum("...gf,...gfej->...ej", gi, c.gk)
    div_div_k = np.einsum("...ce,...cej->...j", gi, np.einsum("...gf,...cgfej->...cej", gi, c.ggk))
    s = 2 * np.einsum("...j,...j->...", ric_k, ph)
    s = s + 2 * np.einsum("...j,...j->...", lap_kmean, ph)
    s = s + 4 * np.einsum("...cj,...cj->...", g_kmean, grad_up_c)
    s = s + 2 * np.einsum("...j,...j->...", km, lap)
    s = s - 2 * np.einsum("...j,...j->...", div_div_k, ph)
    s = s - 4 * np.einsum("...ej,...ej->...", div_k, grad_up_e)
    s = s - 2 * np.einsum("...cgj,...cgj->...", c.k_upup, ggphi)
    return out + km * s[..., None]


def _einsum_operator(geo: GeometryBundle, phi: Field, p: ActionParams, include_mean: bool):
    """The einsum operator without the Einstein blocks,

    tension (-lap phi - K^{ab i} K_ab^j phi_j + M phi) + beta (topological terms),

    and grad grad phi (outer derivative first), which the blocks read.
    ``include_mean`` is passed to :func:`_beta_terms_einsum`."""
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
            geo, c, ph, gphi, ggphi, lap, include_mean=include_mean
        )
    return out, ggphi


def linearized_residual(geo: GeometryBundle, phi: Field, p: ActionParams) -> tuple[Field, Field]:
    """Linearization of the equations of motion around the given geometry,
    applied to a normal deformation (general-dimension form), and the
    Einstein-tensor blocks it contains (zero at beta = 0).

    The blocks are evaluated once, with the numerical Einstein tensor; on
    strings they sit at the discretization floor.
    """
    out, ggphi = _einsum_operator(geo, phi, p, include_mean=True)
    blocks = np.zeros_like(phi.values)
    if p.gb_coupling != 0.0:
        blocks = einstein_block(geo, operator_coefficients(geo), phi.values, ggphi, p.gb_coupling)
        out = out + blocks
    return Field(geo.grid, out, (NORMAL,)), Field(geo.grid, blocks, (NORMAL,))


def einstein_block(geo: GeometryBundle, c, ph, ggphi, beta: float) -> np.ndarray:
    """Einstein-tensor-proportional blocks of the linearized operator,

    2 beta G^{ab} [ -grad_a grad_b phi^i + K_ad^i K^d_b^j phi_j
                    + R(n^j, e_a, e_b, n^i) phi_j ]
    - 8 beta K^b_d^i K^{adj} phi_j G_ab,

    from the operator coefficients ``c``, the values ``ph`` of phi and grad
    grad phi (outer derivative first)."""
    gi = c.gi
    # contracted pairwise, as in _beta_terms_einsum
    g_up = np.einsum("...ac,...cb->...ab", gi,
                     np.einsum("...cd,...bd->...cb", geo.einstein.values, gi))
    term = -np.einsum("...ab,...abi->...i", g_up, ggphi)
    k_phi = np.einsum("...ebj,...j->...eb", c.k_low, ph)             # K_eb^j phi_j
    k_phi_mixed = np.einsum("...de,...eb->...db", gi, k_phi)         # K^d_b^j phi_j
    term = term + np.einsum(
        "...adi,...ad->...i", c.k_low, np.einsum("...ab,...db->...ad", g_up, k_phi_mixed)
    )
    m_up = np.einsum("...ab,...abij->...ij", g_up, c.m_slots)
    term = term + np.einsum("...ij,...j->...i", m_up, ph)
    out = 2.0 * beta * term
    k_mixed = np.einsum("...be,...edi->...bdi", gi, c.k_low)        # K^b_d^i
    k_phi_up = np.einsum("...adj,...j->...ad", c.k_upup, ph)        # K^{adj} phi_j
    g_k_phi = np.einsum("...ab,...ad->...bd", geo.einstein.values, k_phi_up)
    return out - 8.0 * beta * np.einsum("...bdi,...bd->...i", k_mixed, g_k_phi)


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
        t_ggk = np.zeros_like(ph)       # K^{ab} grad grad K contracted against phi
        t_gk_c = np.zeros_like(ph)      # K^{ab} grad_b K_a^c . grad_c phi
        t_gk_b = np.zeros_like(ph)      # K^{ab} grad_c K_a^c . grad_b phi
        t_k_ggphi = np.zeros_like(ph)   # K^{ab} K_a^c . grad_c grad_b phi
        t_lapk = np.zeros_like(ph)
        t_gk_up = np.zeros_like(ph)     # K^{ab} grad_c K_ab . grad^c phi
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
        g_kmean, gg_kmean, lap_kmean = mean_curvature_coefficients(geo)
        t_ggkm = np.zeros_like(ph)
        t_gkm = np.zeros_like(ph)
        t_km_ggphi = np.zeros_like(ph)
        for a in range(2):
            for bb in range(2):
                kab = c.k_upup[..., a, bb, :]
                t_ggkm += kab * dotj(gg_kmean[..., bb, a, :], ph)[..., None]
                t_gkm += kab * dotj(g_kmean[..., a, :], gphi[..., bb, :])[..., None]
                t_km_ggphi += kab * dotj(km, ggphi[..., bb, a, :])[..., None]
        rk = np.zeros_like(ph)
        for cc in range(2):
            for dd in range(2):
                rk += _ricci_up_component(geo, cc, dd)[..., None] * c.k_low[..., cc, dd, :]
        grad_pair = np.zeros(geo.grid.shape)
        for cc in range(2):
            for dd in range(2):
                grad_pair += gi[..., cc, dd] * dotj(g_kmean[..., cc, :], gphi[..., dd, :])
        div_k = np.zeros_like(gphi)       # (grad_g K^{g c j}) held at slot c
        divdiv_j = np.zeros_like(ph)
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
            2 * b * km * dotj(lap_kmean, ph)[..., None],
            4 * b * km * grad_pair[..., None],
            2 * b * km * dotj(km, lap)[..., None],
            -2 * b * km * dotj(divdiv_j, ph)[..., None],
            -4 * b * km * t_divk_gphi[..., None],
            -2 * b * km * t_kup_ggphi[..., None],
        ]

    total = np.zeros_like(ph)
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
    out, _ = _einsum_operator(geo, phi, p, include_mean=False)
    return Field(geo.grid, out, (NORMAL,))


# ---------------------------------------------------------------------------
# finite-difference linearization oracle


def linearized_fd_oracle(
    geo: GeometryBundle, phi: Field, params: Sequence[ActionParams], eps: float = 1e-4
) -> list[Field]:
    """Central differences of the equations-of-motion residual along a normal
    deformation, one Field per entry of ``params``, in order.

    The displaced geometries do not depend on the couplings, so the geometry
    is rebuilt from scratch once on each side (+/- eps), and every entry is
    differenced on that one pair.  Each rebuild reads its frame off its own
    tangents, pointwise, so it is ``geo``'s frame turned by O(eps) in the
    normal bundle; the turn adds O(eps) times the residual to the residual's
    components, so around on-shell geometries the difference quotient
    independently checks the linearized operator.
    """
    d = DeformationField.normal_only(phi)
    plus = build_geometry(deform_embedding(geo, d, +eps))
    minus = build_geometry(deform_embedding(geo, d, -eps))
    return [
        Field(
            geo.grid,
            (eom_residual(plus, p).values - eom_residual(minus, p).values) / (2.0 * eps),
            (NORMAL,),
        )
        for p in params
    ]
