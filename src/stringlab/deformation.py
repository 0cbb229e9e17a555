"""First variations of the worldsheet geometry under embedding deformations.

A deformation is split into components normal and tangential to the
worldsheet, delta X = e_a phi^a + n_i phi^i, and treated as an active map at
fixed grid point: the varied quantity is recomputed on the displaced surface
at the same (tau, sigma).  Analytic variation formulas:

    D gamma_ab   = 2 K_ab^i phi_i + grad_a phi_b + grad_b phi_a
    D gamma^ab   = -2 K^{ab i} phi_i - grad^a phi^b - grad^b phi^a
    D sqrt(-g)   = sqrt(-g) [div phi + K^i phi_i]
    D Gamma^a_gf = gamma^ad [grad_f(K_gd phi) + grad_g(K_fd phi) - grad_d(K_gf phi)]
                   + (1/2) gamma^ad [grad_g grad_f phi_d + grad_f grad_g phi_d
                                     - R^e_{fgd} phi_e - R^e_{gfd} phi_e]
    D R_ab       = grad_c (D Gamma^c_ab) - grad_b (D Gamma^c_ac)
    D R          = (D gamma^ab) R_ab + gamma^ab (D R_ab)

Every formula has a brute-force central-difference oracle: :func:`fd_oracle`
rebuilds the geometry from scratch once on each of the two displaced
embeddings and differences all six quantities from that one pair; the
deformation tests hold the two within 1e-6 of each other on smooth
band-limited inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    Embedding,
    GeometryBundle,
    build_geometry,
    covariant_gradient,
    lower_index,
    raise_index,
)
from .grid import (
    NORMAL,
    SPACETIME,
    WORLDSHEET_UPPER,
    Field,
    GridError,
    WorldsheetGrid,
)

MAX_DEFORM_EPS = 1e-2
ORACLE_EPS_RANGE = (1e-6, 1e-3)


@dataclass(frozen=True)
class DeformationField:
    """Normal components phi^i and tangential components phi^a of a variation."""

    phi_normal: Field
    phi_tangent: Field

    def __post_init__(self):
        if self.phi_normal.indices != (NORMAL,):
            raise GridError(f"phi_normal must carry a normal index, got {self.phi_normal.indices}")
        if self.phi_tangent.indices != (WORLDSHEET_UPPER,):
            raise GridError(
                f"phi_tangent must carry an upper worldsheet index, got {self.phi_tangent.indices}"
            )
        if self.phi_normal.grid != self.phi_tangent.grid:
            raise GridError("deformation components live on different grids")

    @classmethod
    def normal_only(cls, phi: Field) -> "DeformationField":
        zeros = Field(phi.grid, np.zeros(phi.grid.shape + (2,)), (WORLDSHEET_UPPER,))
        return cls(phi, zeros)

    @classmethod
    def tangent_only(cls, phi: Field, codim: int) -> "DeformationField":
        zeros = Field(phi.grid, np.zeros(phi.grid.shape + (codim,)), (NORMAL,))
        return cls(zeros, phi)


def displacement(geo: GeometryBundle, d: DeformationField) -> Field:
    """Spacetime vector of the deformation: e_a^mu phi^a + n_i^mu phi^i."""
    v = np.einsum("...am,...a->...m", geo.e.values, d.phi_tangent.values)
    v = v + np.einsum("...im,...i->...m", geo.n.values, d.phi_normal.values)
    return Field(geo.grid, v, (SPACETIME,))


def deform_embedding(geo: GeometryBundle, d: DeformationField, eps: float) -> Embedding:
    """Displace the geometry's embedding by eps * (e_a phi^a + n_i phi^i).

    Frames are taken from the undeformed geometry.  eps is restricted to the
    perturbative regime.
    """
    if abs(eps) > MAX_DEFORM_EPS:
        raise ValueError(f"|eps| = {abs(eps)} exceeds the perturbative bound {MAX_DEFORM_EPS}")
    emb = geo.embedding
    if eps == 0.0:
        return Embedding(emb.background, Field(emb.grid, emb.x.values, (SPACETIME,)), emb.mask)
    delta = displacement(geo, d)
    return Embedding(
        emb.background, Field(emb.grid, emb.x.values + eps * delta.values, (SPACETIME,)), emb.mask
    )


def vary_metric(geo: GeometryBundle, d: DeformationField) -> tuple[Field, Field]:
    """First variation of the induced metric and its inverse."""
    phi_n = d.phi_normal.values
    two_k_phi = 2.0 * np.einsum("...abi,...i->...ab", geo.K.values, phi_n)
    phi_low = lower_index(geo, d.phi_tangent, 0)
    grad_low = covariant_gradient(geo, phi_low).values  # grad[a, b] = grad_a phi_b
    d_gamma = two_k_phi + grad_low + np.swapaxes(grad_low, -1, -2)

    kupup = raise_index(geo, raise_index(geo, geo.K, 0), 1).values
    grad_up = covariant_gradient(geo, d.phi_tangent).values  # grad[c, b] = grad_c phi^b
    grad_upup = np.einsum("...ac,...cb->...ab", geo.gamma_inv.values, grad_up)
    d_gamma_inv = (
        -2.0 * np.einsum("...abi,...i->...ab", kupup, phi_n)
        - grad_upup
        - np.swapaxes(grad_upup, -1, -2)
    )
    lo, up = (geo.gamma.indices, geo.gamma_inv.indices)
    return Field(geo.grid, d_gamma, lo), Field(geo.grid, d_gamma_inv, up)


def vary_volume(geo: GeometryBundle, d: DeformationField) -> Field:
    """First variation of the area density sqrt(-det gamma)."""
    div = np.einsum("...aa->...", covariant_gradient(geo, d.phi_tangent).values)
    k_phi = np.einsum("...i,...i->...", geo.K_mean.values, d.phi_normal.values)
    return Field(geo.grid, geo.vol.values * (div + k_phi))


def vary_connection(geo: GeometryBundle, d: DeformationField) -> Field:
    """First variation of the worldsheet Christoffel symbols (a tensor)."""
    gi = geo.gamma_inv.values
    s = Field(
        geo.grid,
        np.einsum("...abi,...i->...ab", geo.K.values, d.phi_normal.values),
        geo.gamma.indices,
    )
    gs = covariant_gradient(geo, s).values  # gs[c, a, b] = grad_c (K_ab phi)
    normal_part = np.einsum("...ad,...fgd->...agf", gi, gs)
    normal_part = normal_part + np.einsum("...ad,...gfd->...agf", gi, gs)
    normal_part = normal_part - np.einsum("...ad,...dgf->...agf", gi, gs)

    phi_low = lower_index(geo, d.phi_tangent, 0)
    hh = covariant_gradient(geo, covariant_gradient(geo, phi_low)).values  # hh[c, b, d]
    tang = np.einsum("...ad,...gfd->...agf", gi, hh) + np.einsum("...ad,...fgd->...agf", gi, hh)
    riem = geo.riem.values
    phi_e = phi_low.values
    tang = tang - np.einsum("...ad,...efgd,...e->...agf", gi, riem, phi_e)
    tang = tang - np.einsum("...ad,...egfd,...e->...agf", gi, riem, phi_e)
    return Field(geo.grid, normal_part + 0.5 * tang, geo.conn.indices)


def vary_ricci_scalar(geo: GeometryBundle, d: DeformationField) -> tuple[Field, Field]:
    """First variations of the Ricci tensor and the scalar curvature
    (Palatini assembly from the connection variation)."""
    dconn = vary_connection(geo, d)
    grad_dconn = covariant_gradient(geo, dconn).values  # [c, a(up), g, f]
    trace_term = np.einsum("...ccab->...ab", grad_dconn)
    v = Field(geo.grid, np.einsum("...cac->...a", dconn.values), (geo.gamma.indices[0],))
    grad_v = covariant_gradient(geo, v).values  # [b, a] = grad_b v_a
    d_ricci = trace_term - np.einsum("...ba->...ab", grad_v)

    _, d_gamma_inv = vary_metric(geo, d)
    d_scalar = np.einsum("...ab,...ab->...", d_gamma_inv.values, geo.ricci.values)
    d_scalar = d_scalar + np.einsum("...ab,...ab->...", geo.gamma_inv.values, d_ricci)
    return Field(geo.grid, d_ricci, geo.ricci.indices), Field(geo.grid, d_scalar)


_EXTRACTORS = {
    "metric": lambda geo: geo.gamma,
    "inverse_metric": lambda geo: geo.gamma_inv,
    "volume": lambda geo: geo.vol,
    "connection": lambda geo: geo.conn,
    "ricci": lambda geo: geo.ricci,
    "scalar_curvature": lambda geo: geo.scalar,
}


def fd_oracle(geo: GeometryBundle, d: DeformationField, eps: float = 1e-4) -> dict[str, Field]:
    """Brute-force central differences of every varied geometric quantity.

    Recomputes the geometry from scratch once on each of the copies of
    ``geo.embedding`` displaced by +/- eps along the deformation and returns (Q+ - Q-)/(2 eps)
    at fixed grid point for all six quantities, keyed ``metric``,
    ``inverse_metric``, ``volume``, ``connection``, ``ricci`` and
    ``scalar_curvature``.  Independent of the analytic variation formulas:
    the only shared ingredient is the displacement vector itself.
    """
    lo, hi = ORACLE_EPS_RANGE
    if not lo <= eps <= hi:
        raise ValueError(f"oracle eps {eps} outside the trusted range [{lo}, {hi}]")
    plus = build_geometry(deform_embedding(geo, d, +eps))
    minus = build_geometry(deform_embedding(geo, d, -eps))
    out = {}
    for name, extract in _EXTRACTORS.items():
        q_plus, q_minus = extract(plus), extract(minus)
        out[name] = Field(geo.grid, (q_plus.values - q_minus.values) / (2.0 * eps), q_plus.indices)
    return out


# ---------------------------------------------------------------------------
# deterministic smooth test fields


def _random_scalar(grid: WorldsheetGrid, rng) -> np.ndarray:
    """Band-limited random scalar: sigma modes <= n_sigma // 4, polynomial
    of degree 3 in the rescaled tau coordinate."""
    tt, ss = grid.meshgrid()
    span = grid.tau_max - grid.tau_min
    that = 2.0 * (tt - grid.tau_min) / span - 1.0
    vals = np.zeros(grid.shape)
    for m in range(4):
        poly = that**m
        for k in range(grid.n_sigma // 4 + 1):
            amp = 1.0 / ((1.0 + k) * (1.0 + m))
            a, b = rng.normal(size=2) * amp
            vals += (a * np.cos(k * ss) + (b * np.sin(k * ss) if k else 0.0)) * poly
    peak = np.abs(vals).max()
    return vals / peak if peak > 0 else vals


def _random_components(grid: WorldsheetGrid, rng, count: int) -> np.ndarray:
    """``count`` random scalars stacked on a trailing axis, drawn in order."""
    return np.stack([_random_scalar(grid, rng) for _ in range(count)], axis=-1)


def random_normal_components(grid: WorldsheetGrid, codim: int, seed: int) -> Field:
    """Deterministic band-limited normal-components field with unit sup norm
    per component."""
    rng = np.random.default_rng(seed)
    return Field(grid, _random_components(grid, rng, codim), (NORMAL,))


def random_deformation(grid: WorldsheetGrid, codim: int, seed: int) -> DeformationField:
    """Deterministic band-limited deformation with both normal and
    tangential parts (the normal block is drawn first)."""
    rng = np.random.default_rng(seed)
    normal = _random_components(grid, rng, codim)
    tangent = _random_components(grid, rng, 2)
    return DeformationField(Field(grid, normal, (NORMAL,)), Field(grid, tangent, (WORLDSHEET_UPPER,)))
