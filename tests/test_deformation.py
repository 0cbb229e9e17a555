import numpy as np
import pytest

from conftest import interior
from stringlab import deformation as dfm
from stringlab.background import minkowski
from stringlab.geometry import Embedding, build_geometry
from stringlab.grid import (
    NORMAL,
    SPACETIME,
    WORLDSHEET_UPPER,
    Field,
    WorldsheetGrid,
    integrate_sigma_slice,
    masked_max_abs,
)


def _scaled(d, amp):
    return dfm.DeformationField(
        Field(d.phi_normal.grid, amp * d.phi_normal.values, d.phi_normal.indices),
        Field(d.phi_tangent.grid, amp * d.phi_tangent.values, d.phi_tangent.indices),
    )


def test_zero_eps_is_bit_exact(pulsating, grid129):
    emb = pulsating.embedding(grid129)
    geo = pulsating.geometry(grid129)
    d = dfm.random_deformation(grid129, geo.codim, seed=0)
    out = dfm.deform_embedding(geo, d, 0.0)
    assert np.array_equal(out.x.values, emb.x.values)


def test_eps_bound_enforced(pulsating, grid129):
    geo = pulsating.geometry(grid129)
    d = dfm.random_deformation(grid129, geo.codim, seed=0)
    with pytest.raises(ValueError):
        dfm.deform_embedding(geo, d, 0.5)


def test_constant_normal_shift_displaces_along_normal(pulsating, grid129):
    emb = pulsating.embedding(grid129)
    geo = pulsating.geometry(grid129)
    c, eps = 0.8, 1e-3
    phi = Field(grid129, np.stack([np.full(grid129.shape, c),
                                   np.zeros(grid129.shape)], axis=-1), (NORMAL,))
    out = dfm.deform_embedding(geo, dfm.DeformationField.normal_only(phi), eps)
    delta = out.x.values - emb.x.values
    expected = eps * c * geo.n.values[..., 0, :]
    assert np.abs(delta - expected).max() <= 1e-12


def test_tangential_deformation_preserves_curvature(pulsating, grid129):
    """A tangential displacement is a reparametrization: comparing the scalar
    curvature at the shifted source point shows no change beyond O(eps^2)."""
    geo = pulsating.geometry(grid129)
    tt, ss = grid129.meshgrid()
    eps = 1e-4
    tangent = Field(grid129, np.stack([0.3 + 0.1 * np.cos(ss), np.sin(ss)], axis=-1),
                    (WORLDSHEET_UPPER,))
    d = dfm.DeformationField.tangent_only(tangent, geo.codim)
    geo2 = build_geometry(dfm.deform_embedding(geo, d, eps))
    shifted_tau = tt + eps * tangent.values[..., 0]
    r_expected = -2.0 / np.cos(shifted_tau) ** 4
    gap = masked_max_abs(geo2.scalar.values - r_expected, interior(geo))
    assert gap / np.abs(r_expected).max() <= 1e-6


def test_flat_cylinder_metric_variation_hand_value():
    grid = WorldsheetGrid(33, 32, 0.0, 1.0)
    tt, ss = grid.meshgrid()
    x = np.stack([tt, np.cos(ss), np.sin(ss), np.zeros_like(tt)], axis=-1)
    geo = build_geometry(Embedding(minkowski(4), Field(grid, x, (SPACETIME,))))
    f = np.sin(2 * ss)
    tangent = Field(grid, np.stack([np.zeros_like(f), f], axis=-1), (WORLDSHEET_UPPER,))
    d = dfm.DeformationField.tangent_only(tangent, geo.codim)
    dg, _ = dfm.vary_metric(geo, d)
    act = geo.mask.active
    assert masked_max_abs(dg.values[..., 1, 1] - 2 * 2 * np.cos(2 * ss), act) <= 1e-9
    assert masked_max_abs(dg.values[..., 0, 0], act) <= 1e-12


def test_zero_deformation_gives_zero_everywhere(pulsating_geo):
    geo = pulsating_geo
    grid = geo.grid
    zero = dfm.DeformationField(
        Field(grid, np.zeros(grid.shape + (geo.codim,)), (NORMAL,)),
        Field(grid, np.zeros(grid.shape + (2,)), (WORLDSHEET_UPPER,)),
    )
    dg, dginv = dfm.vary_metric(geo, zero)
    assert np.abs(dg.values).max() == 0.0
    assert np.abs(dginv.values).max() == 0.0
    assert np.abs(dfm.vary_volume(geo, zero).values).max() == 0.0
    assert np.abs(dfm.vary_connection(geo, zero).values).max() == 0.0
    dric, dscal = dfm.vary_ricci_scalar(geo, zero)
    assert np.abs(dric.values).max() == 0.0
    assert np.abs(dscal.values).max() == 0.0
    oracle = dfm.fd_oracle(geo, zero)["volume"]
    assert np.abs(oracle.values).max() == 0.0


def test_onshell_volume_variation_small(pulsating, grid129):
    # with vanishing mean curvature and no tangential part, the area density
    # is stationary to the residual scale
    geo = pulsating.geometry(grid129)
    phi = dfm.random_normal_components(grid129, geo.codim, seed=4)
    dvol = dfm.vary_volume(geo, dfm.DeformationField.normal_only(phi))
    act = geo.mask.active
    assert masked_max_abs(dvol.values, act) <= 1e-6 * (1 + masked_max_abs(geo.vol.values, act))


@pytest.mark.parametrize("quantity", ["metric", "volume", "scalar_curvature"])
def test_oracle_matches_variation(pulsating, quantity):
    grid = WorldsheetGrid(193, 32, 0.1, 0.9)
    geo = pulsating.geometry(grid)
    inner = interior(geo)
    d = _scaled(dfm.random_deformation(grid, geo.codim, seed=1), 0.5)
    analytic = {
        "metric": lambda: dfm.vary_metric(geo, d)[0],
        "volume": lambda: dfm.vary_volume(geo, d),
        "scalar_curvature": lambda: dfm.vary_ricci_scalar(geo, d)[1],
    }[quantity]()
    oracle = dfm.fd_oracle(geo, d, eps=1e-4)[quantity]
    scale = 1.0 + max(masked_max_abs(analytic.values, inner), masked_max_abs(oracle.values, inner))
    assert masked_max_abs(analytic.values - oracle.values, inner) / scale <= 1e-6


def test_oracle_quadratic_eps_convergence(pulsating, grid129):
    geo = pulsating.geometry(grid129)
    inner = interior(geo)
    d = dfm.random_deformation(grid129, geo.codim, seed=2)
    analytic = dfm.vary_metric(geo, d)[1].values
    gaps = []
    for eps in (4e-4, 2e-4):
        oracle = dfm.fd_oracle(geo, d, eps=eps)["inverse_metric"]
        gaps.append(masked_max_abs(analytic - oracle.values, inner))
    assert 3.0 <= gaps[0] / gaps[1] <= 5.0


def test_oracle_eps_range_enforced(pulsating, grid129):
    geo = pulsating.geometry(grid129)
    d = dfm.random_deformation(grid129, geo.codim, seed=0)
    with pytest.raises(ValueError):
        dfm.fd_oracle(geo, d, eps=1e-2)
    with pytest.raises(ValueError):
        dfm.fd_oracle(geo, d, eps=1e-8)


def test_oracle_builds_one_displaced_pair(pulsating, grid129, monkeypatch):
    geo = pulsating.geometry(grid129)
    d = dfm.random_deformation(grid129, geo.codim, seed=0)
    builds = []

    def counting_build(e):
        builds.append(e)
        return build_geometry(e)

    monkeypatch.setattr(dfm, "build_geometry", counting_build)
    oracles = dfm.fd_oracle(geo, d)
    assert len(builds) == 2
    assert set(oracles) == {
        "metric", "inverse_metric", "volume", "connection", "ricci", "scalar_curvature",
    }


def test_curvature_variation_is_topological(pulsating_geo):
    """gamma^{ab} D R_ab is a pure divergence: integrated over the sigma
    circle it reduces to a tau boundary flux, so the bulk sigma integrals
    must match the flux difference."""
    geo = pulsating_geo
    grid = geo.grid
    d = dfm.random_deformation(grid, geo.codim, seed=3)
    dric, dscal = dfm.vary_ricci_scalar(geo, d)
    _, dginv = dfm.vary_metric(geo, d)
    trace = np.einsum("...ab,...ab->...", geo.gamma_inv.values, dric.values)
    dens = Field(grid, geo.vol.values * trace)
    # the same object as a divergence: flux through constant-tau rows
    dconn = dfm.vary_connection(geo, d).values
    flux_vec = np.einsum("...cd,...acd->...a", geo.gamma_inv.values, dconn) - np.einsum(
        "...ab,...ccb->...a", geo.gamma_inv.values, dconn
    )
    flux = Field(grid, geo.vol.values * flux_vec[..., 0])
    dens_rows = np.array([integrate_sigma_slice(dens, t) for t in range(grid.n_tau)])
    flux_rows = np.array([integrate_sigma_slice(flux, t) for t in range(grid.n_tau)])
    from stringlab.grid import fd4_axis0

    dflux_rows = fd4_axis0(flux_rows[:, None].copy(), grid.h_tau)[:, 0]
    residual = np.abs(dens_rows - dflux_rows)[2:-2]
    assert residual.max() / np.abs(dens_rows).max() <= 1e-6


def test_random_fields_are_deterministic_and_bandlimited(grid129):
    a = dfm.random_normal_components(grid129, 2, seed=9)
    b = dfm.random_normal_components(grid129, 2, seed=9)
    assert np.array_equal(a.values, b.values)
    spec = np.abs(np.fft.rfft(a.values, axis=1))
    kmax = grid129.n_sigma // 4
    assert spec[:, kmax + 1:, :].max() <= 1e-12 * spec.max()
    assert np.abs(a.values).max() == pytest.approx(1.0)
