import numpy as np
import pytest

from conftest import interior
from stringlab import deformation as dfm
from stringlab import geometry
from stringlab.background import minkowski
from stringlab.dynamics import ActionParams
from stringlab.experiments import run_deform_check
from stringlab.geometry import Embedding, build_geometry
from stringlab.grid import (
    NORMAL,
    SPACETIME,
    WORLDSHEET_UPPER,
    Field,
    GridError,
    WorldsheetGrid,
    integrate_sigma_slice,
    masked_max_abs,
)
from stringlab.solutions import pulsating_circular_string


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


def test_normal_part_of_wrong_codim_rejected(pulsating_geo):
    """A normal part with more components than the geometry has normals is a
    typed error wherever it displaces the embedding, not a numpy broadcast
    error."""
    geo = pulsating_geo
    phi = dfm.random_normal_components(geo.grid, geo.codim + 1, seed=0)
    d = dfm.DeformationField.normal_only(phi)
    with pytest.raises(GridError, match="codim"):
        dfm.deform_embedding(geo, d, 1e-4)
    with pytest.raises(GridError, match="codim"):
        dfm.fd_oracle(geo, d)


def test_zero_deformation_checks_the_normal_part(pulsating):
    """eps = 0 returns the embedding unchanged, but only after the same check
    of the normal part that any other eps makes."""
    geo = pulsating.geometry(WorldsheetGrid(33, 16, 0.1, 0.9))
    good = dfm.random_normal_components(geo.grid, geo.codim, seed=0)
    out = dfm.deform_embedding(geo, dfm.DeformationField.normal_only(good), 0.0)
    assert np.array_equal(out.x.values, geo.embedding.x.values)
    wrong = dfm.random_normal_components(geo.grid, geo.codim + 1, seed=0)
    with pytest.raises(GridError, match="codim"):
        dfm.deform_embedding(geo, dfm.DeformationField.normal_only(wrong), 0.0)


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
    d = dfm.DeformationField(Field(grid129, np.zeros(grid129.shape + (geo.codim,)), (NORMAL,)),
                             tangent)
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
    d = dfm.DeformationField(Field(grid, np.zeros(grid.shape + (geo.codim,)), (NORMAL,)), tangent)
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
    dric, dscal = dfm.vary_ricci_scalar(geo, dfm.vary_connection(geo, zero), dginv)
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
        "scalar_curvature": lambda: dfm.vary_ricci_scalar(
            geo, dfm.vary_connection(geo, d), dfm.vary_metric(geo, d)[1]
        )[1],
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
    """The oracle rebuilds the intrinsic stage once per displaced embedding
    and never runs the frame stage: none of its six quantities reads it."""
    geo = pulsating.geometry(grid129)
    d = dfm.random_deformation(grid129, geo.codim, seed=0)
    intrinsic, frames = [], []
    real_intrinsic, real_frame = geometry.intrinsic_geometry, geometry.frame_geometry

    def counting_intrinsic(emb):
        intrinsic.append(emb)
        return real_intrinsic(emb)

    def counting_frame(*args):
        frames.append(args)
        return real_frame(*args)

    # a full build would reach both stages through the geometry module
    monkeypatch.setattr(dfm, "intrinsic_geometry", counting_intrinsic)
    monkeypatch.setattr(geometry, "intrinsic_geometry", counting_intrinsic)
    monkeypatch.setattr(geometry, "frame_geometry", counting_frame)
    oracles = dfm.fd_oracle(geo, d)
    assert len(intrinsic) == 2
    assert frames == []
    assert set(oracles) == {
        "metric", "inverse_metric", "volume", "connection", "ricci", "scalar_curvature",
    }


def test_deform_check_varies_each_seed_once(monkeypatch):
    """A default deform-check varies the connection and the metric once per
    seed; the Ricci and scalar variations are assembled from those."""
    calls = []

    def counting(name):
        real = getattr(dfm, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("vary_connection", "vary_metric"):
        monkeypatch.setattr(dfm, name, counting(name))
    run_deform_check(
        pulsating_circular_string(radius=1.0), WorldsheetGrid(65, 32, 0.1, 0.9),
        ActionParams(1.0, 0.0), 0,
    )
    assert calls.count("vary_connection") == 3
    assert calls.count("vary_metric") == 3


def test_curvature_variation_is_topological(pulsating_geo):
    """gamma^{ab} D R_ab is a pure divergence: integrated over the sigma
    circle it reduces to a tau boundary flux, so the bulk sigma integrals
    must match the flux difference."""
    geo = pulsating_geo
    grid = geo.grid
    d = dfm.random_deformation(grid, geo.codim, seed=3)
    _, dginv = dfm.vary_metric(geo, d)
    dconn = dfm.vary_connection(geo, d)
    dric, dscal = dfm.vary_ricci_scalar(geo, dconn, dginv)
    trace = np.einsum("...ab,...ab->...", geo.gamma_inv.values, dric.values)
    dens = Field(grid, geo.vol.values * trace)
    # the same object as a divergence: flux through constant-tau rows
    flux_vec = np.einsum("...cd,...acd->...a", geo.gamma_inv.values, dconn.values) - np.einsum(
        "...ab,...ccb->...a", geo.gamma_inv.values, dconn.values
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


def _random_scalar_meshgrid(grid, rng):
    """Full-meshgrid form of the band-limited random scalar in its product
    order, sum_m tau^m * sum_k trig_mk: the reference."""
    tt, ss = grid.meshgrid()
    span = grid.tau_max - grid.tau_min
    that = 2.0 * (tt - grid.tau_min) / span - 1.0
    vals = np.zeros(grid.shape)
    for m in range(4):
        row = np.zeros(grid.shape)
        for k in range(grid.n_sigma // 4 + 1):
            amp = 1.0 / ((1.0 + k) * (1.0 + m))
            a, b = rng.normal(size=2) * amp
            row += a * np.cos(k * ss) + (b * np.sin(k * ss) if k else 0.0)
        vals += that**m * row
    peak = np.abs(vals).max()
    return vals / peak if peak > 0 else vals


def _random_scalar_termwise(grid, rng):
    """The random scalar summed one (m, k) term at a time on the full
    meshgrid, the order before the product form."""
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


@pytest.mark.parametrize("shape", [(9, 8), (33, 32), (129, 32), (129, 64), (257, 64)])
def test_random_scalar_matches_meshgrid_reference(shape):
    grid = WorldsheetGrid(shape[0], shape[1], 0.1, 0.9)
    for seed in range(5):
        fast = dfm._random_scalar(grid, np.random.default_rng(seed))
        reference = _random_scalar_meshgrid(grid, np.random.default_rng(seed))
        assert np.array_equal(fast, reference)


@pytest.mark.parametrize(
    "shape", [(9, 8), (33, 32), (129, 32), (129, 64), (257, 64), (129, 128), (1025, 16)]
)
def test_random_scalar_product_form_stays_near_the_termwise_sum(shape):
    """Reordering the sum moves each value by roundoff of the unit peak
    (at most 2.9e-15 measured, at 129x128)."""
    grid = WorldsheetGrid(shape[0], shape[1], 0.1, 0.9)
    for seed in range(5):
        fast = dfm._random_scalar(grid, np.random.default_rng(seed))
        termwise = _random_scalar_termwise(grid, np.random.default_rng(seed))
        assert np.abs(fast - termwise).max() <= 1e-14
