import numpy as np
import pytest

from conftest import interior
from stringlab import deformation as dfm
from stringlab import dynamics as dyn
from stringlab import symplectic as sym
from stringlab.background import minkowski
from stringlab.geometry import Embedding, build_geometry, normal_gradient
from stringlab.grid import (
    NORMAL,
    SPACETIME,
    Field,
    WorldsheetGrid,
    masked_max_abs,
)
from stringlab.solutions import jacobi_from_family


@pytest.fixture(scope="module")
def jacobi_pair(pulsating, pulsating_geo):
    jt = jacobi_from_family(pulsating, pulsating_geo, "translation_t")
    jr = jacobi_from_family(pulsating, pulsating_geo, "radius")
    return jt, jr


def _random_pair(grid, codim, seeds=(11, 12)):
    return (
        dfm.random_normal_components(grid, codim, seed=seeds[0]),
        dfm.random_normal_components(grid, codim, seed=seeds[1]),
    )


def test_pieces_zero_for_zero_fields(pulsating_geo):
    geo = pulsating_geo
    zero = Field(geo.grid, np.zeros(geo.grid.shape + (geo.codim,)), (NORMAL,))
    pieces = sym.current_pieces(geo, zero, zero, dyn.ActionParams(1.0, 0.5))
    for piece in pieces:
        assert np.abs(piece.values).max() == 0.0


def test_tension_only_keeps_first_piece(pulsating_geo):
    geo = pulsating_geo
    phi1, phi2 = _random_pair(geo.grid, geo.codim)
    pieces = sym.current_pieces(geo, phi1, phi2, dyn.ActionParams(1.3, 0.0))
    assert np.abs(pieces[0].values[geo.mask.active]).max() > 0.1
    for piece in pieces[1:]:
        assert np.abs(piece.values).max() == 0.0
    j = sym.bilinear_current(geo, phi1, phi2, dyn.ActionParams(1.3, 0.0))
    assert np.abs(j.values - pieces[0].values).max() <= 1e-14


def test_flat_cylinder_current_hand_value():
    grid = WorldsheetGrid(33, 32, 0.0, 1.0)
    tt, ss = grid.meshgrid()
    x = np.stack([tt, np.cos(ss), np.sin(ss)], axis=-1)
    geo = build_geometry(Embedding(minkowski(3), Field(grid, x, (SPACETIME,))))
    phi1 = Field(grid, np.sin(ss)[..., None], (NORMAL,))
    phi2 = Field(grid, np.cos(ss)[..., None], (NORMAL,))
    j = sym.bilinear_current(geo, phi1, phi2, dyn.ActionParams(1.0, 0.0))
    # sigma component: -sin s * (-sin s) + cos s * cos s = 1
    assert masked_max_abs(j.values[..., 1] - 1.0, geo.mask.active) <= 1e-10
    assert masked_max_abs(j.values[..., 0], geo.mask.active) <= 1e-10


def test_simplified_current_equals_sum_of_pieces(pulsating_geo, spinning_geo):
    for geo in (pulsating_geo, spinning_geo):
        phi1, phi2 = _random_pair(geo.grid, geo.codim)
        p = dyn.ActionParams(1.0, 0.3)
        direct = sym.bilinear_current(geo, phi1, phi2, p)
        summed = sym.sum_of_pieces(geo, phi1, phi2, p)
        scale = max(masked_max_abs(direct.values, geo.mask.active), 1e-30)
        assert masked_max_abs(direct.values - summed.values, geo.mask.active) / scale <= 1e-9


def test_current_is_bilinear(pulsating_geo):
    geo = pulsating_geo
    p = dyn.ActionParams(1.0, 0.3)
    phi1, phi2 = _random_pair(geo.grid, geo.codim)
    phi1b = dfm.random_normal_components(geo.grid, geo.codim, seed=13)
    rng = np.random.default_rng(7)
    a, b = rng.uniform(-2, 2, size=2)
    combo = Field(geo.grid, a * phi1.values + b * phi1b.values, (NORMAL,))
    lhs = sym.bilinear_current(geo, combo, phi2, p).values
    rhs = a * sym.bilinear_current(geo, phi1, phi2, p).values
    rhs = rhs + b * sym.bilinear_current(geo, phi1b, phi2, p).values
    scale = max(masked_max_abs(rhs, geo.mask.active), 1.0)
    assert masked_max_abs(lhs - rhs, geo.mask.active) / scale <= 1e-10


def test_tension_diagonal_current_vanishes(pulsating_geo):
    geo = pulsating_geo
    phi, _ = _random_pair(geo.grid, geo.codim)
    j = sym.bilinear_current(geo, phi, phi, dyn.ActionParams(1.0, 0.0))
    assert np.abs(j.values).max() == 0.0


def test_swap_sum_vanishes_at_zero_coupling(pulsating_geo):
    geo = pulsating_geo
    phi1, phi2 = _random_pair(geo.grid, geo.codim)
    p = dyn.ActionParams(1.0, 0.0)
    j12 = sym.bilinear_current(geo, phi1, phi2, p).values
    j21 = sym.bilinear_current(geo, phi2, phi1, p).values
    assert masked_max_abs(j12 + j21, geo.mask.active) <= 1e-12


def test_first_piece_by_parts_identity(pulsating_geo):
    """The tension piece is the boundary current of the Laplacian's Green
    identity: phi1.lap(phi2) - lap(phi1).phi2 integrates by parts exactly."""
    from stringlab.geometry import normal_laplacian

    geo = pulsating_geo
    phi1, phi2 = _random_pair(geo.grid, geo.codim, seeds=(21, 22))
    p = dyn.ActionParams(1.3, 0.4)
    lap1 = normal_laplacian(geo, phi1).values
    lap2 = normal_laplacian(geo, phi2).values
    lhs = p.tension * (
        -np.einsum("...i,...i->...", phi1.values, lap2)
        + np.einsum("...i,...i->...", lap1, phi2.values)
    )
    j1 = sym.current_pieces(geo, phi1, phi2, p)[0]
    div = sym.worldsheet_divergence(geo, j1).values
    assert masked_max_abs(lhs - div, interior(geo)) <= 1e-8


def test_second_piece_by_parts_identity(pulsating_geo):
    """The first coupling piece moves one derivative off the second
    argument: coeff . grad phi2 = div(coeff phi2) - (div coeff) . phi2,
    with coeff = 4 b K^{abi} grad_b K_a^{cj} phi1_i."""
    from stringlab.geometry import covariant_gradient, normal_gradient

    geo = pulsating_geo
    c = dyn.operator_coefficients(geo)
    phi1, phi2 = _random_pair(geo.grid, geo.codim, seeds=(21, 22))
    p = dyn.ActionParams(1.3, 0.4)
    b = p.gb_coupling
    g2 = normal_gradient(geo, phi2).values
    lhs = 4 * b * np.einsum(
        "...abi,...ce,...baej,...i,...cj->...", c.k_upup, c.gi, c.gk, phi1.values, g2
    )
    coeff = 4 * b * np.einsum(
        "...abi,...ce,...baej,...i->...cj", c.k_upup, c.gi, c.gk, phi1.values
    )
    grad_coeff = covariant_gradient(geo, Field(geo.grid, coeff, ("A", NORMAL))).values
    div_coeff = np.einsum("...ccj->...j", grad_coeff)
    j2 = sym.current_pieces(geo, phi1, phi2, p)[1]
    rhs = sym.worldsheet_divergence(geo, j2).values - np.einsum(
        "...j,...j->...", div_coeff, phi2.values
    )
    scale = max(masked_max_abs(lhs, interior(geo)), 1.0)
    assert masked_max_abs(lhs - rhs, interior(geo)) / scale <= 1e-5


def test_self_adjointness_identity(pulsating_geo):
    geo = pulsating_geo
    phi1, phi2 = _random_pair(geo.grid, geo.codim)
    inner = interior(geo)
    for beta in (0.0, 0.3):
        p = dyn.ActionParams(1.0, beta)
        res, scale, _ = sym.self_adjointness_residual(geo, phi1, phi2, p)
        assert masked_max_abs(res.values, inner) / scale <= 1e-4


def test_identity_trivial_cases(pulsating_geo):
    geo = pulsating_geo
    phi, _ = _random_pair(geo.grid, geo.codim)
    zero = Field(geo.grid, np.zeros(geo.grid.shape + (geo.codim,)), (NORMAL,))
    res, _, _ = sym.self_adjointness_residual(geo, phi, zero, dyn.ActionParams(1.0, 0.3))
    assert np.abs(res.values[geo.mask.active]).max() == 0.0


def test_identity_applies_operator_once_per_field(pulsating_geo, monkeypatch):
    geo = pulsating_geo
    phi1, phi2 = _random_pair(geo.grid, geo.codim)
    calls = []

    def counting_apply(*args):
        calls.append(args)
        return dyn.stability_operator_apply(*args)

    monkeypatch.setattr(sym, "stability_operator_apply", counting_apply)
    sym.self_adjointness_residual(geo, phi1, phi2, dyn.ActionParams(1.0, 0.3))
    assert len(calls) == 2


def test_identity_residual_converges(pulsating):
    """The identity defect shrinks under tau refinement: order ~3 in the
    stencil-seam band near the window edges, and already at the numerical
    floor in the deep interior at every resolution."""
    band, deep = [], []
    for n_tau in (65, 129):
        grid = WorldsheetGrid(n_tau, 32, 0.1, 0.9)
        geo = pulsating.geometry(grid)
        phi1, phi2 = _random_pair(grid, geo.codim)
        p = dyn.ActionParams(1.0, 0.3)
        res, scale, _ = sym.self_adjointness_residual(geo, phi1, phi2, p)
        band.append(masked_max_abs(res.values, interior(geo)) / scale)
        deep.append(masked_max_abs(res.values, interior(geo, rows=6)) / scale)
    assert np.log2(band[0] / band[1]) >= 2.5
    assert max(deep) <= 1e-9


def test_conservation_for_jacobi_pair(pulsating, pulsating_geo, jacobi_pair):
    geo = pulsating_geo
    jt, jr = jacobi_pair
    jx = jacobi_from_family(pulsating, geo, "translation_x")
    inner = interior(geo)
    p = dyn.ActionParams(1.0, 0.0)
    div = sym.conservation_residual(geo, jx, jt, p)
    scale = (1 + masked_max_abs(jx.values, geo.mask.active)) * (
        1 + masked_max_abs(jt.values, geo.mask.active)
    )
    good = masked_max_abs(div.values, inner)
    assert good / scale <= 5e-4
    # negative control: a non-solution second argument
    rnd = dfm.random_normal_components(geo.grid, geo.codim, seed=42)
    bad = masked_max_abs(sym.conservation_residual(geo, jx, rnd, p).values, inner)
    assert bad >= 10.0 * good


def test_conservation_beta_bounded_by_identity_contract(pulsating_geo, jacobi_pair):
    geo = pulsating_geo
    jt, jr = jacobi_pair
    inner = interior(geo)
    p = dyn.ActionParams(1.0, 0.3)
    div = masked_max_abs(sym.conservation_residual(geo, jt, jr, p).values, inner)
    p1 = dyn.stability_operator_apply(geo, jt, p).values
    p2 = dyn.stability_operator_apply(geo, jr, p).values
    lhs = np.einsum("...i,...i->...", jt.values, p2) - np.einsum("...i,...i->...", p1, jr.values)
    _, scale, _ = sym.self_adjointness_residual(geo, jt, jr, p)
    contract = 2.0 * masked_max_abs(lhs, inner) + 1e-6 * scale
    assert div <= contract


def test_omega_antisymmetry_and_scaling(pulsating_geo, jacobi_pair):
    geo = pulsating_geo
    jt, jr = jacobi_pair
    p = dyn.ActionParams(1.0, 0.0)
    row = geo.grid.n_tau // 2
    assert sym.symplectic_form(geo, jt, jt, p, row) == 0.0
    om12 = sym.symplectic_form(geo, jt, jr, p, row)
    om21 = sym.symplectic_form(geo, jr, jt, p, row)
    assert om12 == -om21
    # doubling both arguments scales the form by exactly four
    jt2 = Field(geo.grid, 2.0 * jt.values, (NORMAL,))
    jr2 = Field(geo.grid, 2.0 * jr.values, (NORMAL,))
    om4 = sym.symplectic_form(geo, jt2, jr2, p, row)
    assert om4 == 4.0 * om12


def test_omega_continuum_value_and_slice_independence(pulsating_geo, jacobi_pair):
    geo = pulsating_geo
    jt, jr = jacobi_pair
    p = dyn.ActionParams(1.0, 0.0)
    rows = [geo.grid.n_tau // 4, geo.grid.n_tau // 2, (3 * geo.grid.n_tau) // 4]
    vals = [sym.symplectic_form(geo, jt, jr, p, r) for r in rows]
    # the time-translation x scale-modulus pairing integrates to -2 pi exactly
    assert vals[1] == pytest.approx(-2 * np.pi, rel=1e-7)
    spread = max(vals) - min(vals)
    assert spread / abs(vals[1]) <= 1e-3


def test_slice_drift_bounded_by_divergence(pulsating_geo, jacobi_pair):
    """The two-form's drift between slices is controlled by the divergence
    of the current integrated over the rows in between."""
    geo = pulsating_geo
    jt, jr = jacobi_pair
    p = dyn.ActionParams(1.0, 0.0)
    from stringlab.grid import integrate_sigma_slice

    r1, r2 = geo.grid.n_tau // 4, (3 * geo.grid.n_tau) // 4
    om1 = sym.symplectic_form(geo, jt, jr, p, r1)
    om2 = sym.symplectic_form(geo, jt, jr, p, r2)
    div12 = sym.conservation_residual(geo, jt, jr, p)
    div21 = sym.conservation_residual(geo, jr, jt, p)
    dens = Field(geo.grid, geo.vol.values * 0.5 * (div12.values - div21.values))
    flux = max(
        abs(integrate_sigma_slice(dens, t)) for t in range(r1, r2 + 1)
    )
    dtau = (r2 - r1) * geo.grid.h_tau
    assert abs(om2 - om1) <= dtau * flux * 3.0 + 1e-14


def test_self_pairing_vanishes_for_many_fields(pulsating):
    geo = pulsating.geometry(WorldsheetGrid(33, 16, 0.1, 0.9))
    p = dyn.ActionParams(1.0, 0.4)
    row = geo.grid.n_tau // 2
    for seed in range(100):
        phi = dfm.random_normal_components(geo.grid, geo.codim, seed=seed)
        assert sym.symplectic_form(geo, phi, phi, p, row) == 0.0


def test_masked_row_rejected(rotating, rotating_geo):
    geo = rotating_geo
    jt = jacobi_from_family(rotating, geo, "translation_t")
    from stringlab.grid import GridError

    with pytest.raises(GridError):
        sym.symplectic_form(geo, jt, jt, dyn.ActionParams(1.0, 0.0), geo.grid.n_tau // 2)


def test_out_of_range_row_rejected(pulsating_geo, jacobi_pair):
    geo = pulsating_geo
    jt, jr = jacobi_pair
    from stringlab.grid import GridError

    for row in (geo.grid.n_tau, -1):
        with pytest.raises(GridError, match="out of range"):
            sym.symplectic_form(geo, jt, jr, dyn.ActionParams(1.0, 0.0), row)


@pytest.mark.parametrize(
    "solution,geometry,families",
    [
        ("pulsating", "pulsating_geo", ("translation_t", "radius")),
        ("spinning", "spinning_geo", ("translation_t", "scale")),
    ],
)
def test_omega_matches_full_grid_current(request, solution, geometry, families):
    """The row-only two-form equals, bit for bit, the slice integral of the
    full-grid current."""
    from stringlab.grid import integrate_sigma_slice

    sol = request.getfixturevalue(solution)
    geo = request.getfixturevalue(geometry)
    n_tau = geo.grid.n_tau
    pairs = {
        "jacobi": tuple(jacobi_from_family(sol, geo, name) for name in families),
        "random": _random_pair(geo.grid, geo.codim),
    }
    for phi1, phi2 in pairs.values():
        for beta in (0.0, 0.3):
            p = dyn.ActionParams(1.0, beta)
            dens12, dens21 = (
                Field(geo.grid, geo.vol.values * sym.bilinear_current(geo, a, b, p).values[..., 0])
                for a, b in ((phi1, phi2), (phi2, phi1))
            )
            for row in (2, n_tau // 2, n_tau - 3):
                reference = 0.5 * (
                    integrate_sigma_slice(dens12, row) - integrate_sigma_slice(dens21, row)
                )
                assert sym.symplectic_form(geo, phi1, phi2, p, row) == reference


def test_omega_evaluates_current_on_one_row(pulsating_geo, jacobi_pair, monkeypatch):
    geo = pulsating_geo
    jt, jr = jacobi_pair
    calls = []

    def counting_gradient(*args):
        calls.append(args)
        return normal_gradient(*args)

    def no_full_grid_current(*args):
        raise AssertionError("symplectic_form evaluated a full-grid current")

    monkeypatch.setattr(sym, "normal_gradient", counting_gradient)
    monkeypatch.setattr(sym, "bilinear_current", no_full_grid_current)
    sym.symplectic_form(geo, jt, jr, dyn.ActionParams(1.0, 0.3), geo.grid.n_tau // 2)
    assert len(calls) == 2


def test_topological_term_shifts_current_not_form(spinning, spinning_geo):
    """The coupling changes the current density by an order-one amount while
    every slice-integrated pairing stays put: on shell the added current is
    an identically conserved, locally exact piece."""
    geo = spinning_geo
    jt = jacobi_from_family(spinning, geo, "translation_t")
    js = jacobi_from_family(spinning, geo, "scale")
    row = geo.grid.n_tau // 2
    p0 = dyn.ActionParams(1.0, 0.0)
    p1 = dyn.ActionParams(1.0, 0.5)
    act = geo.mask.active
    dens0 = masked_max_abs(sym.bilinear_current(geo, jt, js, p0).values, act)
    dens1 = masked_max_abs(sym.bilinear_current(geo, jt, js, p1).values, act)
    assert dens1 >= 2.0 * dens0  # the density change is order one
    om0 = sym.symplectic_form(geo, jt, js, p0, row)
    om1 = sym.symplectic_form(geo, jt, js, p1, row)
    assert om0 == pytest.approx(-4 * np.pi, rel=1e-7)
    assert abs(om1 - om0) <= 1e-7 * abs(om0)  # the integral does not move
    raw0 = sym.raw_slice_integrals(geo, jt, js, p0, row)
    raw1 = sym.raw_slice_integrals(geo, jt, js, p1, row)
    assert raw0[0] == pytest.approx(raw1[0], abs=1e-6)


def test_potential_variation_matches_current(pulsating_geo, jacobi_pair):
    geo = pulsating_geo
    jt, jr = jacobi_pair
    inner = interior(geo)
    for beta in (0.0, 0.3):
        p = dyn.ActionParams(1.0, beta)
        pvc = sym.potential_variation_current(geo, jt, jr, p)
        j12 = sym.bilinear_current(geo, jt, jr, p).values
        j21 = sym.bilinear_current(geo, jr, jt, p).values
        target = geo.vol.values[..., None] * 0.5 * (j12 - j21)
        scale = max(masked_max_abs(target, inner), 1e-30)
        assert masked_max_abs(pvc.values - target, inner) / scale <= 1e-3


def test_potential_variation_zero_probe(pulsating_geo, jacobi_pair):
    geo = pulsating_geo
    jt, _ = jacobi_pair
    zero = Field(geo.grid, np.zeros(geo.grid.shape + (geo.codim,)), (NORMAL,))
    pvc = sym.potential_variation_current(geo, zero, zero, dyn.ActionParams(1.0, 0.3))
    assert masked_max_abs(pvc.values, geo.mask.active) <= 1e-12


def test_gauge_invariance(pulsating_geo, jacobi_pair):
    geo = pulsating_geo
    jt, jr = jacobi_pair
    p = dyn.ActionParams(1.0, 0.0)
    row = geo.grid.n_tau // 2
    assert sym.gauge_invariance_check(geo, jt, jr, p, lambda s: s, row) <= 1e-12
    shift = 5 * geo.grid.h_sigma
    assert sym.gauge_invariance_check(geo, jt, jr, p, lambda s: s + shift, row) <= 1e-10
    wobble = sym.gauge_invariance_check(
        geo, jt, jr, p, lambda s: s + 1e-2 * np.sin(s), row
    )
    assert wobble <= 1e-3


def test_gauge_check_rejects_noninvertible(pulsating_geo, jacobi_pair):
    geo = pulsating_geo
    jt, jr = jacobi_pair
    from stringlab.grid import GridError

    with pytest.raises(GridError):
        sym.gauge_invariance_check(
            geo, jt, jr, dyn.ActionParams(1.0, 0.0), lambda s: s + 1.5 * np.sin(s),
            geo.grid.n_tau // 2,
        )


def test_resample_sigma_exact_for_trig():
    grid = WorldsheetGrid(9, 32, 0.0, 1.0)
    _, ss = grid.meshgrid()
    vals = np.sin(3 * ss) + 0.5 * np.cos(7 * ss)
    new = grid.sigma + 0.3 * np.sin(grid.sigma)
    out = sym.resample_sigma(vals, new)
    tt_new = np.sin(3 * new) + 0.5 * np.cos(7 * new)
    assert np.abs(out - tt_new[None, :]).max() <= 1e-12
