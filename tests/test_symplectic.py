import numpy as np
import pytest

from conftest import interior
from stringlab import deformation as dfm
from stringlab import dynamics as dyn
from stringlab import symplectic as sym
from stringlab.background import minkowski
from stringlab.geometry import Embedding, build_geometry, normal_gradient
from stringlab.grid import (
    BAND_RADIUS,
    NORMAL,
    SPACETIME,
    Field,
    GridError,
    RowBand,
    WorldsheetGrid,
    integrate_sigma_slice,
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


def _per_cell_form(geo, phi1, phi2, p, row):
    """omega of one pair on one row, cell by cell: both orderings of the
    current kernel on that row alone, each summed over the slice."""
    coeffs = [a[row] for a in dyn.current_coefficients(geo)]
    field1, field2 = ([a[row] for a in sym._field_operands(geo, phi)] for phi in (phi1, phi2))
    vol = geo.vol.values[row]
    topological = p.gb_coupling != 0.0
    j12 = sym._couple(*sym._current_parts(coeffs, field1, field2, topological), p)
    j21 = sym._couple(*sym._current_parts(coeffs, field2, field1, topological), p)
    raw12 = float((vol * j12[:, 0]).sum() * geo.grid.h_sigma)
    raw21 = float((vol * j21[:, 0]).sum() * geo.grid.h_sigma)
    return 0.5 * (raw12 - raw21)


@pytest.mark.parametrize(
    "solution,geometry,families",
    [
        ("pulsating", "pulsating_geo", ("translation_t", "radius", "translation_x")),
        ("spinning", "spinning_geo", ("translation_t", "scale", "translation_x")),
    ],
)
def test_two_form_table_matches_per_cell_reference(request, solution, geometry, families):
    """Every entry of the table, bit for bit, is the per-cell evaluation:
    Jacobi and random fields, three couplings, edge and middle rows."""
    sol = request.getfixturevalue(solution)
    geo = request.getfixturevalue(geometry)
    fields = [jacobi_from_family(sol, geo, name) for name in families]
    fields += _random_pair(geo.grid, geo.codim)
    params = [dyn.ActionParams(1.0, beta) for beta in (0.0, 0.25, 0.5)]
    n_tau = geo.grid.n_tau
    rows = [0, 2, n_tau // 2, n_tau - 1]
    table = sym.two_form_table(geo, fields, params, rows)
    assert table.shape == (3, 4, 5, 5)
    # translation_t and translation_x pair to zero, to roundoff and truncation
    assert np.abs(table[..., 0, 2]).max() <= 1e-7 * np.abs(table[..., 0, 1]).min()
    for k, p in enumerate(params):
        for r, row in enumerate(rows):
            for a, phi1 in enumerate(fields):
                for b, phi2 in enumerate(fields):
                    reference = _per_cell_form(geo, phi1, phi2, p, row)
                    assert table[k, r, a, b] == reference, (k, row, a, b)


def test_two_form_table_is_exactly_antisymmetric(spinning_geo):
    geo = spinning_geo
    fields = [dfm.random_normal_components(geo.grid, geo.codim, seed=s) for s in (3, 4, 5)]
    params = [dyn.ActionParams(1.3, 0.0), dyn.ActionParams(1.3, 0.3)]
    table = sym.two_form_table(geo, fields, params, [5, geo.grid.n_tau // 2])
    assert np.array_equal(table, -np.swapaxes(table, -1, -2))
    assert (np.diagonal(table, axis1=-2, axis2=-1) == 0.0).all()
    assert (table[..., 0, 1] != 0.0).all()


def test_two_form_table_takes_one_gradient_per_field(pulsating, pulsating_geo, monkeypatch):
    """Each field's normal gradient is taken once, however many rows,
    couplings and partners it meets, and once by each full-grid evaluator
    of the current; the omega kind takes two for all its slices, on the
    bands of their rows."""
    from stringlab import experiments

    calls = []

    def counting_gradient(geo, phi):
        calls.append(phi)
        return normal_gradient(geo, phi)

    monkeypatch.setattr(sym, "normal_gradient", counting_gradient)
    geo = pulsating_geo
    fields = [dfm.random_normal_components(geo.grid, geo.codim, seed=s) for s in (3, 4, 5)]
    params = [dyn.ActionParams(1.0, beta) for beta in (0.0, 0.25, 0.5)]
    sym.two_form_table(geo, fields, params, [10, 64, 100])
    assert [id(phi) for phi in calls] == [id(phi) for phi in fields]
    for evaluate in (sym.bilinear_current, sym.current_pieces):
        calls.clear()
        evaluate(geo, fields[0], fields[1], params[1])
        assert [id(phi) for phi in calls] == [id(phi) for phi in fields[:2]], evaluate
    calls.clear()
    experiments.run_omega(pulsating, geo.grid, dyn.ActionParams(1.0, 0.0), 0)
    assert len(calls) == 2
    assert all(isinstance(phi.grid, RowBand) for phi in calls)


def test_two_form_table_on_a_stack_builds_no_grid(pulsating, pulsating_geo, monkeypatch):
    """Each row's band is checked by the full grid's band rule alone: the
    table takes no bands of the grid, so it builds no grid per row."""
    rows = [32, 64, 96]
    geo = pulsating.geometry(pulsating_geo.grid.bands(rows))
    calls = []
    bands = WorldsheetGrid.bands

    def counting_bands(grid, rows):
        calls.append(rows)
        return bands(grid, rows)

    monkeypatch.setattr(WorldsheetGrid, "bands", counting_bands)
    table = sym.two_form_table(geo, _random_pair(geo.grid, geo.codim),
                               [dyn.ActionParams(1.0, 0.3)], rows)
    assert (table[..., 0, 1] != 0.0).all()
    assert calls == []


def test_two_form_table_checks_every_row_first(rotating_geo, pulsating_geo, monkeypatch):
    """A row out of range or on the masked region fails before any
    gradient is taken, with the first bad row named."""
    def no_gradient(*args):
        raise AssertionError("a gradient was taken before the rows were checked")

    monkeypatch.setattr(sym, "normal_gradient", no_gradient)
    p = [dyn.ActionParams(1.0, 0.0)]
    geo = pulsating_geo
    phi = dfm.random_normal_components(geo.grid, geo.codim, seed=3)
    n_tau = geo.grid.n_tau
    with pytest.raises(GridError, match=f"tau_index {n_tau} out of range"):
        sym.two_form_table(geo, [phi, phi], p, [n_tau // 2, n_tau, -1])
    with pytest.raises(GridError, match="tau_index -1 out of range"):
        sym.two_form_table(geo, [phi, phi], p, [n_tau // 2, -1, n_tau])
    geo = rotating_geo
    phi = dfm.random_normal_components(geo.grid, geo.codim, seed=3)
    row = geo.grid.n_tau // 2
    with pytest.raises(GridError, match=f"tau row {row} intersects the masked region"):
        sym.two_form_table(geo, [phi, phi], p, [row, geo.grid.n_tau])


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
    # the un-antisymmetrized slice integral does not move either
    raw0, raw1 = (
        integrate_sigma_slice(
            Field(geo.grid, geo.vol.values * sym.bilinear_current(geo, jt, js, p).values[..., 0]),
            row,
        )
        for p in (p0, p1)
    )
    assert raw0 == pytest.approx(raw1, abs=1e-6)


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


def test_potential_variation_rejects_a_field_of_wrong_codim(pulsating):
    """A field with more components than the geometry has normals is a typed
    error in either slot, not a numpy broadcast error."""
    geo = pulsating.geometry(WorldsheetGrid(33, 16, 0.1, 0.9))
    good = dfm.random_normal_components(geo.grid, geo.codim, seed=0)
    wrong = dfm.random_normal_components(geo.grid, geo.codim + 1, seed=1)
    p = dyn.ActionParams(1.0, 0.3)
    for phi1, phi2 in ((wrong, good), (good, wrong)):
        with pytest.raises(GridError, match="codim"):
            sym.potential_variation_current(geo, phi1, phi2, p)


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
    assert sym.gauge_invariance_check(geo, jt, jr, p, [lambda s: s], row)[0] <= 1e-12
    shift = 5 * geo.grid.h_sigma
    assert sym.gauge_invariance_check(geo, jt, jr, p, [lambda s: s + shift], row)[0] <= 1e-10
    [wobble] = sym.gauge_invariance_check(
        geo, jt, jr, p, [lambda s: s + 1e-2 * np.sin(s)], row
    )
    assert wobble <= 1e-3


def test_gauge_check_rejects_noninvertible(pulsating_geo, jacobi_pair):
    geo = pulsating_geo
    jt, jr = jacobi_pair
    from stringlab.grid import GridError

    with pytest.raises(GridError):
        sym.gauge_invariance_check(
            geo, jt, jr, dyn.ActionParams(1.0, 0.0), [lambda s: s + 1.5 * np.sin(s)],
            geo.grid.n_tau // 2,
        )


@pytest.mark.parametrize(
    "sigma_map,message",
    [
        (lambda s: 0.5, r"sigma map 1 returned shape \(\), not one source point per grid "
                        r"column \(32,\)"),
        (lambda s: s[:16], r"sigma map 1 returned shape \(16,\), not one source point"),
        (lambda s: s + np.nan, "reparametrization is not invertible on the grid"),
    ],
)
def test_gauge_check_rejects_a_malformed_map(pulsating_geo, jacobi_pair, sigma_map, message,
                                            monkeypatch):
    """A map that does not give one finite source point per grid column is a
    GridError naming the map's position and what it returned, raised before
    any arithmetic: nothing is built."""
    jt, jr = jacobi_pair

    def no_build(*args, **kwargs):
        raise AssertionError("built a geometry")

    monkeypatch.setattr(sym, "build_geometry", no_build)
    with pytest.raises(GridError, match=message):
        sym.gauge_invariance_check(pulsating_geo, jt, jr, dyn.ActionParams(1.0, 0.0),
                                   [lambda s: s, sigma_map], 64)


def test_gauge_check_without_maps_builds_nothing(pulsating_geo, jacobi_pair, monkeypatch):
    jt, jr = jacobi_pair

    def no_build(*args, **kwargs):
        raise AssertionError("built a geometry")

    monkeypatch.setattr(sym, "build_geometry", no_build)
    assert sym.gauge_invariance_check(pulsating_geo, jt, jr, dyn.ActionParams(1.0, 0.0), [],
                                      64) == []


def test_slice_band_stays_inside_the_grid():
    width = 2 * BAND_RADIUS + 1
    grid = WorldsheetGrid(129, 32, 0.1, 0.9)

    def rows(band):
        return slice(band.first_rows[0], band.first_rows[0] + band.n_tau)

    assert rows(grid.bands([64])) == slice(64 - BAND_RADIUS, 65 + BAND_RADIUS)
    assert rows(grid.bands([0])) == rows(grid.bands([2])) == slice(0, width)
    assert rows(grid.bands([128])) == slice(129 - width, 129)
    assert rows(WorldsheetGrid(9, 32, 0.1, 0.9).bands([4])) == slice(0, 9)
    with pytest.raises(GridError, match="tau_index 129 out of range"):
        grid.bands([129])


def test_row_band_keeps_the_spacing():
    grid = WorldsheetGrid(129, 32, 0.1, 0.9)
    band = grid.bands([11])
    assert band.shape == (13, 32)
    assert (band.tau_min, band.tau_max) == (grid.tau[5], grid.tau[17])
    # recomputed from the band's window, the spacing would differ in the last bit
    assert band.h_tau == grid.h_tau


@pytest.mark.parametrize("n_tau,tau_max", [(129, 0.9), (257, 1.6), (65, 0.7)])
def test_band_keeps_the_full_grid_tau_values(n_tau, tau_max):
    """linspace over the band's own window puts some rows one ulp off,
    which the nested edge stencils amplify; a band reads its grid's values."""
    grid = WorldsheetGrid(n_tau, 16, 0.1, tau_max)
    for row in range(n_tau):
        band = grid.bands([row])
        lo = band.first_rows[0]
        assert np.array_equal(band.tau, grid.tau[lo:lo + band.n_tau]), row
        assert np.array_equal(band.meshgrid()[0], grid.meshgrid()[0][lo:lo + band.n_tau])


@pytest.mark.parametrize(
    "solution,geometry,modulus",
    [("pulsating", "pulsating_geo", "radius"), ("spinning", "spinning_geo", "scale")],
)
def test_band_two_form_matches_full_grid(request, solution, geometry, modulus):
    """The two-form of a slice on its band, with the Jacobi fields built
    there, is the full grid's to roundoff: edge and interior rows, a
    vanishing pair and a nonzero coupling."""
    sol = request.getfixturevalue(solution)
    geo = request.getfixturevalue(geometry)
    names = ("translation_t", modulus, "translation_x")
    params = [dyn.ActionParams(1.0, beta) for beta in (0.0, 0.3)]
    rows = [0, 1, 2, 5, 32, 64, 96, 126, 127, 128]
    full = sym.two_form_table(geo, [jacobi_from_family(sol, geo, n) for n in names], params, rows)
    scale = np.abs(full).max()
    for r, row in enumerate(rows):
        band = sol.geometry(geo.grid.bands([row]))
        fields = [jacobi_from_family(sol, band, n) for n in names]
        table = sym.two_form_table(band, fields, params, [row])
        assert np.abs(table[:, 0] - full[:, r]).max() <= 1e-15 * scale, row


@pytest.mark.parametrize(
    "solution,geometry,modulus",
    [("pulsating", "pulsating_geo", "radius"), ("spinning", "spinning_geo", "scale")],
)
def test_stacked_two_form_matches_each_band(request, solution, geometry, modulus):
    """One table on the stacked bands of many rows is, bit for bit, the
    table of each row on its own band: rows that share a band (0 and 2),
    rows whose bands overlap (64 and 66), a duplicated row and both edges."""
    sol = request.getfixturevalue(solution)
    grid = request.getfixturevalue(geometry).grid
    names = ("translation_t", modulus, "translation_x")
    params = [dyn.ActionParams(1.0, beta) for beta in (0.0, 0.3)]
    rows = [0, 2, 32, 64, 66, 96, 126, 128, 64]
    stack = sol.geometry(grid.bands(rows))
    assert stack.grid.first_rows == (0, 26, 58, 60, 90, 116)
    fields = [jacobi_from_family(sol, stack, n) for n in names]
    table = sym.two_form_table(stack, fields, params, rows)
    assert (table[..., 0, 1] != 0.0).all()
    for r, row in enumerate(rows):
        band = sol.geometry(grid.bands([row]))
        alone = sym.two_form_table(band, [jacobi_from_family(sol, band, n) for n in names],
                                   params, [row])
        assert np.array_equal(table[:, r], alone[:, 0]), row


@pytest.mark.parametrize("kind", ["omega", "gauge-check"])
def test_slice_kinds_build_only_bands(pulsating, grid129, monkeypatch, kind):
    """omega and gauge-check build every geometry on the bands of their
    slices: one build of omega's three bands stacked; for gauge-check one
    band, then one build of its two reparametrized rebuilds stacked."""
    from stringlab import experiments, solutions

    shapes = []

    def recording_build(emb):
        shapes.append(emb.grid.shape)
        return build_geometry(emb)

    monkeypatch.setattr(solutions, "build_geometry", recording_build)
    monkeypatch.setattr(sym, "build_geometry", recording_build)
    experiments.EXPERIMENTS[kind](pulsating, grid129, dyn.ActionParams(1.0, 0.0), 0)
    width = 2 * BAND_RADIUS + 1
    expected = {"omega": [(3 * width, grid129.n_sigma)],
                "gauge-check": [(width, grid129.n_sigma), (2 * width, grid129.n_sigma)]}
    assert shapes == expected[kind]


def test_gauge_check_evaluates_its_base_two_form_once(pulsating, grid129, monkeypatch):
    """One gauge-check run takes the two-form of its band once, then one
    table covers the slice rows of both reparametrized rebuilds."""
    from stringlab import experiments

    geos, tables = [], []
    form, rows_body = sym.symplectic_form, sym._two_form_rows

    def recording_form(geo, *args):
        geos.append(geo)
        return form(geo, *args)

    def recording_rows(geo, fields, params, rows):
        tables.append((geo, list(rows)))
        return rows_body(geo, fields, params, rows)

    monkeypatch.setattr(sym, "symplectic_form", recording_form)
    monkeypatch.setattr(sym, "_two_form_rows", recording_rows)
    experiments.run_gauge_check(pulsating, grid129, dyn.ActionParams(1.0, 0.0), 0)
    width = 2 * BAND_RADIUS + 1
    assert len(geos) == 1 and [geo for geo, _ in tables] == [geos[0], tables[1][0]]
    assert tables[1][0].grid.shape == (2 * width, grid129.n_sigma)
    assert tables[1][1] == [BAND_RADIUS, width + BAND_RADIUS]


def test_gauge_check_pulls_each_field_back_with_one_fft(pulsating, grid129, monkeypatch):
    """The chart and the two Jacobi fields are each pulled back through both
    maps of a gauge-check run with one FFT; the rebuild reads its frame off
    its own tangents, so no frame is pulled back."""
    from stringlab import experiments

    shapes = []
    rfft = np.fft.rfft

    def counting_rfft(values, *args, **kwargs):
        shapes.append(values.shape)
        return rfft(values, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    experiments.run_gauge_check(pulsating, grid129, dyn.ActionParams(1.0, 0.0), 0)
    assert len(shapes) == 3


@pytest.mark.parametrize(
    "solution,geometry,modulus",
    [("pulsating", "pulsating_geo", "radius"), ("spinning", "spinning_geo", "scale")],
)
def test_stacked_rebuilds_match_each_rebuild_alone(request, solution, geometry, modulus):
    """One rebuild of a copy of the grid per map is, copy by copy and bit for
    bit, that map's rebuild alone: its geometry, its two-form and the
    relative change, on bands of edge and interior rows and on the full
    grid, with the two maps of the CLI and the identity."""
    sol = request.getfixturevalue(solution)
    full = request.getfixturevalue(geometry)
    grid = full.grid
    names = ("translation_t", modulus)
    maps = [lambda s: s + 1e-2 * np.sin(s), lambda s: s + 3 * grid.h_sigma, lambda s: s]
    sources = [sigma_map(grid.sigma) for sigma_map in maps]
    cases = [(sol.geometry(grid.bands([row])), row) for row in (0, 2, 64, 126, 128)]
    for geo, row in cases + [(full, 64)]:
        f1, f2 = (jacobi_from_family(sol, geo, name) for name in names)
        stack, _ = sym.reparametrized_rebuild(geo, [f1, f2], sources)
        n = geo.grid.n_tau
        for c, s in enumerate(sources):
            alone, _ = sym.reparametrized_rebuild(geo, [f1, f2], [s])
            for name in ("vol", "K", "normal_conn"):
                copy = getattr(stack, name).values[c * n:(c + 1) * n]
                assert np.array_equal(copy, getattr(alone, name).values), (row, c, name)
        for beta in (0.0, 0.3):
            p = dyn.ActionParams(1.0, beta)
            forms = sym.reparametrized_forms(geo, f1, f2, p, sources, row)
            changes = sym.gauge_invariance_check(geo, f1, f2, p, maps, row)
            for c, (s, sigma_map) in enumerate(zip(sources, maps)):
                alone = sym.reparametrized_forms(geo, f1, f2, p, [s], row)
                assert np.array_equal(forms[c:c + 1], alone), (row, beta, c)
                assert changes[c] == sym.gauge_invariance_check(
                    geo, f1, f2, p, [sigma_map], row)[0], (row, beta, c)


@pytest.mark.parametrize(
    "solution,geometry,modulus",
    [("pulsating", "pulsating_geo", "radius"), ("spinning", "spinning_geo", "scale")],
)
def test_band_rebuild_matches_full_grid_rebuild(request, solution, geometry, modulus):
    """The gauge check's rebuild of the band geometry of a row gives the
    two-form of a rebuild of the whole grid, on interior and edge rows
    alike."""
    sol = request.getfixturevalue(solution)
    geo = request.getfixturevalue(geometry)
    grid, emb = geo.grid, geo.embedding
    names = ("translation_t", modulus)
    f1, f2 = (jacobi_from_family(sol, geo, name) for name in names)
    p = dyn.ActionParams(1.0, 0.3)  # a nonzero coupling reads the curvature gradients
    for s in (grid.sigma + 1e-2 * np.sin(grid.sigma), grid.sigma + 3 * grid.h_sigma):
        x2 = Field(grid, sym.resample_sigma(emb.x.values, s), emb.x.indices)
        full = build_geometry(Embedding(emb.background, x2, emb.mask))
        g1, g2 = (Field(grid, sym.resample_sigma(f.values, s), (NORMAL,)) for f in (f1, f2))
        for row in (0, 2, grid.n_tau // 2, grid.n_tau - 1):
            reference = sym.symplectic_form(full, g1, g2, p, row)
            band_geo = sol.geometry(grid.bands([row]))
            b1, b2 = (jacobi_from_family(sol, band_geo, name) for name in names)
            [band] = sym.reparametrized_forms(band_geo, b1, b2, p, [s], row)
            assert abs(band - reference) <= 1e-13 * abs(reference), (row, band, reference)


def test_gauge_check_rejects_masked_row(rotating, rotating_geo):
    geo = rotating_geo
    jt, ja = (jacobi_from_family(rotating, geo, name) for name in ("translation_t", "amplitude"))
    from stringlab.grid import GridError

    with pytest.raises(GridError, match="intersects the masked region"):
        sym.gauge_invariance_check(
            geo, jt, ja, dyn.ActionParams(1.0, 0.0), [lambda s: s + 0.1], geo.grid.n_tau // 2
        )


def test_current_reads_only_its_own_coefficients(pulsating):
    """The two-form and the conservation check fill the current's
    coefficients and each field's normal gradient, not the operator's
    fourth-derivative coefficients or its second derivatives of a field."""
    geo = pulsating.geometry(WorldsheetGrid(33, 16, 0.1, 0.9))
    phi1, phi2 = _random_pair(geo.grid, geo.codim)
    p = dyn.ActionParams(1.0, 0.3)
    sym.symplectic_form(geo, phi1, phi2, p, geo.grid.n_tau // 2)
    sym.conservation_residual(geo, phi1, phi2, p)
    assert {key if isinstance(key, str) else key[0] for key in geo.cache} == {
        "current_coeffs", "normal_gradient"}
    assert isinstance(geo.cache["current_coeffs"], dyn.CurrentCoefficients)


def test_resample_sigma_exact_for_trig():
    grid = WorldsheetGrid(9, 32, 0.0, 1.0)
    _, ss = grid.meshgrid()
    vals = np.sin(3 * ss) + 0.5 * np.cos(7 * ss)
    new = grid.sigma + 0.3 * np.sin(grid.sigma)
    out = sym.resample_sigma(vals, new)
    tt_new = np.sin(3 * new) + 0.5 * np.cos(7 * new)
    assert np.abs(out - tt_new[None, :]).max() <= 1e-12
