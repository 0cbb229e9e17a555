import numpy as np
import pytest

from conftest import interior
from stringlab import dynamics as dyn
from stringlab.grid import WorldsheetGrid, d_sigma, d_tau, masked_max_abs
from stringlab.solutions import (
    SolutionError,
    jacobi_from_family,
    make_solution,
    pulsating_circular_string,
    rotating_folded_string,
    solution_names,
    spinning_two_plane_string,
)


def test_parameter_validation():
    with pytest.raises(SolutionError):
        pulsating_circular_string(-1.0)
    with pytest.raises(SolutionError):
        pulsating_circular_string(1.0, dim=5)
    with pytest.raises(SolutionError):
        rotating_folded_string(0.0)
    with pytest.raises(SolutionError):
        spinning_two_plane_string(-2.0)


def test_registry():
    assert solution_names() == [
        "pulsating_circular_string",
        "rotating_folded_string",
        "spinning_two_plane_string",
    ]
    sol = make_solution("pulsating_circular_string", {"radius": 2.0})
    assert sol.params["radius"] == 2.0
    with pytest.raises(SolutionError):
        make_solution("open_string", {})
    with pytest.raises(SolutionError):
        make_solution("pulsating_circular_string", {"tension": 1.0})


@pytest.mark.parametrize(
    "factory", [pulsating_circular_string, rotating_folded_string, spinning_two_plane_string]
)
def test_conformal_gauge_constraints(factory):
    sol = factory()
    grid = WorldsheetGrid(257, 32, 0.1, 0.9)
    emb = sol.embedding(grid)
    x = emb.x
    dt = d_tau(x).values
    ds = d_sigma(x).values
    g = sol.background.metric_at(x.values)
    dot = np.einsum("...m,...mn,...n->...", dt, g, ds)
    tsq = np.einsum("...m,...mn,...n->...", dt, g, dt)
    ssq = np.einsum("...m,...mn,...n->...", ds, g, ds)
    act = emb.mask.active
    assert masked_max_abs(dot, act) <= 1e-10
    assert masked_max_abs(tsq + ssq, act) <= 1e-10


def test_pulsating_wave_equation(pulsating):
    grid = WorldsheetGrid(257, 32, 0.1, 0.9)
    x = pulsating.embedding(grid).x
    wave = d_sigma(d_sigma(x)).values - d_tau(d_tau(x)).values
    # chained one-sided stencils keep the two boundary bands above the
    # trigonometric floor; the interior meets it
    assert np.abs(wave[4:-4]).max() <= 1e-10


def test_pulsating_metric_value(pulsating, grid129):
    geo = pulsating.geometry(grid129)
    tt, _ = grid129.meshgrid()
    assert masked_max_abs(
        geo.gamma.values[..., 1, 1] - np.cos(tt) ** 2, geo.mask.active
    ) <= 1e-9


@pytest.mark.parametrize(
    "factory,bound",
    [
        (pulsating_circular_string, 5e-5),
        (rotating_folded_string, 5e-5),
        (spinning_two_plane_string, 5e-5),
    ],
)
def test_exact_solutions_are_onshell(factory, bound):
    sol = factory()
    geo = sol.geometry(WorldsheetGrid(129, 32, 0.1, 0.9))
    for beta in (0.0, 0.7):
        res = dyn.max_eom_residual(geo, dyn.ActionParams(1.0, beta))
        assert res <= bound


def test_pulsating_in_three_dimensions(grid129):
    sol = pulsating_circular_string(1.0, dim=3)
    geo = sol.geometry(grid129)
    assert geo.codim == 1
    assert np.abs(geo.normal_conn.values).max() == 0.0
    assert dyn.max_eom_residual(geo, dyn.ActionParams(1.0, 0.5)) <= 5e-5


def test_rotating_folds_detected(rotating, grid129):
    geo = rotating.geometry(grid129)
    half = grid129.n_sigma // 2
    det = np.abs(geo.gamma_det)
    assert det[:, 0].max() <= 1e-10
    assert det[:, half].max() <= 1e-10
    declared = rotating.mask(grid129)
    assert not declared.active[:, 0].any()
    # runtime degeneracy scan never widens past the declared fold bands
    assert not (geo.detected & declared.active).any()


def test_translation_jacobi_fields_solve_linearized_equation(pulsating, pulsating_geo):
    geo = pulsating_geo
    p = dyn.ActionParams(1.0, 0.0)
    inner = interior(geo)
    for which in ("translation_t", "translation_x", "translation_z", "radius"):
        phi = jacobi_from_family(pulsating, geo, which)
        out = dyn.stability_operator_apply(geo, phi, p)
        _, scale = dyn.linearized_residual_string(geo, phi, p)
        norm = max(1.0, masked_max_abs(phi.values, geo.mask.active))
        # the z-translation field is annihilated exactly, leaving a pure
        # roundoff scale; the tension floor keeps the bound meaningful
        floor = max(scale, p.tension) * norm
        assert masked_max_abs(out.values, inner) <= 5e-4 * floor, which


def test_jacobi_residual_with_coupling_reported(pulsating, pulsating_geo):
    # the coupling's operator terms cancel on shell, so symmetry-generated
    # fields stay solutions with the topological term switched on
    geo = pulsating_geo
    p = dyn.ActionParams(1.0, 0.5)
    phi = jacobi_from_family(pulsating, geo, "translation_x")
    out = dyn.stability_operator_apply(geo, phi, p)
    _, scale = dyn.linearized_residual_string(geo, phi, p)
    assert masked_max_abs(out.values, interior(geo)) <= 1e-3 * scale


def test_sigma_shift_has_no_normal_part(pulsating, pulsating_geo, spinning, spinning_geo):
    for sol, geo in ((pulsating, pulsating_geo), (spinning, spinning_geo)):
        phi = jacobi_from_family(sol, geo, "sigma_shift")
        assert masked_max_abs(phi.values, geo.mask.active) <= 1e-10


def test_unknown_family_rejected(pulsating, pulsating_geo):
    with pytest.raises(SolutionError):
        jacobi_from_family(pulsating, pulsating_geo, "warp")


def test_spinning_frame_is_orthonormal_and_smooth(spinning, spinning_geo):
    geo = spinning_geo
    act = geo.mask.active
    ndotn = np.einsum("...im,...jm->...ij", geo.n_low, geo.n.values)
    assert masked_max_abs(ndotn - np.eye(2), act) <= 1e-9
    n = geo.n.values
    for slot in range(2):
        dots = np.einsum("tsm,tsm->ts", n[:, :, slot], np.roll(n[:, :, slot], -1, axis=1))
        assert dots.min() > 0.9


def test_masked_rows_near_pulsating_collapse():
    sol = pulsating_circular_string(1.0)
    grid = WorldsheetGrid(129, 32, 1.2, 1.9)  # window crossing cos(tau) = 0
    mask = sol.mask(grid)
    near = np.abs(np.cos(grid.tau)) < 1e-2
    assert near.any()
    assert not mask.active[near].any()
