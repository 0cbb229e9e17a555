import numpy as np
import pytest

from conftest import interior
from stringlab import deformation as dfm
from stringlab import dynamics as dyn
from stringlab.background import minkowski
from stringlab.geometry import Embedding, build_geometry
from stringlab.grid import (
    NORMAL,
    SPACETIME,
    Field,
    WorldsheetGrid,
    integrate_patch,
    masked_max_abs,
)


@pytest.fixture(scope="module")
def cylinder():
    grid = WorldsheetGrid(129, 32, 0.0, 1.0)
    tt, ss = grid.meshgrid()
    x = np.stack([tt, np.cos(ss), np.sin(ss), np.zeros_like(tt)], axis=-1)
    emb = Embedding(minkowski(4), Field(grid, x, (SPACETIME,)))
    return emb, build_geometry(emb)


def test_action_params_validation():
    with pytest.raises(dyn.DynamicsError):
        dyn.ActionParams(-1.0)
    with pytest.raises(dyn.DynamicsError):
        dyn.ActionParams(0.0, 0.0)
    with pytest.raises(dyn.DynamicsError):
        dyn.ActionParams(1.0, 0.0, worldsheet_dim=3)
    dyn.ActionParams(0.0, 1.0)  # curvature-only theory is allowed


def test_action_flat_cylinder(cylinder):
    _, geo = cylinder
    val = dyn.action_value(geo, dyn.ActionParams(1.0, 0.0))
    assert val == pytest.approx(-2 * np.pi, rel=1e-12)
    # topological term vanishes on the intrinsically flat cylinder
    val_b = dyn.action_value(geo, dyn.ActionParams(1.0, 2.5))
    assert val_b == pytest.approx(val, abs=1e-8)


def test_action_pulsating_analytic(pulsating_geo):
    anti = lambda t: t / 2 + np.sin(2 * t) / 4
    expected = -2 * np.pi * (anti(0.9) - anti(0.1))
    val = dyn.action_value(pulsating_geo, dyn.ActionParams(1.0, 0.0))
    # tau quadrature is trapezoid: second-order accurate
    assert val == pytest.approx(expected, abs=5e-5)


def test_cylinder_eom_residual_magnitude(cylinder):
    _, geo = cylinder
    res = dyn.eom_residual(geo, dyn.ActionParams(2.0, 0.0))
    act = geo.mask.active
    assert masked_max_abs(res.values, act) == pytest.approx(2.0, rel=1e-8)


def test_onshell_residual_and_beta_independence(pulsating_geo, rotating_geo):
    for geo in (pulsating_geo, rotating_geo):
        base = dyn.max_eom_residual(geo, dyn.ActionParams(1.0, 0.0))
        assert base <= 5e-5
        for beta in (0.5, 1.0):
            shifted = dyn.max_eom_residual(geo, dyn.ActionParams(1.0, beta))
            assert abs(shifted - base) <= 1e-6


def test_offshell_rejected(cylinder):
    _, geo = cylinder
    phi = Field(geo.grid, np.zeros(geo.grid.shape + (2,)), (NORMAL,))
    with pytest.raises(dyn.DynamicsError):
        dyn.stability_operator_apply(geo, phi, dyn.ActionParams(1.0, 0.0))


def test_potential_tension_only_is_tangential(pulsating_geo):
    geo = pulsating_geo
    phi = dfm.random_normal_components(geo.grid, geo.codim, seed=0)
    d = dfm.DeformationField.normal_only(phi)
    psi = dyn.symplectic_potential(geo, d, dyn.ActionParams(1.0, 0.0))
    assert np.abs(psi.values).max() == 0.0


def test_potential_evaluators_agree(pulsating_geo):
    geo = pulsating_geo
    d = dfm.random_deformation(geo.grid, geo.codim, seed=1)
    act = geo.mask.active
    for beta in (0.0, 0.5):
        p = dyn.ActionParams(1.0, beta)
        a = dyn.symplectic_potential(geo, d, p)
        b = dyn.symplectic_potential_string(geo, d, p)
        scale = 1.0 + masked_max_abs(a.values, act)
        assert masked_max_abs(a.values - b.values, act) / scale <= 1e-6


def test_string_and_general_evaluators_agree(pulsating_geo):
    geo = pulsating_geo
    phi = dfm.random_normal_components(geo.grid, geo.codim, seed=3)
    act = geo.mask.active
    for beta in (0.0, 0.3):
        p = dyn.ActionParams(1.0, beta)
        string_form, scale = dyn.linearized_residual_string(geo, phi, p)
        full = dyn.linearized_residual(geo, phi, p)
        blocks = dyn.einstein_block(geo, phi, p)
        shared_gap = masked_max_abs(full.values - blocks.values - string_form.values, act)
        assert shared_gap / scale <= 1e-10
        assert masked_max_abs(blocks.values, act) / scale <= 1e-6


def test_linearization_matches_fd(pulsating_geo):
    geo = pulsating_geo
    inner = interior(geo)
    phi = dfm.random_normal_components(geo.grid, geo.codim, seed=3)
    for beta in (0.0, 0.3):
        p = dyn.ActionParams(1.0, beta)
        lin, scale = dyn.linearized_residual_string(geo, phi, p)
        fd = dyn.linearized_fd_oracle(geo, phi, p, eps=1e-4)
        assert masked_max_abs(lin.values - fd.values, inner) / scale <= 1e-4


def test_tension_only_reduces_to_jacobi_operator(pulsating_geo):
    geo = pulsating_geo
    phi = dfm.random_normal_components(geo.grid, geo.codim, seed=5)
    p = dyn.ActionParams(1.7, 0.0)
    from stringlab.geometry import normal_laplacian

    c = dyn.operator_coefficients(geo)
    expected = 1.7 * (
        -normal_laplacian(geo, phi).values
        - np.einsum("...ij,...j->...i", c.kk, phi.values)
    )
    out = dyn.stability_operator_apply(geo, phi, p)
    assert np.abs(out.values - expected)[geo.mask.active].max() <= 1e-12


def test_onshell_operator_drops_only_mean_terms(pulsating_geo):
    geo = pulsating_geo
    phi = dfm.random_normal_components(geo.grid, geo.codim, seed=6)
    p = dyn.ActionParams(1.0, 0.4)
    full, scale = dyn.linearized_residual_string(geo, phi, p)
    onshell = dyn.stability_operator_apply(geo, phi, p)
    gap = masked_max_abs(full.values - onshell.values, interior(geo))
    assert gap / scale <= 1e-3  # mean-curvature terms at the residual scale


def test_topological_term_inert_in_operator_on_shell(pulsating_geo, spinning_geo):
    """The topological coupling's printed terms cancel identically on shell
    in two dimensions (traceless Cayley-Hamilton + Codazzi + the Simons
    identity); the operator's beta dependence sits at the discretization
    floor while the potential's beta dependence is order one."""
    for geo in (pulsating_geo, spinning_geo):
        phi = dfm.random_normal_components(geo.grid, geo.codim, seed=7)
        p0 = dyn.ActionParams(1.0, 0.0)
        p1 = dyn.ActionParams(1.0, 1.0)
        a = dyn.stability_operator_apply(geo, phi, p0)
        b = dyn.stability_operator_apply(geo, phi, p1)
        _, scale = dyn.linearized_residual_string(geo, phi, p1)
        assert masked_max_abs(a.values - b.values, interior(geo)) / scale <= 1e-3
        d = dfm.DeformationField.normal_only(phi)
        psi0 = dyn.symplectic_potential(geo, d, p0)
        psi1 = dyn.symplectic_potential(geo, d, p1)
        act = geo.mask.active
        change = masked_max_abs(psi1.values - psi0.values, act)
        assert change >= 1e-2 * max(masked_max_abs(psi1.values, act), 1.0)


def test_action_variation_matches_eom(cylinder):
    """First variation of the action against the equations of motion, on an
    off-shell surface with a tau-compact window so boundary terms drop."""
    _, geo = cylinder
    grid = geo.grid
    tt, ss = grid.meshgrid()
    arg = 1 - ((tt - 0.5) / 0.35) ** 2
    with np.errstate(over="ignore"):
        bump = np.where(np.abs(tt - 0.5) < 0.35, np.exp(-1.0 / np.maximum(arg, 1e-300)), 0.0)
    phi_vals = np.stack([bump * (1.0 + 0.5 * np.sin(ss)), bump * 0.4 * np.cos(ss)], axis=-1)
    d = dfm.DeformationField.normal_only(Field(grid, phi_vals, (NORMAL,)))
    eps = 1e-5
    results = {}
    for beta in (0.0, 0.7):
        p = dyn.ActionParams(1.0, beta)
        plus = dyn.action_value(build_geometry(dfm.deform_embedding(geo, d, +eps)), p)
        minus = dyn.action_value(build_geometry(dfm.deform_embedding(geo, d, -eps)), p)
        fd = (plus - minus) / (2 * eps)
        dens = geo.vol.values * np.einsum(
            "...i,...i->...", dyn.eom_residual(geo, p).values, phi_vals
        )
        target = -integrate_patch(Field(grid, dens), geo.mask)
        assert abs(fd - target) / abs(target) <= 1e-5
        results[beta] = fd
    # interior variation is insensitive to the topological coupling
    assert results[0.0] == pytest.approx(results[0.7], rel=1e-8)
