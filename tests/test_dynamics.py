from dataclasses import replace

import numpy as np
import pytest

from conftest import interior
from stringlab import deformation as dfm
from stringlab import dynamics as dyn
from stringlab import experiments
from stringlab.background import minkowski, synthetic_constant_curvature
from stringlab.experiments import run_linearize
from stringlab.geometry import Embedding, build_geometry, covariant_gradient, normal_gradient
from stringlab.grid import (
    NORMAL,
    SPACETIME,
    WORLDSHEET_UPPER,
    Field,
    GridError,
    WorldsheetGrid,
    integrate_patch,
    masked_max_abs,
)
from stringlab.solutions import pulsating_circular_string


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


def test_operators_reject_fields_that_are_not_normal(pulsating_geo):
    """Every operator path, the finite-difference oracle included, rejects a
    field with the wrong index or number of normal components as a
    GridError."""
    geo = pulsating_geo
    p = dyn.ActionParams(1.0, 0.3)
    wrong_codim = dfm.random_normal_components(geo.grid, geo.codim + 1, seed=0)
    tangent = Field(geo.grid, np.zeros(geo.grid.shape + (2,)), (WORLDSHEET_UPPER,))
    paths = (
        dyn.stability_operator_apply,
        dyn.linearized_residual,
        dyn.linearized_residual_string,
        lambda g, phi, q: dyn.linearized_fd_oracle(g, phi, [q]),
    )
    for phi in (wrong_codim, tangent):
        for apply in paths:
            with pytest.raises(GridError):
                apply(geo, phi, p)


@pytest.mark.parametrize("family,n_sigma", [("pulsating", 32), ("spinning", 64)])
def test_riemann_term_on_a_space_form(request, family, n_sigma):
    """On the space-form background R_abcd = k (g_ac g_bd - g_ad g_bc) the
    traced Riemann coupling of the operator is -2k delta^i_j, so swapping a
    flat background for it shifts both evaluators by -2k tension phi and
    leaves every other term as it was."""
    k, tension = 0.7, 1.3
    sol = request.getfixturevalue(family)
    grid = WorldsheetGrid(65, n_sigma, 0.1, 0.9)
    curved = replace(sol, background=synthetic_constant_curvature(4, k))
    flat_geo, curved_geo = sol.geometry(grid), curved.geometry(grid)
    phi = dfm.random_normal_components(grid, flat_geo.codim, seed=5)
    act = flat_geo.mask.active
    expected = -2.0 * k * tension * phi.values
    evaluators = (
        dyn.stability_operator_apply,
        lambda geo, f, p: dyn.linearized_residual_string(geo, f, p)[0],
    )
    for beta in (0.0, 0.3):
        p = dyn.ActionParams(tension, beta)
        for apply in evaluators:
            shift = apply(curved_geo, phi, p).values - apply(flat_geo, phi, p).values
            gap = masked_max_abs(shift - expected, act)
            assert gap <= 1e-12 * masked_max_abs(expected, act), (apply, beta, gap)


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
        full, blocks = dyn.linearized_residual(geo, phi, p)
        shared_gap = masked_max_abs(full.values - blocks.values - string_form.values, act)
        assert shared_gap / scale <= 1e-10
        assert masked_max_abs(blocks.values, act) / scale <= 1e-6


def test_linearize_evaluates_each_einstein_block_once(pulsating_geo, monkeypatch):
    geo = pulsating_geo
    phi = dfm.random_normal_components(geo.grid, geo.codim, seed=3)
    p = dyn.ActionParams(1.0, 0.3)
    laplacians = []
    real_laplacian = dyn.normal_laplacian
    monkeypatch.setattr(
        dyn, "normal_laplacian", lambda *a: laplacians.append(1) or real_laplacian(*a)
    )
    _, blocks = dyn.linearized_residual(geo, phi, p)
    assert laplacians == [1]  # the full residual takes one Laplacian of a fresh phi
    _, ggphi, _ = dyn._phi_derivatives(geo, phi)
    block = dyn.einstein_block(geo, dyn.operator_coefficients(geo), phi.values, ggphi, 0.3)
    assert laplacians == [1]  # the block takes none, and phi's derivatives are kept
    assert (blocks.values == block).all()

    # a default linearize run evaluates the block once, at its one nonzero beta
    blocks_evaluated = []
    real_block = dyn.einstein_block
    monkeypatch.setattr(
        dyn, "einstein_block", lambda *a: blocks_evaluated.append(1) or real_block(*a)
    )
    run_linearize(
        pulsating_circular_string(radius=1.0), WorldsheetGrid(65, 32, 0.1, 0.9),
        dyn.ActionParams(1.0, 0.0), 0,
    )
    assert blocks_evaluated == [1]


def _count_derivatives(monkeypatch) -> dict:
    """Record the random normal fields drawn, every covariant derivative
    taken (its field and its result), and every Laplacian and connection
    variation evaluated, as the lists of one dict."""
    from stringlab import geometry

    seen = {"fields": [], "derivatives": [], "laplacians": [], "connections": []}

    def recording(name, real, record=lambda args, out: args):
        def call(*args, **kwargs):
            out = real(*args, **kwargs)
            seen[name].append(record(args, out))
            return out
        return call

    monkeypatch.setattr(dfm, "random_normal_components", recording(
        "fields", dfm.random_normal_components, lambda args, out: out))
    gradient = recording("derivatives", geometry.covariant_gradient,
                         lambda args, out: (args[1], out))
    monkeypatch.setattr(geometry, "covariant_gradient", gradient)
    monkeypatch.setattr(dyn, "covariant_gradient", gradient)
    monkeypatch.setattr(dyn, "normal_laplacian", recording("laplacians", dyn.normal_laplacian))
    monkeypatch.setattr(dyn, "vary_connection", recording("connections", dyn.vary_connection))
    return seen


def _taken(seen, field) -> list:
    """The results of every covariant derivative taken of ``field``."""
    return [out for f, out in seen["derivatives"] if f is field]


def test_linearize_differentiates_its_field_once(monkeypatch):
    """A default linearize run takes grad phi, grad grad phi, lap phi and
    the connection variation once each: both evaluators, at both betas,
    and both potentials read the same arrays."""
    seen = _count_derivatives(monkeypatch)
    run_linearize(
        pulsating_circular_string(radius=1.0), WorldsheetGrid(65, 32, 0.1, 0.9),
        dyn.ActionParams(1.0, 0.0), 0,
    )
    [phi] = seen["fields"]
    [grad] = _taken(seen, phi)
    assert len(_taken(seen, grad)) == 1
    assert len(seen["laplacians"]) == 1
    assert len(seen["connections"]) == 1


def test_self_adjoint_takes_one_normal_gradient_per_field(monkeypatch, pulsating):
    seen = _count_derivatives(monkeypatch)
    experiments.run_self_adjoint(
        pulsating, WorldsheetGrid(65, 32, 0.1, 0.9), dyn.ActionParams(1.0, 0.0), 0
    )
    assert [len(_taken(seen, phi)) for phi in seen["fields"]] == [1, 1]


@pytest.mark.parametrize("solution", ["pulsating", "spinning", "rotating"])
def test_kept_derivatives_equal_a_fresh_geometrys(request, solution):
    """What a geometry keeps of a field is, bit for bit, what a fresh build
    of the same embedding computes: with a nonzero normal connection
    (spinning) and with masked fold points (rotating).  A second field of
    the same shape gets its own derivatives."""
    sol = request.getfixturevalue(solution)
    geo = request.getfixturevalue(f"{solution}_geo")
    fresh = sol.geometry(geo.grid)
    phi1, phi2 = (dfm.random_normal_components(geo.grid, geo.codim, seed=s) for s in (11, 12))
    for phi in (phi1, phi2):
        d = dfm.DeformationField.normal_only(phi)
        kept = [normal_gradient(geo, phi).values, *dyn._phi_derivatives(geo, phi),
                dyn._connection_variation(geo, d)]
        assert normal_gradient(geo, phi) is normal_gradient(geo, phi)
        assert dyn._connection_variation(geo, d) is kept[-1]
        again = [covariant_gradient(fresh, phi).values, *dyn._phi_derivatives(fresh, phi),
                 dyn.vary_connection(fresh, d).values]
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(kept, again))
    assert not np.array_equal(normal_gradient(geo, phi1).values, normal_gradient(geo, phi2).values)


def test_linearization_matches_fd(pulsating_geo):
    geo = pulsating_geo
    inner = interior(geo)
    phi = dfm.random_normal_components(geo.grid, geo.codim, seed=3)
    params = [dyn.ActionParams(1.0, beta) for beta in (0.0, 0.3)]
    fds = dyn.linearized_fd_oracle(geo, phi, params, eps=1e-4)
    for p, fd in zip(params, fds):
        lin, scale = dyn.linearized_residual_string(geo, phi, p)
        assert masked_max_abs(lin.values - fd.values, inner) / scale <= 1e-4


def test_fd_oracle_list_matches_single_calls(pulsating_geo):
    geo = pulsating_geo
    phi = dfm.random_normal_components(geo.grid, geo.codim, seed=3)
    p0, p1 = dyn.ActionParams(1.0, 0.0), dyn.ActionParams(1.0, 0.3)
    both = dyn.linearized_fd_oracle(geo, phi, [p0, p1])
    singles = dyn.linearized_fd_oracle(geo, phi, [p0]) + dyn.linearized_fd_oracle(geo, phi, [p1])
    assert len(both) == 2
    for pair, single in zip(both, singles):
        assert np.array_equal(pair.values, single.values)


def test_eom_residual_builds_no_operator_coefficients(pulsating_geo):
    geo = build_geometry(pulsating_geo.embedding)
    p = dyn.ActionParams(1.0, 0.3)
    res = dyn.eom_residual(geo, p)
    assert "linearized_coeffs" not in geo.cache
    # the same K^{ab i} as the operator's coefficients: identical residual
    c = dyn.operator_coefficients(geo)
    gb_term = np.einsum("...ab,...abi->...i", geo.einstein.values, c.k_upup)
    expected = 1.0 * geo.K_mean.values + 2.0 * 0.3 * gb_term
    assert np.array_equal(res.values, expected)


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
