import inspect
import re

import numpy as np
import pytest

from conftest import interior
from stringlab import dynamics as dyn
from stringlab import solutions
from stringlab.grid import SPACETIME, Field, WorldsheetGrid, d_sigma, d_tau, masked_max_abs
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
    with pytest.raises(SolutionError, match="amplitude must be positive, got nan"):
        rotating_folded_string(float("nan"))


@pytest.mark.parametrize("name,params,text", [
    ("pulsating_circular_string", {"radius": -1}, "radius must be positive, got -1.0"),
    ("pulsating_circular_string", {"dim": 5}, "dim must be 3 or 4, got 5"),
    ("rotating_folded_string", {"amplitude": 0}, "amplitude must be positive, got 0.0"),
    ("spinning_two_plane_string", {"scale": -2.0}, "scale must be positive, got -2.0"),
])
def test_invalid_parameter_keeps_its_text(name, params, text):
    with pytest.raises(SolutionError, match=f"^{re.escape(text)}$"):
        make_solution(name, params)


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


@pytest.mark.parametrize("name", solution_names())
def test_registry_reads_the_factories(name):
    factory = getattr(solutions, name)
    allowed = tuple(inspect.signature(factory).parameters)
    sol = make_solution(name, {})
    assert sol.name == name
    assert tuple(sol.params) == allowed
    assert make_solution(name, dict(sol.params)).params == sol.params
    with pytest.raises(SolutionError, match=re.escape(f"allowed: {allowed}")):
        make_solution(name, {"bogus": 1.0})


def test_integer_accepted_for_a_float_parameter():
    sol = make_solution("pulsating_circular_string", {"radius": 2, "dim": 3})
    assert sol.params == {"radius": 2.0, "dim": 3}


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
    # and the declared bands are exactly what it detects, at every width
    for n_sigma in (32, 64, 128):
        grid = WorldsheetGrid(grid129.n_tau, n_sigma, grid129.tau_min, grid129.tau_max)
        assert np.array_equal(~rotating.mask(grid).active, rotating.geometry(grid).detected)


def test_spinning_cusp_rows_do_not_depend_on_the_width():
    """The rows declared around the cusp at tau = 3 pi/4 are the same
    whether or not the sigma grid samples sigma = pi/4, where the cusp
    weight takes its minimum over a row (n_sigma a multiple of 8)."""
    spinning = spinning_two_plane_string(1.0)
    rows = {n_sigma: np.flatnonzero(~spinning.mask(WorldsheetGrid(129, n_sigma, 2.0, 2.7)).active
                                    .all(axis=1))
            for n_sigma in (20, 30, 32, 64)}
    assert len(rows[32]) == 39
    for n_sigma, masked in rows.items():
        assert np.array_equal(masked, rows[32]), n_sigma


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


def _sigma_shift_gap(sol, grid):
    """Max gap between the sigma shift and the spectral sigma derivative of
    the chart, relative to 1 + max |X|."""
    x = Field(grid, sol.chart(*grid.meshgrid()), (SPACETIME,))
    gap = np.abs(sol.family_velocity(grid, "sigma_shift").values - d_sigma(x).values).max()
    return gap / (1.0 + np.abs(x.values).max())


@pytest.mark.parametrize("grid", [WorldsheetGrid(129, 32, 0.1, 0.9),
                                  WorldsheetGrid(33, 8, 0.1, 0.9)])
def test_sigma_shift_is_the_chart_sigma_derivative(grid):
    """The complex-step sigma shift equals the chart's spectral sigma
    derivative on every family; on a chart that breaks the analyticity
    rule (abs) it misses by O(1), so this test guards that rule."""
    for name in solution_names():
        assert _sigma_shift_gap(make_solution(name, {}), grid) <= 1e-12, name

    def chart(tt, ss):
        return np.stack([tt, np.abs(np.cos(ss)) * np.cos(tt), np.abs(np.cos(ss)) * np.sin(tt)],
                        axis=-1)

    bent = solutions._family("bent", {"amplitude": 1.0}, chart, 3, "amplitude",
                             lambda g: np.zeros(g.shape, dtype=bool))
    assert _sigma_shift_gap(bent, grid) > 0.1


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


# Literal copies of each family's directions and declared masks (as index
# rectangles) as the factories once wrote them out one by one.  The generated
# directions and masks are pinned to these bit for bit.
def _ref_translations(dim):
    names = ["translation_t", "translation_x", "translation_y", "translation_z"][:dim]
    out = {}
    for mu, name in enumerate(names):
        def vel(tt, ss, _mu=mu):
            v = np.zeros(tt.shape + (dim,))
            v[..., _mu] = 1.0
            return v

        out[name] = vel
    return out


def _ref_rotations(chart, dim):
    planes = [("rotation_xy", 1, 2), ("rotation_yz", 2, 3), ("rotation_xz", 1, 3)]
    out = {}
    for name, i1, i2 in planes:
        if max(i1, i2) >= dim:
            continue

        def vel(tt, ss, _i1=i1, _i2=i2):
            x = chart(tt, ss)
            v = np.zeros_like(x)
            v[..., _i1] = -x[..., _i2]
            v[..., _i2] = x[..., _i1]
            return v

        out[name] = vel
    return out


def _ref_boosts(chart, dim):
    axes = [("boost_x", 1), ("boost_y", 2), ("boost_z", 3)]
    out = {}
    for name, ax in axes:
        if ax >= dim:
            continue

        def vel(tt, ss, _ax=ax):
            x = chart(tt, ss)
            v = np.zeros_like(x)
            v[..., 0] = x[..., _ax]
            v[..., _ax] = x[..., 0]
            return v

        out[name] = vel
    return out


def _ref_pulsating(r, dim, chart):
    def sigma_shift(tt, ss):
        comps = [np.zeros_like(tt), -r * np.cos(tt) * np.sin(ss), r * np.cos(tt) * np.cos(ss)]
        if dim == 4:
            comps.append(np.zeros_like(tt))
        return np.stack(comps, axis=-1)

    def masked_rectangles(grid):
        rects = []
        near = np.abs(np.cos(grid.tau)) < 1e-2
        for it in np.nonzero(near)[0]:
            rects.append((it - 1, it + 1, 0, grid.n_sigma - 1))
        return rects

    family = dict(_ref_translations(dim))
    family.update(_ref_rotations(chart, dim))
    family["radius"] = lambda tt, ss: chart(tt, ss) / r
    family["sigma_shift"] = sigma_shift
    return family, masked_rectangles


def _ref_folded(a, chart):
    def sigma_shift(tt, ss):
        return np.stack(
            [np.zeros_like(tt), -a * np.sin(ss) * np.cos(tt), -a * np.sin(ss) * np.sin(tt)],
            axis=-1,
        )

    def masked_rectangles(grid):
        half = grid.n_sigma // 2
        return [
            (0, grid.n_tau - 1, -1, 1),
            (0, grid.n_tau - 1, half - 1, half + 1),
        ]

    family = dict(_ref_translations(3))
    family.update(_ref_rotations(chart, 3))
    family["amplitude"] = lambda tt, ss: chart(tt, ss) / a
    family["sigma_shift"] = sigma_shift
    return family, masked_rectangles


def _ref_spinning(a, chart):
    def sigma_shift(tt, ss):
        u = tt + ss
        v = tt - ss
        return np.stack(
            [np.zeros_like(tt), -a * np.sin(u), a * np.cos(u) + a * np.sin(v), -a * np.cos(v)],
            axis=-1,
        )

    def masked_rectangles(grid):
        rects = []
        tt, ss = grid.meshgrid()
        weight = 1.0 + np.cos(tt + ss) * np.sin(tt - ss)
        for it in np.nonzero((weight < 1e-2).any(axis=1))[0]:
            rects.append((it - 1, it + 1, 0, grid.n_sigma - 1))
        return rects

    family = dict(_ref_translations(4))
    family.update(_ref_rotations(chart, 4))
    family.update(_ref_boosts(chart, 4))
    family["scale"] = lambda tt, ss: chart(tt, ss) / a
    family["sigma_shift"] = sigma_shift
    return family, masked_rectangles


def _render(grid, rectangles):
    """The active points left by inclusive index rectangles (t0, t1, s0,
    s1): tau clipped to the grid, sigma wrapping around the circle."""
    active = np.ones(grid.shape, dtype=bool)
    for t0, t1, s0, s1 in rectangles:
        active[max(0, t0):t1 + 1, np.arange(s0, s1 + 1) % grid.n_sigma] = False
    return active


def _reference(sol):
    p = sol.params
    if sol.name == "pulsating_circular_string":
        return _ref_pulsating(p["radius"], p["dim"], sol.chart)
    if sol.name == "rotating_folded_string":
        return _ref_folded(p["amplitude"], sol.chart)
    return _ref_spinning(p["scale"], sol.chart)


# (solution, params, tau window, whether the declared mask is not empty:
# folded's fold columns always are declared)
PINNED = [
    ("pulsating_circular_string", {"radius": 1.0}, (0.1, 0.9), False),
    ("pulsating_circular_string", {"radius": 1.7, "dim": 3}, (0.1, 0.9), False),
    ("pulsating_circular_string", {"radius": 1.0}, (1.2, 1.9), True),  # crosses cos tau = 0
    ("pulsating_circular_string", {"radius": 0.6, "dim": 3}, (1.2, 1.9), True),
    ("rotating_folded_string", {"amplitude": 1.0}, (0.1, 0.9), True),
    ("rotating_folded_string", {"amplitude": 2.3}, (0.1, 0.9), True),
    ("spinning_two_plane_string", {"scale": 1.0}, (0.1, 0.9), False),
    ("spinning_two_plane_string", {"scale": 0.8}, (2.0, 2.7), True),  # crosses a cusp row
]


@pytest.mark.parametrize("name,params,window,masked", PINNED)
def test_family_directions_and_masks_are_pinned(name, params, window, masked):
    sol = make_solution(name, params)
    grid = WorldsheetGrid(129, 32, *window)
    tt, ss = grid.meshgrid()
    family, masked_rectangles = _reference(sol)
    assert sol.family_names() == sorted(family)
    for which, vel in family.items():
        assert np.array_equal(sol.family_velocity(grid, which).values, vel(tt, ss)), which
    rects = masked_rectangles(grid)
    assert np.array_equal(sol.mask(grid).active, _render(grid, rects))
    assert bool(rects) == masked
