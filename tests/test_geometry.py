import dataclasses
import itertools

import numpy as np
import pytest

from conftest import grid_axes_innermost, interior
from stringlab.background import BackgroundSpacetime, minkowski
from stringlab.dynamics import (
    ActionParams,
    current_coefficients,
    max_eom_residual,
    operator_coefficients,
)
from stringlab.geometry import (
    Embedding,
    DEGENERACY_TOL,
    SEED_SKIP_TOL,
    GeometryError,
    _levi_civita_dual,
    _orient_frame,
    _orthonormal_normal_frame,
    build_geometry,
    covariant_gradient,
    fill_masked_along_sigma,
    gauss_scalar_curvature,
    intrinsic_geometry,
    normal_gradient,
    normal_laplacian,
    normal_laplacian_double_trace,
    raise_index,
)
from stringlab.grid import (
    NORMAL,
    SPACETIME,
    WORLDSHEET_LOWER,
    WORLDSHEET_UPPER,
    Field,
    GridError,
    Mask,
    WorldsheetGrid,
    dilate,
    gradient,
    grid_full,
    masked_max_abs,
)
from stringlab.solutions import _degenerate_rows, jacobi_from_family, make_solution
from stringlab.symplectic import symplectic_form


@pytest.fixture(scope="module")
def cylinder_geo():
    grid = WorldsheetGrid(33, 32, 0.0, 1.0)
    tt, ss = grid.meshgrid()
    x = np.stack([tt, np.cos(ss), np.sin(ss), np.zeros_like(tt)], axis=-1)
    return build_geometry(Embedding(minkowski(4), Field(grid, x, (SPACETIME,))))


def test_cylinder_metric_and_frames(cylinder_geo):
    geo = cylinder_geo
    act = geo.mask.active
    flat = np.array([[-1.0, 0.0], [0.0, 1.0]])
    assert masked_max_abs(geo.gamma.values - flat, act) <= 1e-12
    # normal frame: outward radial plus the spare axis, smooth around the circle
    _, ss = geo.grid.meshgrid()
    radial = np.stack([np.zeros_like(ss), np.cos(ss), np.sin(ss), np.zeros_like(ss)], axis=-1)
    assert np.abs(geo.n.values[..., 0, :] - radial).max() <= 1e-12
    assert np.abs(geo.n.values[..., 1, 3] - 1.0).max() <= 1e-12


def test_cylinder_curvatures(cylinder_geo):
    geo = cylinder_geo
    act = geo.mask.active
    # circle curving away from the outward normal: K_ss = +1 in this convention
    assert masked_max_abs(geo.K.values[..., 1, 1, 0] - 1.0, act) <= 1e-10
    assert masked_max_abs(geo.K.values[..., 0, 0, :], act) <= 1e-10
    assert masked_max_abs(geo.K_mean.values[..., 0] - 1.0, act) <= 1e-10
    # intrinsically flat: R = 0, G = 0
    assert masked_max_abs(geo.scalar.values, act) <= 1e-10
    assert masked_max_abs(geo.einstein.values, act) <= 1e-10


def test_euclidean_embedding_rejected():
    grid = WorldsheetGrid(9, 8, 0.0, 1.0)
    tt, ss = grid.meshgrid()
    # both directions spacelike
    x = np.stack([np.zeros_like(tt), tt, np.cos(ss), np.sin(ss)], axis=-1)
    with pytest.raises(GeometryError):
        build_geometry(Embedding(minkowski(4), Field(grid, x, (SPACETIME,))))


def test_nonperiodic_chart_rejected():
    # a straight segment sampled on the sigma circle is not a closed string
    grid = WorldsheetGrid(9, 16, 0.0, 1.0)
    tt, ss = grid.meshgrid()
    x = np.stack([tt, ss, np.zeros_like(tt), np.zeros_like(tt)], axis=-1)
    with pytest.raises(GeometryError, match="periodic"):
        build_geometry(Embedding(minkowski(4), Field(grid, x, (SPACETIME,))))


def test_pulsating_analytic_geometry(pulsating_geo):
    geo = pulsating_geo
    act = geo.mask.active
    tt, _ = geo.grid.meshgrid()
    conf = np.cos(tt) ** 2
    assert masked_max_abs(geo.gamma.values[..., 0, 0] + conf, act) <= 1e-9
    assert masked_max_abs(geo.gamma.values[..., 1, 1] - conf, act) <= 1e-9
    assert masked_max_abs(geo.gamma.values[..., 0, 1], act) <= 1e-9
    assert masked_max_abs(geo.vol.values - conf, act) <= 1e-9
    # on shell: mean curvature at the discretization floor
    assert masked_max_abs(geo.K_mean.values, act) <= 1e-6
    # scalar curvature of the breathing metric: -2 / cos^4
    r_exact = -2.0 / np.cos(tt) ** 4
    rel = masked_max_abs(geo.scalar.values - r_exact, act) / np.abs(r_exact).max()
    assert rel <= 1e-5


def test_einstein_tensor_vanishes(pulsating_geo, rotating_geo):
    for geo in (pulsating_geo, rotating_geo):
        assert masked_max_abs(geo.einstein.values, geo.mask.active) <= 1e-6


def test_einstein_tensor_measures_the_discrete_defect():
    """G vanishes identically in two dimensions, so the G a build stores is
    the discrete chain's metric-compatibility defect: above roundoff on
    pulsating 129x32 (1.85e-10) and falling as tau is refined.  A chain
    reduced to the one lowered component R_{tau sigma tau sigma} would make
    Ricci proportional to gamma and G exactly 0, and fail here."""
    sol = make_solution("pulsating_circular_string", {})
    defects = []
    for n_tau in (65, 129, 257):
        geo = intrinsic_geometry(sol.embedding(WorldsheetGrid(n_tau, 32, 0.1, 0.9)))
        defects.append(masked_max_abs(geo.einstein.values, geo.mask.active))
    assert defects[1] > 1e-11
    assert defects[0] > defects[1] > defects[2]


def test_gauss_relation_pins_sign(pulsating_geo, rotating_geo):
    for geo in (pulsating_geo, rotating_geo):
        gap = masked_max_abs(
            gauss_scalar_curvature(geo).values - geo.scalar.values, geo.mask.active
        )
        assert gap <= 5e-6


def test_metric_inverse_identity(pulsating_geo):
    geo = pulsating_geo
    ident = np.einsum("...ab,...bc->...ac", geo.gamma_inv.values, geo.gamma.values)
    assert masked_max_abs(ident - np.eye(2), geo.mask.active) <= 1e-10


def test_frame_orthonormality(pulsating_geo, spinning_geo):
    for geo in (pulsating_geo, spinning_geo):
        act = geo.mask.active
        ndotn = np.einsum("...im,...jm->...ij", geo.n_low, geo.n.values)
        assert masked_max_abs(ndotn - np.eye(geo.codim), act) <= 1e-9
        ndote = np.einsum("...im,...am->...ia", geo.n_low, geo.e.values)
        assert masked_max_abs(ndote, act) <= 1e-9


def test_frame_continuity(pulsating_geo, rotating_geo, spinning_geo):
    # orientation continuation: no sign flips between adjacent active points
    for geo in (pulsating_geo, rotating_geo, spinning_geo):
        act = geo.mask.active
        n = geo.n.values
        for slot in range(geo.codim):
            dots = np.einsum("tsm,tsm->ts", n[:, :, slot], np.roll(n[:, :, slot], -1, axis=1))
            ok = act & np.roll(act, -1, axis=1)
            assert dots[ok].min() > 0.0


def test_rotating_fold_masking(rotating_geo):
    geo = rotating_geo
    half = geo.grid.n_sigma // 2
    detected_cols = set(np.argwhere(geo.detected)[:, 1].tolist())
    assert {0, half}.issubset(detected_cols)
    # declared mask covers everything the runtime scan found
    assert not (geo.detected & geo.embedding.mask.active & geo.mask.active).any()
    assert not geo.mask.active[:, 0].any()
    assert not geo.mask.active[:, half].any()


def _fill_masked_reference(values, active):
    """Point-by-point form of fill_masked_along_sigma: the reference."""
    if active.all():
        return values
    nt, ns = active.shape
    out = values.copy()
    flat = out.reshape(nt, ns, -1)
    for t in range(nt):
        row_act = active[t]
        if row_act.all() or not row_act.any():
            continue
        idx = np.nonzero(row_act)[0]
        for s in np.nonzero(~row_act)[0]:
            right = idx[np.searchsorted(idx, s) % len(idx)]
            left = idx[np.searchsorted(idx, s) - 1]
            span = (right - left) % ns
            wl = ((right - s) % ns) / span if span else 0.5
            flat[t, s] = wl * flat[t, left] + (1.0 - wl) * flat[t, right]
    return out


@pytest.mark.parametrize("seed,masked_share", [(0, 0.2), (1, 0.5), (2, 0.8)])
def test_fill_masked_matches_pointwise_reference(seed, masked_share):
    rng = np.random.default_rng(seed)
    nt, ns = 12, 16
    active = rng.random((nt, ns)) >= masked_share
    active[0] = True                       # fully active row
    active[1] = False                      # no active point
    active[2] = False
    active[2, 5] = True                    # one active point
    active[3] = True
    active[3, [0, 1, ns - 2, ns - 1]] = False  # gap wrapping through sigma = 0
    values = rng.normal(size=(nt, ns, 2, 3))
    filled = fill_masked_along_sigma(values, active)
    assert np.array_equal(filled, _fill_masked_reference(values, active))
    assert np.array_equal(filled[active], values[active])
    assert np.array_equal(filled[2], np.broadcast_to(values[2, 5], (ns, 2, 3)))


def _orient_frame_reference(normal, active):
    """Point-by-point form of the orientation walk: the reference."""
    nt, ns, _ = normal.shape
    if not active.any():
        return
    s0 = int(np.argwhere(active)[0][1])
    for t in range(nt):
        ref = normal[t, s0].copy()
        for off in range(1, ns):
            s = (s0 + off) % ns
            if active[t, s]:
                if np.dot(ref, normal[t, s]) < 0:
                    normal[t, s] = -normal[t, s]
                ref = normal[t, s].copy()


@pytest.mark.parametrize("seed", range(8))
def test_orient_frame_matches_pointwise_reference(seed):
    """Seeds 0-5 mask random points and the whole first row, so the walks
    start at the column of the first active point, on a later row; seed 6
    masks none, and seed 7 masks columns 0, 1 and 4, so the rows start at
    column 2 and wrap."""
    rng = np.random.default_rng(seed)
    nt, ns, dim = 9, 7, 3
    # a smooth normal with random sign flips, so the walks have work to do
    normal = rng.normal(size=dim) + 0.3 * rng.normal(size=(nt, ns, dim))
    normal *= rng.choice([-1.0, 1.0], size=(nt, ns, 1))
    if seed < 6:
        active = rng.random((nt, ns)) >= 0.3
        active[0] = False                       # the first active point is not on row 0
        active[4, 2] = False                    # a gap in column 2
        normal[~active & (rng.random((nt, ns)) < 0.5)] = np.nan  # unfilled masked points
        normal[5, 3] = 0.0                      # a zero dot restarts the walk
    else:
        active = np.ones((nt, ns), dtype=bool)
        if seed == 7:
            active[:, [0, 1, 4]] = False        # the rows start at column 2 and wrap
            active[6, 5] = False
            normal[~active] = np.nan
    expected = normal.copy()
    _orient_frame_reference(expected, active)
    _orient_frame(normal, active)
    assert np.array_equal(normal, expected, equal_nan=True)
    assert np.array_equal(np.signbit(normal), np.signbit(expected))


def _levi_civita_symbol(dim):
    """eps with eps_{01...} = +1, from the parities of the permutations."""
    eps = np.zeros((dim,) * dim)
    for perm in itertools.permutations(range(dim)):
        inversions = sum(perm[i] > perm[j] for i in range(dim) for j in range(i + 1, dim))
        eps[perm] = (-1.0) ** inversions
    return eps


@pytest.mark.parametrize("dim", [3, 4])
def test_levi_civita_dual_matches_the_tensor_contraction(dim):
    """The cofactor expansion of the frame's dual equals the contraction
    with the full Levi-Civita symbol, built from permutation parities."""
    vectors = np.random.default_rng(5).standard_normal((dim - 1, 7, 5, dim))
    subscripts = {3: "anr,...n,...r->...a", 4: "anrs,...n,...r,...s->...a"}[dim]
    reference = np.einsum(subscripts, _levi_civita_symbol(dim), *vectors)
    got = _levi_civita_dual(*vectors)
    assert np.abs(got - reference).max() <= 1e-14 * np.abs(reference).max()


def _spinning_analytic_frame(tt, ss, a=1.0):
    """A smooth analytic normal frame of the spinning string: the first
    normal is the left-mover acceleration projected off the (null) tangent
    pair, the second its Levi-Civita dual against the tangents (orthogonal
    to all three by construction).  A reference for the frame that a build
    reads off the tangents, and a seed that is not the grid's frame."""
    eta = np.array([-1.0, 1.0, 1.0, 1.0])
    u, v = tt + ss, tt - ss
    zero, one = np.zeros_like(tt), np.ones_like(tt)
    xl1 = a * np.stack([one, -np.sin(u), np.cos(u), zero], axis=-1)
    xr1 = a * np.stack([one, zero, -np.sin(v), np.cos(v)], axis=-1)
    xl2 = a * np.stack([zero, -np.cos(u), -np.sin(u), zero], axis=-1)

    def dot(p, q):
        return np.einsum("...m,...m->...", p * eta, q)

    cross = dot(xl1, xr1)  # = -a^2 (1 + cos u sin v), nonzero off cusps
    w1 = xl2 - (dot(xl2, xr1) / cross)[..., None] * xl1
    n1 = w1 / np.sqrt(dot(w1, w1))[..., None]
    n2 = eta * _levi_civita_dual(xl1 + xr1, xl1 - xr1, n1)  # index raised
    n2 = n2 / np.sqrt(np.abs(dot(n2, n2)))[..., None]
    return np.stack([n1, n2], axis=-2)


@pytest.mark.parametrize("window,bound", [((0.1, 0.9), 1.5e-10), ((2.0, 2.7), 5e-8)])
def test_spinning_frame_is_minus_the_analytic_frame(spinning, window, bound):
    """The spinning frame read off the tangents is minus the analytic frame
    projected onto the discrete normal space (a build seeded with it): on
    active points of 129x64, 7.5e-11 on tau in [0.1, 0.9], and 2.3e-8 on
    [2.0, 2.7], beside the cusp rows.  The bounds are twice those (2.2
    times on the cusp window)."""
    grid = WorldsheetGrid(129, 64, *window)
    geo = spinning.geometry(grid)
    seeded = build_geometry(geo.embedding, frame=_spinning_analytic_frame(*grid.meshgrid()))
    assert masked_max_abs(geo.n.values + seeded.n.values, geo.mask.active) <= bound


def _unit_reference(g, v):
    norm2 = np.einsum("...mn,...m,...n->...", g, v, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        return v / np.sqrt(np.abs(norm2))[..., None]


def _dual_reference(*vectors):
    """eps_{a b ...} v1^b ... with the symbol of permutation parities,
    contracted with one vector at a time, the last first, each sum over the
    index in order: the reference."""
    dim = len(vectors) + 1
    eps = np.broadcast_to(_levi_civita_symbol(dim), vectors[0].shape[:-1] + (dim,) * dim)
    for v in reversed(vectors):
        spread = (1,) * (eps.ndim - v.ndim)
        eps = sum(eps[..., s] * v[..., s].reshape(v.shape[:-1] + spread) for s in range(dim))
    return eps


def _gram_schmidt_reference(g, e, e_low, gamma_inv, mask, seeds):
    """Gram-Schmidt as first written, each projection from scratch: the
    reference.  ``seeds`` holds each slot's seed and its dots with the
    tangents."""
    nt, ns, dim = e.shape[0], e.shape[1], e.shape[-1]
    floor = SEED_SKIP_TOL * SEED_SKIP_TOL
    normals = grid_full((nt, ns, len(seeds), dim), np.nan)

    def project(v, e_dot_v, slot):
        v = v - np.einsum("...a,...am->...m", np.einsum("...ab,...b->...a", gamma_inv, e_dot_v), e)
        for m in range(slot):
            nm = normals[..., m, :]
            v = v - nm * np.einsum("...m,...m->...", np.einsum("...mn,...n->...m", g, nm), v)[..., None]
        return v, np.einsum("...mn,...m,...n->...", g, v, v)

    for slot, (seed, e_dot_seed) in enumerate(seeds):
        v, norm2 = project(seed, e_dot_seed, slot)
        ok = norm2 > floor
        with np.errstate(invalid="ignore"):
            unit = v / np.sqrt(np.maximum(norm2, floor))[..., None]
        normals[ok, slot, :] = unit[ok]
        assert not (mask.active & ~ok).any()
    for slot in range(len(seeds)):
        v = normals[..., slot, :]
        v, norm2 = project(v, np.einsum("...am,...m->...a", e_low, v), slot)
        with np.errstate(divide="ignore", invalid="ignore"):
            normals[..., slot, :] = v / np.sqrt(np.abs(norm2))[..., None]
    return normals


def _normal_frame_reference(g, e, e_low, gamma_inv, mask, frame=None):
    """The frame rule written from scratch: the reference."""
    nt, ns, dim = e.shape[0], e.shape[1], e.shape[-1]
    if frame is not None:
        seeds = [(frame[..., k, :], np.einsum("...am,...m->...a", e_low, frame[..., k, :]))
                 for k in range(dim - 2)]
        return _gram_schmidt_reference(g, e, e_low, gamma_inv, mask, seeds)
    tangents = (e_low[..., 0, :], e_low[..., 1, :])
    if dim == 3:
        normal = _unit_reference(g, _dual_reference(*tangents))
        _orient_frame_reference(normal, mask.active)
        return normal[..., None, :]
    last = grid_full((nt, ns, dim), 0.0) + np.eye(dim)[-1]
    n2 = _gram_schmidt_reference(g, e, e_low, gamma_inv, mask, [(last, e_low[..., :, -1])])[..., 0, :]
    n1 = _unit_reference(g, _dual_reference(*tangents, np.einsum("...mn,...n->...m", g, n2)))
    return np.stack([n1, n2], axis=2)


@pytest.mark.parametrize(
    "name,params,grid,seeded",
    [
        ("pulsating_circular_string", {}, (129, 32, 0.1, 0.9), False),
        ("pulsating_circular_string", {"dim": 3}, (129, 32, 0.1, 0.9), False),
        ("spinning_two_plane_string", {}, (129, 64, 0.1, 0.9), False),
        ("rotating_folded_string", {}, (129, 32, 0.1, 0.9), False),
        ("pulsating_circular_string", {}, (129, 32, 0.1, 0.9), True),
        ("pulsating_circular_string", {}, (1025, 16, 0.5, 1.6), False),
        ("pulsating_circular_string", {}, (129, 32, 1.5708, 2.3708), False),
    ],
    ids=["pulsating", "pulsating-dim3", "spinning", "folded", "seeded-rebuild",
         "collapse-1025", "window"],
)
def test_normal_frame_matches_reference_bit_for_bit(name, params, grid, seeded):
    """The frame each build uses, against the rule computed from scratch:
    the same values to the bit, seeded and unseeded, and the same signs of
    zero when seeded (the reference's dual sums terms of exact zeros, whose
    signs the cofactors do not form).  The folded string's fold columns
    start its walks on column 2, so they wrap.  Every point gets a finite
    frame, masked ones too, also the masked rows of the collapse and of
    the window."""
    sol = make_solution(name, params)
    grid = WorldsheetGrid(*grid)
    intrinsic = intrinsic_geometry(sol.embedding(grid))
    frame = build_geometry(sol.embedding(grid)).n.values if seeded else None
    args = (intrinsic.g, intrinsic.e.values, intrinsic.e_low, intrinsic.gamma_inv.values,
            intrinsic.mask)
    normals = _orthonormal_normal_frame(*args, frame=frame)
    expected = _normal_frame_reference(*args, frame=frame)
    assert np.array_equal(normals, expected, equal_nan=True)
    if seeded:
        assert np.array_equal(np.signbit(normals), np.signbit(expected))
    assert np.isfinite(normals).all()


def test_gram_schmidt_breakdown_names_the_first_point():
    """A seed along a tangent everywhere leaves nothing after projection."""
    geo = make_solution("pulsating_circular_string", {}).geometry(WorldsheetGrid(65, 32, 0.1, 0.9))
    along_tau = np.repeat(geo.e.values[:, :, :1, :], 2, axis=2)
    message = ("Gram-Schmidt breakdown: every seed is parallel to the tangent span "
               "at grid point (tau_index=0, sigma_index=0)")
    with pytest.raises(GeometryError) as failure:
        build_geometry(geo.embedding, frame=along_tau)
    assert str(failure.value) == message


def test_last_axis_in_the_tangent_plane_names_the_point():
    """The codimension-2 rule takes the last coordinate axis off the
    tangents.  The pulsating string in the (x, z) plane has e_sigma along z
    at sigma = 0, an active point on every row, and the build names the
    first."""
    grid = WorldsheetGrid(33, 16, 0.1, 0.9)
    tt, ss = grid.meshgrid()
    x = np.stack([tt, np.cos(tt) * np.cos(ss), np.zeros_like(tt), np.cos(tt) * np.sin(ss)], axis=-1)
    with pytest.raises(GeometryError) as failure:
        build_geometry(Embedding(minkowski(4), Field(grid, x, (SPACETIME,))))
    assert str(failure.value) == ("the last coordinate axis lies in the tangent plane "
                                  "at grid point (tau_index=0, sigma_index=0)")


def test_codimension_three_has_no_frame_rule():
    """The pulsating string padded into five dimensions has three normals,
    and no rule reads them off the tangents: the frame stage fails typed,
    after an intrinsic stage that builds."""
    grid = WorldsheetGrid(33, 16, 0.1, 0.9)
    tt, ss = grid.meshgrid()
    x = np.stack([tt, np.cos(tt) * np.cos(ss), np.cos(tt) * np.sin(ss)]
                 + [np.zeros_like(tt)] * 2, axis=-1)
    emb = Embedding(minkowski(5), Field(grid, x, (SPACETIME,)))
    intrinsic_geometry(emb)
    with pytest.raises(GeometryError, match="no normal frame rule for codimension 3; supply a frame"):
        build_geometry(emb)


def _dilate_reference(points):
    """Point-by-point 3x3 dilation, clipped in tau and wrapping in sigma:
    the reference."""
    nt, ns = points.shape
    out = np.zeros_like(points)
    for it, isig in np.argwhere(points):
        out[max(0, it - 1):min(nt, it + 2), np.arange(isig - 1, isig + 2) % ns] = True
    return out


def test_dilation_matches_pointwise_reference(rotating_geo):
    degenerate = np.abs(rotating_geo.gamma_det) < DEGENERACY_TOL
    assert degenerate.any()
    grid = rotating_geo.grid
    assert np.array_equal(dilate(degenerate, grid), _dilate_reference(degenerate))
    assert np.array_equal(rotating_geo.detected, dilate(degenerate, grid))
    points = np.random.default_rng(0).random((12, 16)) < 0.1
    points[0, 3] = points[-1, 9] = True    # on both tau edges
    points[5, 0] = points[7, -1] = True    # wrapping through sigma = 0
    grid = WorldsheetGrid(12, 16, 0.0, 1.0)
    assert np.array_equal(dilate(points, grid), _dilate_reference(points))


def test_rotating_analytic_geometry(rotating_geo):
    geo = rotating_geo
    act = geo.mask.active
    tt, ss = geo.grid.meshgrid()
    conf = np.sin(ss) ** 2
    assert masked_max_abs(geo.gamma.values[..., 1, 1] - conf, act) <= 1e-9
    # the off-diagonal extrinsic curvature of the rotating string is constant
    assert masked_max_abs(np.abs(geo.K.values[..., 0, 1, 0]) - 1.0, act) <= 1e-8
    assert masked_max_abs(geo.K_mean.values, act) <= 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        r_exact = 2.0 / np.sin(ss) ** 4
        rel = np.abs((geo.scalar.values - r_exact) / r_exact)[act].max()
    assert rel <= 1e-7


def test_codimension_one_normal_connection_vanishes(rotating_geo):
    assert np.abs(rotating_geo.normal_conn.values).max() == 0.0


def test_normal_gradient_constant_field(pulsating_geo):
    geo = pulsating_geo
    phi = Field(geo.grid, np.ones(geo.grid.shape + (geo.codim,)), (NORMAL,))
    grad = normal_gradient(geo, phi)
    # the pulsating frame does not twist, so a constant field has zero gradient
    assert masked_max_abs(grad.values, geo.mask.active) <= 1e-9


def test_normal_gradient_checks_before_the_kept_gradients(pulsating_geo):
    """A field of the wrong codimension or index fails with the same error
    on every way in, whatever the geometry already keeps, and is not kept."""
    geo = pulsating_geo
    phi = Field(geo.grid, np.ones(geo.grid.shape + (geo.codim,)), (NORMAL,))
    normal_gradient(geo, phi)
    kept = len(geo.cache)
    wide = Field(geo.grid, np.ones(geo.grid.shape + (geo.codim + 1,)), (NORMAL,))
    tangent = Field(geo.grid, np.ones(geo.grid.shape + (2,)), (WORLDSHEET_UPPER,))
    for evaluate in (normal_gradient, normal_laplacian):
        with pytest.raises(GridError, match="normal field has 3 components, geometry has codim 2"):
            evaluate(geo, wide)
        with pytest.raises(GridError, match=r"expects a pure normal field, got \('A',\)"):
            evaluate(geo, tangent)
    assert len(geo.cache) == kept


def test_flat_laplacian_hand_value(cylinder_geo):
    geo = cylinder_geo
    _, ss = geo.grid.meshgrid()
    phi = Field(geo.grid, np.stack([np.sin(ss), 0 * ss], axis=-1), (NORMAL,))
    lap = normal_laplacian(geo, phi)
    assert masked_max_abs(lap.values[..., 0] + np.sin(ss), interior(geo)) <= 1e-9
    zero = Field(geo.grid, np.zeros(geo.grid.shape + (2,)), (NORMAL,))
    assert np.abs(normal_laplacian(geo, zero).values).max() == 0.0


def test_conformal_laplacian_identity(pulsating_geo):
    geo = pulsating_geo
    tt, ss = geo.grid.meshgrid()
    f = tt**3 - tt
    g = np.cos(2 * ss)
    phi = Field(geo.grid, np.stack([f * g, 0 * g], axis=-1), (NORMAL,))
    lap = normal_laplacian(geo, phi)
    expected = (-6 * tt * g + f * (-4 * g)) / np.cos(tt) ** 2
    gap = masked_max_abs(lap.values[..., 0] - expected, interior(geo))
    assert gap / np.abs(expected).max() <= 1e-6


def test_laplacian_forms_agree(pulsating_geo, spinning_geo):
    rng = np.random.default_rng(1)
    for geo in (pulsating_geo, spinning_geo):
        tt, ss = geo.grid.meshgrid()
        vals = np.stack(
            [np.sin(2 * ss) * tt**2 + 0.3 * np.cos(ss), np.cos(3 * ss) + tt], axis=-1
        )
        phi = Field(geo.grid, vals, (NORMAL,))
        a = normal_laplacian(geo, phi)
        b = normal_laplacian_double_trace(geo, phi)
        assert masked_max_abs(a.values - b.values, interior(geo)) <= 1e-8


def test_frame_rotation_gauge_covariance(pulsating, grid129):
    """Rebuilding the geometry in a pointwise-rotated normal frame rotates
    normal components and leaves frame scalars untouched."""
    grid = grid129
    geo = pulsating.geometry(grid)
    tt, ss = grid.meshgrid()
    theta = 0.7 * np.sin(ss) + 0.4 * tt
    c, s = np.cos(theta), np.sin(theta)
    n = geo.n.values
    n_rot = np.stack(
        [c[..., None] * n[:, :, 0] + s[..., None] * n[:, :, 1],
         -s[..., None] * n[:, :, 0] + c[..., None] * n[:, :, 1]],
        axis=2,
    )
    geo_rot = build_geometry(geo.embedding, frame=n_rot)
    act = interior(geo)
    # scalar built from the extrinsic curvature is frame invariant
    kk = np.einsum("...abi,...abi->...",
                   np.einsum("...ac,...bd,...cdi->...abi",
                             geo.gamma_inv.values, geo.gamma_inv.values, geo.K.values),
                   geo.K.values)
    kk_rot = np.einsum("...abi,...abi->...",
                       np.einsum("...ac,...bd,...cdi->...abi",
                                 geo_rot.gamma_inv.values, geo_rot.gamma_inv.values,
                                 geo_rot.K.values),
                       geo_rot.K.values)
    assert masked_max_abs(kk - kk_rot, act) <= 1e-9

    # gradient commutes with the rotation: rotate, differentiate, rotate back
    phi_vals = np.stack([np.sin(ss) * tt, np.cos(2 * ss)], axis=-1)
    phi = Field(grid, phi_vals, (NORMAL,))
    phi_rot = Field(
        grid,
        np.stack([c * phi_vals[..., 0] + s * phi_vals[..., 1],
                  -s * phi_vals[..., 0] + c * phi_vals[..., 1]], axis=-1),
        (NORMAL,),
    )
    g1 = normal_gradient(geo, phi).values
    g2 = normal_gradient(geo_rot, phi_rot).values
    g2_back = np.stack([c[..., None] * g2[..., 0] - s[..., None] * g2[..., 1],
                        s[..., None] * g2[..., 0] + c[..., None] * g2[..., 1]], axis=-1)
    assert masked_max_abs(g1 - g2_back, act) <= 1e-8


def test_covariant_gradient_metric_compatible(pulsating_geo):
    geo = pulsating_geo
    grad_gamma = covariant_gradient(geo, geo.gamma)
    assert masked_max_abs(grad_gamma.values, interior(geo)) <= 1e-7


def test_frame_override_shape_checked(pulsating_geo):
    with pytest.raises(GeometryError):
        build_geometry(pulsating_geo.embedding, frame=np.zeros((4, 4, 2, 4)))


def test_supplied_frame_is_projected(spinning):
    """A supplied frame seeds Gram-Schmidt: at 65 rows the analytic spinning
    frame is further from the discrete normal space than the 1e-9 frame
    checks allow, and the build projects it there."""
    grid = WorldsheetGrid(65, 64, 0.1, 0.9)
    analytic = _spinning_analytic_frame(*grid.meshgrid())
    geo = build_geometry(spinning.embedding(grid), frame=analytic)
    assert masked_max_abs(geo.n.values - analytic, geo.mask.active) <= 1e-8


def test_supplied_frame_is_not_reoriented(pulsating_geo):
    # the orientation pass would turn the flipped seeds back
    flipped = build_geometry(pulsating_geo.embedding, frame=-pulsating_geo.n.values)
    assert masked_max_abs(flipped.n.values + pulsating_geo.n.values, pulsating_geo.mask.active) <= 1e-12


@pytest.mark.parametrize("fixture", ["pulsating_geo", "rotating_geo", "spinning_geo"])
def test_geometry_arrays_are_stored_component_major(fixture, request):
    """Every grid array of a bundle, of the current's coefficients and of
    the operator's keeps the grid axes innermost: one stray points-first array would bring back
    the slow contractions without failing any other test."""
    geo = request.getfixturevalue(fixture)
    arrays = {"embedding.x": geo.embedding.x.values}
    for f in dataclasses.fields(geo):
        value = getattr(geo, f.name)
        arr = value.values if isinstance(value, Field) else value
        if isinstance(arr, np.ndarray):
            arrays[f.name] = arr
    for name, arr in current_coefficients(geo)._asdict().items():
        arrays[f"current_coefficients.{name}"] = arr
    for name, arr in vars(operator_coefficients(geo)).items():
        if isinstance(arr, np.ndarray):
            arrays[f"coefficients.{name}"] = arr
    assert len(arrays) >= 30
    assert all(arr.shape[:2] == geo.grid.shape for arr in arrays.values())
    assert [name for name, arr in arrays.items() if not grid_axes_innermost(arr)] == []
    filled = fill_masked_along_sigma(geo.K.values, geo.mask.active)
    assert grid_axes_innermost(filled)


@pytest.mark.parametrize("fixture", ["pulsating_geo", "rotating_geo", "spinning_geo"])
def test_intrinsic_stage_is_a_prefix_of_the_full_build(fixture, request):
    """The intrinsic stage alone returns, bit for bit, every field it shares
    with a full build: the frame stage changes none of them."""
    geo = request.getfixturevalue(fixture)
    intrinsic = intrinsic_geometry(geo.embedding)
    names = [f.name for f in dataclasses.fields(intrinsic)]
    assert names == [f.name for f in dataclasses.fields(geo)][: len(names)]
    for name in names:
        mine, full = getattr(intrinsic, name), getattr(geo, name)
        if isinstance(mine, Field):
            assert mine.indices == full.indices
            mine, full = mine.values, full.values
        elif isinstance(mine, Mask):
            mine, full = mine.active, full.active
        if isinstance(mine, np.ndarray):
            assert np.array_equal(mine, full, equal_nan=True), name
        else:
            assert mine is full or mine == full, name


@pytest.mark.parametrize("fixture", ["pulsating_geo", "rotating_geo", "spinning_geo"])
def test_stored_k_upup_is_k_raised_twice(fixture, request):
    """The frame stage raises K^{ab i} once, bit for bit as raise_index does,
    for every reader of the bundle."""
    geo = request.getfixturevalue(fixture)
    ref = raise_index(geo, raise_index(geo, geo.K, 0), 1)
    assert geo.K_upup.indices == ref.indices == (WORLDSHEET_UPPER, WORLDSHEET_UPPER, NORMAL)
    assert np.array_equal(geo.K_upup.values, ref.values, equal_nan=True)


# Minkowski space in the coordinates u with x^1 = u^1 + a sin u^2: a real
# spacetime (Riemann zero, metric J^T eta J with J = dx/du) whose Christoffel
# symbols do not vanish, Gamma^1_22 = -a sin u^2; nothing else is nonzero
CURVILINEAR_A = 0.3


def _curvilinear_minkowski() -> BackgroundSpacetime:
    a = CURVILINEAR_A
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])

    def metric(u):
        jac = np.broadcast_to(np.eye(4), u.shape[:-1] + (4, 4)).copy()
        jac[..., 1, 2] = a * np.cos(u[..., 2])
        return np.einsum("...am,ab,...bn->...mn", jac, eta, jac)

    def christoffel(u):
        out = np.zeros(u.shape[:-1] + (4, 4, 4))
        out[..., 1, 2, 2] = -a * np.sin(u[..., 2])
        return out

    def riemann(u):
        return np.zeros(u.shape[:-1] + (4, 4, 4, 4))

    return BackgroundSpacetime(4, metric, christoffel, riemann, name="curvilinear_minkowski4")


def _in_curvilinear_chart(sol):
    """The same string in the u coordinates: the chart through u = x(u)^-1,
    and every family velocity through J^-1, which subtracts a cos(x^2) v^2
    from v^1."""
    a = CURVILINEAR_A

    def chart(tt, ss):
        u = np.array(sol.chart(tt, ss))
        u[..., 1] -= a * np.sin(u[..., 2])
        return u

    def pushed(field_fn):
        def fn(tt, ss):
            v = np.array(field_fn(tt, ss))
            cos_x2 = np.cos(sol.chart(tt, ss)[..., 2]).reshape(tt.shape + (1,) * (v.ndim - 3))
            v[..., 1] -= a * cos_x2 * v[..., 2]
            return v
        return fn

    return dataclasses.replace(
        sol,
        background=_curvilinear_minkowski(),
        chart=chart,
        family={name: pushed(fn) for name, fn in sol.family.items()},
    )


@pytest.mark.parametrize(
    "name,n_sigma", [("pulsating_circular_string", 32), ("spinning_two_plane_string", 64)]
)
def test_curvilinear_minkowski_build_matches_cartesian(name, n_sigma):
    """The background's Christoffel terms enter the extrinsic curvature and
    the normal connection; in a flat background written in curved
    coordinates, the string solves the equations of motion, satisfies the
    flat Gauss relation, and has the Cartesian symplectic form."""
    grid = WorldsheetGrid(129, n_sigma, 0.1, 0.9)
    cartesian = make_solution(name, {})
    curved = _in_curvilinear_chart(cartesian)
    assert not curved.background.flat
    p = ActionParams(1.0, 0.3)
    geo = curved.geometry(grid)
    act = geo.mask.active
    assert max_eom_residual(geo, p) <= 5e-5
    assert masked_max_abs(gauss_scalar_curvature(geo).values - geo.scalar.values, act) <= 5e-6
    pair = ("translation_t", cartesian.modulus)
    row = grid.n_tau // 2
    omegas = [
        symplectic_form(g, *(jacobi_from_family(s, g, which) for which in pair), p, row)
        for s, g in ((cartesian, cartesian.geometry(grid)), (curved, geo))
    ]
    assert omegas[1] == pytest.approx(omegas[0], rel=1e-7)


def _curvature_chain_reference(intrinsic):
    """The curvature chain as first written, from the stored induced metric,
    adjugate and determinant, with the Riemann numerator as six separate
    einsums: the reference."""
    grid, gamma, adj = intrinsic.grid, intrinsic.gamma.values, intrinsic.adjugate
    d = -intrinsic.gamma_det
    dgam = gradient(intrinsic.gamma).values
    sym = (
        np.einsum("...bdc->...dbc", dgam)
        + np.einsum("...cdb->...dbc", dgam)
        - dgam
    )
    p_num = -0.5 * np.einsum("...ad,...dbc->...abc", adj, sym)
    dp = gradient(Field(grid, p_num, (WORLDSHEET_UPPER, WORLDSHEET_LOWER, WORLDSHEET_LOWER))).values
    dd_det = gradient(Field(grid, d)).values
    num = (
        np.einsum("...cadb,...->...abcd", dp, d)
        - np.einsum("...adb,...c->...abcd", p_num, dd_det)
        - np.einsum("...dacb,...->...abcd", dp, d)
        + np.einsum("...acb,...d->...abcd", p_num, dd_det)
        + np.einsum("...ace,...edb->...abcd", p_num, p_num)
        - np.einsum("...ade,...ecb->...abcd", p_num, p_num)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        riem = num / (d * d)[..., None, None, None, None]
    ricci = np.einsum("...abad->...bd", riem)
    with np.errstate(invalid="ignore"):
        scal = np.einsum("...bd,...bd->...", intrinsic.gamma_inv.values, ricci)
    einstein = ricci - 0.5 * gamma * scal[..., None, None]
    return {"riem": riem, "ricci": ricci, "scalar": scal, "einstein": einstein}


@pytest.mark.parametrize(
    "name,params,grid,curvilinear",
    [
        ("pulsating_circular_string", {}, (129, 32, 0.1, 0.9), False),
        ("pulsating_circular_string", {"dim": 3}, (129, 32, 0.1, 0.9), False),
        ("spinning_two_plane_string", {}, (129, 64, 0.1, 0.9), False),
        ("rotating_folded_string", {}, (129, 32, 0.1, 0.9), False),
        ("pulsating_circular_string", {}, (1025, 16, 0.5, 1.6), False),
        ("pulsating_circular_string", {}, (129, 32, 0.1, 0.9), True),
    ],
    ids=["pulsating", "pulsating-dim3", "spinning", "folded", "collapse-1025", "curvilinear"],
)
def test_curvature_chain_matches_reference_bit_for_bit(name, params, grid, curvilinear):
    """R^a_{b tau sigma}, the one Riemann block a build forms, against the
    six-einsum Riemann numerator: the same bits and signs of zero.  The
    rest of R is that block's exact antisymmetry in the last pair, at every
    point, where the reference carries roundoff residues; so R, Ricci and
    the scalar stay within 2e-15 of the reference's active maximum of each,
    G within 2e-15 of Ricci's, and each is stored grid-innermost.  On the
    collapse's masked rows |det gamma| is about 1e-15, not 0, so R reaches
    1e15 there but stays finite.  The curvilinear chart runs the chain on a
    curved induced metric in a flat background."""
    sol = make_solution(name, params)
    if curvilinear:
        sol = _in_curvilinear_chart(sol)
    intrinsic = intrinsic_geometry(sol.embedding(WorldsheetGrid(*grid)))
    expected = _curvature_chain_reference(intrinsic)
    riem = intrinsic.riem.values
    block, reference_block = riem[..., 0, 1], expected["riem"][..., 0, 1]
    assert np.array_equal(block, reference_block, equal_nan=True)
    assert np.array_equal(np.signbit(block), np.signbit(reference_block))
    assert np.array_equal(riem[..., 1, 0], -block, equal_nan=True)
    assert (riem[..., 0, 0] == 0).all() and (riem[..., 1, 1] == 0).all()
    active = intrinsic.mask.active
    for field, reference in expected.items():
        values = getattr(intrinsic, field).values
        scale = masked_max_abs(expected["ricci" if field == "einstein" else field], active)
        assert masked_max_abs(values - reference, active) <= 2e-15 * scale, field
        assert grid_axes_innermost(values), field


def test_errors_on_a_band_name_full_grid_points():
    """A band's rows keep their full-grid numbers in typed errors: the
    first non-Lorentzian point of a chart, a non-finite field value and the
    active-point floor of a mask."""
    grid = WorldsheetGrid(129, 16, 0.1, 0.9)

    def chart(tt, ss):  # the tau tangent turns spacelike where sin(tau) > 0.5: row 68 on
        return np.stack([0.5 * tt, np.cos(tt) * np.cos(ss), np.cos(tt) * np.sin(ss)], axis=-1)

    def build(g):
        return build_geometry(Embedding(minkowski(3), Field(g, chart(*g.meshgrid()), (SPACETIME,))))

    band = grid.bands([70])
    assert band.first_rows[0] == 64
    with pytest.raises(GeometryError) as on_grid:
        build(grid)
    with pytest.raises(GeometryError) as on_band:
        build(band)
    assert "not Lorentzian" in str(on_grid.value)
    assert "(tau_index=68, sigma_index=0)" in str(on_grid.value)
    assert str(on_band.value) == str(on_grid.value)

    values = np.zeros(band.shape)
    values[2, 3] = np.nan
    with pytest.raises(GridError, match=r"f is not finite at grid point \(tau=66, sigma=3\)"):
        Field(band, values).check_finite(name="f")
    with pytest.raises(GridError, match="0% of points active on tau rows 64 to 76 "):
        Mask(band, np.zeros(band.shape, dtype=bool))

    # the same on the second block of a stack of two bands
    stack = grid.bands([20, 70])
    assert stack.first_rows == (14, 64)
    with pytest.raises(GeometryError) as on_stack:
        build(stack)
    assert str(on_stack.value) == str(on_grid.value)
    values = np.zeros(stack.shape)
    values[13 + 2, 3] = np.nan
    with pytest.raises(GridError, match=r"f is not finite at grid point \(tau=66, sigma=3\)"):
        Field(stack, values).check_finite(name="f")
    with pytest.raises(GridError, match="0% of points active on tau rows 14 to 26, 64 to 76 "):
        Mask(stack, np.zeros(stack.shape, dtype=bool))
    # a row's band is its own block: a masked point on row 71 rejects row
    # 66 but not row 64, although row 71 is within BAND_RADIUS of both
    overlapping = grid.bands([64, 66])
    active = np.ones(overlapping.shape, dtype=bool)
    active[overlapping.local_row(66) + 5, 7] = False
    mask = Mask(overlapping, active)
    assert mask.slice_row(64) == 6
    with pytest.raises(GridError, match="the stencils of tau row 66 reach the masked region: "
                                        "its band on tau rows 60 to 72 is not all active"):
        mask.slice_row(66)


def test_degeneracy_does_not_cross_a_seam():
    """A degenerate point on the last row of a block, or a declared
    degenerate row there, masks the rows around it in its own block only:
    the first row of the next block stays active, and the other way round."""
    grid = WorldsheetGrid(129, 16, 0.1, 0.9)
    stack = grid.bands([20, 70])
    h = stack.block_rows
    for row, neighbour in ((h - 1, h), (h, h - 1)):  # either side of the seam
        points = np.zeros(stack.shape, dtype=bool)
        points[row, 5] = True
        grown = dilate(points, stack)
        assert grown[row, 4:7].all() and not grown[neighbour].any()
        full_row = grid.tau[stack.full_row(row)]
        declared = _degenerate_rows(lambda tt, ss: np.where(tt == full_row, 0.0, 1.0))(stack)
        active = Mask(stack, ~dilate(declared, stack)).active
        assert not active[row].any() and active[neighbour].all()
        assert (~active).sum() == 2 * stack.n_sigma  # the row and its neighbour in the block


def test_collapse_geometry_builds_without_warnings(pulsating):
    """Through the pulsating collapse at tau = pi/2 the frame's second
    Gram-Schmidt pass meets zero norms at masked points, and at 1025 rows
    the tau stencil of the frame's derivative meets inf - inf on the masked
    rows; under the suite's warnings-as-errors the build must still finish."""
    geo = pulsating.geometry(WorldsheetGrid(257, 16, 0.5, 1.6))
    assert not geo.mask.active[246:253].any() and geo.mask.active[:246].all()
    geo = pulsating.geometry(WorldsheetGrid(1025, 16, 0.5, 1.6))
    assert not geo.mask.active[987:1008].any() and geo.mask.active[:987].all()
    assert geo.mask.active[1008:].all()
