import numpy as np
import pytest

from stringlab.background import (
    BackgroundError,
    BackgroundSpacetime,
    minkowski,
    riemann_contract,
    synthetic_constant_curvature,
)
from stringlab.grid import WorldsheetGrid


def test_minkowski_values():
    bg = minkowski(3)
    pts = np.zeros((4, 3))
    g = bg.metric_at(pts)
    assert np.allclose(g[0], np.diag([-1.0, 1.0, 1.0]))
    assert np.abs(bg.riemann_at(pts)).max() == 0.0
    assert np.abs(bg.christoffel_at(pts)).max() == 0.0
    assert minkowski(4).metric_at(np.zeros((1, 4)))[0, 3, 3] == 1.0


def test_minkowski_needs_normal_directions():
    with pytest.raises(BackgroundError):
        minkowski(2)


def test_evaluator_validation_catches_bad_metric():
    def bad_metric(pts):
        g = np.zeros(pts.shape[:-1] + (3, 3))
        g[..., 0, 0] = 1.0  # not Lorentzian
        g[..., 1, 1] = 1.0
        g[..., 2, 2] = 1.0
        return g

    zeros3 = lambda pts: np.zeros(pts.shape[:-1] + (3, 3, 3))
    zeros4 = lambda pts: np.zeros(pts.shape[:-1] + (3, 3, 3, 3))
    with pytest.raises(BackgroundError):
        BackgroundSpacetime(3, bad_metric, zeros3, zeros4)


def test_evaluator_validation_catches_bad_riemann():
    eta = np.diag([-1.0, 1.0, 1.0])

    def metric(pts):
        return np.broadcast_to(eta, pts.shape[:-1] + (3, 3)).copy()

    def bad_riemann(pts):
        r = np.zeros(pts.shape[:-1] + (3, 3, 3, 3))
        r[..., 0, 1, 0, 1] = 1.0  # no antisymmetry partners
        return r

    zeros3 = lambda pts: np.zeros(pts.shape[:-1] + (3, 3, 3))
    with pytest.raises(BackgroundError):
        BackgroundSpacetime(3, metric, zeros3, bad_riemann)


def _flat_sheet_frames(dim: int):
    """Tangents/normals of the trivial flat sheet X = (tau, sigma-line, 0...),
    and its points."""
    grid = WorldsheetGrid(9, 8, 0.0, 1.0)
    tt, ss = grid.meshgrid()
    x = np.zeros(grid.shape + (dim,))
    x[..., 0], x[..., 1] = tt, ss
    e = np.zeros(grid.shape + (2, dim))
    e[..., 0, 0] = 1.0  # e_tau = time direction
    e[..., 1, 1] = 1.0  # e_sigma = x direction
    n = np.zeros(grid.shape + (dim - 2, dim))
    for k in range(dim - 2):
        n[..., k, 2 + k] = 1.0
    gi = np.zeros(grid.shape + (2, 2))
    gi[..., 0, 0] = -1.0
    gi[..., 1, 1] = 1.0
    from stringlab.grid import NORMAL, SPACETIME, WORLDSHEET_LOWER, WORLDSHEET_UPPER, Field

    return (
        grid,
        Field(grid, e, (WORLDSHEET_LOWER, SPACETIME)),
        Field(grid, n, (NORMAL, SPACETIME)),
        Field(grid, gi, (WORLDSHEET_UPPER, WORLDSHEET_UPPER)),
        x,
    )


def test_riemann_contract_flat_is_zero():
    grid, e, n, gi, x = _flat_sheet_frames(4)
    m = riemann_contract(minkowski(4), e, n, gi, x)
    assert np.abs(m.values).max() == 0.0


def test_riemann_contract_constant_curvature():
    # space-form tensor R_abcd = k (g_ac g_bd - g_ad g_bc) contracted with
    # orthonormal frames in the stated slot order gives -k * D * delta^i_j
    grid, e, n, gi, x = _flat_sheet_frames(4)
    m = riemann_contract(synthetic_constant_curvature(4, 1.0), e, n, gi, x)
    expected = -2.0 * np.eye(2)
    assert np.abs(m.values - expected).max() <= 1e-12
    m0 = riemann_contract(synthetic_constant_curvature(4, 0.0), e, n, gi, x)
    assert np.abs(m0.values).max() == 0.0


def test_riemann_contract_rotation_covariance():
    grid, e, n, gi, x = _flat_sheet_frames(4)
    bg = synthetic_constant_curvature(4, 0.7)
    rng = np.random.default_rng(0)
    theta = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    from stringlab.grid import Field

    n_rot = Field(grid, np.einsum("ij,...jm->...im", rot, n.values), n.indices)
    m = riemann_contract(bg, e, n, gi, x).values
    m_rot = riemann_contract(bg, e, n_rot, gi, x).values
    back = np.einsum("ik,...kl,jl->...ij", rot, m, rot)
    assert np.abs(m_rot - back).max() <= 1e-10
