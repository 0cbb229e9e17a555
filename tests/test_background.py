import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stringlab.background import (
    BackgroundError,
    BackgroundSpacetime,
    minkowski,
    riemann_slots,
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


def _diagonal_metric(dim: int, time_sign, off_diagonal=lambda pts: 0.0):
    """A metric evaluator: diag(time_sign(pts), 1, ..., 1), plus
    ``off_diagonal(pts)`` at [0, 1] alone (not at [1, 0])."""
    def metric(pts):
        g = np.broadcast_to(np.eye(dim), pts.shape[:-1] + (dim, dim)).copy()
        g[..., 0, 0] = time_sign(pts)
        g[..., 0, 1] += off_diagonal(pts)
        return g
    return metric


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_sample_check_sees_both_signs_of_each_coordinate(dim):
    """The sampled points reach the negative side of x^1 and of x^2: a
    metric Lorentzian only where x^1 > 0, and one non-symmetric only where
    x^2 < 0, are rejected; the same metric with neither defect passes."""
    zeros3 = lambda pts: np.zeros(pts.shape[:-1] + (dim,) * 3)
    zeros4 = lambda pts: np.zeros(pts.shape[:-1] + (dim,) * 4)
    lorentzian = lambda pts: -np.ones(pts.shape[:-1])
    half_lorentzian = _diagonal_metric(dim, lambda pts: np.where(pts[..., 1] > 0, -1.0, 1.0))
    with pytest.raises(BackgroundError, match="not Lorentzian"):
        BackgroundSpacetime(dim, half_lorentzian, zeros3, zeros4)
    half_symmetric = _diagonal_metric(dim, lorentzian,
                                      lambda pts: np.where(pts[..., 2] < 0, 0.1, 0.0))
    with pytest.raises(BackgroundError, match="not symmetric"):
        BackgroundSpacetime(dim, half_symmetric, zeros3, zeros4)
    BackgroundSpacetime(dim, _diagonal_metric(dim, lorentzian), zeros3, zeros4)


def test_validating_configs_loads_no_random_module():
    """Validating the nine readme benchmark configs in a fresh interpreter
    loads ``numpy.random`` only if importing numpy alone already does."""
    root = Path(__file__).resolve().parents[1]
    child = (
        "import sys, numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "import stringlab.cli as cli\n"
        "from workloads import raw_configs\n"
        "for raw in raw_configs('readme', 0).values():\n"
        "    cli.ExperimentConfig.from_dict(raw)\n"
        "print(before, 'numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before


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


def riemann_contract(bg, tangents, normals, gamma_inv, points):
    """Tangent-traced Riemann coupling M^i_j = gamma^ab R(n_j, e_a, e_b, n^i):
    the slots of :func:`riemann_slots` traced as the linearized operator
    traces them."""
    slots = riemann_slots(bg, tangents, normals, points)
    return np.einsum("...ab,...abij->...ij", gamma_inv.values, slots.values)


def test_riemann_contract_flat_is_zero():
    grid, e, n, gi, x = _flat_sheet_frames(4)
    m = riemann_contract(minkowski(4), e, n, gi, x)
    assert np.abs(m).max() == 0.0


def test_riemann_contract_constant_curvature():
    # space-form tensor R_abcd = k (g_ac g_bd - g_ad g_bc) contracted with
    # orthonormal frames in the stated slot order gives -k * D * delta^i_j
    grid, e, n, gi, x = _flat_sheet_frames(4)
    m = riemann_contract(synthetic_constant_curvature(4, 1.0), e, n, gi, x)
    expected = -2.0 * np.eye(2)
    assert np.abs(m - expected).max() <= 1e-12
    m0 = riemann_contract(synthetic_constant_curvature(4, 0.0), e, n, gi, x)
    assert np.abs(m0).max() == 0.0


def test_riemann_contract_rotation_covariance():
    grid, e, n, gi, x = _flat_sheet_frames(4)
    bg = synthetic_constant_curvature(4, 0.7)
    rng = np.random.default_rng(0)
    theta = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    from stringlab.grid import Field

    n_rot = Field(grid, np.einsum("ij,...jm->...im", rot, n.values), n.indices)
    m = riemann_contract(bg, e, n, gi, x)
    m_rot = riemann_contract(bg, e, n_rot, gi, x)
    back = np.einsum("ik,...kl,jl->...ij", rot, m, rot)
    assert np.abs(m_rot - back).max() <= 1e-10
