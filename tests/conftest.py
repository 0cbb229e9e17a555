import numpy as np
import pytest

from stringlab.grid import WorldsheetGrid
from stringlab.solutions import (
    pulsating_circular_string,
    rotating_folded_string,
    spinning_two_plane_string,
)

ACCEPTANCE_GRID = dict(n_tau=129, n_sigma=32, tau_min=0.1, tau_max=0.9)


def grid_axes_innermost(values: np.ndarray) -> bool:
    """True when each component of a (n_tau, n_sigma, *dims) array is one
    contiguous (n_tau, n_sigma) block in memory: the Field storage rule."""
    item = values.itemsize
    return values.strides[1] == item and values.strides[0] == values.shape[1] * item


def interior(geo, rows: int = 2) -> np.ndarray:
    act = geo.mask.active.copy()
    act[:rows] = False
    act[-rows:] = False
    return act


@pytest.fixture(scope="session")
def pulsating():
    return pulsating_circular_string(1.0)


@pytest.fixture(scope="session")
def rotating():
    return rotating_folded_string(1.0)


@pytest.fixture(scope="session")
def spinning():
    return spinning_two_plane_string(1.0)


@pytest.fixture(scope="session")
def grid129():
    return WorldsheetGrid(**ACCEPTANCE_GRID)


@pytest.fixture(scope="session")
def pulsating_geo(pulsating, grid129):
    return pulsating.geometry(grid129)


@pytest.fixture(scope="session")
def rotating_geo(rotating, grid129):
    return rotating.geometry(grid129)


@pytest.fixture(scope="session")
def spinning_geo(spinning):
    # the normal frame read off the tangents twists, and it divides by the
    # tangents' product 1 + cos(tau+sigma) sin(tau-sigma): rational-trig
    # content that needs the doubled sigma resolution to drop its spectral
    # tail below tolerances
    return spinning_two_plane_string(1.0).geometry(
        WorldsheetGrid(n_tau=129, n_sigma=64, tau_min=0.1, tau_max=0.9)
    )
