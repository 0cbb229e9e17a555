"""stringlab: a numerical laboratory for closed-string worldsheets.

Builds the full geometry of discretized embeddings (frames, induced metric,
intrinsic and extrinsic curvature, normal-bundle connection), implements the
first-variation calculus of those geometries with brute-force
finite-difference oracles, evaluates the dynamics of the tension +
topological-curvature-term action, and constructs the conserved bilinear
current and symplectic two-form on the space of solutions.

Modules
-------
grid         discretization substrate: grids, labelled fields, stencils,
             quadrature (spectral in sigma, 4th-order stencils in tau)
background   ambient spacetimes: metric/connection/curvature evaluators
geometry     everything derived from an embedding X(tau, sigma)
deformation  first variations of the geometry + finite-difference oracles
dynamics     action, equations of motion, symplectic potential, linearized
             operator (two independently coded evaluators)
symplectic   bilinear conserved current, self-adjointness identity,
             two-form on constant-tau slices, gauge checks
solutions    exact on-shell worldsheets and symmetry-generated solutions of
             the linearized equations
cli          config-driven experiment runner (see ``stringlab --help``)
"""

from .background import BackgroundSpacetime, minkowski
from .deformation import DeformationField
from .dynamics import ActionParams
from .geometry import Embedding, GeometryBundle, build_geometry
from .grid import Field, GridError, Mask, WorldsheetGrid
from .solutions import (
    ExactSolution,
    jacobi_from_family,
    make_solution,
    pulsating_circular_string,
    rotating_folded_string,
    solution_names,
    spinning_two_plane_string,
)

__all__ = [
    "ActionParams",
    "BackgroundSpacetime",
    "DeformationField",
    "Embedding",
    "ExactSolution",
    "Field",
    "GeometryBundle",
    "GridError",
    "Mask",
    "WorldsheetGrid",
    "build_geometry",
    "jacobi_from_family",
    "make_solution",
    "minkowski",
    "pulsating_circular_string",
    "rotating_folded_string",
    "solution_names",
    "spinning_two_plane_string",
]

__version__ = "0.1.0"
