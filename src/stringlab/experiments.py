"""Experiment drivers behind the command-line front end.

Each driver composes the library modules into one named experiment, returns
a results dictionary plus the tolerance table it asserted against, and a
pass flag.  Everything is deterministic for fixed inputs and seed.

One rule turns results and tolerances into the pass flag of every kind but
``convergence``, :func:`failing_checks`: ``tolerances[NAME]`` bounds |x|
for every number x under a key NAME of the results, at any depth,
``tolerances[NAME_min]`` bounds them from below, and a NaN misses every
bound.  The kind passes when no number misses.  ``convergence`` passes when
every refinement pair converges (:func:`refinement_verdict`): its observed
order is at least ``min_order``, or both its errors are finite and the
smaller is at the ``roundoff_floor``.  That is a rule on pairs of results,
not a bound on each.

A driver takes the library objects of one run, ``(sol, grid, action,
seed)``: the exact solution, its grid, the couplings and the random seed.
A kind with a ``beta`` or ``betas`` option sets the topological coupling of
``action`` to each β and keeps its tension.  The keyword-only parameters
are the options of the kind, with their defaults; a default of ``None``
depends on the grid or the solution and is resolved there.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import deformation as dfm
from . import dynamics as dyn
from . import symplectic as sym
from .geometry import gauss_scalar_curvature, intrinsic_geometry
from .grid import BAND_RADIUS, TAU_ORDER, TAU_REACH, Field, masked_max_abs
from .solutions import SolutionError, jacobi_from_family

INTERIOR_ROWS = TAU_REACH  # tau rows per boundary excluded from stencil-sensitive norms
# the least order a refinement pair converges at: the tau stencil's, within a half
MIN_ORDER = TAU_ORDER - 0.5
# a Jacobi field no larger than this on active points has no normal part
# (roundoff of a tangential direction), and a check paired with it is vacuous
NO_NORMAL_PART = 1e-10
Outcome = tuple[dict, dict, bool]  # results, tolerance table, pass flag


def interior_active(geo, rows: int = INTERIOR_ROWS) -> np.ndarray:
    act = geo.mask.active.copy()
    act[:rows] = False
    act[-rows:] = False
    return act


def _jacobi_pair(sol, geo, jacobi) -> tuple[Field, Field]:
    """The Jacobi fields of the two named family directions; a direction
    whose field has no normal part raises a SolutionError naming it."""
    fields = []
    for which in jacobi:
        phi = jacobi_from_family(sol, geo, which)
        size = masked_max_abs(phi.values, geo.mask.active)
        if size <= NO_NORMAL_PART:
            raise SolutionError(
                f"Jacobi direction {which!r} has no normal part: max |phi| on active "
                f"points is {size:.3g} <= {NO_NORMAL_PART:g}"
            )
        fields.append(phi)
    return fields[0], fields[1]


def run_geometry(sol, grid, action, seed, *, csv=None) -> Outcome:
    geo = sol.geometry(grid)
    act = geo.mask.active
    gauss_gap = masked_max_abs(
        gauss_scalar_curvature(geo).values - geo.scalar.values, act
    )
    results = {
        "max_abs_einstein": masked_max_abs(geo.einstein.values, act),
        "max_abs_mean_curvature": masked_max_abs(geo.K_mean.values, act),
        "gauss_relation_gap": gauss_gap,
        "scalar_curvature_range": [
            float(np.nanmin(np.where(act, geo.scalar.values, np.nan))),
            float(np.nanmax(np.where(act, geo.scalar.values, np.nan))),
        ],
        "active_fraction": float(act.mean()),
    }
    tol = {"max_abs_einstein": 1e-6, "gauss_relation_gap": 5e-6}
    if csv:
        _dump_csv(csv, geo, geo.einstein, "einstein")
    return results, tol, not failing_checks(results, tol)


def _dump_csv(path: str, geo, f: Field, name: str) -> None:
    """Write ``f`` at the active points of ``geo``, one row per point:
    tau, sigma and every component, named ``name[i]...``."""
    vals = f.values
    dims = vals.shape[2:]
    headers = ["tau", "sigma"]
    idx = [()] if not dims else list(np.ndindex(*dims))
    headers += [name + "".join(f"[{i}]" for i in comp) for comp in idx]
    tt, ss = geo.grid.meshgrid()
    lines = [",".join(headers)]
    for it, isig in np.argwhere(geo.mask.active):
        row = [repr(float(tt[it, isig])), repr(float(ss[it, isig]))]
        row += [repr(float(vals[(it, isig) + comp])) for comp in idx]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_deform_check(sol, grid, action, seed, *, epsilon=1e-4, amplitude=0.5,
                     seeds=(0, 1, 2)) -> Outcome:
    geo = sol.geometry(grid)
    interior = interior_active(geo)
    worst: dict[str, float] = {}
    for offset in seeds:
        d0 = dfm.random_deformation(grid, geo.codim, seed=int(offset) + seed)
        d = dfm.DeformationField(
            Field(grid, amplitude * d0.phi_normal.values, d0.phi_normal.indices),
            Field(grid, amplitude * d0.phi_tangent.values, d0.phi_tangent.indices),
        )
        dg, dginv = dfm.vary_metric(geo, d)
        dconn = dfm.vary_connection(geo, d)
        dric, dscal = dfm.vary_ricci_scalar(geo, dconn, dginv)
        checks = {
            "metric": dg,
            "inverse_metric": dginv,
            "volume": dfm.vary_volume(geo, d),
            "connection": dconn,
            "ricci": dric,
            "scalar_curvature": dscal,
        }
        oracles = dfm.fd_oracle(geo, d, eps=epsilon)
        for name, analytic in checks.items():
            oracle = oracles[name]
            scale = 1.0 + max(
                masked_max_abs(analytic.values, interior),
                masked_max_abs(oracle.values, interior),
            )
            rel = masked_max_abs(analytic.values - oracle.values, interior) / scale
            worst[name] = float(np.maximum(worst.get(name, 0.0), rel))  # NaN propagates
    results = {"max_relative_discrepancy": worst}
    tol = {name: 1e-6 for name in worst}
    return results, tol, not failing_checks(results, tol)


def run_eom(sol, grid, action, seed, *, betas=(0.0, 0.5, 1.0), csv=None) -> Outcome:
    geo = sol.geometry(grid)
    residuals = {
        f"beta={beta}": dyn.max_eom_residual(geo, replace(action, gb_coupling=float(beta)))
        for beta in betas
    }
    values = np.array(list(residuals.values()))  # NaN propagates, as it does not through max()
    spread = float(np.max(np.abs(values - values[0])))
    results = {"max_residual": float(np.max(values)), "residuals": residuals,
               "beta_spread": spread}
    tol = {"max_residual": 5e-5 * action.tension, "beta_spread": 1e-6}
    if csv:
        _dump_csv(csv, geo, dyn.eom_residual(geo, action), "eom_residual")
    return results, tol, not failing_checks(results, tol)


def run_linearize(sol, grid, action, seed, *, betas=(0.0, 0.3), epsilon=1e-4) -> Outcome:
    geo = sol.geometry(grid)
    interior = interior_active(geo)
    phi = dfm.random_normal_components(grid, geo.codim, seed=seed)
    d = dfm.DeformationField.normal_only(phi)
    results: dict = {"fd_match": {}, "evaluator_agreement": {}, "einstein_blocks": {},
                     "potential_agreement": {}}
    params = [replace(action, gb_coupling=float(beta)) for beta in betas]
    fds = dyn.linearized_fd_oracle(geo, phi, params, eps=epsilon)
    for beta, p, fd in zip(betas, params, fds):
        string_form, scale = dyn.linearized_residual_string(geo, phi, p)
        rel_fd = masked_max_abs(string_form.values - fd.values, interior) / scale
        full, blocks = dyn.linearized_residual(geo, phi, p)
        rel_shared = masked_max_abs(
            full.values - blocks.values - string_form.values, geo.mask.active
        ) / scale
        rel_blocks = masked_max_abs(blocks.values, geo.mask.active) / scale
        psi_g = dyn.symplectic_potential(geo, d, p)
        psi_s = dyn.symplectic_potential_string(geo, d, p)
        psi_scale = 1.0 + masked_max_abs(psi_g.values, geo.mask.active)
        rel_psi = masked_max_abs(psi_g.values - psi_s.values, geo.mask.active) / psi_scale
        key = f"beta={beta}"
        results["fd_match"][key] = rel_fd
        results["evaluator_agreement"][key] = rel_shared
        results["einstein_blocks"][key] = rel_blocks
        results["potential_agreement"][key] = rel_psi
    tol = {"fd_match": 1e-4, "evaluator_agreement": 1e-10,
           "einstein_blocks": 1e-6, "potential_agreement": 1e-6}
    return results, tol, not failing_checks(results, tol)


def run_self_adjoint(sol, grid, action, seed, *, beta=0.3) -> Outcome:
    geo = sol.geometry(grid)
    interior = interior_active(geo)
    p = replace(action, gb_coupling=float(beta))
    phi1 = dfm.random_normal_components(grid, geo.codim, seed=seed)
    phi2 = dfm.random_normal_components(grid, geo.codim, seed=seed + 1)
    res, scale, direct = sym.self_adjointness_residual(geo, phi1, phi2, p)
    rel = masked_max_abs(res.values, interior) / scale
    summed = sym.sum_of_pieces(geo, phi1, phi2, p)
    jscale = max(masked_max_abs(direct.values, geo.mask.active), 1e-30)
    rel_sum = masked_max_abs(direct.values - summed.values, geo.mask.active) / jscale
    results = {"identity_residual": rel, "simplification_gap": rel_sum, "scale": scale}
    tol = {"identity_residual": 1e-4, "simplification_gap": 1e-9}
    return results, tol, not failing_checks(results, tol)


def run_conserve(sol, grid, action, seed, *, jacobi=("translation_x", "translation_t"),
                 beta=0.0) -> Outcome:
    geo = sol.geometry(grid)
    interior = interior_active(geo)
    p = replace(action, gb_coupling=float(beta))
    f1, f2 = _jacobi_pair(sol, geo, jacobi)
    div = sym.conservation_residual(geo, f1, f2, p)
    worst = masked_max_abs(div.values, interior)
    scale = _conservation_scale(geo, f1, f2, p)
    rnd = dfm.random_normal_components(grid, geo.codim, seed=seed + 7)
    div_bad = sym.conservation_residual(geo, f1, rnd, p)
    control = masked_max_abs(div_bad.values, interior)
    results = {"max_divergence": worst, "relative": worst / scale,
               "negative_control": control, "control_ratio": control / max(worst, 1e-30)}
    tol = {"relative": 5e-4, "control_ratio_min": 10.0}
    return results, tol, not failing_checks(results, tol)


def _conservation_scale(geo, f1, f2, p) -> float:
    kk = masked_max_abs(dyn.current_coefficients(geo).kk, geo.mask.active)
    n1 = max(1.0, masked_max_abs(f1.values, geo.mask.active))
    n2 = max(1.0, masked_max_abs(f2.values, geo.mask.active))
    return (p.tension + abs(p.gb_coupling) * kk) * n1 * n2


def _slices(sol, grid, rows, jacobi) -> tuple:
    """The geometry of the bands of the tau rows, stacked in one grid
    (``grid.bands``), and the Jacobi pair on it (by default time
    translation and the family's modulus).  Every row is first checked on
    the declared mask of the whole grid, so a band that meets the masked
    region fails by the name of its row, not by the active-point floor of
    the bands' own mask."""
    declared = sol.mask(grid)
    for row in rows:
        declared.slice_row(row)
    geo = sol.geometry(grid.bands(rows))
    return (geo, *_jacobi_pair(sol, geo, jacobi or ("translation_t", sol.modulus)))


def run_omega(sol, grid, action, seed, *, jacobi=None, betas=(0.0, 0.25, 0.5),
              slices=None) -> Outcome:
    rows = slices or (grid.n_tau // 4, grid.n_tau // 2, (3 * grid.n_tau) // 4)
    params = [replace(action, gb_coupling=float(beta)) for beta in betas]
    geo, f1, f2 = _slices(sol, grid, rows, jacobi)
    omega = sym.two_form_table(geo, [f1, f2], params, rows)
    table = {f"beta={beta}": {f"row={r}": float(w) for r, w in zip(rows, omega[k, :, 0, 1])}
             for k, beta in enumerate(betas)}
    mid = len(rows) // 2
    base_vals = omega[0, :, 0, 1].tolist()
    base = base_vals[mid]
    slice_spread = float(np.ptp(base_vals))  # NaN propagates, as it does not through max()
    rel_spread = sym.relative_change(slice_spread, base)
    antisym_zero = float(omega[0, mid, 0, 0])
    delta = {f"beta={b}": abs(float(omega[k, mid, 0, 1]) - base) for k, b in enumerate(betas)}
    results = {"omega": table, "slice_relative_spread": rel_spread,
               "self_pairing": antisym_zero, "beta_shift": delta}
    tol = {"slice_relative_spread": 1e-3, "self_pairing": 0.0}
    return results, tol, not failing_checks(results, tol)


def run_gauge_check(sol, grid, action, seed, *, jacobi=None, beta=0.0, epsilon=1e-2,
                    slice=None) -> Outcome:
    p = replace(action, gb_coupling=float(beta))
    row = grid.n_tau // 2 if slice is None else int(slice)
    geo, f1, f2 = _slices(sol, grid, [row], jacobi)
    shift = 3 * grid.h_sigma
    smooth, rigid = sym.gauge_invariance_check(
        geo, f1, f2, p, [lambda s: s + epsilon * np.sin(s), lambda s: s + shift], row
    )
    results = {"smooth_reparam_relative_change": smooth, "rigid_shift_relative_change": rigid}
    tol = {"smooth_reparam_relative_change": 1e-3, "rigid_shift_relative_change": 1e-10}
    return results, tol, not failing_checks(results, tol)


# roundoff floors per convergence quantity: below these the error carries no
# truncation signal (inverse-determinant conditioning and chained stencils
# amplify machine epsilon, and the amplification grows under refinement)
_CONVERGENCE_FLOORS = {"einstein": 2.5e-8, "eom": 1e-7, "self-adjoint": 1e-9}


def run_convergence(sol, grid, action, seed, *, quantity="einstein",
                    levels=(65, 129, 257)) -> Outcome:
    errors = []
    for n_tau in levels:
        lvl_grid = replace(grid, n_tau=n_tau)
        if quantity == "einstein":  # an intrinsic field: no normal frame is built
            geo = intrinsic_geometry(sol.embedding(lvl_grid))
            err = masked_max_abs(geo.einstein.values, geo.mask.active)
        elif quantity == "eom":
            geo = sol.geometry(lvl_grid)
            err = masked_max_abs(dyn.eom_residual(geo, action).values, geo.mask.active)
        else:
            geo = sol.geometry(lvl_grid)
            phi1 = dfm.random_normal_components(lvl_grid, geo.codim, seed=seed)
            phi2 = dfm.random_normal_components(lvl_grid, geo.codim, seed=seed + 1)
            res, scale, _ = sym.self_adjointness_residual(geo, phi1, phi2, action)
            # the reach of three nested tau stencils from each edge
            err = masked_max_abs(res.values, interior_active(geo, rows=BAND_RADIUS)) / scale
        errors.append(err)
    floor = _CONVERGENCE_FLOORS[quantity]
    orders, passed = refinement_verdict(levels, errors, floor)
    results = {"levels": list(levels), "errors": errors, "observed_orders": orders,
               "at_roundoff_floor": all(e <= floor for e in errors)}
    tol = {"min_order": MIN_ORDER, "roundoff_floor": floor}
    return results, tol, passed


def refinement_verdict(levels, errors, floor: float) -> tuple[list[float], bool]:
    """The convergence order of each consecutive pair of nested tau grids,
    NaN where it is undefined (an error that is not finite and positive),
    and whether every pair converges: its order is at least MIN_ORDER, or both
    errors are finite and the smaller one is at the roundoff ``floor``.  A
    NaN error fails both pairs it is in."""
    orders, pair_ok = [], []
    for n1, n2, e1, e2 in zip(levels, levels[1:], errors, errors[1:]):
        finite = np.isfinite([e1, e2]).all()
        defined = finite and min(e1, e2) > 0
        order = float(np.log(e1 / e2) / np.log((n2 - 1) / (n1 - 1))) if defined else np.nan
        orders.append(order)
        pair_ok.append(order >= MIN_ORDER or (finite and min(e1, e2) <= floor))
    return orders, bool(pair_ok) and all(pair_ok)


def failing_checks(results: dict, tolerances: dict) -> list[tuple[str, float | None, float]]:
    """``(path, value, tolerance)`` for every checked number that misses
    its bound, the one verdict rule of every kind but ``convergence``:
    ``tolerances[NAME]`` bounds |x| for every number x under a key NAME of
    ``results``, at any depth, and ``tolerances[NAME_min]`` bounds those
    numbers from below.  A NaN misses every bound, and a tolerance that
    names no result misses with value None (and its own name as path).  A
    path is dotted, with ``[i]`` for a list item; the strings "nan", "inf"
    and "-inf" of a parsed report are the numbers they stand for."""
    numbers = list(_numbers(results))
    out = []
    for key, tol in tolerances.items():
        name = key.removesuffix("_min")
        named = [(path, x) for path, keys, x in numbers if name in keys] or [(key, None)]
        # a NaN compares False, so it misses
        out += [(path, x, tol) for path, x in named
                if x is None or not (abs(x) <= tol if name == key else x >= tol)]
    return out


def _numbers(obj, path: str = "", keys: tuple = ()):
    """``(path, the keys along it, value)`` for every number in ``obj``."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _numbers(val, f"{path}.{key}" if path else key, keys + (key,))
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            yield from _numbers(val, f"{path}[{i}]", keys)
    elif isinstance(obj, (int, float)) or obj in ("nan", "inf", "-inf"):
        yield path, keys, float(obj)


EXPERIMENTS = {
    "geometry": run_geometry,
    "deform-check": run_deform_check,
    "eom": run_eom,
    "linearize": run_linearize,
    "self-adjoint": run_self_adjoint,
    "conserve": run_conserve,
    "omega": run_omega,
    "gauge-check": run_gauge_check,
    "convergence": run_convergence,
}
