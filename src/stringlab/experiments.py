"""Experiment drivers behind the command-line front end.

Each driver composes the library modules into one named experiment, returns
a results dictionary plus the tolerance table it asserted against, and a
pass flag.  Everything is deterministic for a fixed config and seed.
"""

from __future__ import annotations

import numpy as np

from . import deformation as dfm
from . import dynamics as dyn
from . import symplectic as sym
from .geometry import gauss_scalar_curvature
from .grid import Field, WorldsheetGrid, masked_max_abs
from .solutions import ExactSolution, jacobi_from_family, make_solution
from .symplectic import symplectic_form

INTERIOR_ROWS = 2  # tau rows per boundary excluded from stencil-sensitive norms


def interior_active(geo, rows: int = INTERIOR_ROWS) -> np.ndarray:
    act = geo.mask.active.copy()
    act[:rows] = False
    act[-rows:] = False
    return act


def _setup(config) -> tuple[ExactSolution, WorldsheetGrid]:
    sol = make_solution(config.solution_name, config.solution_params)
    grid = WorldsheetGrid(**config.grid_kwargs)
    return sol, grid


def run_geometry(config) -> tuple[dict, dict, bool]:
    sol, grid = _setup(config)
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
    passed = (
        results["max_abs_einstein"] <= tol["max_abs_einstein"]
        and results["gauss_relation_gap"] <= tol["gauss_relation_gap"]
    )
    return results, tol, passed


def run_deform_check(config) -> tuple[dict, dict, bool]:
    sol, grid = _setup(config)
    geo = sol.geometry(grid)
    interior = interior_active(geo)
    eps = float(config.options.get("epsilon", 1e-4))
    amp = float(config.options.get("amplitude", 0.5))
    seeds = config.options.get("seeds", [0, 1, 2])
    worst: dict[str, float] = {}
    for seed in seeds:
        d0 = dfm.random_deformation(grid, geo.codim, seed=int(seed) + config.seed)
        d = dfm.DeformationField(
            Field(grid, amp * d0.phi_normal.values, d0.phi_normal.indices),
            Field(grid, amp * d0.phi_tangent.values, d0.phi_tangent.indices),
        )
        dg, dginv = dfm.vary_metric(geo, d)
        dric, dscal = dfm.vary_ricci_scalar(geo, d)
        checks = {
            "metric": dg,
            "inverse_metric": dginv,
            "volume": dfm.vary_volume(geo, d),
            "connection": dfm.vary_connection(geo, d),
            "ricci": dric,
            "scalar_curvature": dscal,
        }
        oracles = dfm.fd_oracle(geo, d, eps=eps)
        for name, analytic in checks.items():
            oracle = oracles[name]
            scale = 1.0 + max(
                masked_max_abs(analytic.values, interior),
                masked_max_abs(oracle.values, interior),
            )
            rel = masked_max_abs(analytic.values - oracle.values, interior) / scale
            worst[name] = float(np.maximum(worst.get(name, 0.0), rel))  # NaN propagates
    tol = {name: 1e-6 for name in worst}
    passed = all(worst[name] <= tol[name] for name in worst)
    return {"max_relative_discrepancy": worst}, tol, passed


def run_eom(config) -> tuple[dict, dict, bool]:
    sol, grid = _setup(config)
    geo = sol.geometry(grid)
    tension = config.action_params.tension
    betas = config.options.get("betas", [0.0, 0.5, 1.0])
    residuals = {}
    for beta in betas:
        p = dyn.ActionParams(tension, float(beta))
        residuals[f"beta={beta}"] = dyn.max_eom_residual(geo, p)
    base = residuals[f"beta={betas[0]}"]
    spread = max(abs(v - base) for v in residuals.values())
    results = {"max_residual": max(residuals.values()), "residuals": residuals,
               "beta_spread": spread}
    tol = {"max_residual": 5e-5 * tension, "beta_spread": 1e-6}
    passed = results["max_residual"] <= tol["max_residual"] and spread <= tol["beta_spread"]
    return results, tol, passed


def run_linearize(config) -> tuple[dict, dict, bool]:
    sol, grid = _setup(config)
    geo = sol.geometry(grid)
    interior = interior_active(geo)
    tension = config.action_params.tension
    betas = config.options.get("betas", [0.0, 0.3])
    eps = float(config.options.get("epsilon", 1e-4))
    phi = dfm.random_normal_components(grid, geo.codim, seed=config.seed)
    d = dfm.DeformationField.normal_only(phi)
    results: dict = {"fd_match": {}, "evaluator_agreement": {}, "einstein_blocks": {},
                     "potential_agreement": {}}
    for beta in betas:
        p = dyn.ActionParams(tension, float(beta))
        string_form, scale = dyn.linearized_residual_string(geo, phi, p)
        fd = dyn.linearized_fd_oracle(geo, phi, p, eps=eps)
        rel_fd = masked_max_abs(string_form.values - fd.values, interior) / scale
        full = dyn.linearized_residual(geo, phi, p)
        blocks = dyn.einstein_block(geo, phi, p)
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
    # a NaN discrepancy compares False, so it fails
    passed = all(v <= tol[name] for name in tol for v in results[name].values())
    return results, tol, passed


def run_self_adjoint(config) -> tuple[dict, dict, bool]:
    sol, grid = _setup(config)
    geo = sol.geometry(grid)
    interior = interior_active(geo)
    beta = float(config.options.get("beta", 0.3))
    p = dyn.ActionParams(config.action_params.tension, beta)
    phi1 = dfm.random_normal_components(grid, geo.codim, seed=config.seed)
    phi2 = dfm.random_normal_components(grid, geo.codim, seed=config.seed + 1)
    res, scale, direct = sym.self_adjointness_residual(geo, phi1, phi2, p)
    rel = masked_max_abs(res.values, interior) / scale
    summed = sym.sum_of_pieces(geo, phi1, phi2, p)
    jscale = max(masked_max_abs(direct.values, geo.mask.active), 1e-30)
    rel_sum = masked_max_abs(direct.values - summed.values, geo.mask.active) / jscale
    results = {"identity_residual": rel, "simplification_gap": rel_sum, "scale": scale}
    tol = {"identity_residual": 1e-4, "simplification_gap": 1e-9}
    passed = rel <= tol["identity_residual"] and rel_sum <= tol["simplification_gap"]
    return results, tol, passed


def run_conserve(config) -> tuple[dict, dict, bool]:
    sol, grid = _setup(config)
    geo = sol.geometry(grid)
    interior = interior_active(geo)
    pair = config.options.get("jacobi", ["translation_x", "translation_t"])
    beta = float(config.options.get("beta", 0.0))
    p = dyn.ActionParams(config.action_params.tension, beta)
    f1 = jacobi_from_family(sol, geo, pair[0])
    f2 = jacobi_from_family(sol, geo, pair[1])
    div = sym.conservation_residual(geo, f1, f2, p)
    worst = masked_max_abs(div.values, interior)
    scale = _conservation_scale(geo, f1, f2, p)
    rnd = dfm.random_normal_components(grid, geo.codim, seed=config.seed + 7)
    div_bad = sym.conservation_residual(geo, f1, rnd, p)
    control = masked_max_abs(div_bad.values, interior)
    results = {"max_divergence": worst, "relative": worst / scale,
               "negative_control": control, "control_ratio": control / max(worst, 1e-30)}
    tol = {"relative": 5e-4, "control_ratio_min": 10.0}
    passed = results["relative"] <= tol["relative"] and results["control_ratio"] >= tol["control_ratio_min"]
    return results, tol, passed


def _conservation_scale(geo, f1, f2, p) -> float:
    c = dyn.operator_coefficients(geo)
    kk = masked_max_abs(c.kk, geo.mask.active)
    n1 = max(1.0, masked_max_abs(f1.values, geo.mask.active))
    n2 = max(1.0, masked_max_abs(f2.values, geo.mask.active))
    return (p.tension + abs(p.gb_coupling) * kk) * n1 * n2


def run_omega(config) -> tuple[dict, dict, bool]:
    sol, grid = _setup(config)
    geo = sol.geometry(grid)
    pair = config.options.get("jacobi", ["translation_t", "radius"])
    betas = config.options.get("betas", [0.0, 0.25, 0.5])
    rows = config.options.get(
        "slices", [grid.n_tau // 4, grid.n_tau // 2, (3 * grid.n_tau) // 4]
    )
    f1 = jacobi_from_family(sol, geo, pair[0])
    f2 = jacobi_from_family(sol, geo, pair[1])
    table = {}
    for beta in betas:
        p = dyn.ActionParams(config.action_params.tension, float(beta))
        table[f"beta={beta}"] = {f"row={r}": symplectic_form(geo, f1, f2, p, int(r))
                                 for r in rows}
    base_vals = list(table[f"beta={betas[0]}"].values())
    base = base_vals[len(base_vals) // 2]
    slice_spread = max(base_vals) - min(base_vals)
    rel_spread = slice_spread / abs(base) if base else 0.0
    p0 = dyn.ActionParams(config.action_params.tension, float(betas[0]))
    mid = int(rows[len(rows) // 2])
    antisym_zero = symplectic_form(geo, f1, f1, p0, mid)
    delta = {f"beta={b}": abs(list(table[f"beta={b}"].values())[len(rows) // 2] - base)
             for b in betas}
    results = {"omega": table, "slice_relative_spread": rel_spread,
               "self_pairing": antisym_zero, "beta_shift": delta}
    tol = {"slice_relative_spread": 1e-3, "self_pairing": 0.0}
    passed = rel_spread <= tol["slice_relative_spread"] and antisym_zero == 0.0
    return results, tol, passed


def run_gauge_check(config) -> tuple[dict, dict, bool]:
    sol, grid = _setup(config)
    geo = sol.geometry(grid)
    pair = config.options.get("jacobi", ["translation_t", "radius"])
    beta = float(config.options.get("beta", 0.0))
    eps = float(config.options.get("epsilon", 1e-2))
    p = dyn.ActionParams(config.action_params.tension, beta)
    f1 = jacobi_from_family(sol, geo, pair[0])
    f2 = jacobi_from_family(sol, geo, pair[1])
    row = int(config.options.get("slice", grid.n_tau // 2))
    smooth = sym.gauge_invariance_check(
        geo, f1, f2, p, lambda s: s + eps * np.sin(s), row
    )
    shift = 3 * grid.h_sigma
    rigid = sym.gauge_invariance_check(geo, f1, f2, p, lambda s: s + shift, row)
    results = {"smooth_reparam_relative_change": smooth, "rigid_shift_relative_change": rigid}
    tol = {"smooth_reparam_relative_change": 1e-3, "rigid_shift_relative_change": 1e-10}
    passed = smooth <= tol["smooth_reparam_relative_change"] and rigid <= tol["rigid_shift_relative_change"]
    return results, tol, passed


# roundoff floors per convergence quantity: below these the error carries no
# truncation signal (inverse-determinant conditioning and chained stencils
# amplify machine epsilon, and the amplification grows under refinement)
_CONVERGENCE_FLOORS = {"einstein": 2.5e-8, "eom": 1e-7, "self-adjoint": 1e-9}


def run_convergence(config) -> tuple[dict, dict, bool]:
    sol, grid = _setup(config)
    quantity = config.options.get("quantity", "einstein")
    if quantity not in _CONVERGENCE_FLOORS:
        raise ValueError(f"unknown convergence quantity {quantity!r}")
    levels = config.options.get("levels", [65, 129, 257])
    errors = []
    for n_tau in levels:
        lvl_grid = WorldsheetGrid(int(n_tau), grid.n_sigma, grid.tau_min, grid.tau_max)
        geo = sol.geometry(lvl_grid)
        if quantity == "einstein":
            err = masked_max_abs(geo.einstein.values, geo.mask.active)
        elif quantity == "eom":
            p = dyn.ActionParams(config.action_params.tension, config.action_params.gb_coupling)
            err = masked_max_abs(dyn.eom_residual(geo, p).values, geo.mask.active)
        else:
            p = dyn.ActionParams(config.action_params.tension, config.action_params.gb_coupling)
            phi1 = dfm.random_normal_components(lvl_grid, geo.codim, seed=config.seed)
            phi2 = dfm.random_normal_components(lvl_grid, geo.codim, seed=config.seed + 1)
            res, scale, _ = sym.self_adjointness_residual(geo, phi1, phi2, p)
            err = masked_max_abs(res.values, interior_active(geo, rows=6)) / scale
        errors.append(err)
    orders = observed_orders(levels, errors)
    floor = _CONVERGENCE_FLOORS[quantity]
    pair_ok = [
        order >= 3.5 or min(e1, e2) <= floor
        for order, (e1, e2) in zip(orders, zip(errors, errors[1:]))
    ]
    results = {"levels": list(levels), "errors": errors, "observed_orders": orders,
               "at_roundoff_floor": all(e <= floor for e in errors)}
    tol = {"min_order": 3.5, "roundoff_floor": floor}
    passed = bool(pair_ok) and all(pair_ok)
    return results, tol, passed


def observed_orders(levels, errors) -> list[float]:
    """Successive convergence orders from error pairs at nested tau grids."""
    orders = []
    for (n1, e1), (n2, e2) in zip(zip(levels, errors), zip(levels[1:], errors[1:])):
        h_ratio = (n2 - 1) / (n1 - 1)
        if e1 > 0 and e2 > 0:
            orders.append(float(np.log(e1 / e2) / np.log(h_ratio)))
    return orders


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
