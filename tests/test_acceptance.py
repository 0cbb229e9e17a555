"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
measurements.
"""

import json

import numpy as np
import pytest

from conftest import ACCEPTANCE_GRID, interior
from stringlab import cli
from stringlab import deformation as dfm
from stringlab import dynamics as dyn
from stringlab import symplectic as sym
from stringlab.experiments import observed_orders
from stringlab.grid import Field, NORMAL, WorldsheetGrid, integrate_sigma_slice, masked_max_abs
from stringlab.solutions import jacobi_from_family


def _verdict(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------------------


def test_criterion_01_einstein_tensor_vanishes(pulsating, rotating):
    # roundoff floor of the determinant-weighted curvature assembly: machine
    # epsilon amplified by the inverse-determinant conditioning and the
    # chained stencil factors; refinement pairs below it carry no truncation
    # signal (the rotating family's exact fields are tau-independent, so its
    # entire error is this floor)
    floor = 2.5e-8
    levels = [65, 129, 257]
    ok = True
    details = []
    for sol in (pulsating, rotating):
        errs = []
        for n_tau in levels:
            geo = sol.geometry(WorldsheetGrid(n_tau, 32, 0.1, 0.9))
            errs.append(masked_max_abs(geo.einstein.values, geo.mask.active))
        at_129 = errs[levels.index(129)]
        orders = observed_orders(levels, errs)
        pair_ok = [
            order >= 3.5 or min(e1, e2) <= floor
            for order, (e1, e2) in zip(orders, zip(errs, errs[1:]))
        ]
        sol_ok = at_129 <= 1e-6 and all(pair_ok)
        ok = ok and sol_ok
        details.append(
            f"{sol.name}: max|G|={at_129:.2e} (<=1e-6), errors={[f'{e:.1e}' for e in errs]}, "
            f"orders={[f'{o:.2f}' for o in orders]} (>=3.5 until the {floor:.0e} floor)"
        )
    assert _verdict(1, ok, "; ".join(details))


def test_criterion_02_deformation_calculus(pulsating):
    grid = WorldsheetGrid(193, 32, 0.1, 0.9)
    geo = pulsating.geometry(grid)
    inner = interior(geo)
    worst = {}
    for seed in (0, 1, 2):
        d0 = dfm.random_deformation(grid, geo.codim, seed=seed)
        d = dfm.DeformationField(
            Field(grid, 0.5 * d0.phi_normal.values, (NORMAL,)),
            Field(grid, 0.5 * d0.phi_tangent.values, d0.phi_tangent.indices),
        )
        dg, dginv = dfm.vary_metric(geo, d)
        dric, dscal = dfm.vary_ricci_scalar(geo, d)
        pairs = {
            "metric": dg,
            "inverse_metric": dginv,
            "volume": dfm.vary_volume(geo, d),
            "connection": dfm.vary_connection(geo, d),
            "ricci": dric,
            "scalar_curvature": dscal,
        }
        oracles = dfm.fd_oracle(geo, d, eps=1e-4)
        for name, analytic in pairs.items():
            oracle = oracles[name]
            scale = 1.0 + max(
                masked_max_abs(analytic.values, inner), masked_max_abs(oracle.values, inner)
            )
            rel = masked_max_abs(analytic.values - oracle.values, inner) / scale
            worst[name] = max(worst.get(name, 0.0), rel)
    ok = all(v <= 1e-6 for v in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + " (each <= 1e-6, 3 seeds)"
    assert _verdict(2, ok, detail)


def test_criterion_03_onshell_residual(pulsating, rotating, grid129):
    ok = True
    details = []
    for sol in (pulsating, rotating):
        geo = sol.geometry(grid129)
        res = {b: dyn.max_eom_residual(geo, dyn.ActionParams(1.0, b)) for b in (0.0, 0.5, 1.0)}
        spread = max(abs(res[b] - res[0.0]) for b in res)
        sol_ok = res[0.0] <= 5e-5 and spread <= 1e-6
        ok = ok and sol_ok
        details.append(f"{sol.name}: residual={res[0.0]:.2e} (<=5e-5), beta spread={spread:.2e} (<=1e-6)")
    assert _verdict(3, ok, "; ".join(details))


def test_criterion_04_dimension_two_reduction(pulsating, pulsating_geo):
    geo = pulsating_geo
    act = geo.mask.active
    d = dfm.random_deformation(geo.grid, geo.codim, seed=1)
    phi = dfm.random_normal_components(geo.grid, geo.codim, seed=2)
    worst_psi = worst_shared = worst_blocks = 0.0
    for beta in (0.0, 0.5):
        p = dyn.ActionParams(1.0, beta)
        psi_g = dyn.symplectic_potential(geo, d, p)
        psi_s = dyn.symplectic_potential_string(geo, d, p)
        psi_scale = 1.0 + masked_max_abs(psi_g.values, act)
        worst_psi = max(worst_psi, masked_max_abs(psi_g.values - psi_s.values, act) / psi_scale)
        string_form, scale = dyn.linearized_residual_string(geo, phi, p)
        full = dyn.linearized_residual(geo, phi, p)
        blocks = dyn.einstein_block(geo, phi, p)
        worst_shared = max(
            worst_shared,
            masked_max_abs(full.values - blocks.values - string_form.values, act) / scale,
        )
        worst_blocks = max(worst_blocks, masked_max_abs(blocks.values, act) / scale)
    ok = worst_psi <= 1e-6 and worst_shared <= 1e-10 and worst_blocks <= 1e-6
    assert _verdict(
        4,
        ok,
        f"potential agreement={worst_psi:.2e} (<=1e-6), independently coded operator "
        f"agreement={worst_shared:.2e} (<=1e-10), einstein blocks={worst_blocks:.2e} (<=1e-6)",
    )


def test_criterion_05_linearization_consistency(pulsating_geo):
    geo = pulsating_geo
    inner = interior(geo)
    phi = dfm.random_normal_components(geo.grid, geo.codim, seed=3)
    worst = 0.0
    for beta in (0.0, 0.3):
        p = dyn.ActionParams(1.0, beta)
        lin, scale = dyn.linearized_residual_string(geo, phi, p)
        fd = dyn.linearized_fd_oracle(geo, phi, p, eps=1e-4)
        worst = max(worst, masked_max_abs(lin.values - fd.values, inner) / scale)
    ok = worst <= 1e-4
    assert _verdict(5, ok, f"finite-differenced EOM vs evaluator={worst:.2e} (<=1e-4, beta in {{0, 0.3}})")


def test_criterion_06_self_adjointness(pulsating):
    residuals = {}
    for n_tau in (65, 129):
        grid = WorldsheetGrid(n_tau, 32, 0.1, 0.9)
        geo = pulsating.geometry(grid)
        phi1 = dfm.random_normal_components(grid, geo.codim, seed=11)
        phi2 = dfm.random_normal_components(grid, geo.codim, seed=12)
        p = dyn.ActionParams(1.0, 0.3)
        res, scale, _ = sym.self_adjointness_residual(geo, phi1, phi2, p)
        residuals[n_tau] = {
            "band": masked_max_abs(res.values, interior(geo)) / scale,
            "deep": masked_max_abs(res.values, interior(geo, rows=6)) / scale,
        }
        if n_tau == 129:
            direct = sym.bilinear_current(geo, phi1, phi2, p)
            summed = sym.sum_of_pieces(geo, phi1, phi2, p)
            jscale = max(masked_max_abs(direct.values, geo.mask.active), 1e-30)
            simplification = masked_max_abs(direct.values - summed.values, geo.mask.active) / jscale
    band_order = np.log2(residuals[65]["band"] / residuals[129]["band"])
    deep_floor = max(residuals[n]["deep"] for n in residuals)
    pointwise = residuals[129]["band"]
    ok = (
        pointwise <= 1e-4
        and (band_order >= 3.5 or deep_floor <= 1e-9)
        and simplification <= 1e-9
    )
    assert _verdict(
        6,
        ok,
        f"identity residual={pointwise:.2e} (<=1e-4); refinement: boundary-band order="
        f"{band_order:.2f}, deep interior at floor {deep_floor:.2e} (<=1e-9); "
        f"simplified current vs summed pieces={simplification:.2e} (<=1e-9)",
    )


def test_criterion_07_conservation(pulsating, pulsating_geo):
    geo = pulsating_geo
    inner = interior(geo)
    jx = jacobi_from_family(pulsating, geo, "translation_x")
    jt = jacobi_from_family(pulsating, geo, "translation_t")
    scale = (1 + masked_max_abs(jx.values, geo.mask.active)) * (
        1 + masked_max_abs(jt.values, geo.mask.active)
    )
    p0 = dyn.ActionParams(1.0, 0.0)
    good = masked_max_abs(sym.conservation_residual(geo, jx, jt, p0).values, inner)
    rnd = dfm.random_normal_components(geo.grid, geo.codim, seed=42)
    control = masked_max_abs(sym.conservation_residual(geo, jx, rnd, p0).values, inner)
    p3 = dyn.ActionParams(1.0, 0.3)
    with_coupling = masked_max_abs(sym.conservation_residual(geo, jx, jt, p3).values, inner)
    op1 = dyn.stability_operator_apply(geo, jx, p3).values
    op2 = dyn.stability_operator_apply(geo, jt, p3).values
    lhs = np.einsum("...i,...i->...", jx.values, op2) - np.einsum("...i,...i->...", op1, jt.values)
    contract = 2.0 * masked_max_abs(lhs, inner) + 1e-6 * scale
    ok = good / scale <= 5e-4 and control >= 10.0 * good and with_coupling <= contract
    assert _verdict(
        7,
        ok,
        f"translation pair divergence={good / scale:.2e} (<=5e-4); negative control "
        f"{control / max(good, 1e-30):.1f}x larger (>=10x); at beta=0.3: {with_coupling:.2e} "
        f"within measured contract {contract:.2e}",
    )


def test_criterion_08_symplectic_form(pulsating, pulsating_geo):
    geo = pulsating_geo
    jt = jacobi_from_family(pulsating, geo, "translation_t")
    jr = jacobi_from_family(pulsating, geo, "radius")
    p = dyn.ActionParams(1.0, 0.0)
    rows = [geo.grid.n_tau // 4, geo.grid.n_tau // 2, (3 * geo.grid.n_tau) // 4]
    vals = [sym.symplectic_form(geo, jt, jr, p, r) for r in rows]
    spread = (max(vals) - min(vals)) / abs(vals[1])
    self_pairing = sym.symplectic_form(geo, jt, jt, p, rows[1])
    rng = np.random.default_rng(0)
    a, b = rng.uniform(-2, 2, size=2)
    other = dfm.random_normal_components(geo.grid, geo.codim, seed=9)
    combo = Field(geo.grid, a * jt.values + b * other.values, (NORMAL,))
    lin_lhs = sym.symplectic_form(geo, combo, jr, p, rows[1])
    lin_rhs = a * vals[1] + b * sym.symplectic_form(geo, other, jr, p, rows[1])
    bilinearity = abs(lin_lhs - lin_rhs) / max(abs(lin_rhs), 1.0)
    ok = spread <= 1e-3 and self_pairing == 0.0 and bilinearity <= 1e-10
    assert _verdict(
        8,
        ok,
        f"slice spread={spread:.2e} (<=1e-3); omega(phi,phi)={self_pairing} (exact 0); "
        f"bilinearity={bilinearity:.2e} (<=1e-10); omega={vals[1]:+.6f}",
    )


def test_criterion_09_potential_variation(pulsating, pulsating_geo):
    geo = pulsating_geo
    inner = interior(geo)
    jt = jacobi_from_family(pulsating, geo, "translation_t")
    jr = jacobi_from_family(pulsating, geo, "radius")
    worst = 0.0
    for beta in (0.0, 0.3):
        p = dyn.ActionParams(1.0, beta)
        pvc = sym.potential_variation_current(geo, jt, jr, p)
        j12 = sym.bilinear_current(geo, jt, jr, p).values
        j21 = sym.bilinear_current(geo, jr, jt, p).values
        target = geo.vol.values[..., None] * 0.5 * (j12 - j21)
        scale = max(masked_max_abs(target, inner), 1e-30)
        worst = max(worst, masked_max_abs(pvc.values - target, inner) / scale)
    ok = worst <= 1e-3
    assert _verdict(9, ok, f"differenced potential vs current={worst:.2e} (<=1e-3, beta in {{0, 0.3}})")


def test_criterion_10_topological_contribution_to_form(spinning, spinning_geo):
    """The topological coupling changes the current density at order one and
    leaves every slice-integrated pairing unchanged.

    In two dimensions sqrt(-gamma) R is a total derivative.  On shell the
    coupling's operator terms cancel identically (traceless Cayley-Hamilton +
    Codazzi + Simons), so the current it adds is identically conserved and
    locally exact for arbitrary normal fields, and its integral over the
    closed sigma slice is zero.  An earlier form of this criterion required
    |omega(beta) - omega(0)| >= 1e-3 |omega(0)|, which contradicts that
    theorem: it could pass only on a broken current.

    The yardstick Y is the amount that cancels: the slice integral of the
    absolute antisymmetrized density sqrt(-g) (j_beta - j_0)^tau.  The shift
    of omega must be a roundoff-sized fraction of Y, on the Jacobi pair
    (translation_t, scale) and on a random smooth pair, at three rows and two
    couplings.  A vanishing Y fails the check.  The density control keeps it
    from being vacuous: on the Jacobi pair max|j_beta| must be at least twice
    max|j_0|.  It needs the spinning family, because the pulsating family's
    beta-current is identically zero.  On random pairs the growth depends on
    the seed (about 1.1x to 2.4x at beta = 0.5), so there it is only printed.
    """
    geo = spinning_geo
    act = geo.mask.active
    rows = [8, geo.grid.n_tau // 2, geo.grid.n_tau - 9]
    pairs = {  # name -> (phi1, phi2, density control applies)
        "jacobi(translation_t, scale)": (
            jacobi_from_family(spinning, geo, "translation_t"),
            jacobi_from_family(spinning, geo, "scale"),
            True,
        ),
        "random(seeds 0, 1)": (
            dfm.random_normal_components(geo.grid, geo.codim, seed=0),
            dfm.random_normal_components(geo.grid, geo.codim, seed=1),
            False,
        ),
    }

    def slice_density(phi1, phi2, p):
        """Antisymmetrized sqrt(-g) j^tau, and max|j| of the ordered pair."""
        j12 = sym.bilinear_current(geo, phi1, phi2, p).values
        j21 = sym.bilinear_current(geo, phi2, phi1, p).values
        return 0.5 * geo.vol.values * (j12 - j21)[..., 0], masked_max_abs(j12, act)

    p0 = dyn.ActionParams(1.0, 0.0)
    ok = True
    details = []
    for name, (phi1, phi2, controlled) in pairs.items():
        dens0, size0 = slice_density(phi1, phi2, p0)
        om0 = {row: sym.symplectic_form(geo, phi1, phi2, p0, row) for row in rows}
        worst, cancelled, growth = 0.0, [], []
        for beta in (0.5, 1.0):
            p = dyn.ActionParams(1.0, beta)
            dens, size = slice_density(phi1, phi2, p)
            growth.append(size / size0)
            for row in rows:
                shift = abs(sym.symplectic_form(geo, phi1, phi2, p, row) - om0[row])
                y = integrate_sigma_slice(Field(geo.grid, np.abs(dens - dens0)), row)
                cancelled.append(y)
                worst = max(worst, shift / y if y > 0.0 else np.inf)
        ok = ok and worst <= 1e-7 and (min(growth) >= 2.0 or not controlled)
        details.append(
            f"{name}: worst |omega(beta)-omega(0)|/Y={worst:.2e} (<=1e-7), "
            f"Y={min(cancelled):.2g}..{max(cancelled):.2g}, current density grows "
            f"{min(growth):.2f}x..{max(growth):.2f}x{' (>=2x)' if controlled else ''}; "
            f"omega(0)={om0[rows[1]]:+.6f}"
        )
    assert _verdict(10, ok, "; ".join(details))


def test_criterion_11_gauge_invariance(pulsating, pulsating_geo):
    geo = pulsating_geo
    jt = jacobi_from_family(pulsating, geo, "translation_t")
    jr = jacobi_from_family(pulsating, geo, "radius")
    p = dyn.ActionParams(1.0, 0.0)
    row = geo.grid.n_tau // 2
    smooth = sym.gauge_invariance_check(geo, jt, jr, p, lambda s: s + 1e-2 * np.sin(s), row)
    rigid = sym.gauge_invariance_check(geo, jt, jr, p, lambda s: s + 4 * geo.grid.h_sigma, row)
    ok = smooth <= 1e-3 and rigid <= 1e-10
    assert _verdict(
        11, ok,
        f"smooth circle reparametrization: relative change={smooth:.2e} (<=1e-3); "
        f"rigid grid shift: {rigid:.2e} (<=1e-10)",
    )


def test_criterion_12_determinism(tmp_path):
    config = {
        "schema_version": 1,
        "solution": {"name": "pulsating_circular_string", "params": {"radius": 1.0}},
        "grid": dict(ACCEPTANCE_GRID),
        "action": {"tension": 1.0, "gb_coupling": 0.3},
        "kind": "self-adjoint",
        "seed": 4,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    assert _verdict(12, ok, f"repeated CLI runs byte-identical ({len(outs[0])} bytes)")
