"""The current's two evaluators, contracted in pairs, against the fused
five-operand einsums they replaced (kept below, body for body, as the
reference)."""

import numpy as np
import pytest

from stringlab import deformation as dfm
from stringlab import dynamics as dyn
from stringlab import symplectic as sym
from stringlab.grid import WORLDSHEET_UPPER, Field, masked_max_abs


def _fused_current_pieces(geo, phi1, phi2, p):
    c = dyn.current_coefficients(geo)
    (f1, g1, up1), (f2, g2, up2) = sym._field_operands(geo, phi1), sym._field_operands(geo, phi2)
    gi, b = c.gi, p.gb_coupling
    sh = geo.grid.shape + (2,)
    grid = geo.grid

    j1 = p.tension * (
        -np.einsum("...i,...ai->...a", f1, up2) + np.einsum("...ai,...i->...a", up1, f2)
    )
    if b == 0.0:
        zero = Field(grid, np.zeros(sh), (WORLDSHEET_UPPER,))
        return (Field(grid, j1, (WORLDSHEET_UPPER,)),) + (zero,) * 5

    # j2: 4b K^{bci} grad_b K_c^{aj} phi1_i phi2_j
    j2 = 4 * b * np.einsum(
        "...bci,...ae,...bcej,...i,...j->...a", c.k_upup, gi, c.gk, f1, f2
    )
    # j3: 4b K^{abi} grad_c K_b^{cj} phi1_i phi2_j
    j3 = 4 * b * np.einsum(
        "...abi,...ce,...cbej,...i,...j->...a", c.k_upup, gi, c.gk, f1, f2
    )
    # j4: b [ 4 K^{cbi} K_c^{aj} phi1 grad_b phi2 - 4 grad_b K^{cai} K_c^{bj} phi1 phi2
    #         - 4 K^{cai} grad_b K_c^{bj} phi1 phi2 - 4 K^{cai} K_c^{bj} grad_b phi1 phi2 ]
    j4 = 4 * np.einsum("...cbi,...ae,...cej,...i,...bj->...a", c.k_upup, gi, c.k_low, f1, g2)
    gk_ca_up = np.einsum("...ce,...af,...befi->...bcai", gi, gi, c.gk)  # grad_b K^{cai}
    j4 = j4 - 4 * np.einsum("...bcai,...bf,...cfj,...i,...j->...a", gk_ca_up, gi, c.k_low, f1, f2)
    k_ca_up = np.einsum("...ce,...af,...efi->...cai", gi, gi, c.k_low)  # K^{cai}
    j4 = j4 - 4 * np.einsum(
        "...cai,...be,...bcej,...i,...j->...a", k_ca_up, gi, c.gk, f1, f2
    )
    j4 = j4 - 4 * np.einsum("...cai,...be,...cej,...bi,...j->...a", k_ca_up, gi, c.k_low, g1, f2)
    j4 = b * j4
    # j5: -4b K^{cdi} grad^a K_cd^j phi1 phi2
    j5 = -4 * b * np.einsum(
        "...cdi,...ae,...ecdj,...i,...j->...a", c.k_upup, gi, c.gk, f1, f2
    )
    # j6: b [ -2 K.K^{ij} phi1 grad^a phi2 + 2 grad^a K^{cdi} K_cd^j phi1 phi2
    #          + 2 K^{cdi} grad^a K_cd^j phi1 phi2 + 2 K.K^{ij} grad^a phi1 phi2 ]
    grad_kk = np.einsum("...ae,...ecdi,...cdj->...aij", gi, c.gk, c.k_upup)
    j6 = -2 * np.einsum("...ij,...i,...aj->...a", c.kk, f1, up2)
    j6 = j6 + 2 * np.einsum("...aij,...i,...j->...a", grad_kk, f1, f2)
    j6 = j6 + 2 * np.einsum("...aji,...i,...j->...a", grad_kk, f1, f2)
    j6 = j6 + 2 * np.einsum("...ij,...ai,...j->...a", c.kk, up1, f2)
    j6 = b * j6

    return tuple(
        Field(grid, jv, (WORLDSHEET_UPPER,)) for jv in (j1, j2, j3, j4, j5, j6)
    )


def _fused_current_values(coefficients, field1, field2, p):
    gi, k_low, k_upup, gk, kk = coefficients
    (f1, g1, up1), (f2, g2, up2) = field1, field2
    b = p.gb_coupling
    j = p.tension * (
        -np.einsum("...i,...ai->...a", f1, up2) + np.einsum("...ai,...i->...a", up1, f2)
    )
    if b != 0.0:
        acc = 4 * np.einsum("...bci,...ae,...bcej,...i,...j->...a", k_upup, gi, gk, f1, f2)
        acc = acc - 4 * np.einsum("...cdi,...ae,...ecdj,...i,...j->...a", k_upup, gi, gk, f1, f2)
        acc = acc + 4 * np.einsum("...cbi,...ae,...cej,...i,...bj->...a", k_upup, gi, k_low, f1, g2)
        gk_ca_up = np.einsum("...ce,...af,...befi->...bcai", gi, gi, gk)
        acc = acc - 4 * np.einsum("...bcai,...bf,...cfj,...i,...j->...a", gk_ca_up, gi, k_low, f1, f2)
        k_ca_up = np.einsum("...ce,...af,...efi->...cai", gi, gi, k_low)
        acc = acc - 4 * np.einsum("...cai,...be,...cej,...bi,...j->...a", k_ca_up, gi, k_low, g1, f2)
        acc = acc - 2 * np.einsum("...ij,...i,...aj->...a", kk, f1, up2)
        grad_kk = np.einsum("...ae,...ecdi,...cdj->...aij", gi, gk, k_upup)
        acc = acc + 2 * np.einsum("...aij,...i,...j->...a", grad_kk, f1, f2)
        acc = acc + 2 * np.einsum("...aji,...i,...j->...a", grad_kk, f1, f2)
        acc = acc + 2 * np.einsum("...ij,...ai,...j->...a", kk, up1, f2)
        j = j + b * acc
    return j


@pytest.mark.parametrize("geometry", ["pulsating_geo", "spinning_geo", "rotating_geo"])
@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_current_kernels_match_fused_reference(request, geometry, beta):
    """Both evaluators, on the full grid and (the closed form) on one tau
    row, in both orderings, agree with the fused reference to 1e-12 of the
    reference current's max |j| on active points (per piece too: j3 is a
    divergence of K that vanishes on shell, so it is roundoff, not a
    scale)."""
    geo = request.getfixturevalue(geometry)
    act = geo.mask.active
    p = dyn.ActionParams(1.0, beta)
    phi_a = dfm.random_normal_components(geo.grid, geo.codim, seed=21)
    phi_b = dfm.random_normal_components(geo.grid, geo.codim, seed=22)
    row = geo.grid.n_tau // 2
    for phi1, phi2 in ((phi_a, phi_b), (phi_b, phi_a)):
        operands = (dyn.current_coefficients(geo), sym._field_operands(geo, phi1),
                    sym._field_operands(geo, phi2))
        reference = _fused_current_values(*operands, p)
        bound = 1e-12 * masked_max_abs(reference, act)
        current = sym.bilinear_current(geo, phi1, phi2, p).values
        assert masked_max_abs(current - reference, act) <= bound

        on_row = [[a[row] for a in arrays] for arrays in operands]
        parts = sym._current_parts(*on_row, beta != 0.0)
        row_gap = sym._couple(*parts, p) - _fused_current_values(*on_row, p)
        assert masked_max_abs(row_gap, act[row]) <= bound

        pieces = sym.current_pieces(geo, phi1, phi2, p)
        for piece, piece_ref in zip(pieces, _fused_current_pieces(geo, phi1, phi2, p)):
            assert masked_max_abs(piece.values - piece_ref.values, act) <= bound


def test_current_contractions_are_pairwise(pulsating_geo, monkeypatch):
    """The current's evaluators run no einsum of more than two operands:
    numpy plans no path, so a fused call loops over every index combination
    at every point."""
    geo = pulsating_geo
    phi1 = dfm.random_normal_components(geo.grid, geo.codim, seed=21)
    phi2 = dfm.random_normal_components(geo.grid, geo.codim, seed=22)
    p = dyn.ActionParams(1.0, 0.3)
    dyn.current_coefficients(geo)  # cached first: only the evaluators run patched
    operand_counts = []
    einsum = np.einsum

    def counting_einsum(subscripts, *operands, **kwargs):
        operand_counts.append(len(operands))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    for evaluate in (
        lambda: sym.bilinear_current(geo, phi1, phi2, p),
        lambda: sym.current_pieces(geo, phi1, phi2, p),
        lambda: sym.symplectic_form(geo, phi1, phi2, p, geo.grid.n_tau // 2),
    ):
        operand_counts.clear()
        evaluate()
        assert operand_counts
        assert max(operand_counts) <= 2
