import numpy as np
import pytest

from conftest import grid_axes_innermost
from stringlab.grid import (
    Field,
    GridError,
    Mask,
    WorldsheetGrid,
    d_sigma,
    d_tau,
    divergence,
    fd4_axis0,
    gradient,
    grid_innermost,
    integrate_patch,
    integrate_sigma_slice,
    masked_max_abs,
    sigma_derivative_matrix,
)


@pytest.fixture
def grid():
    return WorldsheetGrid(33, 32, 0.0, 1.0)


def test_grid_invariants_enforced():
    with pytest.raises(GridError):
        WorldsheetGrid(8, 32, 0.0, 1.0)  # n_tau too small
    with pytest.raises(GridError):
        WorldsheetGrid(33, 6, 0.0, 1.0)  # n_sigma too small
    with pytest.raises(GridError):
        WorldsheetGrid(33, 31, 0.0, 1.0)  # odd n_sigma
    with pytest.raises(GridError):
        WorldsheetGrid(33, 32, 1.0, 1.0)  # empty window


def test_grid_spacings(grid):
    assert grid.h_tau == pytest.approx(1.0 / 32)
    assert grid.h_sigma == pytest.approx(2 * np.pi / 32)
    assert grid.sigma[0] == 0.0
    # periodic wrap: the point at 2*pi is index 0, not stored twice
    assert grid.sigma[-1] == pytest.approx(2 * np.pi - grid.h_sigma)


def test_field_shape_checks(grid):
    with pytest.raises(GridError):
        Field(grid, np.zeros((33, 16)))  # sigma extent mismatch
    with pytest.raises(GridError):
        Field(grid, np.zeros(grid.shape + (3,)), ("a",))  # worldsheet dim must be 2
    with pytest.raises(GridError):
        Field(grid, np.zeros(grid.shape), ("i",))  # missing index axis
    with pytest.raises(GridError):
        Field(grid, np.zeros(grid.shape + (2,)), ("q",))  # unknown label


def test_d_sigma_trig_exact(grid):
    tt, ss = grid.meshgrid()
    df = d_sigma(Field(grid, np.sin(ss)))
    assert np.abs(df.values - np.cos(ss)).max() <= 1e-12
    assert np.abs(d_sigma(Field(grid, np.ones(grid.shape))).values).max() <= 1e-12


def test_d_sigma_mixed_mode():
    grid = WorldsheetGrid(17, 32, 0.0, 1.0)
    tt, ss = grid.meshgrid()
    df = d_sigma(Field(grid, np.sin(3 * ss) * np.cos(tt)))
    assert np.abs(df.values - 3 * np.cos(3 * ss) * np.cos(tt)).max() <= 1e-10


def _fft_derivative(values, axis):
    """The FFT derivative along the periodic ``axis``, with the Nyquist mode's
    derivative set to zero: the independent reference for the matrix."""
    n = values.shape[axis]
    k = np.arange(n // 2 + 1, dtype=np.float64)
    k[-1] = 0.0
    spec = np.moveaxis(np.fft.rfft(values, axis=axis), axis, -1) * (1j * k)
    return np.fft.irfft(np.moveaxis(spec, -1, axis), n=n, axis=axis)


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
def test_sigma_derivative_matrix(n):
    mat = sigma_derivative_matrix(n)
    assert mat.shape == (n, n) and not mat.flags.writeable
    assert sigma_derivative_matrix(n) is mat  # built once per n
    # circulant, antisymmetric and zero on the diagonal, to the last bit
    assert np.array_equal(np.roll(mat, (1, 1), axis=(0, 1)), mat)
    assert np.array_equal(mat.T, -mat)
    assert not np.diag(mat).any()
    # the operator the FFT applies, column by column, and on a random field
    reference = _fft_derivative(np.eye(n), 0)
    assert np.abs(mat - reference).max() <= 1e-13 * np.abs(reference).max()
    grid = WorldsheetGrid(17, n, 0.0, 1.0)
    vals = np.random.default_rng(n).normal(size=grid.shape + (2, 3))
    reference = _fft_derivative(vals, 1)
    got = d_sigma(Field(grid, vals, ("a", "i"))).values
    assert np.abs(got - reference).max() <= 1e-13 * np.abs(reference).max()
    # exact on every trigonometric mode of degree < n/2, zero on the Nyquist mode
    sigma = grid.sigma
    for k in range(n // 2):
        c, s = np.cos(k * sigma), np.sin(k * sigma)
        assert np.abs(mat @ s - k * c).max() <= 1e-12 * max(k, 1)
        assert np.abs(mat @ c + k * s).max() <= 1e-12 * max(k, 1)
    assert np.abs(mat @ np.cos(0.5 * n * sigma)).max() <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_value_spreads_along_its_row(grid, bad):
    vals = np.random.default_rng(3).normal(size=grid.shape + (2,))
    vals[5, 7, 1] = bad
    f = Field(grid, vals, ("i",))
    ds = d_sigma(f).values
    assert not np.isfinite(ds[5, :, 1]).any()
    finite = np.ones(ds.shape, dtype=bool)
    finite[5, :, 1] = False
    assert np.isfinite(ds[finite]).all()
    assert np.array_equal(gradient(f).values[:, :, 1], ds, equal_nan=True)
    with pytest.raises(GridError, match=r"tau=5, sigma=0"):
        d_sigma(f).check_finite()


def test_nonfinite_rows_spread_along_tau(grid):
    """Two adjacent inf rows make non-finite exactly the rows whose tau
    stencil reads them, NaN where the stencil meets inf - inf, with no
    warning; ``check_finite`` names the first."""
    vals = np.random.default_rng(4).normal(size=grid.shape + (2,))
    vals[10:12, 3, 1] = np.inf
    dt = d_tau(Field(grid, vals, ("i",)))
    reached = np.zeros(dt.values.shape, dtype=bool)
    reached[8:14, 3, 1] = True  # rows 10 and 11, each read two rows away
    assert not np.isfinite(dt.values[reached]).any()
    assert np.isfinite(dt.values[~reached]).all()
    assert np.isnan(dt.values[[9, 12], 3, 1]).all()
    with pytest.raises(GridError, match=r"tau=8, sigma=3"):
        dt.check_finite()


def test_d_tau_polynomial_exact(grid):
    tt, _ = grid.meshgrid()
    assert np.abs(d_tau(Field(grid, tt)).values - 1.0).max() <= 1e-12
    df = d_tau(Field(grid, tt**4))
    assert np.abs(df.values - 4 * tt**3).max() <= 5e-13
    # the one-sided boundary rows are exact through degree 5 (the interior is not)
    edge = [0, 1, -2, -1]
    df5 = d_tau(Field(grid, tt**5))
    assert np.abs(df5.values[edge] - 5 * tt[edge] ** 4).max() <= 1e-12


def test_d_tau_convergence_order():
    errs = []
    for n in (33, 65):
        grid = WorldsheetGrid(n, 8, 0.0, 1.0)
        tt, _ = grid.meshgrid()
        errs.append(np.abs(d_tau(Field(grid, np.sin(tt))).values - np.cos(tt)).max())
    factor = errs[0] / errs[1]
    assert 12.0 <= factor <= 20.0


def test_second_sigma_derivative_modes():
    grid = WorldsheetGrid(17, 32, 0.0, 1.0)
    _, ss = grid.meshgrid()
    for k in range(1, 8):  # k < n_sigma / 4
        f = Field(grid, np.sin(k * ss))
        dd = d_sigma(d_sigma(f))
        assert np.abs(dd.values + k * k * np.sin(k * ss)).max() <= 1e-10


def test_derivatives_commute():
    grid = WorldsheetGrid(33, 32, 0.0, 1.0)
    tt, ss = grid.meshgrid()
    f = Field(grid, np.exp(np.sin(tt)) * np.cos(2 * ss))
    a = d_tau(d_sigma(f)).values
    b = d_sigma(d_tau(f)).values
    assert np.abs(a - b).max() <= 1e-8


def test_slice_quadrature(grid):
    _, ss = grid.meshgrid()
    assert integrate_sigma_slice(Field(grid, np.ones(grid.shape)), 5) == pytest.approx(
        2 * np.pi, abs=1e-12
    )
    assert integrate_sigma_slice(Field(grid, np.cos(ss)), 0) == pytest.approx(0.0, abs=1e-12)
    # (1 + cos s)^2 integrates to 3 pi
    assert integrate_sigma_slice(Field(grid, (1 + np.cos(ss)) ** 2), 7) == pytest.approx(
        3 * np.pi, abs=1e-12
    )
    with pytest.raises(GridError):
        integrate_sigma_slice(Field(grid, np.ones(grid.shape)), 33)


def test_divergence_theorem_on_circle(grid):
    tt, ss = grid.meshgrid()
    f = Field(grid, np.exp(np.cos(ss)) + tt)
    df = d_sigma(f)
    for row in (0, 10, 32):
        assert abs(integrate_sigma_slice(df, row)) <= 1e-12


def test_patch_quadrature(grid):
    tt, ss = grid.meshgrid()
    full = Mask.full(grid)
    assert integrate_patch(Field(grid, np.ones(grid.shape)), full) == pytest.approx(
        2 * np.pi, rel=1e-12
    )
    assert integrate_patch(Field(grid, np.sin(ss)), full) == pytest.approx(0.0, abs=1e-12)
    assert integrate_patch(Field(grid, tt * np.sin(ss) ** 2), full) == pytest.approx(
        np.pi / 2, rel=1e-12
    )


def test_mask_validation(grid):
    with pytest.raises(GridError):
        Mask(grid, np.zeros(grid.shape, dtype=bool))  # nothing active


def test_masked_max_abs(grid):
    """The max over active points and trailing axes; NaN over no points, so
    a check over no points fails."""
    vals = np.zeros(grid.shape + (2,))
    vals[3, 4, 1] = -5.0
    vals[0, 0, 0] = 7.0
    act = np.ones(grid.shape, dtype=bool)
    assert masked_max_abs(vals, act) == 7.0
    act[0, 0] = False
    assert masked_max_abs(vals, act) == 5.0
    assert np.isnan(masked_max_abs(vals, np.zeros(grid.shape, dtype=bool)))


def test_field_stores_values_component_major(grid):
    c_order = np.random.default_rng(0).normal(size=grid.shape + (2, 3))
    f = Field(grid, c_order, ("a", "i"))
    assert not grid_axes_innermost(c_order)
    assert grid_axes_innermost(f.values)
    assert f.values.shape == c_order.shape
    assert np.array_equal(f.values, c_order)
    # values already stored that way are kept, not copied
    assert Field(grid, f.values, f.indices).values is f.values
    scalar = np.ones(grid.shape)
    assert Field(grid, scalar).values is scalar


def test_derivatives_do_not_depend_on_input_layout(grid):
    c_order = np.random.default_rng(1).normal(size=grid.shape + (2, 3))
    comp_major = grid_innermost(c_order)
    assert grid_axes_innermost(comp_major) and np.array_equal(comp_major, c_order)
    for op in (d_tau, d_sigma):
        from_c = op(Field(grid, c_order, ("a", "i"))).values
        from_cm = op(Field(grid, comp_major, ("a", "i"))).values
        assert np.array_equal(from_c, from_cm)
        assert grid_axes_innermost(from_c)
    # and both match the points-first formulas on the C-order array
    h = grid.h_tau
    dt = d_tau(Field(grid, c_order, ("a", "i"))).values
    v = c_order.reshape(grid.n_tau, -1)
    assert np.array_equal(dt, fd4_axis0(v, h).reshape(c_order.shape))
    interior = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) * (1.0 / (12.0 * h))
    assert np.array_equal(dt[2:-2], interior.reshape(dt[2:-2].shape))
    # sigma last, as a (non-contiguous) view of the C-order array
    sigma_last = np.moveaxis(c_order, 1, -1)
    reference = np.moveaxis(sigma_last @ sigma_derivative_matrix(grid.n_sigma).T, -1, 1)
    assert np.array_equal(d_sigma(Field(grid, c_order, ("a", "i"))).values, reference)


# the 6-point edge stencils, one row each, as fd4_axis0 had them per row
_EDGE0 = np.array([-137.0, 300.0, -300.0, 200.0, -75.0, 12.0]) / 60.0
_EDGE1 = np.array([-12.0, -65.0, 120.0, -60.0, 20.0, -3.0]) / 60.0


def _edge_rows_reference(v, h):
    """Rows 0, 1, -2, -1 of the tau stencil, summed term by term: the reference."""
    rows = {}
    for row, coeff in ((0, _EDGE0), (1, _EDGE1)):
        c = coeff / h
        rows[row] = sum(c[m] * v[m] for m in range(6))
        rows[-1 - row] = -sum(c[m] * v[-1 - m] for m in range(6))
    return np.stack([rows[0], rows[1], rows[-2], rows[-1]])


@pytest.mark.parametrize("dims", [(), (2,), (2, 3), (2, 2, 4)])
def test_fd4_edges_match_termwise_reference(dims):
    grid = WorldsheetGrid(129, 32, 0.1, 0.9)
    c_order = np.random.default_rng(len(dims)).normal(size=grid.shape + dims)
    for v in (c_order, grid_innermost(c_order)):
        out = fd4_axis0(v, grid.h_tau)
        assert np.array_equal(out[[0, 1, -2, -1]], _edge_rows_reference(v, grid.h_tau))


def test_gradient_and_divergence_stack_the_stencils(grid):
    vals = np.random.default_rng(2).normal(size=grid.shape + (2, 3))
    f = Field(grid, vals, ("A", "i"))
    grad = gradient(f)
    assert grad.indices == ("a", "A", "i")
    assert grid_axes_innermost(grad.values)
    assert np.array_equal(grad.values[:, :, 0], d_tau(f).values)
    assert np.array_equal(grad.values[:, :, 1], d_sigma(f).values)
    div = divergence(f)
    assert div.indices == ("i",)
    expected = d_tau(Field(grid, vals[:, :, 0], ("i",))).values
    expected = expected + d_sigma(Field(grid, vals[:, :, 1], ("i",))).values
    assert np.array_equal(div.values, expected)
    with pytest.raises(GridError):
        divergence(Field(grid, vals, ("a", "i")))


# index labels of fields of rank 0 to 3; a leading upper index for divergence
_STACK_LABELS = {(): (), (2,): ("A",), (2, 3): ("A", "i"), (2, 2, 4): ("A", "a", "mu")}


@pytest.mark.parametrize("dims", list(_STACK_LABELS))
def test_stacked_operators_match_each_block_on_its_own_band(dims):
    """On a stack of bands every derivative is, block by block and bit for
    bit, the one taken on that band alone, whatever the input's layout."""
    grid = WorldsheetGrid(129, 32, 0.1, 0.9)
    rows = [0, 2, 40, 64, 66, 128]
    stack = grid.bands(rows)
    assert stack.first_rows == (0, 34, 58, 60, 116)
    h = stack.block_rows
    labels = _STACK_LABELS[dims]
    ops = (d_tau, d_sigma, gradient) + ((divergence,) if labels else ())
    c_order = np.random.default_rng(len(dims)).normal(size=stack.shape + dims)
    for values in (c_order, grid_innermost(c_order)):
        f = Field(stack, values, labels)
        for row in rows:
            band = grid.bands([row])
            lo = stack.local_row(row) - (row - band.first_rows[0])  # the block's first row
            block = slice(lo, lo + h)
            alone = Field(band, values[block], labels)
            for op in ops:
                assert np.array_equal(op(f).values[block], op(alone).values), (op, row)


def test_tau_stencil_restarts_at_every_seam():
    """A different quartic in tau in each block is differentiated exactly in
    every block: no stencil reads a row of another block."""
    grid = WorldsheetGrid(129, 16, 0.1, 0.9)
    stack = grid.bands([10, 30, 31, 100])
    h = stack.block_rows
    coeffs = np.random.default_rng(5).normal(size=(len(stack.first_rows), 5))
    tt = stack.meshgrid()[0]
    c = np.repeat(coeffs, h, axis=0)[:, None, :]  # each row's block's quartic
    values = sum(c[..., m] * tt**m for m in range(5))
    exact = sum(m * c[..., m] * tt**(m - 1) for m in range(1, 5))
    f = Field(stack, values)
    vec = Field(stack, np.stack([values, np.zeros_like(values)], axis=-1), ("A",))
    for got in (d_tau(f).values, gradient(f).values[..., 0], divergence(vec).values):
        assert np.abs(got - exact).max() <= 1e-9 * np.abs(exact).max()
    # the same stencil run straight across the seams is not exact there
    across = fd4_axis0(values, stack.h_tau)
    assert np.abs(across - exact).max() >= 1e-3 * np.abs(exact).max()


def test_band_rows_keep_their_full_grid_numbers():
    grid = WorldsheetGrid(129, 16, 0.1, 0.9)
    stack = grid.bands([66, 64, 66, 2, 0])  # a duplicated row and a shared band
    assert stack.first_rows == (0, 58, 60) and stack.shape == (39, 16)
    assert [stack.full_row(i) for i in (0, 12, 13, 25, 26, 38)] == [0, 12, 58, 70, 60, 72]
    assert [stack.local_row(r) for r in (0, 2, 64, 66)] == [0, 2, 19, 32]
    assert np.array_equal(stack.tau, grid.tau[[stack.full_row(i) for i in range(39)]])
    assert stack.where == " on tau rows 0 to 12, 58 to 70, 60 to 72"
    assert stack.bands([64]) == grid.bands([64]) and stack.bands([0, 64]) == grid.bands([0, 64])
    with pytest.raises(GridError, match="the band of tau row 62 is not a block"):
        stack.local_row(62)
    with pytest.raises(GridError, match="tau_index 129 out of range"):
        stack.local_row(129)


def test_copies_of_a_grid_keep_its_blocks_and_row_numbers():
    """k copies of a full grid or of a stack of bands repeat its blocks k
    times, with the same tau values and full-grid row numbers."""
    grid = WorldsheetGrid(129, 16, 0.1, 0.9)
    for base in (grid, grid.bands([0, 64])):
        copies = base.copies(2)
        assert copies.shape == (2 * base.n_tau, 16) and copies.h_tau == grid.h_tau
        assert copies.block_rows == base.block_rows
        assert np.array_equal(copies.tau, np.tile(base.tau, 2))
        assert [copies.full_row(i) for i in range(copies.n_tau)] == 2 * [
            base.full_row(i) for i in range(base.n_tau)]
    assert grid.copies(2).where == " on tau rows 0 to 128, 0 to 128"
    assert grid.bands([64]).copies(3).first_rows == (58, 58, 58)


@pytest.mark.parametrize("n_sigma", [16, 32, 64, 128])
def test_sigma_derivative_of_a_row_ignores_the_rows_beside_it(n_sigma):
    """A scalar's sigma derivative on a band, one small product, has the
    bits of the same rows in the full grid's product."""
    grid = WorldsheetGrid(129, n_sigma, 0.1, 0.9)
    values = np.random.default_rng(n_sigma).normal(size=grid.shape)
    full = d_sigma(Field(grid, values)).values
    for row in (0, 64, 128):
        band = grid.bands([row])
        rows = slice(band.first_rows[0], band.first_rows[0] + band.n_tau)
        assert np.array_equal(d_sigma(Field(band, values[rows])).values, full[rows]), row
