import math

import numpy as np
import pytest

from gpops.errors import GridSizeError, ParameterError
from gpops import stencils
from gpops.grids import Grid
from gpops.stencils import (boundary_widths, differentiation_matrix, fd_weights,
                            interior_mask, stencil_width)

from fd_reference import fd_mixed_partial


def fd_derivative(f, x, order):
    # a one-argument derivative is the mixed partial of order (order, 0)
    return float(fd_mixed_partial(lambda a, b: f(a), order, 0)(np.float64(x), np.float64(0.0)))


def test_fornberg_weights_classic_first_derivative():
    w = fd_weights(0.0, [-2.0, -1.0, 0.0, 1.0, 2.0], 1)
    np.testing.assert_allclose(w, [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12], atol=1e-14)


def test_fornberg_weights_classic_second_derivative():
    w = fd_weights(0.0, [-2.0, -1.0, 0.0, 1.0, 2.0], 2)
    np.testing.assert_allclose(w, [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12], atol=1e-13)


def test_fd_derivative_polynomial_exact():
    assert fd_derivative(lambda x: x**2, 2.0, 1) == pytest.approx(4.0, abs=1e-8)
    assert fd_derivative(lambda x: x**4, 1.0, 3) == pytest.approx(24.0, abs=1e-6)


def test_fd_derivative_sin_second_order():
    assert fd_derivative(np.sin, 0.0, 2) == pytest.approx(0.0, abs=1e-6)


def test_fd_derivative_exp():
    # measured truncation+roundoff is ~1e-11; the asserted bound has margin
    assert fd_derivative(np.exp, 1.0, 1) == pytest.approx(math.e, abs=1e-8)


def test_fd_derivative_richardson_not_worse():
    # the Richardson step is never worse than one plain stencil at the same step
    h = np.finfo(float).eps ** (1 / 6)
    offsets = np.arange(-2.0, 3.0)
    plain_value = fd_weights(0.0, offsets, 1) @ np.sin(0.7 + offsets * h) / h
    plain = abs(plain_value - math.cos(0.7))
    rich = abs(fd_derivative(np.sin, 0.7, 1) - math.cos(0.7))
    assert rich <= max(plain, 1e-12)


def test_fd_derivative_order_range():
    with pytest.raises(ParameterError):
        fd_derivative(np.sin, 0.0, 5)
    with pytest.raises(ParameterError):
        fd_derivative(np.sin, 0.0, -1)


def test_fd_mixed_partial_on_product_function():
    # f(x, y) = sin(x) cos(y): d2/dxdy = cos(x) * (-sin(y))
    f = lambda a, b: np.sin(a) * np.cos(b)
    ev = fd_mixed_partial(f, 1, 1)
    got = ev(np.float64(0.3), np.float64(1.1))
    assert got == pytest.approx(math.cos(0.3) * -math.sin(1.1), abs=1e-9)


def test_stencil_geometry():
    assert stencil_width(1) == 5
    assert stencil_width(2) == 6
    assert boundary_widths(1) == (2, 2)
    mask = interior_mask(9, 1)
    assert mask.tolist() == [False, False, True, True, True, True, True, False, False]
    assert interior_mask(5, 0).all()


@pytest.mark.parametrize("order,sizes", [
    (1, (33, 65, 129)),
    (2, (33, 65, 129)),
    (3, (9, 17, 33)),   # coarser grids: finer ones hit the eps/h^d noise floor
    (4, (9, 17, 33)),
])
def test_differentiation_matrix_fourth_order_convergence(order, sizes):
    # On sin, the max error over ALL rows (boundary included) must shrink
    # like h^4, since shifted stencils keep the accuracy order.
    errs = []
    for n in sizes:
        g = Grid.uniform_on(0.0, 1.0, n)
        d = differentiation_matrix(g, order)
        x = g.points
        truth = np.sin(x + order * math.pi / 2)  # successive derivatives of sin
        errs.append(np.max(np.abs(d @ np.sin(x) - truth)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 3.4), (errs, rates)


def test_differentiation_matrix_exact_on_low_degree_polynomials():
    g = Grid.uniform_on(0.0, 2.0, 17)
    d = differentiation_matrix(g, 1)
    x = g.points
    np.testing.assert_allclose(d @ x**2, 2 * x, atol=1e-10)


def test_differentiation_matrix_identity_for_order_zero():
    g = Grid.uniform_on(0.0, 1.0, 7)
    np.testing.assert_array_equal(differentiation_matrix(g, 0), np.eye(7))


def test_differentiation_matrix_grid_requirements():
    with pytest.raises(GridSizeError):
        differentiation_matrix(Grid.uniform_on(0, 1, 4), 1)  # needs 5 points
    with pytest.raises(GridSizeError):
        differentiation_matrix(Grid([0.0, 0.1, 0.5, 0.7, 1.0, 1.5]), 1)  # non-uniform


def _padded(points, width):
    # a uniform tail after the given points, so the footprint check is never
    # what rejects: only the spacing of the given points decides
    h = points[1] - points[0]
    return Grid(np.concatenate([points, points[-1] + h * np.arange(1, width + 1)]))


def test_differentiation_matrix_uniformity_rule():
    # every spacing within 1e-12 relative of the first, or GridSizeError
    h = 0.1
    with pytest.raises(GridSizeError, match="require a uniform grid"):
        differentiation_matrix(Grid([0.0, 1.0, 3.0]), 1)
    with pytest.raises(GridSizeError, match="require a uniform grid"):
        differentiation_matrix(_padded(np.array([0.0, h, 2 * h + h * 1e-10]), 4), 1)
    accepted = differentiation_matrix(_padded(np.array([0.0, h, 2 * h + h * 1e-14]), 4), 1)
    assert accepted.shape == (7, 7)


def test_differentiation_matrix_rejects_a_single_point_grid():
    # the spacing check comes before the footprint check
    with pytest.raises(GridSizeError, match="^grid stencils require a uniform grid$"):
        differentiation_matrix(Grid([0.0]), 1)


def _per_row_reference(grid, order):
    # Fornberg's recurrence on each row's own nodes
    x = grid.points
    n, w = x.size, order + 4
    lo, _ = boundary_widths(order)
    d = np.zeros((n, n))
    for i in range(n):
        start = min(max(i - lo, 0), n - w)
        d[i, start:start + w] = fd_weights(x[i], x[start:start + w], order)
    return d


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [17, 33, 257])
def test_differentiation_matrix_bit_identical_on_dyadic_spacing(order, n):
    grid = Grid.uniform_on(0.0, 1.0, n)
    np.testing.assert_array_equal(differentiation_matrix(grid, order),
                                  _per_row_reference(grid, order))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("a,b,n", [(0.0, 3.0, 101), (-5.0, 5.0, 201)])
def test_differentiation_matrix_matches_per_row_stencils(order, a, b, n):
    # spacing that is not a power of two: measured at most 4.3e-14 relative
    grid = Grid.uniform_on(a, b, n)
    ref = _per_row_reference(grid, order)
    err = np.max(np.abs(differentiation_matrix(grid, order) - ref))
    assert err <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_differentiation_matrix_computes_each_window_stencil_once(order, monkeypatch):
    calls = []

    def spy(x0, nodes, d):
        calls.append(x0)
        return fd_weights(x0, nodes, d)

    monkeypatch.setattr(stencils, "fd_weights", spy)
    differentiation_matrix(Grid.uniform_on(0.0, 1.0, 65), order)
    assert len(calls) == order + 4
