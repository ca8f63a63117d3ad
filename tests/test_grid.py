import math

import numpy as np
import pytest

import canonsurf as cs
from canonsurf.errors import DimensionError, MonotonicityError, RangeError
from canonsurf.canonical import _cumint4, _deriv4
from canonsurf.grid import path_exponent

from helpers import grid_from_fn, observed_orders


def test_grid_invariants():
    with pytest.raises(DimensionError):
        cs.Grid2(0, 0, 0.1, 0.1, np.zeros((2, 5)))
    with pytest.raises(DimensionError):
        cs.Grid2(0, 0, -0.1, 0.1, np.zeros((5, 5)))
    for bad in ((0, 0, math.inf, 0.1), (0, 0, 0.1, math.nan), (math.nan, 0, 0.1, 0.1),
                (0, -math.inf, 0.1, 0.1)):
        with pytest.raises(DimensionError, match="finite"):
            cs.Grid2(*bad, np.zeros((5, 5)))
    g = cs.Grid2(1.0, 2.0, 0.5, 0.25, np.zeros((4, 5)))
    assert np.allclose(g.u_axis, [1.0, 1.5, 2.0, 2.5])
    assert np.allclose(g.v_axis, 2.0 + 0.25 * np.arange(5))


def test_grid_values_immutable():
    g = cs.Grid2(0, 0, 1, 1, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        g.values[0, 0] = 1.0


def test_partial_u_constant_is_zero():
    g = grid_from_fn(lambda u, v: 0 * u + 3.7, (0, 1), (0, 1), 12)
    assert np.all(cs.partial_u(g).values == 0.0)
    assert np.all(cs.partial_v(g).values == 0.0)


def test_partial_u_linear_exact():
    g = grid_from_fn(lambda u, v: u + 0 * v, (0, 2), (0, 1), 17)
    assert np.max(np.abs(cs.partial_u(g).values - 1.0)) < 1e-12
    assert np.max(np.abs(cs.partial_v(g).values)) < 1e-12


def test_partial_u_sin_accuracy_and_order():
    errs = []
    for du in (0.01, 0.005):
        n = int(round(1.0 / du)) + 1
        u = np.linspace(0.0, 1.0, n)
        g = cs.Grid2(0.0, 0.0, du, 0.5, np.sin(u)[:, None] * np.ones((n, 3)))
        exact = np.cos(u)[:, None]
        errs.append(np.max(np.abs(cs.partial_u(g).values - exact)))
    assert errs[0] < 1e-4
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_second_derivative_quadratic_exact():
    g = grid_from_fn(lambda u, v: u * u + 0 * v, (0, 1), (0, 1), 9)
    assert np.max(np.abs(cs.second_u(g).values - 2.0)) < 1e-10
    assert np.max(np.abs(cs.second_v(g).values)) < 1e-10


def test_cumulative_integral_constant_exact():
    # binary-representable spacing: trapezoid on a constant is exact, bit for bit
    g = grid_from_fn(lambda u, v: 1.0 + 0 * u + 0 * v, (0, 1.25), (0, 1), 11)
    out = cs.cumulative_integral_u(g, cs.BaseIndex(0, 0))
    expected = 0.125 * np.arange(11)[:, None] * np.ones((11, 11))
    assert np.max(np.abs(out.values - expected)) == 0.0


def test_cumulative_integral_signed_from_interior_base():
    g = grid_from_fn(lambda u, v: 1.0 + 0 * u + 0 * v, (0, 1.25), (0, 1), 11)
    out = cs.cumulative_integral_u(g, cs.BaseIndex(2, 0))
    assert out.values[2, 4] == 0.0
    assert out.values[0, 3] == -0.25


def test_cumulative_integral_cos_order():
    errs = []
    for n in (101, 201):
        u = np.linspace(0.0, 1.0, n)
        du = u[1] - u[0]
        g = cs.Grid2(0.0, 0.0, du, 1.0, np.cos(u)[:, None] * np.ones((n, 3)))
        out = cs.cumulative_integral_u(g, cs.BaseIndex(0, 0))
        errs.append(np.max(np.abs(out.values - np.sin(u)[:, None])))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_derivative_then_integral_roundtrip_order():
    errs = []
    for n in (33, 65):
        g = grid_from_fn(lambda u, v: np.sin(2 * u) * np.cos(v), (0, 1), (0, 1), n)
        base = cs.BaseIndex(n // 2, 0)
        back = cs.cumulative_integral_u(cs.partial_u(g), base)
        expected = g.values - g.values[base.i0 : base.i0 + 1, :]
        errs.append(np.max(np.abs(back.values - expected)))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_partials_commute():
    g = grid_from_fn(lambda u, v: np.sin(2 * u + 0.3) * np.exp(0.5 * v), (0, 1), (0, 1), 21)
    uv = cs.partial_v(cs.partial_u(g)).values
    vu = cs.partial_u(cs.partial_v(g)).values
    assert np.max(np.abs(uv - vu)) < 1e-10


def test_operations_are_pure():
    g = grid_from_fn(lambda u, v: np.sin(u) + np.cos(v), (0, 1), (0, 2), 15)
    a = cs.partial_u(g).values
    b = cs.partial_u(g).values
    assert np.array_equal(a, b)
    c = cs.cumulative_integral_v(g, cs.BaseIndex(1, 7)).values
    d = cs.cumulative_integral_v(g, cs.BaseIndex(1, 7)).values
    assert np.array_equal(c, d)


def test_small_grid_rejected():
    with pytest.raises(DimensionError):
        cs.Grid2(0, 0, 1, 1, np.zeros((2, 3)))


def _path_exponent_errors(axis, stencils):
    # df / gap with gap = exp(f) is the exact differential of -exp(-f), so the
    # path integral from the base node is exp(-f(base)) - exp(-f) on any path
    errs = []
    for n in (17, 33, 65):
        u = np.linspace(0.0, 1.5, n)
        v = np.linspace(-1.0, 1.0, n)
        f = np.sin(u)[:, None] * np.cos(v)[None, :] + 0.5 * u[:, None]
        g = cs.Grid2.from_axes(u, v, f)
        base = cs.BaseIndex((n - 1) // 4, 3 * (n - 1) // 4)
        got = path_exponent(f, np.exp(f), g, base, axis, *stencils)
        assert got[base.i0, base.j0] == 0.0
        errs.append(np.max(np.abs(got - (np.exp(-f[base.i0, base.j0]) - np.exp(-f)))))
    return errs


@pytest.mark.parametrize("axis", [0, 1])
def test_path_exponent_second_order_default(axis):
    assert min(observed_orders(_path_exponent_errors(axis, ()))) >= 1.8


@pytest.mark.parametrize("axis", [0, 1])
def test_path_exponent_fourth_order_stencils(axis):
    assert min(observed_orders(_path_exponent_errors(axis, (_deriv4, _cumint4)))) >= 3.5


def test_path_exponent_matches_cumulative_integrals():
    # exponent along u over every row plus the v-line through the base column
    g = grid_from_fn(lambda u, v: np.sin(2 * u) + u * v * v, (0, 1), (0, 2), 21, 17)
    gap = 1.0 + 0.1 * g.values
    base = cs.BaseIndex(6, 11)
    line = cs.cumulative_integral_v(g.like(cs.partial_v(g).values / gap), base).values
    want = (cs.cumulative_integral_u(g.like(cs.partial_u(g).values / gap), base).values
            + line[base.i0][None, :])
    assert np.array_equal(path_exponent(g.values, gap, g, base, 0), want)


class TestInvertMonotoneMap:
    def test_identity(self):
        x = np.linspace(0, 1, 11)
        assert abs(cs.invert_monotone_map(x, x, 0.37) - 0.37) < 1e-12

    def test_affine(self):
        x = np.linspace(0, 1, 21)
        assert abs(cs.invert_monotone_map(x, 2 * x + 1, 2.0) - 0.5) < 1e-12

    def test_sinh(self):
        x = np.linspace(0, 2, 201)
        got = cs.invert_monotone_map(x, np.sinh(x), 1.0)
        assert abs(got - math.asinh(1.0)) < 1e-8

    def test_vectorized(self):
        x = np.linspace(0, 2, 201)
        ys = np.array([0.0, 0.5, 1.0, np.sinh(2.0)])
        got = cs.invert_monotone_map(x, np.sinh(x), ys)
        assert np.max(np.abs(got - np.arcsinh(ys))) < 1e-8

    def test_out_of_range(self):
        x = np.linspace(0, 1, 11)
        with pytest.raises(RangeError):
            cs.invert_monotone_map(x, x, 1.5)

    def test_non_monotone(self):
        x = np.linspace(0, 1, 11)
        y = np.sin(4 * x)
        with pytest.raises(MonotonicityError):
            cs.invert_monotone_map(x, y, 0.2)
