import math

import numpy as np
import pytest

import canonsurf as cs
from canonsurf.errors import DimensionError, MonotonicityError, ShapeMismatchError
from canonsurf.grid import (FOURTH_ORDER, SECOND_ORDER, _cumint4, _cumtrapz, _deriv4,
                            _diff, path_exponent, same_geometry, spline_at,
                            spline_eval, spline_inverse_at, spline_slopes, tensor_at)

from helpers import five_point_slopes, grid_from_fn, observed_orders


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


@pytest.mark.parametrize("shape", [(3, 3, 3, 3), (4, 4, 2)])
def test_grid_rejects_values_that_are_neither_scalar_nor_3_vector(shape):
    with pytest.raises(DimensionError):
        cs.Grid2(0, 0, 0.1, 0.1, np.zeros(shape))


def test_like_rejects_another_shape():
    g = cs.Grid2(0, 0, 0.1, 0.1, np.zeros((4, 5)))
    with pytest.raises(ShapeMismatchError):
        g.like(np.zeros((5, 4)))


@pytest.mark.parametrize("i0,j0", [(4, 0), (0, 5), (-1, 2)])
def test_base_index_outside_the_grid_rejected(i0, j0):
    with pytest.raises(DimensionError):
        cs.BaseIndex(i0, j0).validate(cs.Grid2(0, 0, 0.1, 0.1, np.zeros((4, 5))))


def test_same_geometry_rejects_other_shapes_and_geometry():
    g = cs.Grid2(0, 0, 0.1, 0.1, np.zeros((4, 5)))
    with pytest.raises(ShapeMismatchError, match="shapes differ"):
        same_geometry(g, cs.Grid2(0, 0, 0.1, 0.1, np.zeros((5, 4))))
    for other in ((1e-3, 0, 0.1, 0.1), (0, 0, 0.1, 0.2)):
        with pytest.raises(ShapeMismatchError, match="geometry differs"):
            same_geometry(g, cs.Grid2(*other, np.zeros((4, 5))))


@pytest.mark.parametrize("odd", ["shape", "origin", "spacing"])
@pytest.mark.parametrize("container, count", [("JetGrid", 6), ("FormGrid", 7), ("SurfaceMesh", 2)])
def test_containers_hold_one_geometry(container, count, odd):
    # the grids of one container are read node for node, so one of another
    # shape (9 x 8 among 9 x 9), origin or spacing must be refused where it enters
    grid = lambda u0, du, nv: cs.Grid2(u0, 0.0, du, 0.1, np.ones((9, nv, 3)))
    last = {"shape": grid(0.0, 0.1, 8), "origin": grid(0.05, 0.1, 9),
            "spacing": grid(0.0, 0.2, 9)}[odd]
    with pytest.raises(ShapeMismatchError):
        getattr(cs, container)(*[grid(0.0, 0.1, 9)] * (count - 1), last)


def test_grid_values_immutable():
    g = cs.Grid2(0, 0, 1, 1, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        g.values[0, 0] = 1.0


def test_d_u_d_v_constant_is_zero():
    g = grid_from_fn(lambda u, v: 0 * u + 3.7, (0, 1), (0, 1), 12)
    assert np.all(cs.d_u(g.values, g) == 0.0)
    assert np.all(cs.d_v(g.values, g) == 0.0)


def test_d_u_linear_exact():
    g = grid_from_fn(lambda u, v: u + 0 * v, (0, 2), (0, 1), 17)
    assert np.max(np.abs(cs.d_u(g.values, g) - 1.0)) < 1e-12
    assert np.max(np.abs(cs.d_v(g.values, g))) < 1e-12


def test_d_u_sin_accuracy_and_order():
    errs = []
    for du in (0.01, 0.005):
        n = int(round(1.0 / du)) + 1
        u = np.linspace(0.0, 1.0, n)
        g = cs.Grid2(0.0, 0.0, du, 0.5, np.sin(u)[:, None] * np.ones((n, 3)))
        exact = np.cos(u)[:, None]
        errs.append(np.max(np.abs(cs.d_u(g.values, g) - exact)))
    assert errs[0] < 1e-4
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_second_derivative_quadratic_exact():
    g = grid_from_fn(lambda u, v: u * u + 0 * v, (0, 1), (0, 1), 9)
    assert np.max(np.abs(cs.d_uu(g.values, g) - 2.0)) < 1e-10
    assert np.max(np.abs(cs.d_vv(g.values, g))) < 1e-10


@pytest.mark.parametrize("shape, short", [((3, 5), "u"), ((5, 3), "v")])
def test_second_derivative_needs_four_nodes(shape, short):
    g = cs.Grid2(0, 0, 0.1, 0.1, np.ones(shape))
    second = {"u": cs.d_uu, "v": cs.d_vv}
    with pytest.raises(DimensionError, match="at least 4 samples"):
        second[short](g.values, g)
    long = "v" if short == "u" else "u"
    assert np.all(second[long](g.values, g) == 0.0)


def test_cumulative_integral_constant_exact():
    # binary-representable spacing: trapezoid on a constant is exact, bit for bit
    g = grid_from_fn(lambda u, v: 1.0 + 0 * u + 0 * v, (0, 1.25), (0, 1), 11)
    out = _cumtrapz(g.values, g.du, 0, axis=0)
    expected = 0.125 * np.arange(11)[:, None] * np.ones((11, 11))
    assert np.max(np.abs(out - expected)) == 0.0


def test_cumulative_integral_signed_from_interior_base():
    g = grid_from_fn(lambda u, v: 1.0 + 0 * u + 0 * v, (0, 1.25), (0, 1), 11)
    out = _cumtrapz(g.values, g.du, 2, axis=0)
    assert out[2, 4] == 0.0
    assert out[0, 3] == -0.25


def test_cumulative_integral_cos_order():
    errs = []
    for n in (101, 201):
        u = np.linspace(0.0, 1.0, n)
        du = u[1] - u[0]
        g = cs.Grid2(0.0, 0.0, du, 1.0, np.cos(u)[:, None] * np.ones((n, 3)))
        out = _cumtrapz(g.values, g.du, 0, axis=0)
        errs.append(np.max(np.abs(out - np.sin(u)[:, None])))
    assert 3.0 < errs[0] / errs[1] < 5.0


@pytest.mark.parametrize("k", ["first", "interior", "last"])
def test_cumulative_integrals_equal_scipy_bitwise(k):
    cumulative_trapezoid = pytest.importorskip("scipy.integrate").cumulative_trapezoid

    rng = np.random.default_rng(5)
    g = cs.Grid2(0.3, -1.0, 0.071, 0.113, rng.normal(size=(13, 17)))
    for axis, (h, n) in enumerate(((g.du, g.nu), (g.dv, g.nv))):
        k0 = {"first": 0, "interior": n // 3, "last": n - 1}[k]
        total = cumulative_trapezoid(g.values, dx=h, axis=axis, initial=0.0)
        want = total - np.take(total, [k0], axis=axis)
        assert np.array_equal(_cumtrapz(g.values, h, k0, axis), want)


def test_derivative_then_integral_roundtrip_order():
    errs = []
    for n in (33, 65):
        g = grid_from_fn(lambda u, v: np.sin(2 * u) * np.cos(v), (0, 1), (0, 1), n)
        base = cs.BaseIndex(n // 2, 0)
        back = _cumtrapz(cs.d_u(g.values, g), g.du, base.i0, axis=0)
        expected = g.values - g.values[base.i0 : base.i0 + 1, :]
        errs.append(np.max(np.abs(back - expected)))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_partials_commute():
    g = grid_from_fn(lambda u, v: np.sin(2 * u + 0.3) * np.exp(0.5 * v), (0, 1), (0, 1), 21)
    uv = cs.d_v(cs.d_u(g.values, g), g)
    vu = cs.d_u(cs.d_v(g.values, g), g)
    assert np.max(np.abs(uv - vu)) < 1e-10


def test_operations_are_pure():
    g = grid_from_fn(lambda u, v: np.sin(u) + np.cos(v), (0, 1), (0, 2), 15)
    a = cs.d_u(g.values, g)
    b = cs.d_u(g.values, g)
    assert np.array_equal(a, b)
    c = _cumtrapz(g.values, g.dv, 7, axis=1)
    d = _cumtrapz(g.values, g.dv, 7, axis=1)
    assert np.array_equal(c, d)


def test_small_grid_rejected():
    with pytest.raises(DimensionError):
        cs.Grid2(0, 0, 1, 1, np.zeros((2, 3)))


@pytest.mark.parametrize("order", ["C", "F"])
def test_grid_keeps_an_owned_float64_array_and_freezes_it(order):
    values = np.random.default_rng(0).normal(size=(4, 5)).copy(order)
    g = cs.Grid2(0, 0, 1, 1, values)
    assert g.values is values
    assert not values.flags.writeable and values.flags[f"{order}_CONTIGUOUS"]
    with pytest.raises(ValueError):
        values[0, 0] = 1.0


@pytest.mark.parametrize("make", [lambda base: base[1:5], lambda base: base.T[:, :4],
                                  lambda base: base.astype(np.float32),
                                  lambda base: base.astype(np.int64), lambda base: base.tolist()])
def test_grid_copies_views_other_dtypes_and_lists(make):
    base = np.arange(30.0).reshape(6, 5).copy()
    given = make(base)
    g = cs.Grid2(0, 0, 1, 1, given)
    assert g.values.dtype == np.float64 and not g.values.flags.writeable
    assert not np.shares_memory(g.values, base)
    assert base.flags.writeable
    if isinstance(given, np.ndarray):
        assert given.flags.writeable
    kept = g.values.copy()
    base += 1.0
    assert np.array_equal(g.values, kept)


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
        got = path_exponent(f, np.exp(f), g, base, axis, stencils)[0]
        assert got[base.i0, base.j0] == 0.0
        errs.append(np.max(np.abs(got - (np.exp(-f[base.i0, base.j0]) - np.exp(-f)))))
    return errs


@pytest.mark.parametrize("axis", [0, 1])
def test_path_exponent_second_order_default(axis):
    assert min(observed_orders(_path_exponent_errors(axis, SECOND_ORDER))) >= 1.8


@pytest.mark.parametrize("axis", [0, 1])
def test_path_exponent_fourth_order_stencils(axis):
    assert min(observed_orders(_path_exponent_errors(axis, FOURTH_ORDER))) >= 3.5


def test_path_exponent_matches_cumulative_integrals():
    # exponent along u over every row plus the v-line through the base column
    g = grid_from_fn(lambda u, v: np.sin(2 * u) + u * v * v, (0, 1), (0, 2), 21, 17)
    gap = 1.0 + 0.1 * g.values
    base = cs.BaseIndex(6, 11)
    line = _cumtrapz(cs.d_v(g.values, g) / gap, g.dv, base.j0, axis=1)
    rate = cs.d_u(g.values, g) / gap
    want = _cumtrapz(rate, g.du, base.i0, axis=0) + line[base.i0][None, :]
    got, got_rate = path_exponent(g.values, gap, g, base, 0, SECOND_ORDER)
    assert np.array_equal(got, want)
    assert np.array_equal(got_rate, rate)


@pytest.mark.parametrize("stencils", [SECOND_ORDER, FOURTH_ORDER])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("shape", [(4, 9), (7, 5), (33, 21)])
def test_path_exponent_differentiates_only_the_base_line_across(stencils, axis, shape):
    # the across-derivative of the base line alone equals that line of the
    # whole grid's derivative, bitwise, also where _deriv4 falls back to _diff
    diff, cumint = stencils
    rng = np.random.default_rng(sum(shape))
    g = cs.Grid2(0.2, -0.5, 0.13, 0.07, rng.normal(size=shape))
    gap = 1.0 + rng.uniform(size=shape)
    base = cs.BaseIndex(shape[0] // 3, 2 * shape[1] // 3)
    h, k0, other = (g.du, g.dv), (base.i0, base.j0), 1 - axis
    rate = diff(g.values, h[axis], axis) / gap
    line = np.take(diff(g.values, h[other], other) / gap, [k0[axis]], axis=axis)
    want = cumint(rate, h[axis], k0[axis], axis) + cumint(line, h[other], k0[other], other)
    got, got_rate = path_exponent(g.values, gap, g, base, axis, stencils)
    assert np.array_equal(got, want)
    assert np.array_equal(got_rate, rate)


@pytest.mark.parametrize("shape", [(3, 4), (4, 9), (9, 4, 3), (5, 6, 7)])
def test_diff_is_numpys_second_order_gradient(shape):
    values = np.random.default_rng(len(shape)).normal(size=shape)
    for axis in range(len(shape)):
        if shape[axis] >= 3:
            want = np.gradient(values, 0.37, axis=axis, edge_order=2)
            assert np.array_equal(_diff(values, 0.37, axis), want)


@pytest.mark.parametrize("axis", [0, 1])
def test_deriv4_below_five_nodes_is_the_second_order_stencil(axis):
    rng = np.random.default_rng(3)
    for n in (3, 4):
        values = np.moveaxis(rng.normal(size=(n, 6)), 0, axis)
        assert np.array_equal(_deriv4(values, 0.1, axis), _diff(values, 0.1, axis))
    with pytest.raises(DimensionError):
        _deriv4(np.moveaxis(rng.normal(size=(2, 6)), 0, axis), 0.1, axis)


def test_deriv4_is_exactly_zero_on_constants():
    # every row weighs differences, so no roundoff is left over
    rng = np.random.default_rng(11)
    for c in rng.normal(scale=10.0, size=20):
        for axis in (0, 1):
            assert np.all(_deriv4(np.full((9, 6), c), 0.1, axis) == 0.0), c


def test_spline_at_needs_three_nodes():
    # two nodes along v, where the tensor cubic forms the slopes itself
    y = np.zeros((4, 2))
    with pytest.raises(DimensionError):
        tensor_at(y, _deriv4(y, 1.0, 0), [0.5], [0.5], 0, 0)


def _random_samples(n, tail, seed):
    # the trailing axes in reverse memory order, so a trailing shape such as
    # (2, 3) is a view that no reshape flattens
    y = np.random.default_rng(seed).standard_normal((n,) + tail[::-1])
    return y.transpose((0,) + tuple(range(len(tail), 0, -1)))


def _polynomial(coeffs, x, order=0):
    # the order-th derivative of sum_k coeffs[k] x^k along the axis of the
    # 1-D points x, with coefficients of any trailing shape
    for _ in range(order):
        coeffs = coeffs[1:] * np.arange(1, len(coeffs)).reshape((-1,) + (1,) * (coeffs.ndim - 1))
    x = np.asarray(x, dtype=float).reshape((-1,) + (1,) * (coeffs.ndim - 1))
    out = np.zeros((x.shape[0],) + coeffs.shape[1:])
    for c in coeffs[::-1]:
        out = out * x + c
    return out


@pytest.mark.parametrize("n", [5, 6, 17, 64, 513])
@pytest.mark.parametrize("tail", [(), (1,), (3, 1), (2, 3), (257,)])
def test_uniform_cubic_is_exact_on_polynomials(n, tail):
    # five-point slopes are exact on quartics, so the Hermite cubic reproduces
    # a cubic between the nodes and beyond the ends, and integrates it exactly
    rng = np.random.default_rng(n + len(tail))
    quartic = rng.standard_normal((5,) + tail)
    x = np.linspace(-1.0, 1.0, n)
    h = x[1] - x[0]
    slopes = _deriv4(_polynomial(quartic, x), 1.0, 0)
    want = h * _polynomial(quartic, x, 1)
    assert np.max(np.abs(slopes - want)) <= 1e-12 * np.max(np.abs(want))
    cubic = quartic[:4]
    y = _polynomial(cubic, x)
    pos = np.concatenate([np.arange(n - 1) + 0.5, [-0.4, n - 0.6]])
    want = _polynomial(cubic, -1.0 + h * pos)
    got = spline_at(y, _deriv4(y, 1.0, 0), pos, 0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    powers = np.arange(1.0, 5.0).reshape((-1,) + (1,) * len(tail))
    anti = _polynomial(np.concatenate([np.zeros((1,) + tail), cubic / powers]), x)
    for i0 in (0, n // 2, n - 1):
        want = anti - anti[i0]
        got = _cumint4(y, h, i0, 0)
        assert np.all(got[i0] == 0.0)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(anti))


def test_cubics_converge_at_fourth_order():
    # sin(3x): uniform values at the interval midpoints, integrals from the
    # first node, and non-uniform slopes on the graded nodes x = t + t^2
    errors = {"values": [], "integrals": [], "slopes": []}
    for n in (33, 65, 129, 257):
        t = np.linspace(0.0, 1.0, n)
        h = t[1]
        mid = np.arange(n - 1) + 0.5
        y = np.sin(3.0 * t)
        errors["values"].append(np.max(np.abs(spline_at(y, _deriv4(y, 1.0, 0), mid, 0)
                                              - np.sin(3.0 * h * mid))))
        errors["integrals"].append(np.max(np.abs(_cumint4(np.sin(3.0 * t), h, 0, 0)
                                                 - (1.0 - np.cos(3.0 * t)) / 3.0)))
        x = t + t * t
        errors["slopes"].append(np.max(np.abs(spline_slopes(x, np.sin(3.0 * x))
                                              - 3.0 * np.cos(3.0 * x))))
    for kind, errs in errors.items():
        assert min(observed_orders(errs)) > 3.5, (kind, errs)


def _non_uniform_nodes(kind, n, rng):
    # random steps, steps falling geometrically from 1 to 1e-3, or random
    # steps with a single 1e-4 interval at the first or the last end
    if kind == "geometric":
        return np.concatenate([[0.0], np.cumsum(np.geomspace(1.0, 1e-3, n - 1))])
    h = rng.uniform(0.2, 1.0, n - 1)
    if kind == "short-first":
        h[0] = 1e-4
    elif kind == "short-last":
        h[-1] = 1e-4
    return np.concatenate([[0.0], np.cumsum(h)]) - 1.0


@pytest.mark.parametrize("kind", ["random", "geometric", "short-first", "short-last"])
@pytest.mark.parametrize("n", [4, 5, 33, 513, 8193])
@pytest.mark.parametrize("tail", [(), (8,), (257,)])
def test_non_uniform_spline_equals_scipy_not_a_knot(n, tail, kind):
    # the slopes of the polynomial through five nodes are exact on quartics
    # (through four nodes, on cubics) up to roundoff, which grows with the
    # ratio of the span to the shortest step (1e-8 of the span at 8193 nodes).
    # On a cubic they equal the slopes of scipy's not-a-knot spline, which is
    # exact there too, to the roundoff of either. On random nodes the Hermite
    # cubic then reproduces the cubic at the nodes, between them and half an
    # end step beyond the ends, its derivative of order k with about h^-k
    # times the roundoff. The nodes are scaled onto [-1, 1]
    CubicSpline = pytest.importorskip("scipy.interpolate").CubicSpline

    rng = np.random.default_rng(n)
    x = _non_uniform_nodes(kind, n, rng)
    x = 2.0 * (x - x[0]) / (x[-1] - x[0]) - 1.0
    coeffs = rng.standard_normal((5 if n > 4 else 4,) + tail)
    want = _polynomial(coeffs, x, 1)
    s = spline_slopes(x, _polynomial(coeffs, x))
    assert s.shape == want.shape
    assert np.max(np.abs(s - want)) <= 1e-8 * np.max(np.abs(want))
    cubic = coeffs[:4]
    y = _polynomial(cubic, x)
    s = spline_slopes(x, y)
    ref = CubicSpline(x, y, axis=0)(x, 1)
    assert np.max(np.abs(s - ref)) <= 1e-8 * np.max(np.abs(ref))
    inside = x[:-1] + np.diff(x) * rng.uniform(0.0, 1.0, n - 1)
    xq = np.concatenate([x, inside, [1.5 * x[0] - 0.5 * x[1], 1.5 * x[-1] - 0.5 * x[-2]]])
    for order, tol in zip((0, 1, 2), (1e-13, 1e-10, 1e-7)) if kind == "random" else ():
        got = spline_eval(x, y, s, xq, order)
        want = _polynomial(cubic, xq, order)
        assert got.shape == xq.shape + tail
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), order


@pytest.mark.parametrize("n", [5, 17, 513])
@pytest.mark.parametrize("tail", [(), (2,), (257,)])
def test_non_uniform_spline_on_uniform_nodes_equals_the_uniform_one(n, tail):
    # on uniform nodes the five nearest nodes are _deriv4's, so the slopes are
    # its slopes divided by the step
    y = _random_samples(n, tail, n)
    want = _deriv4(y, 1.0, 0) / 0.25
    got = spline_slopes(0.25 * np.arange(n), y)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _window_slopes(x, y):
    # the derivative at each node of the polynomial through its five nearest
    # nodes (all of them below five), by a Vandermonde solve in the offsets
    n = x.size
    m = min(n, 5)
    out = np.empty_like(y)
    for i in range(n):
        w = np.clip(i - 2, 0, n - m) + np.arange(m)
        scale = np.max(np.abs(x[w] - x[i]))
        coeffs = np.linalg.solve(np.vander((x[w] - x[i]) / scale, increasing=True), y[w])
        out[i] = coeffs[1] / scale
    return out


def _shaped_cases():
    # (x, y) along axis 0 on non-uniform nodes: monotone, non-monotone, flat
    # runs (zero interval slopes), data turning at either end and a steep edge
    rng = np.random.default_rng(11)
    for n in (4, 5, 33):
        x = np.cumsum(rng.uniform(0.2, 1.0, n)) - 1.0
        t = np.linspace(0.0, 1.0, n)
        yield n, "monotone", x, np.exp(2.0 * t) + t
        yield n, "non-monotone", x, np.sin(7.0 * t) + 0.3 * rng.standard_normal(n)
        yield n, "flat-runs", x, np.floor(3.0 * t) + (t > 0.5)
        ends = rng.standard_normal(n)
        ends[:3], ends[-3:] = [0.0, 1.0, 0.8], [0.8, 1.0, 0.0]
        yield n, "edge-turns", x, ends
        yield n, "steep-edge", x, np.where(t < 0.1, 10.0 * t, 1.0 + 0.01 * t) - 4.0 * (t == 1.0)


@pytest.mark.parametrize("n, kind, x, y", list(_shaped_cases()),
                         ids=[f"{c[0]}-{c[1]}" for c in _shaped_cases()])
def test_non_uniform_spline_equals_scipy_on_shaped_data(n, kind, x, y):
    # scipy's Hermite cubic through the slopes of _window_slopes
    CubicHermiteSpline = pytest.importorskip("scipy.interpolate").CubicHermiteSpline

    inside = x[:-1] + np.diff(x) * np.linspace(0.1, 0.9, n - 1)
    xq = np.concatenate([x, [x[0], x[-1]], inside])
    table = np.stack([y, y**2 - 1.0, -3.0 * y], axis=1)
    for data in (y, table):
        s = spline_slopes(x, data)
        assert np.max(np.abs(s - _window_slopes(x, data))) <= 1e-13 * np.max(np.abs(s))
        want = CubicHermiteSpline(x, data, _window_slopes(x, data), axis=0)
        for order in (0, 1, 2):
            got = spline_eval(x, data, s, xq, order)
            assert got.shape == want(xq, order).shape
            scale = np.max(np.abs(want(xq, order)))
            assert np.max(np.abs(got - want(xq, order))) <= 1e-13 * scale, order


def test_non_uniform_spline_needs_four_nodes():
    with pytest.raises(DimensionError):
        spline_slopes([0.0, 0.5, 2.0], [1.0, 0.0, 1.0])


def test_non_uniform_spline_raises_no_runtime_warning():
    # flat runs and turning data, on nodes whose steps vary by a factor 20
    x = np.array([0.0, 0.05, 0.1, 1.0, 1.2, 1.25, 2.0, 2.1, 3.0])
    y = np.array([0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 2.0, -1.0, -1.0])
    xq = np.linspace(0.0, 3.0, 41)
    with np.errstate(all="raise"):
        table = np.stack([y, -y, np.zeros_like(y)], axis=1)
        s = spline_slopes(x, table)
        got = [spline_eval(x, table, s, xq, order) for order in (0, 1, 2)]
    assert all(np.all(np.isfinite(g)) for g in got)
    assert np.all(s[:, 2] == 0.0) and np.all(got[0][:, 2] == 0.0)


@pytest.mark.parametrize("nu, nv", [(23, 31), (5, 6), (33, 17)])
def test_bicubic_equals_scipy_rect_bivariate_spline(nu, nv):
    # a non-square grid, a tensor product of points inside and beyond its
    # edges (clamped to the grid, as the affine fit clamps them and as
    # FITPACK's evaluators do), values and derivatives up to the cross one.
    # On a bicubic polynomial both tensor_at and RectBivariateSpline are exact
    from numpy.polynomial import polynomial as P
    RectBivariateSpline = pytest.importorskip("scipy.interpolate").RectBivariateSpline

    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((4, 4))
    u, v = np.linspace(0.0, 1.3, nu), np.linspace(-0.5, 2.0, nv)
    values = P.polygrid2d(u, v, coeffs)
    ref = RectBivariateSpline(u, v, values)
    g = cs.Grid2.from_axes(u, v, values)
    table = np.stack([values, -2.0 * values], axis=-1)
    # sorted, as RectBivariateSpline evaluates a tensor product of sorted points
    pu = np.clip(np.sort(rng.uniform(-0.1, 1.4, 25)), 0.0, 1.3)
    pv = np.clip(np.sort(rng.uniform(-0.6, 2.1, 20)), -0.5, 2.0)
    for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
        got = tensor_at(table, _deriv4(table, 1.0, 0), (pu - g.u0) / g.du, (pv - g.v0) / g.dv,
                        dx, dy) / (g.du**dx * g.dv**dy)
        assert got.shape == (pu.size, pv.size, 2)
        want = P.polygrid2d(pu, pv, P.polyder(P.polyder(coeffs, dx, axis=0), dy, axis=1))
        # a derivative of order k by the step h carries h^-k times the roundoff
        tol = 1e-14 * np.max(np.abs(want)) / (g.du**dx * g.dv**dy)
        assert np.max(np.abs(got[..., 0] - want)) <= tol, (dx, dy)
        assert np.max(np.abs(got[..., 1] + 2.0 * want)) <= 2.0 * tol, (dx, dy)
        assert np.max(np.abs(got[..., 0] - ref(pu, pv, dx=dx, dy=dy))) <= tol, (dx, dy)


@pytest.mark.parametrize("n", [3, 4, 5, 33])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("width", [None, 257])
def test_cumint4_equals_spline_antiderivative(n, axis, width):
    # width: the lines integrated at once (n when None); the reference is
    # scipy's Hermite cubic through the textbook five-point slopes
    CubicHermiteSpline = pytest.importorskip("scipy.interpolate").CubicHermiteSpline

    h = 0.07
    u = h * np.arange(n)
    v = h * np.arange(width or n)
    table = np.exp(0.8 * u[:, None] - 0.3 * v[None, :]) + np.sin(3.0 * u)[:, None] * v[None, :]
    values = table if axis == 0 else table.T
    scale = np.max(np.abs(values))
    lines = np.moveaxis(values, axis, 0)
    anti = CubicHermiteSpline(u, lines, five_point_slopes(lines) / h, axis=0).antiderivative()
    for i0 in (0, n // 2, n - 1):
        want = np.moveaxis(anti(u) - anti(u[i0]), 0, axis)
        got = _cumint4(values, h, i0, axis)
        assert np.all(np.take(got, i0, axis=axis) == 0.0)
        assert np.max(np.abs(got - want)) <= 1e-14 * scale


def test_spline_at_reproduces_a_cubic():
    # a cubic in the node position, with a trailing (2, 3) shape, and its
    # first two derivatives, at nodes, between them and just outside the ends
    n = 11
    coeffs = np.random.default_rng(5).standard_normal((4, 2, 3))
    cubic = lambda p, d: sum(c * math.perm(k, d) * np.asarray(p)[:, None, None] ** (k - d)
                             for k, c in enumerate(coeffs) if k >= d)
    pos = np.concatenate([np.arange(n), np.linspace(-0.4, n - 0.6, 37)])
    y = cubic(np.arange(n), 0)
    for order in (0, 1, 2):
        got = spline_at(y, _deriv4(y, 1.0, 0), pos, order)
        assert got.shape == (pos.size, 2, 3)
        want = cubic(pos, order)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), order


@pytest.mark.parametrize("n", [3, 4, 5, 17, 64])
@pytest.mark.parametrize("width", [4, 257])
def test_spline_at_equals_scipy_hermite(n, width):
    # scipy's Hermite cubic through the textbook five-point slopes
    CubicHermiteSpline = pytest.importorskip("scipy.interpolate").CubicHermiteSpline

    rng = np.random.default_rng(n)
    y = rng.standard_normal((n, width))
    pos = rng.uniform(0.0, n - 1.0, 50)
    want = CubicHermiteSpline(np.arange(n), y, five_point_slopes(y), axis=0)(pos)
    got = spline_at(y, _deriv4(y, 1.0, 0), pos, 0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(y))


def test_spline_inverse_is_exact_on_affine_maps():
    y = 2.5 * np.arange(17) - 3.0
    yq = np.linspace(y[0], y[-1], 45)
    assert np.max(np.abs(spline_inverse_at(y, yq) - (yq + 3.0) / 2.5)) <= 1e-13


def test_spline_inverse_converges_at_fourth_order():
    errors = []
    yq = np.linspace(0.0, math.sinh(2.0), 301)
    for n in (51, 101, 201):
        x = np.linspace(0.0, 2.0, n)
        pos = spline_inverse_at(np.sinh(x), yq)
        errors.append(np.max(np.abs(x[1] * pos - np.arcsinh(yq))))
    assert errors[-1] < 1e-9, errors
    assert min(observed_orders(errors)) > 3.8, errors


def test_spline_inverse_rejects_a_spline_that_turns():
    # strictly increasing samples, but the five-point slope is -0.24 at nodes 2 and 5
    y = np.array([0.0, 1.0, 1.01, 1.02, 3.0, 3.01, 3.02, 4.0])
    assert np.all(np.diff(y) > 0) and np.min(_deriv4(y, 1.0, 0)) < -0.2
    with pytest.raises(MonotonicityError):
        spline_inverse_at(y, [0.5])
    # and samples that fall while every five-point slope stays positive
    y = np.array([0.0, 1.0, 2.0, 3.0, 2.999, 4.0, 5.0, 6.0, 7.0])
    assert np.min(_deriv4(y, 1.0, 0)) > 0
    with pytest.raises(MonotonicityError):
        spline_inverse_at(y, [0.5])
