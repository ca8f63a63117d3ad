"""Shared numerical substrate: grids, every derivative and quadrature
stencil, path exponents and the canonical factor pair, and the package's one
cubic, the Hermite cubic with five-point node slopes.

This module alone decides the discretization, and every stencil takes and
returns bare arrays sampled on a Grid2's nodes. SECOND_ORDER (central
differences inside, one-sided second-order stencils on the two boundary
layers, composite trapezoid quadrature) gives every residual in the package a
clean O(h^2) target; FOURTH_ORDER (five-point differences, quadrature of the
cubic) serves the canonical maps, the affine fit and the reconstruction.
Every stencil acts along axis 0 of a swapped view, elementwise across the
others, so one line's derivative is bitwise that line of the whole grid's,
and forms its interior in place in the array it returns; the running sums
offset their totals in place too. The factor pair exp(-+P) of path_factors
is built here only, and every caller names its stencil order; it comes with
the full-grid rates df / gap its exponents integrate, which the canonical
Gauss residual reuses rather than forming them again. The cubic also
integrates each step of the frame march (_step_integrals), inverts sampled
maps (spline_inverse_at), interpolates non-uniform samples (spline_slopes,
spline_eval) and, along u and then along v, resamples grids and evaluates
them for the affine fit (tensor_at).

On every interval the cubic is the Hermite cubic of its end values and end
slopes (de Boor, A Practical Guide to Splines, 1978). The slopes are local:
on uniform nodes those of _deriv4, per step, and on non-uniform ones the
derivative at each node of the polynomial through the same five nodes
(Fornberg, Math. Comp. 51, 1988). Both are fourth order at every node, the
two ends included, and both give exactly 0 on constants. Three uniform
nodes take the parabola through them, four the second-order slopes of _diff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MonotonicityError, ShapeMismatchError

GEOMETRY_RTOL = 1e-12  # same_geometry's tolerance on origins and spacings


def _frozen_array(a) -> np.ndarray:
    # an owned float64 ndarray is kept; a view, another dtype or a list is
    # copied by np.array, which keeps the source's memory layout
    if type(a) is np.ndarray and a.dtype == np.float64 and a.flags.owndata:
        arr = a
    else:
        arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid2:
    """Uniform rectangular parameter grid carrying scalar or 3-vector samples.

    values[i, j] (or values[i, j, :]) is the sample at parameter
    (u0 + i*du, v0 + j*dv). Instances are immutable; all operations on them
    are pure functions returning new grids.

    A grid takes ownership of a float64 numpy array that owns its data: it
    keeps that array and makes it read-only in place, so the caller's array
    can no longer be written (views taken of it earlier still can, and must
    not be). Anything else, a view, another dtype or a list, is copied, and
    the caller's object is left as it was.
    """

    u0: float
    v0: float
    du: float
    dv: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.ndim not in (2, 3):
            raise DimensionError(f"values must be 2-D or (nu, nv, 3), got shape {self.values.shape}")
        if self.values.ndim == 3 and self.values.shape[2] != 3:
            raise DimensionError(f"vector grids must have 3 components, got {self.values.shape[2]}")
        if self.nu < 3 or self.nv < 3:
            raise DimensionError(f"grid needs at least 3x3 samples, got {self.nu}x{self.nv}")
        if not np.all(np.isfinite([self.u0, self.v0, self.du, self.dv])):
            raise DimensionError(f"origin and spacings must be finite, got origin "
                                 f"({self.u0}, {self.v0}), spacings ({self.du}, {self.dv})")
        if not (self.du > 0 and self.dv > 0):
            raise DimensionError(f"spacings must be positive, got du={self.du}, dv={self.dv}")

    @property
    def nu(self) -> int:
        return self.values.shape[0]

    @property
    def nv(self) -> int:
        return self.values.shape[1]

    @property
    def u_axis(self) -> np.ndarray:
        return self.u0 + self.du * np.arange(self.nu)

    @property
    def v_axis(self) -> np.ndarray:
        return self.v0 + self.dv * np.arange(self.nv)

    def like(self, values) -> "Grid2":
        """New grid with the same geometry and fresh values."""
        values = np.asarray(values, dtype=float)
        if values.shape[:2] != (self.nu, self.nv):
            raise ShapeMismatchError(f"expected leading shape {(self.nu, self.nv)}, got {values.shape}")
        return Grid2(self.u0, self.v0, self.du, self.dv, values)

    @staticmethod
    def from_axes(u_axis, v_axis, values) -> "Grid2":
        u_axis = np.asarray(u_axis, dtype=float)
        v_axis = np.asarray(v_axis, dtype=float)
        return Grid2(u_axis[0], v_axis[0], float(u_axis[1] - u_axis[0]), float(v_axis[1] - v_axis[0]), values)


@dataclass(frozen=True)
class BaseIndex:
    """Grid indices of the fixed base point (u0, v0) used by all path integrals."""

    i0: int
    j0: int

    def validate(self, g: Grid2) -> None:
        if not (0 <= self.i0 < g.nu and 0 <= self.j0 < g.nv):
            raise DimensionError(f"base index {(self.i0, self.j0)} outside {g.nu}x{g.nv} grid")


def same_geometry(*grids: Grid2) -> None:
    """Raise ShapeMismatchError unless all grids share shape and parameter geometry."""
    g0 = grids[0]
    for g in grids[1:]:
        if (g.nu, g.nv) != (g0.nu, g0.nv):
            raise ShapeMismatchError(f"grid shapes differ: {(g0.nu, g0.nv)} vs {(g.nu, g.nv)}")
        scale = max(abs(g0.du), abs(g0.dv), 1.0)
        gap = max(abs(g.u0 - g0.u0), abs(g.v0 - g0.v0), abs(g.du - g0.du), abs(g.dv - g0.dv))
        if gap > GEOMETRY_RTOL * scale:
            raise ShapeMismatchError("grid parameter geometry differs")


def _diff(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    # np.gradient(values, h, axis=axis, edge_order=2), operation for operation
    if values.shape[axis] < 3:
        raise DimensionError("need at least 3 samples along the differentiated axis")
    f = np.asarray(values, dtype=float).swapaxes(axis, 0)
    out = np.empty_like(f)
    inner = np.subtract(f[2:], f[:-2], out=out[1:-1])
    inner /= 2.0 * h
    out[0] = -1.5 / h * f[0] + 2.0 / h * f[1] + -0.5 / h * f[2]
    out[-1] = 0.5 / h * f[-3] + -2.0 / h * f[-2] + 1.5 / h * f[-1]
    return out.swapaxes(0, axis)


def d_u(values: np.ndarray, g: Grid2) -> np.ndarray:
    """d/du of an array sampled on g's nodes: central differences inside,
    one-sided second order at the two boundary columns."""
    return _diff(values, g.du, axis=0)


def d_v(values: np.ndarray, g: Grid2) -> np.ndarray:
    """d/dv of an array sampled on g's nodes, symmetric to d_u."""
    return _diff(values, g.dv, axis=1)


def _second_diff(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    # interior: (f[i-1] - 2 f[i] + f[i+1]) / h^2; boundary: one-sided second order
    if values.shape[axis] < 4:
        raise DimensionError("need at least 4 samples for second derivatives")
    f = np.asarray(values, dtype=float).swapaxes(axis, 0)
    out = np.empty_like(f)
    inner = np.multiply(f[1:-1], 2.0, out=out[1:-1])
    np.subtract(f[:-2], inner, out=inner)
    inner += f[2:]
    inner /= h**2
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h**2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h**2
    return out.swapaxes(0, axis)


def d_uu(values: np.ndarray, g: Grid2) -> np.ndarray:
    """d2/du2 of an array sampled on g's nodes by the three-point stencil,
    one-sided second order at the two boundary columns."""
    return _second_diff(values, g.du, axis=0)


def d_vv(values: np.ndarray, g: Grid2) -> np.ndarray:
    """d2/dv2 of an array sampled on g's nodes, symmetric to d_uu."""
    return _second_diff(values, g.dv, axis=1)


def _anchored_sum(f: np.ndarray, step_integrals: np.ndarray, i0: int, axis: int) -> np.ndarray:
    # running sum along axis 0 of f's step integrals, exactly 0 at node i0
    # (nodes before it carry the negative of the reversed integral), swapped to axis
    total = np.empty_like(f)
    total[0] = 0.0
    np.cumsum(step_integrals, axis=0, out=total[1:])
    total -= total[i0].copy()
    return total.swapaxes(0, axis)


def _cumtrapz(values: np.ndarray, steps, i0: int, axis: int) -> np.ndarray:
    """Composite trapezoid integral along axis from node i0, which holds 0.

    steps is the spacing: a scalar, or the n - 1 steps of a 1-D input (a
    column of them for a 2-D one along axis 0). From node 0 the arithmetic is
    scipy.integrate.cumulative_trapezoid's, so the results are bitwise equal to it.
    """
    f = np.asarray(values, dtype=float).swapaxes(axis, 0)
    sums = f[1:] + f[:-1]
    sums *= 0.5 * steps  # halving is exact: steps * sums / 2.0, bit for bit
    return _anchored_sum(f, sums, i0, axis)


def _deriv4(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Fourth-order first derivative: five-point central inside, one-sided
    five-point on the two boundary layers; below 5 nodes it is _diff."""
    if values.shape[axis] < 5:
        return _diff(values, h, axis)
    f = np.asarray(values, dtype=float).swapaxes(axis, 0)
    out = np.empty_like(f)
    # every row weighs differences, so a constant gives exactly 0; the rows of
    # the first two nodes of an end weigh differences from their own node, w[0]
    # or w[1], with w the end's five nodes, inward. Inside, ((f[:-4] - f[4:]) +
    # 8 (f[3:-1] - f[1:-3])) / 12h, formed in place: every cubic's slopes run
    # through here, on tables as large as a march's (n, 3, n)
    inner = out[2:-2]
    np.subtract(f[3:-1], f[1:-3], out=inner)
    inner *= 8.0
    inner += f[:-4] - f[4:]
    inner /= 12.0 * h
    for w, (k0, k1), sign in ((f[:5], (0, 1), 1.0), (f[:-6:-1], (-1, -2), -1.0)):
        d, e = w - w[0], w - w[1]
        out[k0] = sign * (48.0 * d[1] - 36.0 * d[2] + 16.0 * d[3] - 3.0 * d[4]) / (12.0 * h)
        out[k1] = sign * (-3.0 * e[0] + 18.0 * e[2] - 6.0 * e[3] + e[4]) / (12.0 * h)
    return out.swapaxes(0, axis)


def _step_integrals(f: np.ndarray, h: float) -> np.ndarray:
    """Integrals of the cubic along axis 0 over its n - 1 steps of length h,
    h ((y_k + y_k+1)/2 + (s_k - s_k+1)/12) over step k for s the slopes per
    step of _deriv4, formed in place as _deriv4 forms its interior."""
    s = _deriv4(f, 1.0, 0)
    out = s[:-1] - s[1:]
    out /= 12.0
    out += np.multiply(np.add(f[:-1], f[1:], out=s[:-1]), 0.5, out=s[:-1])
    out *= h
    return out


def _cumint4(values: np.ndarray, h: float, i0: int, axis: int) -> np.ndarray:
    """Integral of the cubic along axis from node i0, signed as _cumtrapz."""
    f = np.asarray(values, dtype=float).swapaxes(axis, 0)
    return _anchored_sum(f, _step_integrals(f, h), i0, axis)


# (diff(values, h, axis), cumint(values, h, k0, axis)) stencil pairs of path_exponent
SECOND_ORDER = (_diff, _cumtrapz)
FOURTH_ORDER = (_deriv4, _cumint4)


def path_exponent(f: np.ndarray, gap: np.ndarray, g: Grid2, base: BaseIndex, axis: int,
                  stencils) -> tuple[np.ndarray, np.ndarray]:
    """(path integral of df / gap from the base node to every node of g, the
    rate it integrates over the whole grid).

    The rate is the `axis` component of df / gap, integrated over the whole
    grid; the other component is integrated along the base line through the
    base node only, so the integral is exactly 0 at the base node. stencils
    is SECOND_ORDER or FOURTH_ORDER.
    """
    diff, cumint = stencils
    h = (g.du, g.dv)
    k0 = (base.i0, base.j0)
    other = 1 - axis
    rate = diff(f, h[axis], axis)
    rate /= gap
    line = (diff(np.take(f, [k0[axis]], axis=axis), h[other], other)
            / np.take(gap, [k0[axis]], axis=axis))
    exponent = cumint(rate, h[axis], k0[axis], axis)
    exponent += cumint(line, h[other], k0[other], other)
    return exponent, rate


def path_factors(f1: np.ndarray, f2: np.ndarray, gap: np.ndarray, g: Grid2, base: BaseIndex,
                 stencils) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(Psi1, Psi2, R1, R2): Psi1 = exp(-P1), P1 the path exponent of df1 / gap
    over axis 1, and Psi2 = exp(P2), P2 that of df2 / gap over axis 0, with
    the rates R1 = df1 / gap along axis 1 and R2 = df2 / gap along axis 0 that
    they integrate over the whole grid. For f1, f2, gap = nu1, nu2, nu1 - nu2
    the factors are the canonical factors of E = a Psi1^2 and G = b Psi2^2,
    exactly 1 at the base node. stencils is SECOND_ORDER or FOURTH_ORDER."""
    p1, r1 = path_exponent(f1, gap, g, base, 1, stencils)
    p2, r2 = path_exponent(f2, gap, g, base, 0, stencils)
    return np.exp(np.negative(p1, out=p1), out=p1), np.exp(p2, out=p2), r1, r2


def _hermite(y0, y1, m0, m1, t: np.ndarray, order: int) -> np.ndarray:
    # the cubic on [0, 1] in t with end values y0, y1 and end slopes m0, m1,
    # or its derivative of the given order (0, 1 or 2) by t, all per query
    # point along t's axes; outside [0, 1] it extrapolates
    t = t.reshape(t.shape + (1,) * (np.ndim(y0) - t.ndim))
    u = 1.0 - t
    if order == 0:
        return (y0 * ((1.0 + 2.0 * t) * u * u) + y1 * (t * t * (3.0 - 2.0 * t))
                + (m0 * u - m1 * t) * (t * u))
    if order == 1:
        return 6.0 * t * u * (y1 - y0) + m0 * u * (1.0 - 3.0 * t) + m1 * t * (3.0 * t - 2.0)
    return (12.0 * t - 6.0) * (y0 - y1) + m0 * (6.0 * t - 4.0) + m1 * (6.0 * t - 2.0)


def spline_at(y, s, pos, order: int) -> np.ndarray:
    """The cubic through uniformly spaced samples y along axis 0 (any
    trailing shape) with node slopes s per step, the package's cubic for
    s = _deriv4(y, 1.0, 0), or its derivative of order 1 or 2 per step, at
    the 1-D fractional node positions pos, 2.5 lying midway between nodes 2
    and 3; the end cubics extrapolate."""
    k = np.clip(np.floor(pos).astype(int), 0, y.shape[0] - 2)
    return _hermite(y[k], y[k + 1], s[k], s[k + 1], pos - k, order)


def tensor_at(values: np.ndarray, su: np.ndarray, pos_u, pos_v, order_u: int,
              order_v: int) -> np.ndarray:
    """The tensor cubic through values sampled on a uniform grid, (nu, nv)
    plus any trailing shape, with u-slopes su = _deriv4(values, 1.0, 0), or
    its derivative of order_u by u and order_v by v, per step, on the
    fractional node positions pos_u x pos_v: the cubic along u on every
    column, then along v."""
    along_u = np.swapaxes(spline_at(values, su, pos_u, order_u), 0, 1)
    del su  # a caller's temporary table is freed before the v pass, where resampling peaks
    return np.swapaxes(spline_at(along_u, _deriv4(along_u, 1.0, 0), pos_v, order_v), 0, 1)


def spline_inverse_at(y, yq) -> np.ndarray:
    """Fractional node positions where the increasing map sampled by y at
    uniformly spaced nodes takes the values yq (1-D arrays): the cubic through
    (y_k, k) whose node slopes are the reciprocals of y's five-point slopes, so
    it keeps their fourth order. Raises MonotonicityError unless the samples
    increase and every five-point slope is positive."""
    y, yq = np.asarray(y, dtype=float), np.asarray(yq, dtype=float)
    s = _deriv4(y, 1.0, 0)
    width = np.diff(y)
    if np.any(s <= 0.0) or np.any(width <= 0.0):
        raise MonotonicityError("the sampled map or its cubic is not strictly increasing")
    k = np.clip(np.searchsorted(y, yq, side="right") - 1, 0, y.size - 2)
    w = width[k]  # the local t spans w in y, so k moves w / s per unit t
    return _hermite(k, k + 1.0, w / s[k], w / s[k + 1], (yq - y[k]) / w, 0)


def spline_slopes(x, y) -> np.ndarray:
    """Node slopes dy/dx along axis 0 of y (any trailing shape), for at least 4
    strictly increasing nodes x: at each node the derivative of the polynomial
    through _deriv4's five nodes (all four on a 4-node axis)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n = x.size
    if n < 4:
        raise DimensionError("a non-uniform cubic needs at least 4 nodes")
    m = min(n, 5)
    window = np.clip(np.arange(n) - 2, 0, n - m)[:, None] + np.arange(m)
    d = x[window] - x[:, None]  # x_k - x_i over the window's nodes k
    # the weight of y_k - y_i is L_k'(x_i) = prod_{j != k, i} (x_i - x_j) /
    # prod_{j != k} (x_k - x_j), with the node's own factor x_i - x_i left out
    num = np.where(window == np.arange(n)[:, None], 1.0, -d)
    weights = np.ones((n, m))
    for k in range(m):
        for j in range(m):
            if j != k:
                weights[:, k] *= num[:, j] / (d[:, k] - d[:, j])
    return np.einsum("nm,nm...->n...", weights, y[window] - y[:, None])


def spline_eval(x, y, s, xq, order: int) -> np.ndarray:
    """The cubic through (x, y) with node slopes s along axis 0 (the
    package's cubic for s = spline_slopes(x, y)), or its derivative of
    order 1 or 2, at the points xq of any shape; the end cubics extrapolate."""
    x, y, s, xq = (np.asarray(a, dtype=float) for a in (x, y, s, xq))
    k = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    h = x[k + 1] - x[k]
    t = (xq - x[k]) / h
    h = h.reshape(h.shape + (1,) * (y.ndim - 1))
    return _hermite(y[k], y[k + 1], h * s[k], h * s[k + 1], t, order) / h**order
