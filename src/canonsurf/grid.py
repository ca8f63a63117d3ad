"""Shared numerical substrate: grids, stencils, quadrature, path exponents, map inversion.

All discretizations are second order (central differences inside, one-sided
second-order stencils on the two boundary layers, composite trapezoid
quadrature) so that every residual in the package has a clean O(h^2) target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import PchipInterpolator

from .errors import DimensionError, MonotonicityError, RangeError, ShapeMismatchError


def _frozen_array(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid2:
    """Uniform rectangular parameter grid carrying scalar or 3-vector samples.

    values[i, j] (or values[i, j, :]) is the sample at parameter
    (u0 + i*du, v0 + j*dv). Instances are immutable; all operations on them
    are pure functions returning new grids.
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


def same_geometry(*grids: Grid2, tol: float = 1e-12) -> None:
    """Raise ShapeMismatchError unless all grids share shape and parameter geometry."""
    g0 = grids[0]
    for g in grids[1:]:
        if (g.nu, g.nv) != (g0.nu, g0.nv):
            raise ShapeMismatchError(f"grid shapes differ: {(g0.nu, g0.nv)} vs {(g.nu, g.nv)}")
        scale = max(abs(g0.du), abs(g0.dv), 1.0)
        if max(abs(g.u0 - g0.u0), abs(g.v0 - g0.v0), abs(g.du - g0.du), abs(g.dv - g0.dv)) > tol * scale:
            raise ShapeMismatchError("grid parameter geometry differs")


def _diff(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    if values.shape[axis] < 3:
        raise DimensionError("need at least 3 samples along the differentiated axis")
    return np.gradient(values, h, axis=axis, edge_order=2)


def d_u(values: np.ndarray, g: Grid2) -> np.ndarray:
    """d/du of an array sampled on g's nodes: central differences inside,
    one-sided second order at the two boundary columns."""
    return _diff(values, g.du, axis=0)


def d_v(values: np.ndarray, g: Grid2) -> np.ndarray:
    """d/dv of an array sampled on g's nodes, symmetric to d_u."""
    return _diff(values, g.dv, axis=1)


def partial_u(g: Grid2) -> Grid2:
    """d/du of a grid (see d_u)."""
    return g.like(d_u(g.values, g))


def partial_v(g: Grid2) -> Grid2:
    """d/dv of a grid (see d_v)."""
    return g.like(d_v(g.values, g))


def _second_diff(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    # interior: (f[i-1] - 2 f[i] + f[i+1]) / h^2; boundary: one-sided second order
    if values.shape[axis] < 4:
        raise DimensionError("need at least 4 samples for second derivatives")
    f = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[:-2] - 2.0 * f[1:-1] + f[2:]) / h**2
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h**2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h**2
    return np.moveaxis(out, 0, axis)


def second_u(g: Grid2) -> Grid2:
    """d2/du2 by the standard three-point stencil (one-sided at the boundary)."""
    return g.like(_second_diff(g.values, g.du, axis=0))


def second_v(g: Grid2) -> Grid2:
    """d2/dv2, symmetric to second_u."""
    return g.like(_second_diff(g.values, g.dv, axis=1))


def _signed_cumtrapz(values: np.ndarray, h: float, i0: int, axis: int) -> np.ndarray:
    total = cumulative_trapezoid(values, dx=h, axis=axis, initial=0.0)
    anchor = np.take(total, [i0], axis=axis)
    return total - anchor


def cumulative_integral_u(g: Grid2, base: BaseIndex) -> Grid2:
    """Composite trapezoid integral along each row from the base column.

    Signed: values left of the base column are the negative of the reversed
    integral. The base column itself is exactly zero.
    """
    base.validate(g)
    return g.like(_signed_cumtrapz(g.values, g.du, base.i0, axis=0))


def cumulative_integral_v(g: Grid2, base: BaseIndex) -> Grid2:
    """Composite trapezoid integral along each column from the base row."""
    base.validate(g)
    return g.like(_signed_cumtrapz(g.values, g.dv, base.j0, axis=1))


def path_exponent(f: np.ndarray, gap: np.ndarray, g: Grid2, base: BaseIndex, axis: int,
                  diff=_diff, cumint=_signed_cumtrapz) -> np.ndarray:
    """Path integral of df / gap from the base node to every node of g.

    The `axis` component of df / gap is integrated over the whole grid, the
    other component along the base line through the base node only, so the
    result is exactly 0 at the base node. diff(values, h, axis) and
    cumint(values, h, k0, axis) are the stencils; the defaults are second order.
    """
    h = (g.du, g.dv)
    k0 = (base.i0, base.j0)
    other = 1 - axis
    full = cumint(diff(f, h[axis], axis) / gap, h[axis], k0[axis], axis)
    line = np.take(diff(f, h[other], other) / gap, [k0[axis]], axis=axis)
    return full + cumint(line, h[other], k0[other], other)


def _check_strictly_increasing(a: np.ndarray, what: str) -> None:
    if np.any(np.diff(a) <= 0):
        raise MonotonicityError(f"{what} samples are not strictly increasing")


def invert_monotone_map(x_samples, y_samples, y, rtol: float = 1e-12):
    """Solve map(x) = y for a map given by strictly increasing samples.

    The sampled map is interpolated with a monotone piecewise cubic (PCHIP)
    and inverted by bisection to relative tolerance rtol. Accepts a scalar or
    an array of target values y.
    """
    xs = np.asarray(x_samples, dtype=float)
    ys = np.asarray(y_samples, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise DimensionError("map samples must be two equal-length 1-D arrays")
    _check_strictly_increasing(xs, "x")
    _check_strictly_increasing(ys, "y")

    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(y_arr < ys[0]) or np.any(y_arr > ys[-1]):
        raise RangeError(f"target outside sampled range [{ys[0]}, {ys[-1]}]")

    interp = PchipInterpolator(xs, ys, extrapolate=False)
    # bracket each target between consecutive samples, then bisect
    hi_idx = np.clip(np.searchsorted(ys, y_arr, side="left"), 1, xs.size - 1)
    lo = xs[hi_idx - 1].copy()
    hi = xs[hi_idx].copy()
    exact = ys[hi_idx] == y_arr
    lo[exact] = xs[hi_idx][exact]
    hi[exact] = xs[hi_idx][exact]
    span = xs[-1] - xs[0]
    max_iter = max(1, int(np.ceil(np.log2(max(span, 1.0) / rtol))) + 60)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        width = hi - lo
        if np.all(width <= rtol * np.maximum(1.0, np.abs(mid))):
            break
        f_mid = interp(mid)
        go_right = f_mid < y_arr
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    out = 0.5 * (lo + hi)
    return float(out[0]) if np.isscalar(y) or np.asarray(y).ndim == 0 else out
