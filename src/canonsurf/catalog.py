"""Analytic parametric charts with exact second-order jets.

Every chart returns hand-coded derivatives, never finite differences, so
catalog surfaces carry zero model error and downstream tests see pure
discretization error. All but the plane are surfaces of revolution
x = (p cos w, p sin w, q), whose jet has one formula (`_revolution_jet`): each
chart supplies only its meridian s -> (p, q) with its first and second
derivatives, hand-coded or, for a sampled profile, those of its spline. The
unit normal is fixed everywhere as n = (xu x xv)/|xu x xv|; the signs of L, N
and of the principal curvatures follow from that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .grid import Grid2, same_geometry, spline_eval, spline_slopes

_INF = float("inf")


@dataclass(frozen=True)
class JetGrid:
    """Jets sampled on a uniform parameter grid, one vector Grid2 per component."""

    x: Grid2
    xu: Grid2
    xv: Grid2
    xuu: Grid2
    xuv: Grid2
    xvv: Grid2

    def __post_init__(self):
        same_geometry(self.x, self.xu, self.xv, self.xuu, self.xuv, self.xvv)

    @property
    def geometry(self) -> Grid2:
        return self.x


@dataclass(frozen=True)
class Rect:
    """Admissible parameter rectangle; open by default, closed for sampled profiles."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    closed: bool = False

    def contains(self, u, v) -> bool:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.closed:
            ok_u = (u >= self.u_min) & (u <= self.u_max)
            ok_v = (v >= self.v_min) & (v <= self.v_max)
        else:
            ok_u = (u > self.u_min) & (u < self.u_max)
            ok_v = (v > self.v_min) & (v < self.v_max)
        return bool(np.all(ok_u) and np.all(ok_v))


@dataclass(frozen=True)
class CatalogEntry:
    """A named chart: jet evaluator, parameter values, admissible domain, principal flag."""

    name: str
    parameters: dict
    domain: Rect
    principal: bool
    _jet: Callable = field(repr=False)


def _stack3(a, b, c) -> np.ndarray:
    parts = np.broadcast_arrays(*(np.asarray(q, dtype=float) for q in (a, b, c)))
    return np.stack(parts, axis=-1)


def _plane_jet(u, v):
    return (_stack3(u, v, 0.0), _stack3(1.0, 0.0, 0.0), _stack3(0.0, 1.0, 0.0),
            *(_stack3(0.0, 0.0, 0.0) for _ in range(3)))


def _revolution_jet(meridian, angle_on_u: bool) -> Callable:
    """Jet of x = (p cos w, p sin w, q), the meridian s -> (p, q) turned by the angle w.

    `meridian(s)` returns (p, q), (p', q') and (p'', q''). The angle w is v and s
    is u unless `angle_on_u` swaps them; the jet comes back in u, v order."""
    def jet(u, v):
        s, w = (v, u) if angle_on_u else (u, v)
        cw, sw = np.cos(w), np.sin(w)
        (p, q), (dp, dq), (ddp, ddq) = meridian(s)
        # (a cos w, a sin w, b) has the w-derivative (-a sin w, a cos w, 0)
        x, xs, xss = (_stack3(a * cw, a * sw, b) for a, b in ((p, q), (dp, dq), (ddp, ddq)))
        xw, xsw = (_stack3(-a * sw, a * cw, 0.0) for a in (p, dp))
        xww = _stack3(-p * cw, -p * sw, 0.0)
        if angle_on_u:
            return x, xw, xs, xww, xsw, xss
        return x, xs, xw, xss, xsw, xww

    return jet


def _circle_meridian(c, r):
    def meridian(s):
        cs, sn = np.cos(s), np.sin(s)
        return (c + r * cs, r * sn), (-r * sn, r * cs), (-r * cs, -r * sn)
    return meridian


def _line_meridian(p0, dp, dq):
    return lambda s: ((p0 + s * dp, s * dq), (dp, dq), (0.0, 0.0))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def make_entry(name: str, **params) -> CatalogEntry:
    """Build a catalog entry by name with key=value parameters."""
    entry = _make_entry(name, params)
    if params:
        raise DomainError(f"unknown parameter(s) for '{name}': {sorted(params)}")
    _require(all(map(math.isfinite, entry.parameters.values())),
             f"'{name}' needs finite parameters, got {entry.parameters}")
    return entry


def _make_entry(name: str, params: dict) -> CatalogEntry:
    if name == "plane":
        return CatalogEntry("plane", {}, Rect(-_INF, _INF, -_INF, _INF), True, _plane_jet)
    if name == "sphere":
        R = float(params.pop("R", 1.0))
        _require(R > 0, "sphere needs R > 0")
        return CatalogEntry("sphere", {"R": R}, Rect(-math.pi / 2, math.pi / 2, -_INF, _INF), True,
                            _revolution_jet(_circle_meridian(0.0, R), False))
    if name == "cylinder":
        r = float(params.pop("r", 1.0))
        _require(r > 0, "cylinder needs r > 0")
        return CatalogEntry("cylinder", {"r": r}, Rect(-_INF, _INF, -_INF, _INF), True,
                            _revolution_jet(_line_meridian(r, 0.0, 1.0), True))
    if name == "cone":
        alpha = float(params.pop("alpha", math.pi / 6))
        _require(0 < alpha < math.pi / 2, "cone needs half-angle 0 < alpha < pi/2")
        # apex at the origin, v = distance from the apex along the rulings
        meridian = _line_meridian(0.0, math.sin(alpha), math.cos(alpha))
        return CatalogEntry("cone", {"alpha": alpha}, Rect(-_INF, _INF, 0.0, _INF), True,
                            _revolution_jet(meridian, True))
    if name == "torus":
        R = float(params.pop("R", 2.0))
        r = float(params.pop("r", 1.0))
        _require(R > r > 0, "torus needs R > r > 0")
        return CatalogEntry("torus", {"R": R, "r": r}, Rect(-_INF, _INF, -_INF, _INF), True,
                            _revolution_jet(_circle_meridian(R, r), False))
    if name == "catenoid":
        meridian = lambda s: ((np.cosh(s), s), (np.sinh(s), 1.0), (np.cosh(s), 0.0))
        return CatalogEntry("catenoid", {}, Rect(-_INF, _INF, -_INF, _INF), True,
                            _revolution_jet(meridian, False))
    raise DomainError(f"unknown catalog surface '{name}'")


def make_revolution_entry(t_samples, rho_samples, z_samples) -> CatalogEntry:
    """Surface of revolution from sampled profile (t, rho(t), z(t)).

    The profile is interpolated with the Hermite cubic whose node slopes are
    the five-point ones of grid.spline_slopes, and the chart
    x(u, v) = (rho(u) cos v, rho(u) sin v, z(u)) is differentiated through it,
    so the jets are exact for the surface of that cubic itself. The entry
    is not flagged principal because the profile is user data, although
    F = M = 0 holds identically for any surface of revolution.
    """
    t = np.asarray(t_samples, dtype=float)
    rho = np.asarray(rho_samples, dtype=float)
    zz = np.asarray(z_samples, dtype=float)
    if t.ndim != 1 or t.size < 4 or rho.shape != t.shape or zz.shape != t.shape:
        raise DomainError("profile needs >= 4 samples of equal length for t, rho, z")
    if not all(np.all(np.isfinite(x)) for x in (t, rho, zz)):
        raise DomainError("profile samples of t, rho, z must be finite")
    if np.any(np.diff(t) <= 0):
        raise DomainError("profile parameter samples must be strictly increasing")
    if np.any(rho <= 0):
        raise DomainError("profile radius must stay positive")
    profile = np.stack([rho, zz], axis=-1)
    slopes = spline_slopes(t, profile)

    meridian = lambda s: (np.moveaxis(spline_eval(t, profile, slopes, s, k), -1, 0)
                          for k in (0, 1, 2))
    return CatalogEntry("revolution", {}, Rect(float(t[0]), float(t[-1]), -_INF, _INF, closed=True),
                        False, _revolution_jet(meridian, False))


CATALOG_NAMES = ("plane", "sphere", "cylinder", "cone", "torus", "catenoid")


def sample_surface(entry: CatalogEntry, u0: float, du: float, nu: int,
                   v0: float, dv: float, nv: int) -> JetGrid:
    """Jets at every node of the uniform grid described by origin/spacing/count."""
    # the end nodes in Python floats, which overflow to inf with no numpy warning
    ends = (float(u0) + float(du) * (nu - 1), float(v0) + float(dv) * (nv - 1))
    if not all(map(math.isfinite, ends)):
        raise DomainError(f"the grid's axes are not finite: u from {u0} by {du}, v from {v0} by {dv}")
    u_axis = u0 + du * np.arange(nu)
    v_axis = v0 + dv * np.arange(nv)
    if not entry.domain.contains(u_axis, v_axis):
        raise DomainError(f"grid leaves admissible domain of '{entry.name}'")
    comps = entry._jet(u_axis[:, None], v_axis[None, :])
    # Grid2 keeps each full-shape component; a broadcast one is copied to C
    # order first, because Grid2's copy of a view keeps its zero-stride axis order
    full = lambda c: c if np.shape(c) == (nu, nv, 3) else np.broadcast_to(c, (nu, nv, 3))
    make = lambda c: Grid2(u0, v0, du, dv, np.ascontiguousarray(full(c)))
    return JetGrid(*(make(c) for c in comps))
