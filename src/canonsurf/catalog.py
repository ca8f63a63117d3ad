"""Analytic parametric charts with exact second-order jets.

Every chart returns hand-coded derivatives (the generic surface of revolution
differentiates its profile splines), never finite differences, so catalog
surfaces carry zero model error and downstream tests see pure discretization
error. The unit normal is fixed everywhere as n = (xu x xv)/|xu x xv|; the
signs of L, N and of the principal curvatures follow from that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .grid import Grid2, spline_eval, spline_slopes

_INF = float("inf")


@dataclass(frozen=True)
class Jet2:
    """Position and first/second partials of a chart at one parameter point."""

    x: np.ndarray
    xu: np.ndarray
    xv: np.ndarray
    xuu: np.ndarray
    xuv: np.ndarray
    xvv: np.ndarray


@dataclass(frozen=True)
class JetGrid:
    """Jets sampled on a uniform parameter grid, one vector Grid2 per component."""

    x: Grid2
    xu: Grid2
    xv: Grid2
    xuu: Grid2
    xuv: Grid2
    xvv: Grid2

    @property
    def geometry(self) -> Grid2:
        return self.x

    def at(self, i: int, j: int) -> Jet2:
        return Jet2(*(np.array(g.values[i, j]) for g in
                      (self.x, self.xu, self.xv, self.xuu, self.xuv, self.xvv)))


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
    z = np.zeros_like(np.asarray(u, dtype=float) + np.asarray(v, dtype=float))
    return (_stack3(u + z, v + z, z), _stack3(1 + z, z, z), _stack3(z, 1 + z, z),
            _stack3(z, z, z), _stack3(z, z, z), _stack3(z, z, z))


def _sphere_jet(u, v, R):
    cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
    z = np.zeros_like(cu + cv)
    x = _stack3(R * cu * cv, R * cu * sv, R * su)
    xu = _stack3(-R * su * cv, -R * su * sv, R * cu)
    xv = _stack3(-R * cu * sv, R * cu * cv, z)
    xuu = _stack3(-R * cu * cv, -R * cu * sv, -R * su)
    xuv = _stack3(R * su * sv, -R * su * cv, z)
    xvv = _stack3(-R * cu * cv, -R * cu * sv, z)
    return x, xu, xv, xuu, xuv, xvv


def _cylinder_jet(u, v, r):
    cu, su = np.cos(u), np.sin(u)
    vv = np.asarray(v, dtype=float)
    z = np.zeros_like(cu + vv)
    x = _stack3(r * cu, r * su, vv)
    xu = _stack3(-r * su, r * cu, z)
    xv = _stack3(z, z, 1 + z)
    xuu = _stack3(-r * cu, -r * su, z)
    return x, xu, xv, xuu, _stack3(z, z, z), _stack3(z, z, z)


def _cone_jet(u, v, alpha):
    # apex at the origin, v = distance from the apex along the rulings
    sa, ca = math.sin(alpha), math.cos(alpha)
    cu, su = np.cos(u), np.sin(u)
    vv = np.asarray(v, dtype=float)
    z = np.zeros_like(cu + vv)
    x = _stack3(vv * sa * cu, vv * sa * su, vv * ca)
    xu = _stack3(-vv * sa * su, vv * sa * cu, z)
    xv = _stack3(sa * cu, sa * su, ca + z)
    xuu = _stack3(-vv * sa * cu, -vv * sa * su, z)
    xuv = _stack3(-sa * su, sa * cu, z)
    return x, xu, xv, xuu, xuv, _stack3(z, z, z)


def _torus_jet(u, v, R, r):
    cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
    rad = R + r * cu
    z = np.zeros_like(cu + cv)
    x = _stack3(rad * cv, rad * sv, r * su)
    xu = _stack3(-r * su * cv, -r * su * sv, r * cu)
    xv = _stack3(-rad * sv, rad * cv, z)
    xuu = _stack3(-r * cu * cv, -r * cu * sv, -r * su)
    xuv = _stack3(r * su * sv, -r * su * cv, z)
    xvv = _stack3(-rad * cv, -rad * sv, z)
    return x, xu, xv, xuu, xuv, xvv


def _catenoid_jet(u, v):
    ch, sh, cv, sv = np.cosh(u), np.sinh(u), np.cos(v), np.sin(v)
    uu = np.asarray(u, dtype=float)
    z = np.zeros_like(ch + cv)
    x = _stack3(ch * cv, ch * sv, uu + z)
    xu = _stack3(sh * cv, sh * sv, 1 + z)
    xv = _stack3(-ch * sv, ch * cv, z)
    xuu = _stack3(ch * cv, ch * sv, z)
    xuv = _stack3(-sh * sv, sh * cv, z)
    xvv = _stack3(-ch * cv, -ch * sv, z)
    return x, xu, xv, xuu, xuv, xvv


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
        return CatalogEntry("plane", {}, Rect(-_INF, _INF, -_INF, _INF), True,
                            lambda u, v: _plane_jet(u, v))
    if name == "sphere":
        R = float(params.pop("R", 1.0))
        _require(R > 0, "sphere needs R > 0")
        return CatalogEntry("sphere", {"R": R},
                            Rect(-math.pi / 2, math.pi / 2, -_INF, _INF), True,
                            lambda u, v: _sphere_jet(u, v, R))
    if name == "cylinder":
        r = float(params.pop("r", 1.0))
        _require(r > 0, "cylinder needs r > 0")
        return CatalogEntry("cylinder", {"r": r}, Rect(-_INF, _INF, -_INF, _INF), True,
                            lambda u, v: _cylinder_jet(u, v, r))
    if name == "cone":
        alpha = float(params.pop("alpha", math.pi / 6))
        _require(0 < alpha < math.pi / 2, "cone needs half-angle 0 < alpha < pi/2")
        return CatalogEntry("cone", {"alpha": alpha}, Rect(-_INF, _INF, 0.0, _INF), True,
                            lambda u, v: _cone_jet(u, v, alpha))
    if name == "torus":
        R = float(params.pop("R", 2.0))
        r = float(params.pop("r", 1.0))
        _require(R > r > 0, "torus needs R > r > 0")
        return CatalogEntry("torus", {"R": R, "r": r}, Rect(-_INF, _INF, -_INF, _INF), True,
                            lambda u, v: _torus_jet(u, v, R, r))
    if name == "catenoid":
        return CatalogEntry("catenoid", {}, Rect(-_INF, _INF, -_INF, _INF), True,
                            lambda u, v: _catenoid_jet(u, v))
    raise DomainError(f"unknown catalog surface '{name}'")


def make_revolution_entry(t_samples, rho_samples, z_samples) -> CatalogEntry:
    """Surface of revolution from sampled profile (t, rho(t), z(t)).

    The profile is interpolated with the not-a-knot spline (grid.spline_slopes)
    and the chart x(u, v) = (rho(u) cos v, rho(u) sin v, z(u)) is differentiated
    through it, so the jets are exact for the spline surface itself. The entry
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

    def jet(u, v):
        cv, sv = np.cos(v), np.sin(v)
        (p, q), (dp, dq), (ddp, ddq) = (np.moveaxis(spline_eval(t, profile, slopes, u, k), -1, 0)
                                        for k in (0, 1, 2))
        z0 = np.zeros_like(p + cv)
        x = _stack3(p * cv, p * sv, q + z0)
        xu = _stack3(dp * cv, dp * sv, dq + z0)
        xv = _stack3(-p * sv, p * cv, z0)
        xuu = _stack3(ddp * cv, ddp * sv, ddq + z0)
        xuv = _stack3(-dp * sv, dp * cv, z0)
        xvv = _stack3(-p * cv, -p * sv, z0)
        return x, xu, xv, xuu, xuv, xvv

    return CatalogEntry("revolution", {}, Rect(float(t[0]), float(t[-1]), -_INF, _INF, closed=True),
                        False, jet)


CATALOG_NAMES = ("plane", "sphere", "cylinder", "cone", "torus", "catenoid")


def evaluate_jet(entry: CatalogEntry, u: float, v: float) -> Jet2:
    """Exact jet of the chart at a single admissible parameter point."""
    if not entry.domain.contains(u, v):
        raise DomainError(f"({u}, {v}) outside admissible domain of '{entry.name}'")
    comps = entry._jet(float(u), float(v))
    return Jet2(*(np.asarray(c, dtype=float).reshape(3) for c in comps))


def sample_surface(entry: CatalogEntry, u0: float, du: float, nu: int,
                   v0: float, dv: float, nv: int) -> JetGrid:
    """Jets at every node of the uniform grid described by origin/spacing/count."""
    u_axis = u0 + du * np.arange(nu)
    v_axis = v0 + dv * np.arange(nv)
    if not entry.domain.contains(u_axis, v_axis):
        raise DomainError(f"grid leaves admissible domain of '{entry.name}'")
    U = u_axis[:, None]
    V = v_axis[None, :]
    comps = entry._jet(U, V)
    comps = [np.broadcast_to(c, (nu, nv, 3)).copy() for c in comps]
    make = lambda c: Grid2(u0, v0, du, dv, c)
    return JetGrid(*(make(c) for c in comps))
