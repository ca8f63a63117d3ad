"""Canonical principal parameters: map construction, resampling, verification.

A principal chart is brought to canonical principal parameters by the two
monotone 1-D maps u -> ubar, v -> vbar built from path integrals of the
curvature fields. The ubar integrand is constant in v exactly when the
Codazzi equations hold, so its v-variation doubles as a Codazzi diagnostic.

Map construction uses fourth-order stencils and spline quadrature internally:
the maps feed resampling, and second-order map errors would dominate every
downstream comparison. Verification (verify_canonical) deliberately sticks to
the shared second-order substrate so it stays an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator, RectBivariateSpline
from scipy.optimize import least_squares

from .errors import (
    CodazziViolation,
    DimensionError,
    DiscriminantError,
    MonotonicityError,
    RangeError,
)
from .grid import BaseIndex, Grid2, invert_monotone_map, path_exponent, same_geometry
from .invariants import require_umbilic_free
from .reports import make_report

DISCRIMINANT_RTOL = 1e-12
AFFINE_MAX_SAMPLES = 33  # the affine fit keeps every (n // 33)-th node of an n-node axis


def require_positive_discriminant(K: np.ndarray, H: np.ndarray) -> np.ndarray:
    disc = H * H - K
    floor = DISCRIMINANT_RTOL * np.maximum(1.0, np.maximum(H * H, np.abs(K)))
    if np.any(disc <= floor):
        worst = np.unravel_index(int(np.argmin(disc)), disc.shape)
        raise DiscriminantError(
            f"H^2 - K = {disc[worst]:.3e} at node {tuple(int(w) for w in worst)} "
            "is not strictly positive")
    return disc


@dataclass(frozen=True)
class InvariantGrid:
    """Two invariant fields on a grid, with the base point and constants a, b.

    mode "nu": field1 = nu1, field2 = nu2 (direction-labeled, need not be
    ordered by size). mode "kh": field1 = K, field2 = H, and a, b carry the
    H^2 - K weighted normalization (a = E * sqrt(H^2 - K) at the base).
    """

    mode: str
    field1: Grid2
    field2: Grid2
    a: float
    b: float
    base: BaseIndex

    def __post_init__(self):
        if self.mode not in ("nu", "kh"):
            raise DimensionError(f"mode must be 'nu' or 'kh', got {self.mode!r}")
        same_geometry(self.field1, self.field2)
        self.base.validate(self.field1)
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a > 0 and self.b > 0):
            raise DimensionError(f"constants a, b must be finite and positive, "
                                 f"got a={self.a}, b={self.b}")
        for name, f in (("field1", self.field1), ("field2", self.field2)):
            if not np.all(np.isfinite(f.values)):
                raise RangeError(f"{name} has non-finite values")
        if self.mode == "nu":
            require_umbilic_free(self.field1.values, self.field2.values)
        else:
            require_positive_discriminant(self.field1.values, self.field2.values)

    def nu_arrays(self):
        """(nu1, nu2) arrays; KH-mode uses the magnitude convention H +- sqrt(H^2-K)."""
        if self.mode == "nu":
            return self.field1.values, self.field2.values
        K, H = self.field1.values, self.field2.values
        root = np.sqrt(H * H - K)
        return H + root, H - root

    def kh_arrays(self):
        if self.mode == "kh":
            return self.field1.values, self.field2.values
        n1, n2 = self.field1.values, self.field2.values
        return n1 * n2, 0.5 * (n1 + n2)

    def to_kh(self) -> "InvariantGrid":
        """The same data in kh mode; a, b gain the sqrt(H^2 - K) weight of the base node."""
        if self.mode == "kh":
            return self
        i0, j0 = self.base.i0, self.base.j0
        s0 = 0.5 * abs(float(self.field1.values[i0, j0] - self.field2.values[i0, j0]))
        K, H = self.kh_arrays()
        like = self.geometry.like
        return InvariantGrid("kh", like(K), like(H), self.a * s0, self.b * s0, self.base)

    @property
    def geometry(self) -> Grid2:
        return self.field1


# fourth-order internals for map construction ------------------------------

_D4_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D4_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def _deriv4(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    f = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    n = f.shape[0]
    if n < 5:
        return np.moveaxis(np.gradient(f, h, axis=0, edge_order=2), 0, axis)
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    out[0] = np.tensordot(_D4_EDGE0, f[:5], axes=(0, 0)) / h
    out[1] = np.tensordot(_D4_EDGE1, f[:5], axes=(0, 0)) / h
    out[-1] = -np.tensordot(_D4_EDGE0, f[-5:][::-1], axes=(0, 0)) / h
    out[-2] = -np.tensordot(_D4_EDGE1, f[-5:][::-1], axes=(0, 0)) / h
    return np.moveaxis(out, 0, axis)


def _cumint4(values: np.ndarray, h: float, i0: int, axis: int) -> np.ndarray:
    f = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    x = h * np.arange(f.shape[0])
    anti = CubicSpline(x, f, axis=0).antiderivative()
    out = anti(x) - anti(x[i0])
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True)
class CanonicalMaps:
    """Sampled monotone maps u -> ubar, v -> vbar (base node to 0), with normalization data."""

    u_samples: np.ndarray
    ubar_samples: np.ndarray
    v_samples: np.ndarray
    vbar_samples: np.ndarray
    a: float
    b: float
    base: BaseIndex
    ubar_integrand_variation: float
    vbar_integrand_variation: float


def _map_1d(integrand_2d: np.ndarray, sqrt_base: float, h: float, k0: int,
            reduce_axis: int, what: str):
    if not np.all(integrand_2d > 0.0):
        raise MonotonicityError(f"{what} integrand is not strictly positive")
    mean_line = integrand_2d.mean(axis=reduce_axis)
    span = integrand_2d.max(axis=reduce_axis) - integrand_2d.min(axis=reduce_axis)
    variation = float(np.max(span / np.abs(mean_line)))
    samples = _cumint4(mean_line, h, k0, axis=0) / sqrt_base
    if np.any(np.diff(samples) <= 0.0):
        raise MonotonicityError(f"{what} map is not strictly increasing")
    return samples, variation


def build_canonical_maps(E: Grid2, G: Grid2, nu1: Grid2, nu2: Grid2, base: BaseIndex,
                         codazzi_tol: float | None = 0.1) -> CanonicalMaps:
    """Monotone maps to canonical principal parameters from a principal chart.

    The ubar integrand sqrt(E) exp(path integral) is evaluated on the whole
    grid, its variation across v is reported (and must shrink as O(h^2) on
    Codazzi-compatible data), and the map is the cumulative integral of its
    v-average along the base row. Raises CodazziViolation when the variation
    exceeds codazzi_tol, MonotonicityError when an integrand is not positive.
    """
    same_geometry(E, G, nu1, nu2)
    base.validate(E)
    require_umbilic_free(nu1.values, nu2.values)
    gap = nu1.values - nu2.values
    i0, j0 = base.i0, base.j0
    a = float(E.values[i0, j0])
    b = float(G.values[i0, j0])

    # ubar: exponent = int_v (nu1)_v/gap + int_u (nu1)_u/gap on the base row
    expo_u = path_exponent(nu1.values, gap, E, base, 1, _deriv4, _cumint4)
    ubar, var_u = _map_1d(np.sqrt(E.values) * np.exp(expo_u), math.sqrt(a), E.du, i0,
                          reduce_axis=1, what="ubar")

    # vbar: exponent = -int_u (nu2)_u/gap - int_v (nu2)_v/gap on the base column
    expo_v = -path_exponent(nu2.values, gap, E, base, 0, _deriv4, _cumint4)
    vbar, var_v = _map_1d(np.sqrt(G.values) * np.exp(expo_v), math.sqrt(b), E.dv, j0,
                          reduce_axis=0, what="vbar")

    if codazzi_tol is not None and max(var_u, var_v) > codazzi_tol:
        raise CodazziViolation(
            f"map integrand varies by {max(var_u, var_v):.3e} along the direction it "
            "must be constant in; the input violates the Codazzi equations")
    return CanonicalMaps(E.u_axis, ubar, E.v_axis, vbar, a, b, base, var_u, var_v)


def _canonical_axis(bar_samples: np.ndarray, n: int):
    # (origin, spacing, count, base index) of an axis with the base image 0 on a node
    lo, hi = float(bar_samples[0]), float(bar_samples[-1])
    d = (hi - lo) / (n - 1)
    k = -lo / d
    if abs(k - round(k)) < 1e-9:
        return lo, d, n, int(round(k))
    origin = lo + (-lo) % d
    return origin, d, n - 1, int(round(-origin / d))


def _resample_2d(maps: CanonicalMaps, values: np.ndarray, u_src: np.ndarray,
                 v_src: np.ndarray) -> np.ndarray:
    along_u = PchipInterpolator(maps.u_samples, values, axis=0)(u_src)
    return PchipInterpolator(maps.v_samples, along_u, axis=1)(v_src)


def _source_axes(maps: CanonicalMaps, u_axis: np.ndarray, v_axis: np.ndarray):
    # clamp roundoff overshoot of the reconstructed axis endpoints
    ub = np.clip(u_axis, maps.ubar_samples[0], maps.ubar_samples[-1])
    vb = np.clip(v_axis, maps.vbar_samples[0], maps.vbar_samples[-1])
    u_src = invert_monotone_map(maps.u_samples, maps.ubar_samples, ub)
    v_src = invert_monotone_map(maps.v_samples, maps.vbar_samples, vb)
    u_src = np.clip(u_src, maps.u_samples[0], maps.u_samples[-1])
    v_src = np.clip(v_src, maps.v_samples[0], maps.v_samples[-1])
    return u_src, v_src


def resample_to_canonical(maps: CanonicalMaps, nu1: Grid2, nu2: Grid2) -> InvariantGrid:
    """Resample direction-labeled curvature fields onto a uniform canonical grid.

    The output grid covers the image of the maps, keeps (very nearly) the
    input resolution, and places the image of the base point exactly on a
    node. Fields are interpolated with monotone piecewise cubics through the
    inverse maps.
    """
    same_geometry(nu1, nu2)
    if maps.ubar_samples.size != nu1.nu or maps.vbar_samples.size != nu1.nv:
        raise DimensionError("maps and fields disagree on grid shape")
    uo, du, n_u, i0 = _canonical_axis(maps.ubar_samples, nu1.nu)
    vo, dv, n_v, j0 = _canonical_axis(maps.vbar_samples, nu1.nv)
    if n_u < 3 or n_v < 3:
        raise RangeError("canonical image too small to carry a grid")
    u_axis = uo + du * np.arange(n_u)
    v_axis = vo + dv * np.arange(n_v)
    u_src, v_src = _source_axes(maps, u_axis, v_axis)
    f1 = _resample_2d(maps, nu1.values, u_src, v_src)
    f2 = _resample_2d(maps, nu2.values, u_src, v_src)
    make = lambda vals: Grid2(uo, vo, du, dv, vals)
    return InvariantGrid("nu", make(f1), make(f2), maps.a, maps.b, BaseIndex(i0, j0))


def resample_grid(maps: CanonicalMaps, g: Grid2, like: InvariantGrid) -> Grid2:
    """Resample a companion scalar grid (e.g. E or G) onto `like`'s canonical grid."""
    target = like.geometry
    u_src, v_src = _source_axes(maps, target.u_axis, target.v_axis)
    return target.like(_resample_2d(maps, g.values, u_src, v_src))


def verify_canonical(inv: InvariantGrid, E: Grid2, G: Grid2):
    """Residuals of the two canonical-parameter identities (each should be 1).

    Uses the shared second-order substrate only, independently of how the
    grid was canonicalized. Returns one report per identity; equivalently
    this checks E = a * Psi1^2 and G = b * Psi2^2.
    """
    same_geometry(inv.field1, E, G)
    nu1, nu2 = inv.nu_arrays()
    gap = nu1 - nu2
    geo = inv.geometry
    r1 = np.sqrt(E.values / inv.a) * np.exp(path_exponent(nu1, gap, geo, inv.base, 1)) - 1.0
    r2 = np.sqrt(G.values / inv.b) * np.exp(-path_exponent(nu2, gap, geo, inv.base, 0)) - 1.0
    return make_report("canonical-E", geo.like(r1)), make_report("canonical-G", geo.like(r2))


@dataclass(frozen=True)
class AffineMatch:
    """Fitted affine relation between two canonical charts of one surface."""

    lam: float
    mu: float
    c1: float
    c2: float
    swapped: bool
    misfit: float


def _field_interpolators(inv: InvariantGrid):
    g = inv.geometry
    return (RectBivariateSpline(g.u_axis, g.v_axis, inv.field1.values),
            RectBivariateSpline(g.u_axis, g.v_axis, inv.field2.values))


def check_affine_equivalence(inv_a: InvariantGrid, inv_b: InvariantGrid) -> AffineMatch:
    """Fit ubar = lam*u + c1, vbar = mu*v + c2 (optionally with u and v swapped)
    mapping grid A onto grid B so the curvature fields agree; misfit is the
    RMS field discrepancy after the best fit.
    """
    ga, gb = inv_a.geometry, inv_b.geometry
    step_u = max(1, ga.nu // AFFINE_MAX_SAMPLES)
    step_v = max(1, ga.nv // AFFINE_MAX_SAMPLES)
    su = ga.u_axis[::step_u]
    sv = ga.v_axis[::step_v]
    U, V = np.meshgrid(su, sv, indexing="ij")
    f1a = inv_a.field1.values[::step_u, ::step_v]
    f2a = inv_a.field2.values[::step_u, ::step_v]
    f1b, f2b = _field_interpolators(inv_b)
    # swapping u and v exchanges the direction-labeled curvatures
    fields_swap = inv_a.mode == "nu"

    b_lo_u, b_hi_u = gb.u_axis[0], gb.u_axis[-1]
    b_lo_v, b_hi_v = gb.v_axis[0], gb.v_axis[-1]

    def residual(params, swapped, penalize=True):
        lam, c1, mu, c2 = params
        src_u = V if swapped else U
        src_v = U if swapped else V
        ub = lam * src_u + c1
        vb = mu * src_v + c2
        over_u = np.maximum(b_lo_u - ub, 0.0) + np.maximum(ub - b_hi_u, 0.0)
        over_v = np.maximum(b_lo_v - vb, 0.0) + np.maximum(vb - b_hi_v, 0.0)
        ub_c = np.clip(ub, b_lo_u, b_hi_u)
        vb_c = np.clip(vb, b_lo_v, b_hi_v)
        t1a, t2a = (f2a, f1a) if (swapped and fields_swap) else (f1a, f2a)
        r = np.concatenate([
            (f1b(ub_c, vb_c, grid=False) - t1a).ravel(),
            (f2b(ub_c, vb_c, grid=False) - t2a).ravel(),
        ])
        if penalize:
            r = np.concatenate([r, 10.0 * (over_u + over_v).ravel()])
        return r

    scale = math.sqrt(inv_a.a / inv_b.a)
    best = None
    for swapped in (False, True):
        src_u_c = 0.5 * (ga.v_axis[0] + ga.v_axis[-1]) if swapped else 0.5 * (ga.u_axis[0] + ga.u_axis[-1])
        src_v_c = 0.5 * (ga.u_axis[0] + ga.u_axis[-1]) if swapped else 0.5 * (ga.v_axis[0] + ga.v_axis[-1])
        for s_lam in (scale, -scale):
            for s_mu in (1.0 / scale, -1.0 / scale):
                x0 = np.array([
                    s_lam, 0.5 * (b_lo_u + b_hi_u) - s_lam * src_u_c,
                    s_mu, 0.5 * (b_lo_v + b_hi_v) - s_mu * src_v_c,
                ])
                fit = least_squares(residual, x0, args=(swapped,), method="lm")
                clean = residual(fit.x, swapped, penalize=False)
                misfit = float(np.sqrt(np.mean(clean * clean)))
                if best is None or misfit < best[0]:
                    best = (misfit, fit.x, swapped)
    misfit, params, swapped = best
    lam, c1, mu, c2 = (float(p) for p in params)
    return AffineMatch(lam, mu, c1, c2, swapped, misfit)
