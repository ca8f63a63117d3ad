"""Residuals for special surface classes in canonical principal parameters.

Covers strongly regular Weingarten surfaces (nu1 = f(nu), nu2 = g(nu)),
constant-mean-curvature surfaces, minimal surfaces, and flat surfaces. Each
evaluator converges as O(h^2) on data that actually belongs to its class and
stalls at a nonzero level otherwise, so the residuals double as detectors.

The Laplacian of the CMC and minimal equations assumes canonical parameters
with a = b = 1; other constants are absorbed by the affine parameter freedom,
which turns the Laplacian into (1/a) d^2/du^2 + (1/b) d^2/dv^2. Callers
pass a and b: the kh-mode constants (InvariantGrid.kh_constants()), which
carry the sqrt(H^2 - K) weight of the base node; the metric constants a = E,
b = G of a nu-mode grid do not fit these equations unless that weight is 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DiscriminantError, PositivityError, RangeError, ZeroMeanCurvatureError
from .grid import BaseIndex, Grid2, _cumtrapz, d_u, d_uu, d_v, d_vv, spline_eval, spline_slopes
from .reports import ResidualReport, make_report


@dataclass(frozen=True)
class WeingartenData:
    """Curvature relation samples f, g on t-interval I plus the nu field.

    Requires f - g > 0 and f' g' != 0 on I. The strong-regularity condition
    nu_u nu_v != 0 is reported as a warning, not enforced, because natural
    examples (any surface of revolution) violate it while the residual stays
    well-defined.
    """

    t_samples: np.ndarray
    f_samples: np.ndarray
    g_samples: np.ndarray
    nu: Grid2
    A: float
    B: float
    base: BaseIndex
    _fg_slopes: np.ndarray = field(init=False, repr=False, compare=False)  # of the (f, g) spline

    def __post_init__(self):
        t = np.asarray(self.t_samples, dtype=float)
        f = np.asarray(self.f_samples, dtype=float)
        g = np.asarray(self.g_samples, dtype=float)
        if t.ndim != 1 or t.size < 5 or f.shape != t.shape or g.shape != t.shape:
            raise RangeError("need >= 5 equal-length samples of t, f, g")
        if not all(np.all(np.isfinite(x)) for x in (t, f, g, self.nu.values)):
            raise RangeError("samples of t, f, g and the nu field must be finite")
        if np.any(np.diff(t) <= 0):
            raise RangeError("t samples must be strictly increasing")
        if np.any(f - g <= 0):
            raise RangeError("f - g must be strictly positive on I")
        object.__setattr__(self, "_fg_slopes", spline_slopes(t, np.stack([f, g], axis=1)))
        fp, gp = self._fg_slopes.T
        floor = 1e-12 * max(float(np.max(np.abs(fp))), 1e-300) \
            * max(float(np.max(np.abs(gp))), 1e-300)
        if np.any(np.abs(fp * gp) <= floor):
            raise RangeError("f' g' must not vanish on I")
        nu_vals = self.nu.values
        if nu_vals.min() < t[0] or nu_vals.max() > t[-1]:
            raise RangeError("nu field leaves the sampled interval I")
        self.base.validate(self.nu)
        if not (np.isfinite(self.A) and np.isfinite(self.B) and self.A > 0 and self.B > 0):
            raise RangeError(f"constants A, B must be finite and positive, "
                             f"got A={self.A}, B={self.B}")
        object.__setattr__(self, "t_samples", t)
        object.__setattr__(self, "f_samples", f)
        object.__setattr__(self, "g_samples", g)

    @property
    def nu0(self) -> float:
        return float(self.nu.values[self.base.i0, self.base.j0])


def weingarten_residual(data: WeingartenData) -> ResidualReport:
    """Residual of the Weingarten form of the Gauss equation.

    f, g and their first two derivatives come from the Hermite cubic through
    the samples with the five-point node slopes of grid.spline_slopes; the
    t-integrals of g'/(g-f) and f'/(f-g) are trapezoid antiderivatives over I,
    interpolated by that cubic too, composed with the nu field and measured from nu at the base point.
    """
    t, f, g = data.t_samples, data.f_samples, data.g_samples
    fg = np.stack([f, g], axis=1)
    fg_s = data._fg_slopes
    # antiderivatives of g'/(g-f) and f'/(f-g)
    anti = _cumtrapz(fg_s[:, ::-1] / (fg[:, ::-1] - fg), np.diff(t)[:, None], 0, 0)

    # at every node and, last, at the base value nu0
    nodes = data.nu.values
    xq = np.append(nodes.ravel(), data.nu0)
    at = np.concatenate([spline_eval(t, fg, fg_s, xq, order) for order in (0, 1, 2)]
                        + [spline_eval(t, anti, spline_slopes(t, anti), xq, 0)], axis=1)
    f_n, g_n, fp_n, gp_n, fpp_n, gpp_n, am_n, ap_n = (a[:-1].reshape(nodes.shape) for a in at.T)
    am0, ap0 = at[-1, 6:]

    nu_u, nu_v = d_u(nodes, data.nu), d_v(nodes, data.nu)
    nu_uu, nu_vv = d_uu(nodes, data.nu), d_vv(nodes, data.nu)
    if np.any(nu_u * nu_v == 0.0):
        warnings.warn("nu_u * nu_v vanishes somewhere; the surface is not strongly "
                      "regular Weingarten there", UserWarning, stacklevel=2)

    w_n = f_n - g_n
    exp_minus = np.exp(2.0 * (am_n - am0))
    exp_plus = np.exp(2.0 * (ap_n - ap0))

    lhs = data.A * (fp_n * nu_vv + (fpp_n - 2.0 * fp_n**2 / w_n) * nu_v**2) * exp_minus
    lhs -= data.B * (gp_n * nu_uu + (gpp_n + 2.0 * gp_n**2 / w_n) * nu_u**2) * exp_plus
    rhs = f_n * g_n * w_n
    return make_report("weingarten", data.nu.like(lhs - rhs))


def _weighted_laplacian(values: np.ndarray, g: Grid2, a: float, b: float) -> np.ndarray:
    return d_uu(values, g) / a + d_vv(values, g) / b


def cmc_residual(K: Grid2, H: float, a: float, b: float) -> ResidualReport:
    """Residual of the constant-mean-curvature equation for the K field."""
    disc = H * H - K.values
    if np.any(disc <= 1e-12 * max(1.0, H * H, float(np.max(np.abs(K.values))))):
        raise DiscriminantError("CMC equation needs K < H^2 strictly")
    root = np.sqrt(disc)
    res = _weighted_laplacian(np.log(disc), K, a, b) - 4.0 * K.values / root
    return make_report("cmc", K.like(res))


def minimal_natural_residual(nu: Grid2, a: float, b: float) -> ResidualReport:
    """Residual of the natural minimal-surface equation for the positive curvature."""
    if np.any(nu.values <= 0.0):
        raise PositivityError("the minimal-surface equation needs nu > 0 everywhere")
    res = _weighted_laplacian(np.log(nu.values), nu, a, b) + 2.0 * nu.values
    return make_report("minimal-natural", nu.like(res))


@dataclass(frozen=True)
class FlatCharacterization:
    """(1/H)_vv residual plus the per-row line fit 1/H = f(u) v + g(u)."""

    report: ResidualReport
    f_samples: np.ndarray
    g_samples: np.ndarray
    fit_rms: np.ndarray


def flat_characterization(H: Grid2) -> FlatCharacterization:
    """Check the flat-surface characterization of the mean curvature field.

    Returns the (1/H)_vv residual and, per u-row, the least-squares line fit
    of 1/H against v (slope f(u), intercept g(u), fit rms). Flat umbilic-free
    surfaces make the residual and every fit rms vanish to O(h^2).
    """
    Hv = H.values
    if np.any(np.abs(Hv) <= 1e-14 * float(np.max(np.abs(Hv)))):
        raise ZeroMeanCurvatureError("mean curvature vanishes; 1/H undefined")
    inv_h = 1.0 / Hv
    res = H.like(d_vv(inv_h, H))
    # the line's normal equations in centred v, summed elementwise: a LAPACK
    # least-squares solve on a grid of 129^2 or more wakes the BLAS worker
    # threads, which go on spinning for a while after it and slow what runs next
    vc = H.v_axis - np.mean(H.v_axis)
    slope = np.sum(inv_h * vc, axis=1) / np.sum(vc * vc)
    intercept = np.mean(inv_h, axis=1) - slope * np.mean(H.v_axis)
    fitted = slope[:, None] * H.v_axis + intercept[:, None]
    rms = np.sqrt(np.mean((fitted - inv_h) ** 2, axis=1))
    return FlatCharacterization(make_report("flat-1overH-vv", res), slope, intercept, rms)
