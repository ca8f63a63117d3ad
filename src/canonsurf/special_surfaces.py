"""Residuals for special surface classes in canonical principal parameters.

Covers strongly regular Weingarten surfaces (nu1 = f(nu), nu2 = g(nu)),
constant-mean-curvature surfaces, minimal surfaces, and flat surfaces. Each
evaluator converges as O(h^2) on data that actually belongs to its class and
stalls at a nonzero level otherwise, so the residuals double as detectors.

The Laplacian of the CMC and minimal equations assumes canonical parameters
with a = b = 1; other constants are absorbed by the affine parameter freedom,
which turns the Laplacian into (1/a) d^2/du^2 + (1/b) d^2/dv^2. Here a, b
are the kh-mode constants (InvariantGrid.to_kh().a, .b), which carry the
sqrt(H^2 - K) weight of the base node; the metric constants a = E, b = G of
a nu-mode grid do not fit these equations unless that weight is 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import PchipInterpolator

from .errors import DiscriminantError, PositivityError, RangeError, ZeroMeanCurvatureError
from .grid import BaseIndex, Grid2, partial_u, partial_v, second_u, second_v
from .reports import DEFAULT_MARGIN, ResidualReport, make_report


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

    def __post_init__(self):
        t = np.asarray(self.t_samples, dtype=float)
        f = np.asarray(self.f_samples, dtype=float)
        g = np.asarray(self.g_samples, dtype=float)
        if t.ndim != 1 or t.size < 5 or f.shape != t.shape or g.shape != t.shape:
            raise RangeError("need >= 5 equal-length samples of t, f, g")
        if np.any(np.diff(t) <= 0):
            raise RangeError("t samples must be strictly increasing")
        if np.any(f - g <= 0):
            raise RangeError("f - g must be strictly positive on I")
        fp = np.gradient(f, t, edge_order=2)
        gp = np.gradient(g, t, edge_order=2)
        floor = 1e-12 * max(float(np.max(np.abs(fp))), 1e-300) \
            * max(float(np.max(np.abs(gp))), 1e-300)
        if np.any(np.abs(fp * gp) <= floor):
            raise RangeError("f' g' must not vanish on I")
        nu_vals = self.nu.values
        if nu_vals.min() < t[0] or nu_vals.max() > t[-1]:
            raise RangeError("nu field leaves the sampled interval I")
        self.base.validate(self.nu)
        if not (self.A > 0 and self.B > 0):
            raise RangeError("constants A, B must be positive")
        object.__setattr__(self, "t_samples", t)
        object.__setattr__(self, "f_samples", f)
        object.__setattr__(self, "g_samples", g)

    @property
    def nu0(self) -> float:
        return float(self.nu.values[self.base.i0, self.base.j0])


def weingarten_residual(data: WeingartenData, margin: int = DEFAULT_MARGIN) -> ResidualReport:
    """Residual of the Weingarten form of the Gauss equation.

    f, g and their derivatives come from the shared stencils on the samples;
    the t-integrals of g'/(g-f) and f'/(f-g) are cumulative antiderivatives
    over I composed with the nu field, measured from nu at the base point.
    """
    t, f, g = data.t_samples, data.f_samples, data.g_samples
    fp = np.gradient(f, t, edge_order=2)
    gp = np.gradient(g, t, edge_order=2)
    fpp = np.gradient(fp, t, edge_order=2)
    gpp = np.gradient(gp, t, edge_order=2)
    anti_minus = cumulative_trapezoid(gp / (g - f), x=t, initial=0.0)  # of g'/(g-f)
    anti_plus = cumulative_trapezoid(fp / (f - g), x=t, initial=0.0)   # of f'/(f-g)

    at = lambda samples: PchipInterpolator(t, samples)(data.nu.values)
    nu0 = data.nu0
    at0 = lambda samples: float(PchipInterpolator(t, samples)(nu0))

    nu_u = partial_u(data.nu).values
    nu_v = partial_v(data.nu).values
    nu_uu = second_u(data.nu).values
    nu_vv = second_v(data.nu).values
    if np.any(nu_u * nu_v == 0.0):
        warnings.warn("nu_u * nu_v vanishes somewhere; the surface is not strongly "
                      "regular Weingarten there", UserWarning, stacklevel=2)

    f_n, g_n = at(f), at(g)
    fp_n, gp_n = at(fp), at(gp)
    fpp_n, gpp_n = at(fpp), at(gpp)
    w_n = f_n - g_n
    exp_minus = np.exp(2.0 * (at(anti_minus) - at0(anti_minus)))
    exp_plus = np.exp(2.0 * (at(anti_plus) - at0(anti_plus)))

    lhs = data.A * (fp_n * nu_vv + (fpp_n - 2.0 * fp_n**2 / w_n) * nu_v**2) * exp_minus
    lhs -= data.B * (gp_n * nu_uu + (gpp_n + 2.0 * gp_n**2 / w_n) * nu_u**2) * exp_plus
    rhs = f_n * g_n * w_n
    return make_report("weingarten", data.nu.like(lhs - rhs), margin)


def _weighted_laplacian(g: Grid2, a: float, b: float) -> np.ndarray:
    return second_u(g).values / a + second_v(g).values / b


def cmc_residual(K: Grid2, H: float, a: float = 1.0, b: float = 1.0,
                 margin: int = DEFAULT_MARGIN) -> ResidualReport:
    """Residual of the constant-mean-curvature equation for the K field."""
    disc = H * H - K.values
    if np.any(disc <= 1e-12 * max(1.0, H * H, float(np.max(np.abs(K.values))))):
        raise DiscriminantError("CMC equation needs K < H^2 strictly")
    root = np.sqrt(disc)
    res = _weighted_laplacian(K.like(np.log(disc)), a, b) - 4.0 * K.values / root
    return make_report("cmc", K.like(res), margin)


def minimal_natural_residual(nu: Grid2, a: float = 1.0, b: float = 1.0,
                             margin: int = DEFAULT_MARGIN) -> ResidualReport:
    """Residual of the natural minimal-surface equation for the positive curvature."""
    if np.any(nu.values <= 0.0):
        raise PositivityError("the minimal-surface equation needs nu > 0 everywhere")
    res = _weighted_laplacian(nu.like(np.log(nu.values)), a, b) + 2.0 * nu.values
    return make_report("minimal-natural", nu.like(res), margin)


@dataclass(frozen=True)
class FlatCharacterization:
    """(1/H)_vv residual plus the per-row line fit 1/H = f(u) v + g(u)."""

    report: ResidualReport
    f_samples: np.ndarray
    g_samples: np.ndarray
    fit_rms: np.ndarray


def flat_characterization(H: Grid2, margin: int = DEFAULT_MARGIN) -> FlatCharacterization:
    """Check the flat-surface characterization of the mean curvature field.

    Returns the (1/H)_vv residual and, per u-row, the least-squares line fit
    of 1/H against v (slope f(u), intercept g(u), fit rms). Flat umbilic-free
    surfaces make the residual and every fit rms vanish to O(h^2).
    """
    Hv = H.values
    if np.any(np.abs(Hv) <= 1e-14 * float(np.max(np.abs(Hv)))):
        raise ZeroMeanCurvatureError("mean curvature vanishes; 1/H undefined")
    inv_h = 1.0 / Hv
    res = second_v(H.like(inv_h))
    design = np.stack([H.v_axis, np.ones(H.nv)], axis=1)
    coef, *_ = np.linalg.lstsq(design, inv_h.T, rcond=None)
    fitted = design @ coef
    rms = np.sqrt(np.mean((fitted - inv_h.T) ** 2, axis=0))
    return FlatCharacterization(make_report("flat-1overH-vv", res, margin),
                                coef[0].copy(), coef[1].copy(), rms)
