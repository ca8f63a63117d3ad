"""Pointwise surface invariants: fundamental forms, curvatures, umbilic detection.

Conventions. The unit normal is n = (xu x xv)/|xu x xv|. On a principal chart
(F = M = 0) the principal curvatures are labeled by direction, nu1 = L/E for
the u-lines and nu2 = N/G for the v-lines, even when nu1 < nu2. Without a
chart (kh-mode data) the magnitude convention nu1 = H + sqrt(H^2 - K) along u
is used instead, with the normal chosen to make it so (InvariantGrid.to_kh).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDirectionError,
    DiscriminantError,
    NotPrincipalError,
    RegularityError,
    UmbilicError,
)
from .catalog import Jet2, JetGrid
from .grid import Grid2, d_u, d_v, same_geometry

PRINCIPALITY_RTOL = 1e-10
UMBILIC_RTOL = 1e-8


@dataclass(frozen=True)
class FormCoefficients:
    """First and second fundamental form coefficients at one point."""

    E: float
    F: float
    G: float
    L: float
    M: float
    N: float
    W: float


@dataclass(frozen=True)
class CurvaturePoint:
    K: float
    H: float
    nu1: float
    nu2: float


@dataclass(frozen=True)
class FormGrid:
    """Form coefficients sampled over a grid, one scalar Grid2 per coefficient."""

    E: Grid2
    F: Grid2
    G: Grid2
    L: Grid2
    M: Grid2
    N: Grid2
    W: Grid2

    @property
    def geometry(self) -> Grid2:
        return self.E


@dataclass(frozen=True)
class CurvatureGrid:
    K: Grid2
    H: Grid2
    nu1: Grid2
    nu2: Grid2


@dataclass(frozen=True)
class UmbilicReport:
    """Summary of umbilic detection: flagged count and the tightest node."""

    count: int
    total: int
    worst_index: tuple
    min_separation: float
    threshold_at_worst: float

    @property
    def any(self) -> bool:
        return self.count > 0


def _metric_determinant(E, F, G):
    """EG - F^2; RegularityError unless it and E are positive at every node."""
    W2 = E * G - F * F
    if np.any(W2 <= 0) or np.any(E <= 0):
        raise RegularityError("EG - F^2 is not positive")
    return W2


def _forms_arrays(xu, xv, xuu, xuv, xvv):
    dot = lambda a, b: np.einsum("...k,...k->...", a, b)
    E = dot(xu, xu)
    F = dot(xu, xv)
    G = dot(xv, xv)
    cross = np.cross(xu, xv)
    cross_norm = np.sqrt(dot(cross, cross))
    if np.any(cross_norm <= 1e-14 * np.sqrt(E * G)):
        raise RegularityError("xu x xv vanishes somewhere; chart is not regular there")
    n = cross / cross_norm[..., None]
    L = dot(xuu, n)
    M = dot(xuv, n)
    N = dot(xvv, n)
    return E, F, G, L, M, N, np.sqrt(_metric_determinant(E, F, G))


def fundamental_forms(jet: Jet2) -> FormCoefficients:
    """E, F, G, L, M, N and W = sqrt(EG - F^2) from one jet."""
    vals = _forms_arrays(jet.xu, jet.xv, jet.xuu, jet.xuv, jet.xvv)
    return FormCoefficients(*(float(q) for q in vals))


def fundamental_forms_grid(jets: JetGrid) -> FormGrid:
    """Form coefficients at every node of a jet grid."""
    vals = _forms_arrays(jets.xu.values, jets.xv.values, jets.xuu.values,
                         jets.xuv.values, jets.xvv.values)
    g = jets.geometry
    return FormGrid(*(g.like(q) for q in vals))


def is_principal(E, F, G, M) -> bool:
    tol = PRINCIPALITY_RTOL * np.sqrt(np.asarray(E) * np.asarray(G))
    return bool(np.all(np.abs(F) <= tol) and np.all(np.abs(M) <= tol))


def _curvature_arrays(E, F, G, L, M, N, principal_chart: bool):
    W2 = _metric_determinant(E, F, G)
    K = (L * N - M * M) / W2
    H = (E * N - 2.0 * F * M + G * L) / (2.0 * W2)
    if principal_chart:
        if not is_principal(E, F, G, M):
            raise NotPrincipalError("F or M exceeds the principality tolerance")
        nu1 = L / E
        nu2 = N / G
    else:
        disc = H * H - K
        scale2 = np.maximum(H * H, np.abs(K))
        bad = disc < -1e-14 * np.maximum(scale2, 1e-300)
        if np.any(bad):
            raise DiscriminantError("H^2 - K is significantly negative; shape operator not real")
        disc = np.maximum(disc, 0.0)
        root = np.sqrt(disc)
        nu1 = H + root
        nu2 = H - root
    return K, H, nu1, nu2


def curvatures(forms: FormCoefficients, principal_chart: bool) -> CurvaturePoint:
    """Gauss, mean and principal curvatures from form coefficients.

    With principal_chart set, nu1 = L/E and nu2 = N/G (direction labeling);
    otherwise nu1,2 = H +- sqrt(H^2 - K), with tiny negative discriminants
    clamped to zero.
    """
    vals = _curvature_arrays(forms.E, forms.F, forms.G, forms.L, forms.M, forms.N,
                             principal_chart)
    return CurvaturePoint(*(float(q) for q in vals))


def curvatures_grid(forms: FormGrid, principal_chart: bool) -> CurvatureGrid:
    vals = _curvature_arrays(forms.E.values, forms.F.values, forms.G.values,
                             forms.L.values, forms.M.values, forms.N.values, principal_chart)
    g = forms.geometry
    return CurvatureGrid(*(g.like(q) for q in vals))


def normal_curvature(forms: FormCoefficients, direction) -> float:
    """Normal curvature of the tangent direction (du, dv); scale-invariant."""
    a, b = (float(q) for q in direction)
    _metric_determinant(forms.E, forms.F, forms.G)
    denom = forms.E * a * a + 2.0 * forms.F * a * b + forms.G * b * b
    if denom <= 0.0:
        raise DegenerateDirectionError("direction must be a nonzero tangent vector")
    return (forms.L * a * a + 2.0 * forms.M * a * b + forms.N * b * b) / denom


def geodesic_curvatures_of_parametric_lines(forms: FormGrid):
    """Geodesic curvature grids (gamma1, gamma2) of the u- and v-parameter lines.

    Requires a principal chart; gamma1 = -E_v/(2 E sqrt(G)) and
    gamma2 = G_u/(2 G sqrt(E)), with the shared second-order stencils.
    """
    E, G = forms.E, forms.G
    _metric_determinant(E.values, forms.F.values, G.values)
    if not is_principal(E.values, forms.F.values, G.values, forms.M.values):
        raise NotPrincipalError("geodesic curvatures of parametric lines need F = M = 0")
    E_v = d_v(E.values, E)
    G_u = d_u(G.values, G)
    gamma1 = -E_v / (2.0 * E.values * np.sqrt(G.values))
    gamma2 = G_u / (2.0 * G.values * np.sqrt(E.values))
    return E.like(gamma1), E.like(gamma2)


def _umbilic_scan(nu1: np.ndarray, nu2: np.ndarray):
    # a node is umbilic when |nu1 - nu2| < UMBILIC_RTOL * max(1, |nu1|, |nu2|)
    gap = np.abs(nu1 - nu2)
    threshold = UMBILIC_RTOL * np.maximum(1.0, np.maximum(np.abs(nu1), np.abs(nu2)))
    mask = gap < threshold
    worst = np.unravel_index(int(np.argmin(gap / threshold)), gap.shape)
    report = UmbilicReport(
        count=int(mask.sum()),
        total=int(mask.size),
        worst_index=(int(worst[0]), int(worst[1])),
        min_separation=float(gap[worst]),
        threshold_at_worst=float(threshold[worst]),
    )
    return mask, report


def detect_umbilics(curv: CurvatureGrid):
    """Mask of nodes where nu1 and nu2 coincide up to a relative tolerance.

    A node is flagged when |nu1 - nu2| < UMBILIC_RTOL * max(1, |nu1|, |nu2|).
    Returns (mask Grid2, UmbilicReport).
    """
    same_geometry(curv.nu1, curv.nu2)
    mask, report = _umbilic_scan(curv.nu1.values, curv.nu2.values)
    return curv.nu1.like(mask.astype(float)), report


def require_umbilic_free(nu1: np.ndarray, nu2: np.ndarray) -> None:
    """Raise UmbilicError if detect_umbilics would flag any node."""
    _, report = _umbilic_scan(nu1, nu2)
    if report.any:
        raise UmbilicError(f"principal curvatures coincide near node {report.worst_index}: "
                           f"|nu1 - nu2| = {report.min_separation:.3e}")
