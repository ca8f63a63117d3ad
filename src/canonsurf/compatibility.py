"""Numerical residuals of the compatibility equations.

Evaluators for the general Gauss and Codazzi equations of an arbitrary chart,
their principal-chart forms, and the canonical-parameter equation that ties a
pair of invariant fields (nu1, nu2) or (K, H) to an actual surface; (K, H)
data are read as (nu1, nu2), so one equation serves both. Residuals
converge as O(h^2) on compatible data and stall at a floor on incompatible
data; `compatibility_floor` turns that contrast into a yes/no test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import InvariantGrid
from .errors import NotPrincipalError, RegularityError
from .grid import SECOND_ORDER, BaseIndex, Grid2, d_u, d_v, path_factors, same_geometry
from .invariants import FormGrid, is_principal, require_umbilic_free
from .reports import ResidualReport, make_report

# Smallest grid side, in nodes, on which the floor test runs: the halved grid
# then keeps at least four nodes a side.
FLOOR_MIN_NODES = 9
FLOOR_MIN_RATIO = 1.5  # least coarse/fine residual ratio of compatible data
W_MIN = 1e-14  # least area element sqrt(EG - F^2) of a regular chart


def _det3(r0, r1, r2):
    # rows are triples of arrays
    a, b, c = r0
    d, e, f = r1
    g, h, i = r2
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _area_element(forms: FormGrid) -> np.ndarray:
    W = forms.W.values
    if np.any(W < W_MIN):
        raise RegularityError("W = sqrt(EG - F^2) vanishes somewhere on the grid")
    return W


def gauss_residual_general(forms: FormGrid) -> ResidualReport:
    """K - (Gauss equation right-hand side) for an arbitrary chart."""
    E, F, G = forms.E.values, forms.F.values, forms.G.values
    L, M, N = forms.L.values, forms.M.values, forms.N.values
    W = _area_element(forms)
    geo = forms.geometry
    E_u, E_v = d_u(E, geo), d_v(E, geo)
    F_u, F_v = d_u(F, geo), d_v(F, geo)
    G_u, G_v = d_u(G, geo), d_v(G, geo)
    K = (L * N - M * M) / (W * W)
    rhs = -(d_v((E_v - F_u) / W, geo) + d_u((G_u - F_v) / W, geo)) / (2.0 * W)
    rhs -= _det3((E, F, G), (E_u, F_u, G_u), (E_v, F_v, G_v)) / (4.0 * W**4)
    return make_report("gauss-general", geo.like(K - rhs))


def codazzi_residual_general(forms: FormGrid):
    """Residuals of the two general Codazzi equations."""
    E, F, G = forms.E.values, forms.F.values, forms.G.values
    L, M, N = forms.L.values, forms.M.values, forms.N.values
    W = _area_element(forms)
    geo = forms.geometry
    mean_term = E * N - 2.0 * F * M + G * L
    r1 = (2.0 * W * W * (d_v(L, geo) - d_u(M, geo))
          - mean_term * (d_v(E, geo) - d_u(F, geo))
          - _det3((E, F, G), (L, M, N), (d_u(E, geo), d_u(F, geo), d_u(G, geo))))
    r2 = (2.0 * W * W * (d_v(M, geo) - d_u(N, geo))
          - mean_term * (d_v(F, geo) - d_u(G, geo))
          - _det3((E, F, G), (L, M, N), (d_v(E, geo), d_v(F, geo), d_v(G, geo))))
    return (make_report("codazzi-general-1", geo.like(r1)),
            make_report("codazzi-general-2", geo.like(r2)))


def codazzi_residual_principal(nu1: Grid2, nu2: Grid2, E: Grid2, G: Grid2):
    """Residuals of E_v/2E = -(nu1)_v/(nu1-nu2) and G_u/2G = (nu2)_u/(nu1-nu2)."""
    same_geometry(nu1, nu2, E, G)
    require_umbilic_free(nu1.values, nu2.values)
    gap = nu1.values - nu2.values
    r1 = d_v(E.values, E) / (2.0 * E.values) + d_v(nu1.values, nu1) / gap
    r2 = d_u(G.values, G) / (2.0 * G.values) - d_u(nu2.values, nu2) / gap
    return (make_report("codazzi-principal-1", nu1.like(r1)),
            make_report("codazzi-principal-2", nu1.like(r2)))


def gauss_residual_principal(forms: FormGrid) -> ResidualReport:
    """Gauss equation residual in a principal chart (F = M = 0)."""
    E, G = forms.E.values, forms.G.values
    if not is_principal(E, forms.F.values, G, forms.M.values):
        raise NotPrincipalError("the principal-chart Gauss equation needs F = M = 0")
    geo = forms.geometry
    root = np.sqrt(E * G)
    lhs = forms.L.values * forms.N.values / (E * G)
    rhs = -(d_v(d_v(E, geo) / root, geo) + d_u(d_u(G, geo) / root, geo)) / (2.0 * root)
    return make_report("gauss-principal", geo.like(lhs - rhs))


def canonical_factors(inv: InvariantGrid) -> tuple[np.ndarray, np.ndarray]:
    """(Psi1, Psi2) arrays of the (nu1, nu2) route, for a grid of either mode:
    strictly positive and exactly 1 at the base node."""
    nu1, nu2 = inv.nu_arrays()
    return path_factors(nu1, nu2, nu1 - nu2, inv.geometry, inv.base, SECOND_ORDER)


def gauss_residual_canonical(inv: InvariantGrid) -> ResidualReport:
    """Residual of the canonical-parameter Gauss equation in the nu route, for a
    grid of either mode: kh data enter through nu_arrays() and nu_constants()."""
    nu1, nu2 = inv.nu_arrays()
    a, b = inv.nu_constants()
    gap = nu1 - nu2
    geo = inv.geometry
    p1, p2 = canonical_factors(inv)
    lhs = nu1 * nu2 * p1 * p2
    rhs = (d_v(d_v(nu1, geo) / gap * p1 / p2, geo) / b
           - d_u(d_u(nu2, geo) / gap * p2 / p1, geo) / a)
    return make_report("gauss-canonical", geo.like(lhs - rhs))


@dataclass(frozen=True)
class FloorCheck:
    """Outcome of the residual floor test at two grid resolutions."""

    fine: ResidualReport
    coarse_max_abs: float
    ratio: float
    compatible: bool


def _subsample(inv: InvariantGrid) -> InvariantGrid:
    g = inv.geometry
    su = inv.base.i0 % 2
    sv = inv.base.j0 % 2
    f1 = inv.field1.values[su::2, sv::2]
    f2 = inv.field2.values[su::2, sv::2]
    sub = lambda vals: Grid2(g.u0 + su * g.du, g.v0 + sv * g.dv, 2 * g.du, 2 * g.dv, vals)
    return InvariantGrid(inv.mode, sub(f1), sub(f2), inv.a, inv.b,
                         BaseIndex(inv.base.i0 // 2, inv.base.j0 // 2))


def compatibility_floor(inv: InvariantGrid) -> FloorCheck | None:
    """Compare the canonical Gauss residual at full and halved resolution.

    Discretization error drops by about 4 when the grid is refined, so data
    whose residual shrinks by less than FLOOR_MIN_RATIO from the subsampled
    grid to the full grid is declared incompatible; an exactly zero full-grid
    residual reads an infinite ratio. A grid with fewer than FLOOR_MIN_NODES
    nodes a side gives None: no test is run. An overflowing residual gives no
    verdict: make_report raises RangeError.
    """
    if min(inv.geometry.nu, inv.geometry.nv) < FLOOR_MIN_NODES:
        return None
    fine = gauss_residual_canonical(inv)
    coarse = gauss_residual_canonical(_subsample(inv)).max_abs
    ratio = coarse / fine.max_abs if fine.max_abs > 0 else float("inf")
    return FloorCheck(fine, coarse, ratio, ratio >= FLOOR_MIN_RATIO)
