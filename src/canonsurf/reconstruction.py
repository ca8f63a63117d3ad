"""Surface reconstruction from invariant data, unique up to rigid motion.

From an InvariantGrid the first- and second-form coefficients E, G, L, N are
rebuilt (F = M = 0 by construction), and the orthonormal frame
(xu/sqrt(E), xv/sqrt(G), n) is integrated over the grid: first along the base
row in u, then along every column in v, with a classical fourth-order stepper.
Its node coefficients are the grid values; its midpoint coefficients come from
one cubic-spline evaluation per axis at all interval midpoints. After every
step the frame is pulled back to its polar factor, the nearest orthonormal
triple, by two Newton-Schulz steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .canonical import InvariantGrid
from .catalog import JetGrid
from .compatibility import canonical_factors, compatibility_floor
from .errors import (
    CompatibilityWarning,
    IncompatibleInvariantsError,
    IntegrationError,
    PositivityError,
    ShapeMismatchError,
)
from .grid import BaseIndex, Grid2, partial_u, partial_v, same_geometry, second_u, second_v

FRAME_DRIFT_LIMIT = 1e-6


@dataclass(frozen=True)
class FrameState:
    """Position plus the orthonormal frame (u-tangent, v-tangent, normal)."""

    x: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    n: np.ndarray

    def as_matrix(self) -> np.ndarray:
        return np.array([self.x, self.e1, self.e2, self.n], dtype=float)

    def orthonormality_defect(self) -> float:
        F = np.array([self.e1, self.e2, self.n], dtype=float)
        return float(np.max(np.abs(F @ F.T - np.eye(3))))


def identity_frame() -> FrameState:
    """The frame (e1, e2, n) = (x, y, z) axes at the origin."""
    return FrameState(np.zeros(3), *np.eye(3))


@dataclass(frozen=True)
class SurfaceMesh:
    """Grid of 3-space points with optional unit normals."""

    positions: Grid2
    normals: Grid2 | None = None


def coefficients_from_invariants(inv: InvariantGrid):
    """(E, G, L, N) grids implied by the invariant fields and constants a, b.

    E = E0 * Psi1^2 and G = G0 * Psi2^2 with E0 = a, G0 = b in nu mode; in KH
    mode the stored constants carry the sqrt(H^2 - K) weight, so E0 = a / s0
    with s0 the discriminant root at the base node. Then L = nu1 E, N = nu2 G.
    """
    psi1, psi2 = canonical_factors(inv)
    nu1, nu2 = inv.nu_arrays()
    if inv.mode == "nu":
        E0, G0 = inv.a, inv.b
    else:
        K, H = inv.kh_arrays()
        s0 = float(np.sqrt(H * H - K)[inv.base.i0, inv.base.j0])
        E0, G0 = inv.a / s0, inv.b / s0
    E = E0 * psi1**2
    G = G0 * psi2**2
    if np.any(E <= 0) or np.any(G <= 0):
        raise PositivityError("reconstructed metric coefficients must stay positive")
    like = inv.geometry.like
    return like(E), like(G), like(nu1 * E), like(nu2 * G)


def _frame_rate(y, coef, tangent: int):
    # y[..., 0,:] = x, y[..., 1,:] = e1, y[..., 2,:] = e2, y[..., 3,:] = n
    a = coef[..., 0:1]
    b = coef[..., 1:2]
    c = coef[..., 2:3]
    other = 3 - tangent
    et = y[..., tangent, :]
    d = np.empty_like(y)
    d[..., 0, :] = a * et
    d[..., tangent, :] = -b * y[..., other, :] + c * y[..., 3, :]
    d[..., other, :] = b * et
    d[..., 3, :] = -c * et
    return d


def _renormalize(y):
    frames = y[..., 1:4, :]
    gram = frames @ np.swapaxes(frames, -1, -2)
    drift = float(np.max(np.abs(gram - np.eye(3))))
    if not drift <= FRAME_DRIFT_LIMIT:  # also a NaN drift from overflowing coefficients
        raise IntegrationError(
            f"frame drift {drift:.3e} exceeds {FRAME_DRIFT_LIMIT}; grid is too coarse "
            "for the stepper")
    # Newton-Schulz F <- 1.5 F - 0.5 F F^T F converges quadratically to the
    # polar factor for drift < 1: from drift 1e-6, two steps reach roundoff.
    frames = 1.5 * frames - 0.5 * gram @ frames
    gram = frames @ np.swapaxes(frames, -1, -2)
    y[..., 1:4, :] = 1.5 * frames - 0.5 * gram @ frames
    return y


def _midpoint_coefficients(coef_values: np.ndarray, axis_coords: np.ndarray) -> np.ndarray:
    """Cubic-spline coefficients at the n - 1 interval midpoints t_k + h/2."""
    h = axis_coords[1] - axis_coords[0]
    return CubicSpline(axis_coords, coef_values, axis=0)(axis_coords[:-1] + 0.5 * h)


def _march(y0: np.ndarray, coef_values: np.ndarray, axis_coords: np.ndarray,
           k0: int, tangent: int) -> np.ndarray:
    """March the frame system along one axis from index k0 in both directions.

    coef_values has shape (n,) + batch + (3,), already ordered so the marching
    axis comes first. Returns states of shape (n,) + y0.shape.
    """
    n = axis_coords.size
    mid = _midpoint_coefficients(coef_values, axis_coords)
    out = np.empty((n,) + y0.shape, dtype=float)
    out[k0] = y0
    for direction in (1, -1):
        y = y0.copy()
        rng = range(k0, n - 1) if direction == 1 else range(k0, 0, -1)
        h = direction * (axis_coords[1] - axis_coords[0])
        for k in rng:
            # the step from k to k + direction crosses interval min(k, k + direction)
            cm = mid[min(k, k + direction)]
            k1 = _frame_rate(y, coef_values[k], tangent)
            k2 = _frame_rate(y + 0.5 * h * k1, cm, tangent)
            k3 = _frame_rate(y + 0.5 * h * k2, cm, tangent)
            k4 = _frame_rate(y + h * k3, coef_values[k + direction], tangent)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            y = _renormalize(y)
            out[k + direction] = y
    return out


def _u_coefficients(E, G, L):
    sqrtE = np.sqrt(E.values)
    return np.stack([sqrtE, partial_v(E.like(sqrtE)).values / np.sqrt(G.values),
                     L.values / sqrtE], axis=-1)


def _v_coefficients(E, G, N):
    sqrtG = np.sqrt(G.values)
    return np.stack([sqrtG, partial_u(G.like(sqrtG)).values / np.sqrt(E.values),
                     N.values / sqrtG], axis=-1)


def _frame_coefficients(E: Grid2, G: Grid2, L: Grid2, N: Grid2, init: FrameState,
                        base: BaseIndex):
    """Validate the march inputs; return the u- and v-line coefficient grids."""
    same_geometry(E, G, L, N)
    base.validate(E)
    if init.orthonormality_defect() > 1e-10:
        raise IntegrationError("initial frame is not orthonormal")
    if np.linalg.det(np.array([init.e1, init.e2, init.n])) <= 0:
        raise IntegrationError("initial frame must be right-handed")
    return _u_coefficients(E, G, L), _v_coefficients(E, G, N)  # each (nu, nv, 3)


def _integrate_states(cu: np.ndarray, cv: np.ndarray, geometry: Grid2, init: FrameState,
                      base: BaseIndex, u_first: bool) -> np.ndarray:
    u_axis, v_axis = geometry.u_axis, geometry.v_axis
    y0 = init.as_matrix()
    if u_first:
        row = _march(y0, cu[:, base.j0, :], u_axis, base.i0, tangent=1)  # (nu, 4, 3)
        states = _march(row, np.moveaxis(cv, 1, 0), v_axis, base.j0, tangent=2)
        return np.moveaxis(states, 0, 1)  # (nu, nv, 4, 3)
    col = _march(y0, cv[base.i0, :, :], v_axis, base.j0, tangent=2)  # (nv, 4, 3)
    states = _march(col, cu, u_axis, base.i0, tangent=1)  # (nu, nv, 4, 3)
    return states


def integrate_frame(E: Grid2, G: Grid2, L: Grid2, N: Grid2, init: FrameState,
                    base: BaseIndex) -> SurfaceMesh:
    """Integrate the frame system over the grid (base row first, then columns)."""
    cu, cv = _frame_coefficients(E, G, L, N, init, base)
    states = _integrate_states(cu, cv, E, init, base, u_first=True)
    return SurfaceMesh(E.like(states[..., 0, :]), E.like(states[..., 3, :]))


def path_consistency_diagnostic(E: Grid2, G: Grid2, L: Grid2, N: Grid2,
                                init: FrameState, base: BaseIndex) -> float:
    """Max position gap between u-first and v-first integration orders.

    Vanishes (to discretization error) exactly when the coefficients satisfy
    the compatibility equations, so a refinement-independent gap flags
    incompatible data.
    """
    cu, cv = _frame_coefficients(E, G, L, N, init, base)
    a = _integrate_states(cu, cv, E, init, base, u_first=True)[..., 0, :]
    b = _integrate_states(cu, cv, E, init, base, u_first=False)[..., 0, :]
    return float(np.max(np.linalg.norm(a - b, axis=-1)))


def align_rigid(mesh_a: SurfaceMesh, mesh_b: SurfaceMesh):
    """Proper rotation R and translation t minimizing rms of R a + t - b.

    Returns (R, t, rms). Node correspondence is positional, so the meshes must
    share a grid shape.
    """
    pa = mesh_a.positions.values
    pb = mesh_b.positions.values
    if pa.shape != pb.shape:
        raise ShapeMismatchError(f"mesh shapes differ: {pa.shape} vs {pb.shape}")
    P = pa.reshape(-1, 3)
    Q = pb.reshape(-1, 3)
    cp = P.mean(axis=0)
    cq = Q.mean(axis=0)
    Hm = (P - cp).T @ (Q - cq)
    U, _, Vt = np.linalg.svd(Hm)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    t = cq - R @ cp
    diff = P @ R.T + t - Q
    rms = float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))
    return R, t, rms


def finite_difference_jets(mesh: SurfaceMesh) -> JetGrid:
    """Second-order finite-difference jets of a mesh, for round-trip checks."""
    x = mesh.positions
    xu = partial_u(x)
    return JetGrid(x, xu, partial_v(x), second_u(x), partial_v(xu), second_v(x))


def reconstruct(inv: InvariantGrid, initial_frame: FrameState | None = None,
                strict: bool = False, check_compatibility: bool = True) -> SurfaceMesh:
    """Reconstruct the surface mesh determined by an invariant grid.

    When the compatibility floor test fails, a CompatibilityWarning is issued
    and the reconstruction proceeds anyway (the diagnostics quantify the
    failure); with strict=True an IncompatibleInvariantsError is raised
    instead.
    """
    floor = compatibility_floor(inv) if check_compatibility else None
    if floor is not None and not floor.compatible:
        msg = (f"invariant data looks incompatible: residual only improves by "
               f"{floor.ratio:.2f}x under refinement")
        if strict:
            raise IncompatibleInvariantsError(msg)
        warnings.warn(msg, CompatibilityWarning)
    E, G, L, N = coefficients_from_invariants(inv)
    init = initial_frame if initial_frame is not None else identity_frame()
    return integrate_frame(E, G, L, N, init, inv.base)
