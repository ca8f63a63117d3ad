"""Surface reconstruction from invariant data, unique up to rigid motion.

From an InvariantGrid the first- and second-form coefficients E, G, L, N are
rebuilt (F = M = 0 by construction), and the orthonormal frame
(xu/sqrt(E), xv/sqrt(G), n) is integrated over the grid: first along the base
row in u, then along every column in v, with a classical fourth-order stepper.
The frame system is linear, so one RK4 step maps the whole state: x' = x + p F
and F' = Q F. The rotation part of its generator is skew and nonzero only in
the tangent's row and column, so the 12 entries of [p; Q] have a closed form
in a few sums and products of the coefficients, formed for a block of steps
on every line at once. Each Q is pulled to its polar factor, the nearest
orthonormal matrix, by one Newton-Schulz step (two when the block's drift
exceeds NEWTON_SCHULZ_ONE_STEP); for an orthonormal frame that equals
projecting the stepped frame. What remains sequential is one homogeneous
product [[1, p], [0, Q]] [x; F] per step. Node coefficients are the grid
values; midpoint ones the not-a-knot cubic spline's (grid.not_a_knot_slopes).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .canonical import InvariantGrid
from .catalog import JetGrid
from .compatibility import canonical_factors, compatibility_floor
from .errors import (
    CompatibilityWarning,
    IntegrationError,
    PositivityError,
    ShapeMismatchError,
)
from .grid import (
    BaseIndex,
    Grid2,
    d_u,
    d_uu,
    d_v,
    d_vv,
    not_a_knot_slopes,
    same_geometry,
)

FRAME_DRIFT_LIMIT = 1e-6
# one Newton-Schulz step leaves an error of about 0.4 drift^2, below roundoff
# from this drift on down; a larger drift gets a second step
NEWTON_SCHULZ_ONE_STEP = 1e-8
# step-line pairs whose step maps are formed together: cache-sized temporaries,
# and a one-line march forms all its steps at once
MARCH_STEP_LINES = 1 << 14
INITIAL_FRAME_TOL = 1e-10  # largest orthonormality defect of an accepted initial frame


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
    with s0 the half-gap at the base node. Then L = nu1 E, N = nu2 G.
    """
    psi1, psi2 = canonical_factors(inv)
    nu1, nu2 = inv.nu_arrays()
    s0 = 1.0 if inv.mode == "nu" else float(inv.half_gap()[inv.base.i0, inv.base.j0])
    E = inv.a / s0 * psi1**2
    G = inv.b / s0 * psi2**2
    if np.any(E <= 0) or np.any(G <= 0):
        raise PositivityError("reconstructed metric coefficients must stay positive")
    like = inv.geometry.like
    return like(E), like(G), like(nu1 * E), like(nu2 * G)


def _gram_deviation(f):
    """Entries of F F^T - I, as a symmetric nested 3x3 list, of the entries f[i][j]."""
    dev = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            g = f[i][0] * f[j][0] + f[i][1] * f[j][1] + f[i][2] * f[j][2]
            dev[i][j] = dev[j][i] = g - 1.0 if i == j else g
    return dev


def _newton_schulz_step(f, dev, out):
    """Entries of F - 0.5 (F F^T - I) F, from those of F and its Gram deviation, written
    to the (3, 3, ...) array out, or to new arrays when out is None."""
    return [[np.subtract(f[i][j], 0.5 * (dev[i][0] * f[0][j] + dev[i][1] * f[1][j]
                                         + dev[i][2] * f[2][j]),
                         out=None if out is None else out[i, j, ...])
             for j in range(3)] for i in range(3)]


def _polar_entries(f, out) -> None:
    """Polar factor, the nearest orthonormal matrix, of the 3x3 matrix of stacks f[i][j],
    written to the (3, 3, ...) array out.

    Newton-Schulz converges quadratically (Bjorck & Bowie 1971; Higham 1986):
    one step from a drift max|F F^T - I| of NEWTON_SCHULZ_ONE_STEP or less
    reaches roundoff, so a second step is taken only above it.
    """
    dev = _gram_deviation(f)
    drift = float(np.max([np.max(np.abs(dev[i][j])) for i in range(3) for j in range(i, 3)]))
    if not drift <= FRAME_DRIFT_LIMIT:  # also a NaN drift from overflowing coefficients
        raise IntegrationError(
            f"frame drift {drift:.3e} exceeds {FRAME_DRIFT_LIMIT}; grid is too coarse "
            "for the stepper")
    if drift > NEWTON_SCHULZ_ONE_STEP:
        f = _newton_schulz_step(f, dev, None)
        dev = _gram_deviation(f)
    _newton_schulz_step(f, dev, out)


def _polar_factor(frames: np.ndarray) -> np.ndarray:
    """Nearest orthonormal triples of a (..., 3, 3) stack."""
    out = np.empty(frames.shape)
    _polar_entries(np.moveaxis(frames, (-2, -1), (0, 1)), np.moveaxis(out, (-2, -1), (0, 1)))
    return out


def _midpoint_coefficients(coef_values: np.ndarray) -> np.ndarray:
    """Not-a-knot cubic-spline values at the n - 1 interval midpoints t_k + h/2.

    With s_k the spline's node slopes times h (grid.not_a_knot_slopes), the
    cubic on [t_k, t_k+1] takes (y_k + y_k+1)/2 + (s_k - s_k+1)/8 at the midpoint.
    """
    y = coef_values
    s = not_a_knot_slopes(y)
    return 0.5 * (y[:-1] + y[1:]) + 0.125 * (s[:-1] - s[1:])


def _step_maps(k0, km, k1, h: float, tangent: int, step: np.ndarray) -> list:
    """One RK4 step of the frame system in closed form, from (steps, 3, lines) coefficients.

    The rate is Y' = A Y with A = [[0, a e_t^T], [0, M]] and M = u e_t^T - e_t u^T,
    u = b e_o - c e_n; the step is Phi = I + h/6 (A0 + 4 Am + A1)
    + h^2/6 (Am A0 + Am^2 + A1 Am) + h^3/12 (Am^2 A0 + A1 Am^2) + h^4/24 A1 Am^2 A0.
    As M_i M_j = -u_i u_j^T - (u_i . u_j) e_t e_t^T, every entry follows from
    b0 + 4 bm + b1, c0 + 4 cm + c1, w = um . u0, r = um . um and z = u1 . um.
    Writes p to step[:, 0, 1:] of the (steps, 4, 4, lines) step array and
    returns Q as a nested 3x3 list of (steps, lines) entries.
    """
    (a0, b0, c0), (am, bm, cm), (a1, b1, c1) = (np.moveaxis(k, 1, 0) for k in (k0, km, k1))
    h1, h2, h3, h4 = h / 6.0, h * h / 6.0, h**3 / 12.0, h**4 / 24.0
    w = bm * b0 + cm * c0
    r = bm * bm + cm * cm
    z = b1 * bm + c1 * cm
    hB = h1 * (b0 + 4.0 * bm + b1)
    hC = h1 * (c0 + 4.0 * cm + c1)
    b0m, c0m = b0 + bm, c0 + cm
    ra1, rb1, rc1 = r * a1, r * b1, r * c1
    t, o, n = tangent - 1, 2 - tangent, 2  # rows of e_t, e_o and the normal in F
    p = step[:, 0, 1:]
    np.subtract(h1 * (a0 + 4.0 * am + a1), h3 * (am * w + ra1), out=p[:, t])
    np.subtract(h4 * (ra1 * b0), h2 * (am * b0m + a1 * bm), out=p[:, o])
    np.subtract(h2 * (am * c0m + a1 * cm), h4 * (ra1 * c0), out=p[:, n])
    q = [[None] * 3 for _ in range(3)]
    q[t][t] = (1.0 - h2 * (w + r + z)) + h4 * (w * z)
    q[t][o] = h3 * (r * b0 + z * bm) - hB
    q[t][n] = hC - h3 * (r * c0 + z * cm)
    q[o][t] = hB - h3 * (w * bm + rb1)
    q[n][t] = h3 * (w * cm + rc1) - hC
    q[o][o] = (1.0 - h2 * (bm * (b0m + b1))) + h4 * (rb1 * b0)
    q[o][n] = h2 * (bm * c0m + b1 * cm) - h4 * (rb1 * c0)
    q[n][o] = h2 * (cm * b0m + c1 * bm) - h4 * (rc1 * b0)
    q[n][n] = (1.0 - h2 * (cm * (c0m + c1))) + h4 * (rc1 * c0)
    return q


def _march(y0: np.ndarray, coef_values: np.ndarray, axis_coords: np.ndarray,
           k0: int, tangent: int) -> np.ndarray:
    """March the frame system along one axis from index k0 in both directions.

    coef_values has shape (n,) + batch + (3,), already ordered so the marching
    axis comes first. Returns states of shape (n,) + y0.shape.
    """
    n = axis_coords.size
    h = axis_coords[1] - axis_coords[0]
    node = np.ascontiguousarray(np.moveaxis(coef_values.reshape(n, -1, 3), -1, 1))
    mid = _midpoint_coefficients(node)  # (n - 1, 3, lines)
    lines = node.shape[-1]
    block = max(1, MARCH_STEP_LINES // lines)
    out = np.empty((n,) + y0.shape, dtype=float)
    out[k0] = y0
    start = y0.copy()
    start[..., 1:, :] = _polar_factor(y0[..., 1:, :])
    # step maps [[1, p], [0, Q]] stored (steps, 4, 4, lines), so entries are contiguous
    steps = np.zeros((min(block, n - 1), 4, 4, lines))
    steps[:, 0, 0] = 1.0
    for direction in (1, -1):
        # the backward march is a forward one along the reversed axis, where the
        # step from k to k + 1 crosses interval k of the reversed midpoint table
        nodes, mids, states = ((node, mid, out) if direction == 1 else
                               (node[::-1], mid[::-1], out[::-1]))
        y = start
        for b in range(k0 if direction == 1 else n - 1 - k0, n - 1, block):
            e = min(b + block, n - 1)
            block_steps = steps[:e - b]
            q = _step_maps(nodes[b:e], mids[b:e], nodes[b + 1:e + 1], direction * h, tangent,
                           block_steps)
            # polar(Q F) = polar(Q) F for orthonormal F, so each Q is projected once
            _polar_entries(q, np.moveaxis(block_steps[:, 1:, 1:], 0, 2))
            maps = np.moveaxis(block_steps, -1, 1).reshape((-1,) + y0.shape[:-2] + (4, 4))
            for step, nxt in zip(maps, states[b + 1:e + 1]):
                np.matmul(step, y, out=nxt)
                y = nxt
    return out


def _u_coefficients(E, G, L):
    sqrtE = np.sqrt(E.values)
    return np.stack([sqrtE, d_v(sqrtE, E) / np.sqrt(G.values), L.values / sqrtE], axis=-1)


def _v_coefficients(E, G, N):
    sqrtG = np.sqrt(G.values)
    return np.stack([sqrtG, d_u(sqrtG, G) / np.sqrt(E.values), N.values / sqrtG], axis=-1)


def _frame_coefficients(E: Grid2, G: Grid2, L: Grid2, N: Grid2, init: FrameState,
                        base: BaseIndex):
    """Validate the march inputs; return the u- and v-line coefficient grids."""
    same_geometry(E, G, L, N)
    base.validate(E)
    if init.orthonormality_defect() > INITIAL_FRAME_TOL:
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
    # a copy of the positions frees the first march's frames before the second march
    a = _integrate_states(cu, cv, E, init, base, u_first=True)[..., 0, :].copy()
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
    p = x.values
    xu = d_u(p, x)
    return JetGrid(x, *(x.like(d) for d in (xu, d_v(p, x), d_uu(p, x), d_v(xu, x), d_vv(p, x))))


def reconstruct(inv: InvariantGrid, initial_frame: FrameState | None = None) -> SurfaceMesh:
    """Reconstruct the surface mesh determined by an invariant grid.

    The compatibility floor test runs first; when it fails, a
    CompatibilityWarning is issued before any frame is marched, and the
    reconstruction proceeds (the diagnostics quantify the failure).
    """
    floor = compatibility_floor(inv)
    if floor is not None and not floor.compatible:
        warnings.warn(f"invariant data looks incompatible: residual only improves by "
                      f"{floor.ratio:.2f}x under refinement", CompatibilityWarning, stacklevel=2)
    E, G, L, N = coefficients_from_invariants(inv)
    init = initial_frame if initial_frame is not None else identity_frame()
    return integrate_frame(E, G, L, N, init, inv.base)
