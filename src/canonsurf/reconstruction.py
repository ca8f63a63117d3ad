"""Surface reconstruction from invariant data, unique up to rigid motion.

From an InvariantGrid the first- and second-form coefficients E, G, L, N are
rebuilt (F = M = 0 by construction) with grid's FOURTH_ORDER factors, and the
orthonormal frame (xu/sqrt(E), xv/sqrt(G), n) is integrated over the grid:
first along the base row in u, then along every column in v, with sqrt(E) and
sqrt(G) differentiated across the lines by the same five-point stencil, so
the mesh converges at O(h^4). The frame system is linear, so each
step is one rigid motion of the whole state, x' = x + p F and F' = Q F: a
fourth-order Magnus step whose rotation Q is a Cayley map, orthogonal by
construction, so the frames stay orthonormal to roundoff with no correction.
The 12 entries of [p; Q] have a closed form in a few sums and products of the
node coefficients (the grid values) and their integrals over the step (those
of the package's cubic, grid._step_integrals), formed for a block of steps on
every line at once; a step that turns the frame by more than STEP_ANGLE_LIMIT
refuses the grid as too coarse. What remains sequential is one homogeneous
product [[1, p], [0, Q]] [x; F] per step. The initial frame is projected once
onto its nearest orthonormal triple.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .canonical import InvariantGrid
from .catalog import JetGrid
from .compatibility import compatibility_floor
from .errors import CompatibilityWarning, IntegrationError, PositivityError, ShapeMismatchError
from .grid import (FOURTH_ORDER, BaseIndex, Grid2, _deriv4, _step_integrals, d_u, d_uu, d_v, d_vv,
                   path_factors, same_geometry)

# largest frame rotation per step, in radians, of an accepted grid: a classical
# RK4 step of a uniform rotation by this angle leaves the rotation group by 1e-6
STEP_ANGLE_LIMIT = 0.204
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

    E = a * Psi1^2 and G = b * Psi2^2 with (a, b) = inv.nu_constants(), which
    strips the sqrt(H^2 - K) weight of kh-mode constants, and the FOURTH_ORDER
    path_factors. Then L = nu1 E, N = nu2 G.
    """
    nu1, nu2 = inv.nu_arrays()
    psi1, psi2 = path_factors(nu1, nu2, nu1 - nu2, inv.geometry, inv.base, FOURTH_ORDER)
    a, b = inv.nu_constants()
    E = a * psi1**2
    G = b * psi2**2
    if np.any(E <= 0) or np.any(G <= 0):
        raise PositivityError("reconstructed metric coefficients must stay positive")
    like = inv.geometry.like
    return like(E), like(G), like(nu1 * E), like(nu2 * G)


def _step_maps(k0, k1, integral, h: float, tangent: int, step: np.ndarray) -> np.ndarray:
    """One fourth-order Magnus step of the frame system in closed form, from
    (steps, 3, lines) coefficients at the step's two nodes and their integrals
    over the step.

    The rate is Y' = A Y with A = [[0, a e_t^T], [0, M]] and M = u e_t^T - e_t u^T,
    u = b e_o - c e_n. The step's generator, the integral of A plus h^2/12 [A1, A0],
    is [[0, v^T], [0, W]], W skew with W_ot = beta, W_tn = gamma and W_on = delta:
    W x = w x x for w = (-delta, gamma, beta), and W^2 = w w^T - theta^2 I.
    Q = cay((1 + theta^2/12) W) = I + x W + y W^2 is orthogonal for every h and
    within O(theta^5) of exp(W); p = v^T (I + k W + m W^2), with k and m the series
    of (1 - cos theta) / theta^2 and (theta - sin theta) / theta^3 to the same order.
    Writes [p; Q] in place, entry by entry, to step[:, :, 1:] of the
    (steps, 4, 4, lines) step array and returns theta^2, shaped (steps, lines).
    """
    (a0, b0, c0), (a1, b1, c1) = k0.swapaxes(0, 1), k1.swapaxes(0, 1)
    ia, beta, gamma = integral.swapaxes(0, 1)
    h2 = h * h / 12.0
    delta = h2 * (b1 * c0 - b0 * c1)
    w = (-delta, gamma, beta)
    v = (ia, h2 * (a0 * b1 - a1 * b0), h2 * (a1 * c0 - a0 * c1))
    theta2 = beta * beta + gamma * gamma + delta * delta
    f = 1.0 + theta2 / 12.0
    x = f / (1.0 + 0.25 * f * f * theta2)
    y = 0.5 * f * x
    k, m = 0.5 - theta2 / 24.0, 1.0 / 6.0 - theta2 / 120.0
    diagonal, scale = 1.0 - y * theta2, 1.0 - m * theta2
    along = m * (v[0] * w[0] + v[1] * w[1] + v[2] * w[2])
    # entries in the order (t, o, n), written to the rows of e_t, e_o and the normal in F
    e = (tangent, 3 - tangent, 3)
    for i in range(3):
        # Q_ii, then Q_jl and Q_lj, where W_jl = -W_lj = -w_i
        j, l = (i + 1) % 3, (i + 2) % 3
        sym, skew = y * w[j] * w[l], x * w[i]
        np.add(y * w[i] * w[i], diagonal, out=step[:, e[i], e[i]])
        np.subtract(sym, skew, out=step[:, e[j], e[l]])
        np.add(sym, skew, out=step[:, e[l], e[j]])
        # p_i = (1 - m theta^2) v_i + m (v.w) w_i + k (v x w)_i
        np.add(scale * v[i] + along * w[i], k * (v[j] * w[l] - v[l] * w[j]), out=step[:, 0, e[i]])
    return theta2


def _march(y0: np.ndarray, coef_values: np.ndarray, axis_coords: np.ndarray,
           k0: int, tangent: int) -> np.ndarray:
    """March the frame system along one axis from index k0 in both directions.

    coef_values has shape (n,) + batch + (3,), already ordered so the marching
    axis comes first. Returns states of shape (n,) + y0.shape.
    """
    n = axis_coords.size
    h = axis_coords[1] - axis_coords[0]
    node = np.ascontiguousarray(coef_values.reshape(n, -1, 3).swapaxes(1, 2))
    integral = _step_integrals(node, h)  # (n - 1, 3, lines)
    lines = node.shape[-1]
    block = max(1, MARCH_STEP_LINES // lines)
    out = np.empty((n,) + y0.shape, dtype=float)
    out[k0] = y0
    # step maps [[1, p], [0, Q]] stored (steps, 4, 4, lines), so entries are contiguous
    steps = np.zeros((min(block, n - 1), 4, 4, lines))
    steps[:, 0, 0] = 1.0
    for direction in (1, -1):
        # the backward march is a forward one along the reversed axis, where the
        # step from k to k + 1 crosses interval k of the reversed table backwards
        nodes, integrals, states = ((node, integral, out) if direction == 1 else
                                    (node[::-1], integral[::-1], out[::-1]))
        y = y0
        for b in range(k0 if direction == 1 else n - 1 - k0, n - 1, block):
            e = min(b + block, n - 1)
            block_steps = steps[:e - b]
            theta2 = _step_maps(nodes[b:e], nodes[b + 1:e + 1], direction * integrals[b:e],
                                direction * h, tangent, block_steps)
            largest = float(np.max(theta2))
            if not largest <= STEP_ANGLE_LIMIT**2:  # also a NaN angle from non-finite rates
                raise IntegrationError(
                    f"frame step angle {largest**0.5:.4g} exceeds {STEP_ANGLE_LIMIT}; "
                    "grid is too coarse for the stepper")
            maps = block_steps.transpose(0, 3, 1, 2).reshape((-1,) + y0.shape[:-2] + (4, 4))
            for step, nxt in zip(maps, states[b + 1:e + 1]):
                np.matmul(step, y, out=nxt)
                y = nxt
    return out


def _line_coefficients(metric: Grid2, other: Grid2, second: Grid2, across: int) -> np.ndarray:
    # the (a, b, c) rates of _step_maps on the lines along which metric is E or G,
    # with the fourth-order derivative of sqrt(metric) along the axis across them
    root = np.sqrt(metric.values)
    rate = _deriv4(root, (metric.du, metric.dv)[across], across)
    return np.stack([root, rate / np.sqrt(other.values), second.values / root], axis=-1)


def _frame_coefficients(E: Grid2, G: Grid2, L: Grid2, N: Grid2, init: FrameState,
                        base: BaseIndex):
    """Validate the march inputs; return the u- and v-line coefficient grids."""
    same_geometry(E, G, L, N)
    base.validate(E)
    if init.orthonormality_defect() > INITIAL_FRAME_TOL:
        raise IntegrationError("initial frame is not orthonormal")
    if np.linalg.det(np.array([init.e1, init.e2, init.n])) <= 0:
        raise IntegrationError("initial frame must be right-handed")
    return _line_coefficients(E, G, L, 1), _line_coefficients(G, E, N, 0)  # each (nu, nv, 3)


def _integrate_states(cu: np.ndarray, cv: np.ndarray, geometry: Grid2, init: FrameState,
                      base: BaseIndex, u_first: bool) -> np.ndarray:
    u_axis, v_axis = geometry.u_axis, geometry.v_axis
    y0 = init.as_matrix()
    U, _, Vt = np.linalg.svd(y0[1:])
    y0[1:] = U @ Vt  # the nearest orthonormal frame
    if u_first:
        row = _march(y0, cu[:, base.j0, :], u_axis, base.i0, tangent=1)  # (nu, 4, 3)
        states = _march(row, cv.swapaxes(0, 1), v_axis, base.j0, tangent=2)
        return states.swapaxes(0, 1)  # (nu, nv, 4, 3)
    col = _march(y0, cv[base.i0, :, :], v_axis, base.j0, tangent=2)  # (nv, 4, 3)
    return _march(col, cu, u_axis, base.i0, tangent=1)  # (nu, nv, 4, 3)


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
    # the two node-long products are einsum loops, not BLAS calls: on large
    # meshes those wake the BLAS worker threads, which go on spinning for a
    # while after the call and slow whatever the process runs next
    Hm = np.einsum("ki,kj->ij", P - cp, Q - cq)
    U, _, Vt = np.linalg.svd(Hm)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    t = cq - R @ cp
    diff = np.einsum("kj,ij->ki", P, R) + t - Q
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
