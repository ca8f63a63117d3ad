import math
import warnings

import numpy as np
import pytest

import canonsurf as cs
from canonsurf import reconstruction
from canonsurf.errors import (
    CompatibilityWarning,
    IntegrationError,
    PositivityError,
    RangeError,
    ShapeMismatchError,
)
from canonsurf.grid import _step_integrals

from helpers import (
    best_fit_axis_distances,
    catenoid_invariants,
    cone_invariants,
    constant_invariants,
    five_point_slopes,
    observed_orders,
    overflowing_invariants,
    random_frame,
    random_rotation,
    torus_invariants,
)


def reconstruct_escalated(inv):
    """reconstruct with its CompatibilityWarning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompatibilityWarning)
        return cs.reconstruct(inv)


def perturbed_catenoid(n):
    inv, _, _ = catenoid_invariants(n)
    geo = inv.geometry
    uu = geo.u_axis[:, None]
    vv = geo.v_axis[None, :]
    bad1 = geo.like(inv.field1.values * (1 + 0.05 * np.sin(3 * uu) * np.sin(2 * vv)))
    return cs.InvariantGrid("nu", bad1, inv.field2, inv.a, inv.b, inv.base)


class TestCoefficients:
    def test_constant_invariants(self):
        inv = constant_invariants(1.0, 0.0, 17, 0.1, 0.1)
        E, G, L, N = cs.coefficients_from_invariants(inv)
        assert np.max(np.abs(E.values - 1.0)) == 0.0
        assert np.max(np.abs(G.values - 1.0)) == 0.0
        assert np.max(np.abs(L.values - 1.0)) == 0.0
        assert np.max(np.abs(N.values)) == 0.0

    def test_catenoid_closed_form(self):
        errs = []
        for n in (65, 129):
            inv, _, forms = catenoid_invariants(n)
            E, G, L, N = cs.coefficients_from_invariants(inv)
            ch2 = np.cosh(inv.geometry.u_axis)[:, None] ** 2 * np.ones_like(E.values)
            err = max(np.max(np.abs(E.values - ch2)), np.max(np.abs(G.values - ch2)),
                      np.max(np.abs(L.values + 1.0)), np.max(np.abs(N.values - 1.0)))
            errs.append(err)
        assert 12.0 < errs[0] / errs[1] < 20.0  # fourth order: 16 per halving

    def test_torus_closed_form(self):
        errs = []
        for n in (65, 129):
            inv, _, forms = torus_invariants(n)
            E, G, L, N = cs.coefficients_from_invariants(inv)
            u = inv.geometry.u_axis[:, None]
            rad2 = (2.0 + np.cos(u)) ** 2 * np.ones_like(G.values)
            nu2 = np.cos(u) / (2.0 + np.cos(u)) * np.ones_like(G.values)
            assert np.max(np.abs(L.values - E.values)) < 1e-12  # L = nu1 E, nu1 = 1
            assert np.max(np.abs(N.values - nu2 * G.values)) < 1e-12
            errs.append(max(np.max(np.abs(E.values - 1.0)),
                            np.max(np.abs(G.values - rad2))))
        assert 12.0 < errs[0] / errs[1] < 20.0  # fourth order: 16 per halving

    def test_vanishing_factor_rejected(self):
        # nu1 - nu2 = 1e-6 and both fall by 1 along v from the base node at v = 0:
        # Psi2 = exp(-1e6 v) underflows to 0, so G = 0, while Psi1 overflows
        n = 17
        t = np.linspace(0.0, 1.0, n)
        g = cs.Grid2.from_axes(t, t, np.ones((n, 1)) * (1.0 - t)[None, :])
        inv = cs.InvariantGrid("nu", g, g.like(g.values - 1e-6), 1.0, 1.0, cs.BaseIndex(8, 0))
        with np.errstate(over="ignore"), pytest.raises(PositivityError):
            cs.coefficients_from_invariants(inv)

    def test_kh_mode_matches_nu_mode(self):
        inv, _, _ = catenoid_invariants(65)
        E1, G1, L1, N1 = cs.coefficients_from_invariants(inv)
        E2, G2, L2, N2 = cs.coefficients_from_invariants(inv.to_kh())
        # KH mode swaps the roles of nu1 and nu2 for the catenoid (magnitude
        # convention), which swaps the u- and v-lines: E <-> G, L <-> N
        assert np.max(np.abs(E2.values - G1.values)) < 1e-10
        assert np.max(np.abs(G2.values - E1.values)) < 1e-10
        assert np.max(np.abs(L2.values - N1.values)) < 1e-10
        assert np.max(np.abs(N2.values - L1.values)) < 1e-10


class TestIntegrateFrame:
    def test_plane_lattice_exact(self):
        inv = constant_invariants(1.0, 0.5, 11, 0.2, 0.2)  # only need the grid shape
        g = inv.geometry
        one = g.like(np.ones((11, 11)))
        zero = g.like(np.zeros((11, 11)))
        mesh = cs.integrate_frame(one, one, zero, zero, cs.identity_frame(),
                                  cs.BaseIndex(5, 5))
        u = g.u_axis[:, None] - g.u_axis[5]
        v = g.v_axis[None, :] - g.v_axis[5]
        expected = np.stack([u * np.ones_like(v), v * np.ones_like(u),
                             np.zeros((11, 11))], axis=-1)
        assert np.max(np.abs(mesh.positions.values - expected)) < 1e-12
        assert np.max(np.abs(mesh.normals.values - np.array([0.0, 0.0, 1.0]))) < 1e-12

    def test_cylinder_from_constants(self):
        n = 129
        inv = constant_invariants(1.0, 0.0, n, math.pi / (n - 1), 2.0 / (n - 1))
        mesh = cs.reconstruct(inv)
        assert np.max(np.abs(best_fit_axis_distances(mesh) - 1.0)) < 1e-6

    def test_frame_drift_guard(self):
        inv = constant_invariants(1.0, 0.0, 9, 0.2, 0.2)
        E, G, L, N = cs.coefficients_from_invariants(inv)
        bad = cs.FrameState(np.zeros(3), np.array([1.0, 0, 0]),
                            np.array([0.1, 1.0, 0]), np.array([0.0, 0, 1.0]))
        with pytest.raises(IntegrationError):
            cs.integrate_frame(E, G, L, N, bad, inv.base)

    def test_left_handed_frame_rejected(self):
        inv = constant_invariants(1.0, 0.0, 9, 0.2, 0.2)
        E, G, L, N = cs.coefficients_from_invariants(inv)
        mirrored = cs.FrameState(np.zeros(3), *np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(IntegrationError, match="right-handed"):
            cs.integrate_frame(E, G, L, N, mirrored, inv.base)


def svd_polar_factor(frames):
    """Reference: the nearest orthonormal triple U Vt from a batched SVD."""
    U, _, Vt = np.linalg.svd(frames)
    return U @ Vt


def generator(coef, tangent):
    """4x4 generators A of the frame rate Y' = A Y for Y = (x, e1, e2, n), shaped
    (..., 4, 4) from (..., 3) coefficients (a, b, c)."""
    other = 3 - tangent
    A = np.zeros(coef.shape[:-1] + (4, 4))
    A[..., 0, tangent] = coef[..., 0]
    A[..., tangent, other] = -coef[..., 1]
    A[..., other, tangent] = coef[..., 1]
    A[..., tangent, 3] = coef[..., 2]
    A[..., 3, tangent] = -coef[..., 2]
    return A


def magnus_generator(c0, cm, c1, h, tangent):
    """h/6 (A0 + 4 Am + A1) + h^2/12 [A1, A0] from node and midpoint coefficients."""
    A0, Am, A1 = (generator(c, tangent) for c in (c0, cm, c1))
    return h / 6.0 * (A0 + 4.0 * Am + A1) + h * h / 12.0 * (A1 @ A0 - A0 @ A1)


def dense_step(c0, cm, c1, h, tangent):
    """The step map [[1, p], [0, Q]] from dense generators, (..., 4, 4) from (..., 3)
    coefficients: Q by a Cayley solve, p by the 3x3 product."""
    omega = magnus_generator(c0, cm, c1, h, tangent)
    W = omega[..., 1:, 1:]
    theta2 = 0.5 * np.sum(W * W, axis=(-2, -1))[..., None, None]
    fW = (1.0 + theta2 / 12.0) * W
    eye = np.eye(3)
    step = np.zeros(omega.shape)
    step[..., 0, 0] = 1.0
    step[..., 1:, 1:] = np.linalg.solve(eye - 0.5 * fW, eye + 0.5 * fW)
    step[..., :1, 1:] = omega[..., :1, 1:] @ (
        eye + (0.5 - theta2 / 24.0) * W + (1.0 / 6.0 - theta2 / 120.0) * (W @ W))
    return step


def hermite_cubic(axis_coords, coef_values):
    """scipy's Hermite cubic through coef_values along axis 0, with the textbook
    five-point node slopes."""
    spline = pytest.importorskip("scipy.interpolate").CubicHermiteSpline
    h = axis_coords[1] - axis_coords[0]
    return spline(axis_coords, coef_values, five_point_slopes(coef_values) / h, axis=0)


def assert_step_integrals_match_spline(axis_coords, coef_values):
    """grid._step_integrals along axis 0 against the integral over each step of
    hermite_cubic, from its local polynomials, so no long-range cancellation
    enters the reference."""
    h = axis_coords[1] - axis_coords[0]
    c = hermite_cubic(axis_coords, coef_values).c  # (4, steps, ...), highest power first
    want = h**4 / 4.0 * c[0] + h**3 / 3.0 * c[1] + h**2 / 2.0 * c[2] + h * c[3]
    got = _step_integrals(coef_values, h)
    assert got.shape == want.shape == (axis_coords.size - 1,) + coef_values.shape[1:]
    assert np.max(np.abs(got - want)) <= 1e-14 * h * np.max(np.abs(coef_values))


def reference_march(y0, coef_values, axis_coords, k0, tangent):
    """The frame march with calls of scipy's Hermite cubic through the textbook
    five-point slopes at each step's ends and midpoint, and a dense step map."""
    n = axis_coords.size
    spline = hermite_cubic(axis_coords, coef_values)
    out = np.empty((n,) + y0.shape)
    out[k0] = y0
    for direction in (1, -1):
        y = y0
        for k in (range(k0, n - 1) if direction == 1 else range(k0, 0, -1)):
            t = axis_coords[k]
            h = direction * (axis_coords[1] - axis_coords[0])
            y = dense_step(spline(t), spline(t + 0.5 * h), spline(t + h), h, tangent) @ y
            out[k + direction] = y
    return out


def drifted_frames(seed, drift):
    """200 rotations moved off orthonormal by a first-order drift of 0.9 * drift."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((200, 3, 3)))
    q[np.linalg.det(q) < 0, 0, :] *= -1.0
    noise = rng.standard_normal(q.shape)
    # first-order drift of q + eps * noise is eps * max|q noise^T + noise q^T|
    first_order = q @ np.swapaxes(noise, -1, -2)
    return q + 0.9 * drift / np.max(np.abs(first_order + np.swapaxes(first_order, -1, -2))) * noise


def frame_drift(frames):
    return np.max(np.abs(frames @ np.swapaxes(frames, -1, -2) - np.eye(3)))


class TestFrameMarch:
    @pytest.mark.parametrize("tangent", [1, 2])
    @pytest.mark.parametrize("h", [0.07, -0.07, 0.7, -0.7])
    @pytest.mark.parametrize("steps", [1, 7, 32])
    @pytest.mark.parametrize("lines", [1, 65])
    def test_step_maps_match_the_dense_step(self, tangent, h, steps, lines):
        # the closed form expands W^2 and the Cayley inverse, so it agrees with
        # the dense solve to roundoff; at h = 0.7 a wrong commutator or series
        # term would be far above it
        rng = np.random.default_rng(100 * steps + lines)
        c0, cm, c1 = (rng.standard_normal((steps, 3, lines)) for _ in range(3))
        step = np.full((steps, 4, 4, lines), np.nan)
        # Simpson's rule, exact on the cubic through c0, cm and c1
        theta2 = reconstruction._step_maps(c0, c1, h / 6.0 * (c0 + 4.0 * cm + c1), h, tangent,
                                           step)
        assert np.all(np.isnan(step[:, 1:, 0])) and np.all(np.isnan(step[:, 0, 0]))
        got = np.moveaxis(step[:, :, 1:], -1, 1)  # (steps, lines, 4, 3)
        coefs = [np.moveaxis(c, 1, -1) for c in (c0, cm, c1)]
        want = dense_step(*coefs, h, tangent)[..., 1:]
        assert got.shape == want.shape == (steps, lines, 4, 3)
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
        W = magnus_generator(*coefs, h, tangent)[..., 1:, 1:]
        assert np.allclose(theta2, 0.5 * np.sum(W * W, axis=(-2, -1)), rtol=1e-14, atol=0.0)
        assert frame_drift(got[..., 1:, :]) <= 1e-14

    def test_step_is_fourth_order_in_the_exponential(self):
        # the Cayley rotation and the truncated series of the translation are
        # within O(theta^5) of expm of the Magnus generator: errors fall 32x per halving
        expm = pytest.importorskip("scipy.linalg").expm
        errors = []
        for h in (0.2, 0.1, 0.05):
            t = 0.3 + h * np.array([0.0, 0.5, 1.0])
            coefs = np.stack([1.0 + 0.3 * np.sin(t), 0.8 * np.cos(2.0 * t), 0.5 + t * t], -1)
            for tangent in (1, 2):
                step = np.zeros((1, 4, 4, 1))
                k0, km, k1 = coefs[:, None, :, None]
                reconstruction._step_maps(k0, k1, h / 6.0 * (k0 + 4.0 * km + k1), h, tangent, step)
                exact = expm(magnus_generator(*coefs, h, tangent))
                errors.append(np.max(np.abs(step[0, 1:, 1:, 0] - exact[1:, 1:]))
                              + np.max(np.abs(step[0, 0, 1:, 0] - exact[0, 1:])))
        for first in (0, 1):  # tangent 1, then tangent 2
            ratios = [a / b for a, b in zip(errors[first::2], errors[first + 2::2])]
            assert min(ratios) >= 28.0

    @pytest.mark.parametrize("drift", [1e-12, 1e-11, 1e-10])
    def test_nearly_orthonormal_initial_frame_gives_unit_normals(self, drift):
        # the initial frame is projected once; every later frame is a product
        # of Cayley rotations, orthonormal to roundoff
        frame = drifted_frames(int(-math.log10(drift)), drift)[0]
        init = cs.FrameState(np.zeros(3), *frame)
        assert 0.1 * drift < init.orthonormality_defect() <= reconstruction.INITIAL_FRAME_TOL
        inv, _, _ = torus_invariants(33)
        E, G, L, N = cs.coefficients_from_invariants(inv)
        mesh = cs.integrate_frame(E, G, L, N, init, inv.base)
        assert np.max(np.abs(np.linalg.norm(mesh.normals.values, axis=-1) - 1.0)) <= 1e-14
        projected = cs.FrameState(np.zeros(3), *svd_polar_factor(frame))
        ref = cs.integrate_frame(E, G, L, N, projected, inv.base)
        assert np.max(np.abs(mesh.positions.values - ref.positions.values)) <= 1e-14

    def test_midpoint_table_matches_spline(self):
        # the march's table, the integrals of the cubic over each step, on the
        # catenoid's u-line coefficients, which vary along u (the torus's do not)
        inv, _, _ = catenoid_invariants(33)
        E, G, L, N = cs.coefficients_from_invariants(inv)
        cu, _ = reconstruction._frame_coefficients(E, G, L, N, cs.identity_frame(), inv.base)
        assert np.min(np.ptp(cu[:, :, [0, 2]], axis=0)) > 0.1
        assert_step_integrals_match_spline(E.u_axis, cu)

    @pytest.mark.parametrize("n", [3, 4, 5, 33])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_midpoint_table_matches_spline_on_short_axes(self, n, axis):
        # a smooth table with no symmetry along either axis: three nodes take
        # the parabola, four the second-order slopes, five or more the
        # five-point ones
        u = np.linspace(0.2, 1.4, n)[:, None]
        v = np.linspace(-0.5, 0.9, n)[None, :]
        table = np.stack([np.exp(0.8 * u - 0.3 * v), np.sin(1.3 * u + 0.7 * v) + 2.0,
                          np.cos(u) * v**2 + u**3], axis=-1)
        coef = table if axis == 0 else np.moveaxis(table, 1, 0)
        assert_step_integrals_match_spline(np.ravel(u if axis == 0 else v), coef)

    @pytest.mark.parametrize("k0", [0, 44])
    def test_march_from_either_end_matches_reference(self, k0, monkeypatch):
        # a budget of 32 steps on 45 lines: the base row (one line) forms its 44
        # steps in one block, and the march over 45 lines a full block of 32 steps
        # and a partial one of 12. The initial frame is off orthonormal by
        # 5e-12 (1e-10 is accepted): left unprojected it would put every later
        # frame off by as much, while its projection moves the first step's
        # position by about h times as much
        n = 45
        monkeypatch.setattr(reconstruction, "MARCH_STEP_LINES", 32 * n)
        assert (n - 1) % (reconstruction.MARCH_STEP_LINES // n) != 0
        inv, _, _ = torus_invariants(n)
        E, G, L, N = cs.coefficients_from_invariants(inv)
        R = random_rotation(3)
        init = cs.FrameState(np.zeros(3), R[0] * (1.0 + 5e-12), R[1], R[2])
        base = cs.BaseIndex(k0, k0)
        cu, cv = reconstruction._frame_coefficients(E, G, L, N, init, base)
        states = reconstruction._integrate_states(cu, cv, E, init, base, u_first=True)
        monkeypatch.setattr(reconstruction, "_march", reference_march)
        ref = reconstruction._integrate_states(cu, cv, E, init, base, u_first=True)
        assert np.max(np.abs(states - ref)) <= 1e-12
        assert frame_drift(states[..., 1:, :]) <= 1e-14

    @pytest.mark.parametrize("build, kh", [(catenoid_invariants, False),
                                           (catenoid_invariants, True),
                                           (torus_invariants, False)])
    def test_march_matches_reference(self, build, kh, monkeypatch):
        inv, _, _ = build(65)
        inv = inv.to_kh() if kh else inv
        E, G, L, N = cs.coefficients_from_invariants(inv)
        init = random_frame(7)
        mesh = cs.integrate_frame(E, G, L, N, init, inv.base)
        monkeypatch.setattr(reconstruction, "_march", reference_march)
        ref = cs.integrate_frame(E, G, L, N, init, inv.base)
        assert np.max(np.abs(mesh.positions.values - ref.positions.values)) < 1e-12
        assert np.max(np.abs(mesh.normals.values - ref.normals.values)) < 1e-12

    def test_non_square_grid_matches_reference(self, monkeypatch):
        # 33 x 21 nodes about an off-centre base: the marches over 33 and over
        # 21 lines get different block lengths
        entry = cs.make_entry("catenoid")
        jets = cs.sample_surface(entry, -1.0, 2.0 / 32, 33, 0.0, math.pi / 20, 21)
        forms = cs.fundamental_forms_grid(jets)
        curv = cs.curvatures_grid(forms, principal_chart=entry.principal)
        base = cs.BaseIndex(9, 14)
        inv = cs.InvariantGrid("nu", curv.nu1, curv.nu2, float(forms.E.values[9, 14]),
                               float(forms.G.values[9, 14]), base)
        E, G, L, N = cs.coefficients_from_invariants(inv)
        init = random_frame(5)
        mesh = cs.integrate_frame(E, G, L, N, init, base)
        gap = cs.path_consistency_diagnostic(E, G, L, N, init, base)
        monkeypatch.setattr(reconstruction, "_march", reference_march)
        ref = cs.integrate_frame(E, G, L, N, init, base)
        ref_gap = cs.path_consistency_diagnostic(E, G, L, N, init, base)
        assert mesh.positions.values.shape == (33, 21, 3)
        assert np.max(np.abs(mesh.positions.values - ref.positions.values)) < 1e-12
        assert np.max(np.abs(mesh.normals.values - ref.normals.values)) < 1e-12
        assert abs(gap - ref_gap) < 1e-12

    def test_overflowing_coefficients_hit_step_angle_guard(self):
        # 8 nodes a side skips the floor test; the step angle overflows to inf
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match="frame step angle inf exceeds 0.204"):
                cs.reconstruct(overflowing_invariants(8))

    @pytest.mark.parametrize("mode", ["nu", "kh"])
    @pytest.mark.parametrize("build, n, refused", [(torus_invariants, 31, True),
                                                   (catenoid_invariants, 15, True),
                                                   (torus_invariants, 33, False),
                                                   (cone_invariants, 11, False)])
    def test_coarse_grid_boundary(self, build, n, refused, mode):
        # the step angle guard refuses the finest grids it must and accepts the
        # coarsest it may: the 31^2 torus steps 0.209 rad, the 11^2 cone 0.201.
        # On the 11^2 cone the floor test sees no convergence yet and warns; the
        # warning is not what this checks
        inv, _, _ = build(n)
        inv = inv.to_kh() if mode == "kh" else inv
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CompatibilityWarning)
            if refused:
                with pytest.raises(IntegrationError, match="grid is too coarse for the stepper"):
                    cs.reconstruct(inv)
            else:
                assert cs.reconstruct(inv).positions.nu == n


class TestPathConsistency:
    def test_plane_data(self):
        g = cs.Grid2(0, 0, 0.25, 0.25, np.ones((9, 9)))
        zero = g.like(np.zeros((9, 9)))
        gap = cs.path_consistency_diagnostic(g, g, zero, zero, cs.identity_frame(),
                                             cs.BaseIndex(4, 4))
        assert gap < 1e-12

    def test_catenoid_gap_converges(self):
        gaps = []
        for n in (33, 65):
            inv, _, _ = catenoid_invariants(n)
            E, G, L, N = cs.coefficients_from_invariants(inv)
            gaps.append(cs.path_consistency_diagnostic(E, G, L, N, cs.identity_frame(),
                                                       inv.base))
        assert gaps[1] < gaps[0]
        assert gaps[0] / gaps[1] > 2.5

    def test_incompatible_data_has_floor(self):
        gaps = []
        for n in (33, 65):
            inv, _, _ = catenoid_invariants(n)
            geo = inv.geometry
            uu = geo.u_axis[:, None]
            vv = geo.v_axis[None, :]
            bad1 = geo.like(inv.field1.values + 0.05 * np.sin(2 * uu + vv))
            bad = cs.InvariantGrid("nu", bad1, inv.field2, inv.a, inv.b, inv.base)
            E, G, L, N = cs.coefficients_from_invariants(bad)
            gaps.append(cs.path_consistency_diagnostic(E, G, L, N, cs.identity_frame(),
                                                       bad.base))
        assert gaps[0] / gaps[1] < 1.5


class TestAlignRigid:
    def test_recovers_known_motion(self):
        inv, jets, _ = catenoid_invariants(33)
        mesh = cs.SurfaceMesh(jets.x)
        R0 = random_rotation(3)
        t0 = np.array([0.5, -1.0, 2.0])
        moved = cs.SurfaceMesh(jets.x.like(jets.x.values @ R0.T + t0))
        R, t, rms = cs.align_rigid(mesh, moved)
        assert np.max(np.abs(R - R0)) < 1e-10
        assert np.max(np.abs(t - t0)) < 1e-10
        assert rms < 1e-12
        assert abs(np.linalg.det(R) - 1.0) < 1e-12

    def test_shape_mismatch(self):
        a = cs.SurfaceMesh(cs.Grid2(0, 0, 1, 1, np.zeros((3, 3, 3))))
        b = cs.SurfaceMesh(cs.Grid2(0, 0, 1, 1, np.zeros((3, 4, 3))))
        with pytest.raises(ShapeMismatchError):
            cs.align_rigid(a, b)

    def test_uniqueness_up_to_position(self):
        # reconstructions from different initial frames must be congruent
        inv, _, _ = catenoid_invariants(129)
        mesh1 = cs.reconstruct(inv, initial_frame=random_frame(11))
        mesh2 = cs.reconstruct(inv, initial_frame=random_frame(12))
        _, _, rms = cs.align_rigid(mesh1, mesh2)
        assert rms < 1e-9


class TestReconstruct:
    def test_catenoid_roundtrip_order(self):
        errs = []
        for n in (65, 129):
            inv, jets, _ = catenoid_invariants(n)
            mesh = cs.reconstruct(inv)
            _, _, rms = cs.align_rigid(mesh, cs.SurfaceMesh(jets.x))
            errs.append(rms)
        assert observed_orders(errs)[0] >= 3.8

    def test_cylinder_flatness_preserved(self):
        n = 129
        inv = constant_invariants(1.0, 0.0, n, math.pi / (n - 1), 2.0 / (n - 1))
        mesh = cs.reconstruct(inv)
        jets = cs.finite_difference_jets(mesh)
        forms = cs.fundamental_forms_grid(jets)
        curv = cs.curvatures_grid(forms, principal_chart=False)
        from canonsurf.reports import interior
        assert np.max(np.abs(interior(curv.K.values))) < 1e-6

    def test_catenoid_minimality_preserved(self):
        inv, _, _ = catenoid_invariants(129)
        mesh = cs.reconstruct(inv)
        forms = cs.fundamental_forms_grid(cs.finite_difference_jets(mesh))
        curv = cs.curvatures_grid(forms, principal_chart=False)
        from canonsurf.reports import interior
        assert np.max(np.abs(interior(curv.H.values))) < 1e-4

    def test_torus_curvature_roundtrip(self):
        errs = []
        for n in (65, 129):
            inv, _, _ = torus_invariants(n)
            mesh = cs.reconstruct(inv)
            forms = cs.fundamental_forms_grid(cs.finite_difference_jets(mesh))
            from canonsurf.reports import interior
            nu1 = forms.L.values / forms.E.values
            nu2 = forms.N.values / forms.G.values
            err = max(np.max(np.abs(interior(nu1 - inv.field1.values))),
                      np.max(np.abs(interior(nu2 - inv.field2.values))))
            errs.append(err)
        assert 3.0 < errs[0] / errs[1] < 6.0

    def test_metric_fidelity(self):
        inv, _, _ = catenoid_invariants(65)
        E, G, L, N = cs.coefficients_from_invariants(inv)
        mesh = cs.reconstruct(inv)
        pos = mesh.positions.values
        du = inv.geometry.du
        # segment lengths along u vs the trapezoid of sqrt(E)
        seg = np.linalg.norm(pos[1:, :, :] - pos[:-1, :, :], axis=-1)
        se = np.sqrt(E.values)
        expected = 0.5 * (se[1:, :] + se[:-1, :]) * du
        assert np.max(np.abs(seg - expected)) < 5e-4

    def test_base_point_normalization(self):
        errs = []
        for n in (65, 129):
            inv, _, _ = torus_invariants(n)
            mesh = cs.reconstruct(inv)
            forms = cs.fundamental_forms_grid(cs.finite_difference_jets(mesh))
            i0, j0 = inv.base.i0, inv.base.j0
            errs.append(max(abs(forms.E.values[i0, j0] - inv.a),
                            abs(forms.G.values[i0, j0] - inv.b)))
        assert errs[1] < 1e-2
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_incompatible_warning_and_strict(self):
        bad = perturbed_catenoid(65)
        with pytest.warns(CompatibilityWarning) as record:
            cs.reconstruct(bad)
        # stacklevel 2: the warning points at the caller, not into the package
        assert [w.filename for w in record] == [__file__]
        with pytest.raises(CompatibilityWarning, match="only improves by 0.9"):
            reconstruct_escalated(bad)

    def test_escalated_warning_is_raised_before_any_march(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the frame was marched")
        monkeypatch.setattr(reconstruction, "integrate_frame", unreachable)
        with pytest.raises(CompatibilityWarning):
            reconstruct_escalated(perturbed_catenoid(33))

    @pytest.mark.parametrize("n, floor_runs", [(8, False), (9, True)])
    def test_floor_test_minimum_grid(self, n, floor_runs):
        inv, _, _ = catenoid_invariants(n, u_range=(-0.3, 0.3), v_range=(0.0, 0.6))
        noise = np.random.default_rng(0).standard_normal((n, n))
        bad1 = inv.geometry.like(inv.field1.values * (1 + 1e-3 * noise))
        bad = cs.InvariantGrid("nu", bad1, inv.field2, inv.a, inv.b, inv.base)
        if floor_runs:
            with pytest.raises(CompatibilityWarning):
                reconstruct_escalated(bad)
        else:
            assert reconstruct_escalated(bad).positions.nu == n

    @pytest.mark.parametrize("strict", [False, True])
    def test_overflowing_residual_raises(self, strict):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RangeError, match="not finite"):
                (reconstruct_escalated if strict else cs.reconstruct)(overflowing_invariants())

    def test_two_random_frames_give_same_shape(self):
        inv, _, _ = torus_invariants(65)
        m1 = cs.reconstruct(inv, initial_frame=random_frame(5))
        m2 = cs.reconstruct(inv, initial_frame=random_frame(6))
        _, _, rms = cs.align_rigid(m1, m2)
        assert rms < 1e-9

    def test_reconstruction_is_bit_deterministic(self):
        inv, _, _ = catenoid_invariants(33)
        m1 = cs.reconstruct(inv)
        m2 = cs.reconstruct(inv)
        assert np.array_equal(m1.positions.values, m2.positions.values)
        assert np.array_equal(m1.normals.values, m2.normals.values)
