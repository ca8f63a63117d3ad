import math

import numpy as np
import pytest

import canonsurf as cs
from canonsurf.errors import (
    CompatibilityWarning,
    IncompatibleInvariantsError,
    IntegrationError,
    ShapeMismatchError,
)

from helpers import catenoid_invariants, observed_orders, random_rotation, torus_invariants


def constant_invariants(nu1, nu2, n, du, dv, a=1.0, b=1.0):
    g = cs.Grid2(0.0, 0.0, du, dv, np.full((n, n), float(nu1)))
    return cs.InvariantGrid("nu", g, g.like(np.full((n, n), float(nu2))), a, b,
                            cs.BaseIndex(n // 2, n // 2))


def random_frame(seed):
    R = random_rotation(seed)
    return cs.FrameState(np.zeros(3), R[0], R[1], R[2])


def best_fit_axis_distances(mesh):
    """Node distances to the best-fit cylinder axis.

    The axis direction is orthogonal to every surface normal (the direction
    of smallest singular value of the normal matrix); the cross-section circle
    is fitted algebraically in the orthogonal plane.
    """
    pts = mesh.positions.values.reshape(-1, 3)
    nrm = mesh.normals.values.reshape(-1, 3)
    _, _, vt = np.linalg.svd(nrm - nrm.mean(axis=0) * 0.0, full_matrices=False)
    axis = vt[-1]
    # orthonormal basis of the cross-section plane
    p = np.cross(axis, [1.0, 0.0, 0.0])
    if np.linalg.norm(p) < 1e-6:
        p = np.cross(axis, [0.0, 1.0, 0.0])
    p /= np.linalg.norm(p)
    q = np.cross(axis, p)
    xy = np.stack([pts @ p, pts @ q], axis=1)
    # algebraic circle fit: |z - c|^2 = r^2 linearized in (c, r^2 - |c|^2)
    A = np.column_stack([2.0 * xy, np.ones(len(xy))])
    sol, *_ = np.linalg.lstsq(A, (xy**2).sum(axis=1), rcond=None)
    center = sol[:2]
    return np.linalg.norm(xy - center, axis=1)


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
        assert 3.0 < errs[0] / errs[1] < 5.0

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
        assert 3.0 < errs[0] / errs[1] < 5.0

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
        mesh = cs.reconstruct(inv, check_compatibility=False)
        assert np.max(np.abs(best_fit_axis_distances(mesh) - 1.0)) < 1e-6

    def test_frame_drift_guard(self):
        inv = constant_invariants(1.0, 0.0, 9, 0.2, 0.2)
        E, G, L, N = cs.coefficients_from_invariants(inv)
        bad = cs.FrameState(np.zeros(3), np.array([1.0, 0, 0]),
                            np.array([0.1, 1.0, 0]), np.array([0.0, 0, 1.0]))
        with pytest.raises(IntegrationError):
            cs.integrate_frame(E, G, L, N, bad, inv.base)


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
        mesh1 = cs.reconstruct(inv, initial_frame=random_frame(11), check_compatibility=False)
        mesh2 = cs.reconstruct(inv, initial_frame=random_frame(12), check_compatibility=False)
        _, _, rms = cs.align_rigid(mesh1, mesh2)
        assert rms < 1e-9


class TestReconstruct:
    def test_catenoid_roundtrip_order(self):
        errs = []
        for n in (65, 129):
            inv, jets, _ = catenoid_invariants(n)
            mesh = cs.reconstruct(inv, check_compatibility=False)
            _, _, rms = cs.align_rigid(mesh, cs.SurfaceMesh(jets.x))
            errs.append(rms)
        assert observed_orders(errs)[0] >= 1.9

    def test_cylinder_flatness_preserved(self):
        n = 129
        inv = constant_invariants(1.0, 0.0, n, math.pi / (n - 1), 2.0 / (n - 1))
        mesh = cs.reconstruct(inv, check_compatibility=False)
        jets = cs.finite_difference_jets(mesh)
        forms = cs.fundamental_forms_grid(jets)
        curv = cs.curvatures_grid(forms)
        from canonsurf.reports import interior
        assert np.max(np.abs(interior(curv.K.values, 2))) < 1e-6

    def test_catenoid_minimality_preserved(self):
        inv, _, _ = catenoid_invariants(129)
        mesh = cs.reconstruct(inv, check_compatibility=False)
        forms = cs.fundamental_forms_grid(cs.finite_difference_jets(mesh))
        curv = cs.curvatures_grid(forms)
        from canonsurf.reports import interior
        assert np.max(np.abs(interior(curv.H.values, 2))) < 1e-4

    def test_torus_curvature_roundtrip(self):
        errs = []
        for n in (65, 129):
            inv, _, _ = torus_invariants(n)
            mesh = cs.reconstruct(inv, check_compatibility=False)
            forms = cs.fundamental_forms_grid(cs.finite_difference_jets(mesh))
            from canonsurf.reports import interior
            nu1 = forms.L.values / forms.E.values
            nu2 = forms.N.values / forms.G.values
            err = max(np.max(np.abs(interior(nu1 - inv.field1.values, 2))),
                      np.max(np.abs(interior(nu2 - inv.field2.values, 2))))
            errs.append(err)
        assert 3.0 < errs[0] / errs[1] < 6.0

    def test_metric_fidelity(self):
        inv, _, _ = catenoid_invariants(65)
        E, G, L, N = cs.coefficients_from_invariants(inv)
        mesh = cs.reconstruct(inv, check_compatibility=False)
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
            mesh = cs.reconstruct(inv, check_compatibility=False)
            forms = cs.fundamental_forms_grid(cs.finite_difference_jets(mesh))
            i0, j0 = inv.base.i0, inv.base.j0
            errs.append(max(abs(forms.E.values[i0, j0] - inv.a),
                            abs(forms.G.values[i0, j0] - inv.b)))
        assert errs[1] < 1e-2
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_incompatible_warning_and_strict(self):
        inv, _, _ = catenoid_invariants(65)
        geo = inv.geometry
        uu = geo.u_axis[:, None]
        vv = geo.v_axis[None, :]
        bad1 = geo.like(inv.field1.values * (1 + 0.05 * np.sin(3 * uu) * np.sin(2 * vv)))
        bad = cs.InvariantGrid("nu", bad1, inv.field2, inv.a, inv.b, inv.base)
        with pytest.warns(CompatibilityWarning):
            cs.reconstruct(bad)
        with pytest.raises(IncompatibleInvariantsError):
            cs.reconstruct(bad, strict=True)

    @pytest.mark.parametrize("n, floor_runs", [(8, False), (9, True)])
    def test_floor_test_minimum_grid(self, n, floor_runs):
        inv, _, _ = catenoid_invariants(n, u_range=(-0.3, 0.3), v_range=(0.0, 0.6))
        noise = np.random.default_rng(0).standard_normal((n, n))
        bad1 = inv.geometry.like(inv.field1.values * (1 + 1e-3 * noise))
        bad = cs.InvariantGrid("nu", bad1, inv.field2, inv.a, inv.b, inv.base)
        if floor_runs:
            with pytest.raises(IncompatibleInvariantsError):
                cs.reconstruct(bad, strict=True)
        else:
            assert cs.reconstruct(bad, strict=True).positions.nu == n

    def test_two_random_frames_give_same_shape(self):
        inv, _, _ = torus_invariants(65)
        m1 = cs.reconstruct(inv, initial_frame=random_frame(5), check_compatibility=False)
        m2 = cs.reconstruct(inv, initial_frame=random_frame(6), check_compatibility=False)
        _, _, rms = cs.align_rigid(m1, m2)
        assert rms < 1e-9

    def test_reconstruction_is_bit_deterministic(self):
        inv, _, _ = catenoid_invariants(33)
        m1 = cs.reconstruct(inv, check_compatibility=False)
        m2 = cs.reconstruct(inv, check_compatibility=False)
        assert np.array_equal(m1.positions.values, m2.positions.values)
        assert np.array_equal(m1.normals.values, m2.normals.values)
