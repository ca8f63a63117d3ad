"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import math
import time

import numpy as np
import pytest

import canonsurf as cs
from canonsurf.errors import DiscriminantError, MonotonicityError
from canonsurf.reports import interior

from helpers import (
    best_fit_axis_distances,
    catenoid_invariants,
    constant_invariants,
    observed_orders,
    random_frame,
    run_cli,
    sample_chart,
    torus_invariants,
)


def _criterion(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {desc}")
        raise
    print(f"[PASS] criterion {num:2d}: {desc}")


def test_criterion_01_identity_suite():
    def body():
        for name, params, urange, vrange in [
            ("cylinder", {"r": 1.0}, (0, 2 * math.pi), (0, 2)),
            ("torus", {"R": 2.0, "r": 1.0}, (0, 2 * math.pi), (0, 2 * math.pi)),
            ("catenoid", {}, (-1, 1), (0, math.pi)),
        ]:
            t0 = time.perf_counter()
            _, _, curv, _ = sample_chart(name, urange, vrange, 129, **params)
            k_gap = np.max(np.abs(curv.K.values - curv.nu1.values * curv.nu2.values))
            h_gap = np.max(np.abs(2 * curv.H.values - curv.nu1.values - curv.nu2.values))
            elapsed = time.perf_counter() - t0
            assert k_gap < 1e-12, f"{name}: |K - nu1 nu2| = {k_gap}"
            assert h_gap < 1e-12, f"{name}: |2H - nu1 - nu2| = {h_gap}"
            assert elapsed < 1.0, f"{name}: took {elapsed:.2f}s"

    _criterion(1, "identity K = nu1 nu2 and 2H = nu1 + nu2 on 129x129 grids", body)


def test_criterion_02_closed_form_coefficients():
    def body():
        f = cs.fundamental_forms(cs.evaluate_jet(cs.make_entry("torus", R=2, r=1), 0.0, 0.0))
        assert np.allclose([f.E, f.F, f.G, f.L, f.M, f.N], [1, 0, 9, 1, 0, 3], atol=1e-12)
        c = cs.curvatures(f, principal_chart=True)
        assert abs(c.nu1 - 1.0) < 1e-12 and abs(c.nu2 - 1.0 / 3.0) < 1e-12
        for u, v in [(0.0, 0.0), (0.7, 1.3), (-0.4, 2.1)]:
            g = cs.fundamental_forms(cs.evaluate_jet(cs.make_entry("catenoid"), u, v))
            ch2 = math.cosh(u) ** 2
            assert abs(g.E - ch2) < 1e-12 * ch2 and abs(g.G - ch2) < 1e-12 * ch2
            assert abs(g.L + 1.0) < 1e-12 and abs(g.N - 1.0) < 1e-12

    _criterion(2, "closed-form coefficients of torus and catenoid", body)


def test_criterion_03_codazzi_nu_form_convergence():
    def body():
        t0 = time.perf_counter()
        for build in (torus_invariants, catenoid_invariants):
            errs = []
            for n in (65, 129, 257):
                inv, _, forms = build(n)
                r1, r2 = cs.codazzi_residual_principal(
                    inv.field1, inv.field2, forms.E, forms.G)
                errs.append(max(r1.max_abs, r2.max_abs))
            ratios = [errs[k] / errs[k + 1] for k in range(2)]
            assert all(3.0 < r < 5.0 for r in ratios), ratios
            assert all(o >= 1.9 for o in observed_orders(errs))
        assert time.perf_counter() - t0 < 10.0

    _criterion(3, "Codazzi nu-form residual converges at order >= 1.9", body)


def test_criterion_04_canonical_verification():
    def body():
        # O(h^2) residual of the canonical identities on the standard charts
        for build in (catenoid_invariants, torus_invariants):
            errs = []
            for n in (65, 129):
                inv, _, forms = build(n)
                r1, r2 = cs.verify_canonical(inv, forms.E, forms.G)
                errs.append(max(r1.max_abs, r2.max_abs))
            assert 3.0 < errs[0] / errs[1] < 5.0, errs
        # canonicalization maps are identity to 1e-6 on 257-point axes
        for name, params, urange, vrange in [
            ("catenoid", {}, (-1, 1), (0, math.pi)),
            ("torus", {"R": 2.0, "r": 1.0}, (0, 2 * math.pi), (0, 2 * math.pi)),
        ]:
            _, forms, curv, base = sample_chart(name, urange, vrange, 257, **params)
            maps = cs.build_canonical_maps(forms.E, forms.G, curv.nu1, curv.nu2, base)
            eu = np.max(np.abs(maps.ubar_samples
                               - (maps.u_samples - maps.u_samples[base.i0])))
            ev = np.max(np.abs(maps.vbar_samples
                               - (maps.v_samples - maps.v_samples[base.j0])))
            assert max(eu, ev) < 1e-6, (name, eu, ev)

    _criterion(4, "canonical identities O(h^2); maps identity to 1e-6 at 257", body)


def test_criterion_05_canonical_gauss_and_kh():
    def body():
        for build in (catenoid_invariants, torus_invariants):
            errs_nu, errs_kh = [], []
            for n in (65, 129, 257):
                inv, _, _ = build(n)
                errs_nu.append(cs.gauss_residual_canonical(inv).max_abs)
                errs_kh.append(cs.gauss_residual_canonical(inv.to_kh()).max_abs)
            assert all(o >= 1.9 for o in observed_orders(errs_nu)), errs_nu
            assert all(o >= 1.9 for o in observed_orders(errs_kh)), errs_kh
        # 5% perturbation: the residual stalls under one refinement
        floors = []
        for n in (65, 129):
            inv, _, _ = catenoid_invariants(n)
            geo = inv.geometry
            uu = geo.u_axis[:, None]
            vv = geo.v_axis[None, :]
            bad1 = geo.like(inv.field1.values
                            * (1.0 + 0.05 * np.sin(3 * uu) * np.sin(2 * vv)))
            bad = cs.InvariantGrid("nu", bad1, inv.field2, inv.a, inv.b, inv.base)
            floors.append(cs.gauss_residual_canonical(bad).max_abs)
        assert floors[0] / floors[1] < 1.5, floors

    _criterion(5, "canonical Gauss (nu and KH) order >= 1.9; perturbation floor", body)


def test_criterion_06_reconstruction_roundtrip():
    def body():
        errs = []
        nu_errs = []
        t257 = None
        for n in (65, 129, 257):
            t0 = time.perf_counter()
            inv, jets, _ = catenoid_invariants(n)
            mesh = cs.reconstruct(inv)
            _, _, rms = cs.align_rigid(mesh, cs.SurfaceMesh(jets.x))
            errs.append(rms)
            f2 = cs.fundamental_forms_grid(cs.finite_difference_jets(mesh))
            nu1fd = f2.L.values / f2.E.values
            nu2fd = f2.N.values / f2.G.values
            nu_errs.append(max(
                np.max(np.abs(interior(nu1fd - inv.field1.values))),
                np.max(np.abs(interior(nu2fd - inv.field2.values)))))
            if n == 257:
                t257 = time.perf_counter() - t0
        assert all(o >= 3.8 for o in observed_orders(errs)), errs
        assert all(o >= 1.8 for o in observed_orders(nu_errs)), nu_errs
        assert t257 < 30.0, f"257^2 took {t257:.1f}s"

    _criterion(6, "catenoid reconstruction rms order >= 3.8, nu round-trip O(h^2)", body)


def test_criterion_07_uniqueness_up_to_position():
    def body():
        inv, _, _ = catenoid_invariants(129)
        m1 = cs.reconstruct(inv, initial_frame=random_frame(21))
        m2 = cs.reconstruct(inv, initial_frame=random_frame(22))
        _, _, rms = cs.align_rigid(m1, m2)
        assert rms < 1e-8, rms

    _criterion(7, "reconstructions from random frames align to rms < 1e-8", body)


def test_criterion_08_cylinder_from_constants():
    def body():
        n = 129
        inv = constant_invariants(1.0, 0.0, n, math.pi / (n - 1), 2.0 / (n - 1))
        mesh = cs.reconstruct(inv)
        dist = best_fit_axis_distances(mesh)
        assert np.max(np.abs(dist - 1.0)) < 1e-6, np.max(np.abs(dist - 1.0))

    _criterion(8, "constants nu1=1, nu2=0 reconstruct a unit cylinder to 1e-6", body)


def test_criterion_09_affine_uniqueness():
    def body():
        def canon(base):
            entry = cs.make_entry("catenoid")
            jets = cs.sample_surface(entry, -1.0, 0.01, 201, 0.0, 0.02, 151)
            forms = cs.fundamental_forms_grid(jets)
            curv = cs.curvatures_grid(forms, principal_chart=True)
            maps = cs.build_canonical_maps(forms.E, forms.G, curv.nu1, curv.nu2, base)
            return cs.resample_to_canonical(maps, curv.nu1, curv.nu2), maps

        inv_a, _ = canon(cs.BaseIndex(100, 0))      # base (0, 0)
        inv_b, maps_b = canon(cs.BaseIndex(130, 50))  # base (0.3, 1.0)
        m = cs.check_affine_equivalence(inv_a, inv_b)
        assert m.misfit < 1e-6, m.misfit
        # normalization (ubar - ubar0) sqrt(E_B(base)) = (u - u0) sqrt(E_A(base)):
        # slopes relate by |lam| = sqrt(E_A / a_B) at B's base point
        expected = math.sqrt(math.cosh(0.3) ** 2 / maps_b.a)
        assert abs(abs(m.lam) - expected) < 1e-4, (m.lam, expected)
        assert abs(m.c1 - (-0.3)) < 1e-4, m.c1

    _criterion(9, "two canonicalizations relate by an affine map; normalization", body)


def test_criterion_10_special_cases():
    def body():
        # catenoid satisfies the minimal-surface equation with O(h^2) residual
        errs = []
        for n in (65, 129):
            u = np.linspace(-1, 1, n)
            v = np.linspace(0, math.pi, n)
            nu = cs.Grid2.from_axes(u, v, (1 / np.cosh(u) ** 2)[:, None] * np.ones((n, n)))
            errs.append(cs.minimal_natural_residual(nu, 1.0, 1.0).max_abs)
        assert 3.0 < errs[0] / errs[1] < 5.0, errs
        # cylinder: CMC equation and flat characterization vanish
        n = 33
        K = cs.Grid2(0, 0, 0.1, 0.1, np.zeros((n, n)))
        assert cs.cmc_residual(K, 0.5, 1.0, 1.0).max_abs < 1e-10
        H = K.like(np.full((n, n), 0.5))
        flat = cs.flat_characterization(H)
        assert flat.report.max_abs < 1e-10
        # torus is not flat: in the labeling where H varies along v the
        # residual has a refinement-independent floor
        maxes = []
        for n in (33, 65):
            v = np.linspace(0.0, 2.0, n)
            u = np.linspace(0.0, 2.0, n)
            Hv = (1.0 + np.cos(v)) / (2.0 + np.cos(v))
            Ht = cs.Grid2.from_axes(u, v, Hv[None, :] * np.ones((n, n)))
            maxes.append(cs.flat_characterization(Ht).report.max_abs)
        assert maxes[0] / maxes[1] < 1.5, maxes
        # linear Weingarten relation on catenoid data tracks the canonical
        # Gauss residual within a factor of 10
        n = 65
        u = np.linspace(-1, 1, n)
        v = np.linspace(0, math.pi, n)
        nu = cs.Grid2.from_axes(u, v, (1 / np.cosh(u) ** 2)[:, None] * np.ones((n, n)))
        t = np.linspace(0.35, 1.05, 301)
        base = cs.BaseIndex(n // 2, n // 2)
        data = cs.WeingartenData(t, t, -t, nu, 1.0, 1.0, base)
        with pytest.warns(UserWarning):
            wg = cs.weingarten_residual(data)
        ref = cs.gauss_residual_canonical(
            cs.InvariantGrid("nu", nu, nu.like(-nu.values), 1.0, 1.0, base))
        assert max(wg.max_abs / ref.max_abs, ref.max_abs / wg.max_abs) < 10.0

    _criterion(10, "special cases: minimal, CMC, flat detection, Weingarten", body)


def test_criterion_11_error_paths(tmp_path):
    def body():
        # sphere input: umbilic detection, exit code 2
        res = run_cli("analyze", "--surface", "sphere", "--param", "R=1",
                      "--u", "-1:1:17", "--v", "0:2:17",
                      "--output", str(tmp_path / "sphere.json"))
        assert res.returncode == 2, res.stderr
        # KH data with a non-positive discriminant node
        n = 9
        g = cs.Grid2(0, 0, 0.1, 0.1, np.full((n, n), 0.3))  # K = 0.3 > H^2
        with pytest.raises(DiscriminantError):
            cs.InvariantGrid("kh", g, g.like(np.full((n, n), 0.5)), 1.0, 1.0,
                             cs.BaseIndex(4, 4))
        # non-monotone canonical map integrand
        _, forms, curv, base = sample_chart("catenoid", (-1, 1), (0, math.pi), 17)
        broken = forms.E.values.copy()
        broken[5, :] = 0.0
        with pytest.raises(MonotonicityError):
            cs.build_canonical_maps(forms.E.like(broken), forms.G,
                                    curv.nu1, curv.nu2, base)

    _criterion(11, "error paths: umbilic exit 2, DiscriminantError, MonotonicityError", body)
