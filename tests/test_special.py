import math

import numpy as np
import pytest

import canonsurf as cs
from canonsurf import special_surfaces
from canonsurf.errors import (
    DiscriminantError,
    PositivityError,
    RangeError,
    ZeroMeanCurvatureError,
)

from helpers import catenoid_invariants, observed_orders


def _catenoid_nu_grid(n, u_range=(-1.0, 1.0), v_range=(0.0, math.pi)):
    u = np.linspace(*u_range, n)
    v = np.linspace(*v_range, n)
    vals = (1.0 / np.cosh(u) ** 2)[:, None] * np.ones((n, n))
    return cs.Grid2.from_axes(u, v, vals)


def _linear_weingarten(n, base=None):
    """f(t) = t, g(t) = -t with the catenoid's positive curvature field."""
    nu = _catenoid_nu_grid(n)
    t = np.linspace(0.35, 1.05, 301)
    base = base or cs.BaseIndex(n // 2, n // 2)
    return cs.WeingartenData(t, t, -t, nu, 1.0, 1.0, base)


class TestWeingarten:
    def test_catenoid_matches_canonical_gauss_residual(self):
        for n in (65, 129):
            data = _linear_weingarten(n)
            with pytest.warns(UserWarning):
                rep = cs.weingarten_residual(data)
            nu = data.nu
            inv = cs.InvariantGrid("nu", nu, nu.like(-nu.values), 1.0, 1.0, data.base)
            ref = cs.gauss_residual_canonical(inv)
            ratio = max(rep.max_abs / ref.max_abs, ref.max_abs / rep.max_abs)
            assert ratio < 10.0

    def test_non_uniform_t_quadrature_equals_scipy_bitwise(self, monkeypatch):
        cumulative_trapezoid = pytest.importorskip("scipy.integrate").cumulative_trapezoid

        n = 33
        u = np.linspace(0.0, 1.0, n)
        nu = cs.Grid2.from_axes(u, u, 0.5 + 0.3 * u[:, None] + 0.2 * (u[None, :] + 0.5) ** 2)
        t = 0.4 + np.linspace(0.0, 1.0, 201) ** 1.5
        data = cs.WeingartenData(t, t**2 + 1.0, -t, nu, 1.0, 1.0, cs.BaseIndex(n // 2, n // 2))
        got = cs.weingarten_residual(data).residual.values
        monkeypatch.setattr(special_surfaces, "_cumtrapz", lambda y, steps, i0, axis:
                            cumulative_trapezoid(y, x=t, axis=axis, initial=0.0))
        want = cs.weingarten_residual(data).residual.values
        assert np.array_equal(got, want)

    def test_catenoid_convergence(self):
        errs = []
        for n in (65, 129):
            with pytest.warns(UserWarning):
                errs.append(cs.weingarten_residual(_linear_weingarten(n)).max_abs)
        assert observed_orders(errs)[0] >= 1.9

    def test_constant_nu_detection_case(self):
        # f(t) = t+1, g(t) = t-1, nu = 1/2: all derivatives vanish, so the
        # residual is exactly -f g (f - g) = -2 (nu0^2 - 1) = 3/2
        n = 17
        g = cs.Grid2(0, 0, 0.1, 0.1, np.full((n, n), 0.5))
        t = np.linspace(0.0, 1.0, 101)
        data = cs.WeingartenData(t, t + 1.0, t - 1.0, g, 1.0, 1.0, cs.BaseIndex(8, 8))
        with pytest.warns(UserWarning):
            rep = cs.weingarten_residual(data)
        assert np.max(np.abs(rep.residual.values - 1.5)) < 1e-12

    def test_random_field_same_detection_magnitude(self):
        # a non-solution field: both evaluators see the same violation scale
        n = 65
        u = np.linspace(0.2, 1.2, n)
        v = np.linspace(0.0, 1.0, n)
        vals = 0.6 + 0.15 * np.sin(2 * u)[:, None] * np.cos(v)[None, :] \
            + 0.1 * np.sin(u[:, None] + v[None, :])
        nu = cs.Grid2.from_axes(u, v, vals)
        base = cs.BaseIndex(n // 2, n // 2)
        t = np.linspace(0.2, 1.2, 301)
        data = cs.WeingartenData(t, t, -t, nu, 1.0, 1.0, base)
        rep = cs.weingarten_residual(data)
        inv = cs.InvariantGrid("nu", nu, nu.like(-vals), 1.0, 1.0, base)
        ref = cs.gauss_residual_canonical(inv)
        assert max(rep.max_abs / ref.max_abs, ref.max_abs / rep.max_abs) < 10.0

    def test_validation(self):
        n = 9
        g = cs.Grid2(0, 0, 0.1, 0.1, np.full((n, n), 0.5))
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(RangeError):  # f - g <= 0
            cs.WeingartenData(t, -t, t, g, 1.0, 1.0, cs.BaseIndex(4, 4))
        with pytest.raises(RangeError):  # f' has a zero
            cs.WeingartenData(t, (t - 0.5) ** 2, -t - 1.0, g, 1.0, 1.0, cs.BaseIndex(4, 4))
        with pytest.raises(RangeError):  # nu leaves I
            cs.WeingartenData(np.linspace(0.6, 1.0, 11), np.linspace(0.6, 1.0, 11),
                              -np.linspace(0.6, 1.0, 11), g, 1.0, 1.0, cs.BaseIndex(4, 4))

    @pytest.mark.parametrize("t,match", [(np.linspace(0.0, 1.0, 4), ">= 5"),
                                         (np.linspace(1.0, 0.0, 11), "strictly increasing")])
    def test_short_or_decreasing_t_rejected(self, t, match):
        g = cs.Grid2(0, 0, 0.1, 0.1, np.full((9, 9), 0.5))
        with pytest.raises(RangeError, match=match):
            cs.WeingartenData(t, t + 1.0, -t, g, 1.0, 1.0, cs.BaseIndex(4, 4))

    def test_non_finite_samples(self):
        g = cs.Grid2(0, 0, 0.1, 0.1, np.full((9, 9), 0.5))
        t = np.linspace(0.0, 1.0, 11)
        f = t + 1.0
        f[4] = np.nan
        with pytest.raises(RangeError, match="must be finite"):
            cs.WeingartenData(t, f, -t, g, 1.0, 1.0, cs.BaseIndex(4, 4))

    def test_non_finite_constant(self):
        g = cs.Grid2(0, 0, 0.1, 0.1, np.full((9, 9), 0.5))
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(RangeError, match="finite and positive"):
            cs.WeingartenData(t, t + 1.0, -t, g, math.inf, 1.0, cs.BaseIndex(4, 4))


class TestCMC:
    def test_cylinder_constants_zero(self):
        n = 33
        K = cs.Grid2(0, 0, 0.1, 0.1, np.zeros((n, n)))
        rep = cs.cmc_residual(K, 0.5, 1.0, 1.0)
        assert rep.max_abs < 1e-14

    def test_catenoid_closed_form_convergence(self):
        errs = []
        for n in (65, 129):
            u = np.linspace(-1, 1, n)
            v = np.linspace(0, math.pi, n)
            K = cs.Grid2.from_axes(u, v, (-1.0 / np.cosh(u) ** 4)[:, None] * np.ones((n, n)))
            errs.append(cs.cmc_residual(K, 0.0, 1.0, 1.0).max_abs)
        assert observed_orders(errs)[0] >= 1.9

    def test_pseudosphere_detection_case(self):
        n = 17
        K = cs.Grid2(0, 0, 0.1, 0.1, np.full((n, n), -1.0))
        rep = cs.cmc_residual(K, 0.0, 1.0, 1.0)
        assert np.max(np.abs(rep.residual.values - 4.0)) < 1e-12

    def test_discriminant_guard(self):
        n = 9
        K = cs.Grid2(0, 0, 0.1, 0.1, np.full((n, n), 0.25))
        with pytest.raises(DiscriminantError):
            cs.cmc_residual(K, 0.5, 1.0, 1.0)


class TestMinimalNatural:
    def test_catenoid_convergence(self):
        errs = []
        for n in (65, 129, 257):
            errs.append(cs.minimal_natural_residual(_catenoid_nu_grid(n), 1.0, 1.0).max_abs)
        for o in observed_orders(errs):
            assert o >= 1.9

    def test_constant_detection_case(self):
        n = 17
        for c in (0.5, 2.0):
            nu = cs.Grid2(0, 0, 0.1, 0.1, np.full((n, n), c))
            rep = cs.minimal_natural_residual(nu, 1.0, 1.0)
            assert np.max(np.abs(rep.residual.values - 2.0 * c)) < 1e-12

    def test_positivity_guard(self):
        n = 9
        nu = cs.Grid2(0, 0, 0.1, 0.1, np.full((n, n), -0.1))
        with pytest.raises(PositivityError):
            cs.minimal_natural_residual(nu, 1.0, 1.0)

    def test_consistency_with_cmc(self):
        # for minimal data the CMC residual is exactly twice this residual
        nu = _catenoid_nu_grid(65)
        r_min = cs.minimal_natural_residual(nu, 1.0, 1.0)
        r_cmc = cs.cmc_residual(nu.like(-nu.values**2), 0.0, 1.0, 1.0)
        ratio = r_cmc.max_abs / r_min.max_abs
        assert abs(ratio - 2.0) < 1e-6
        assert ratio < 4.0


class TestFlat:
    def test_cylinder_constant_H(self):
        n = 17
        H = cs.Grid2(0, 0, 0.1, 0.1, np.full((n, n), 0.5))
        out = cs.flat_characterization(H)
        assert out.report.max_abs == 0.0
        assert np.max(np.abs(out.f_samples)) < 1e-12
        assert np.max(np.abs(out.g_samples - 2.0)) < 1e-12
        assert np.max(out.fit_rms) < 1e-12

    def test_cone_linear_in_v(self):
        # cone half-angle alpha: the natural chart is canonical and
        # 1/H = -2 tan(alpha) v exactly
        n = 33
        alpha = 0.6
        u = np.linspace(0.0, 2.0, n)
        v = np.linspace(0.5, 2.5, n)
        H = cs.Grid2.from_axes(u, v, -1.0 / (2.0 * math.tan(alpha) * v)[None, :]
                               * np.ones((n, n)))
        out = cs.flat_characterization(H)
        c = -2.0 * math.tan(alpha)
        assert out.report.max_abs < 1e-10
        assert np.max(np.abs(out.f_samples - c)) < 1e-10
        assert np.max(np.abs(out.g_samples)) < 1e-10

    def test_synthetic_flat_family(self):
        n = 33
        u = np.linspace(0.0, 2.0, n)
        v = np.linspace(0.0, 1.0, n)
        f = 0.5 + 0.1 * np.sin(u)
        g = 2.0 + 0.3 * np.cos(u)
        H = cs.Grid2.from_axes(u, v, 1.0 / (f[:, None] * v[None, :] + g[:, None]))
        out = cs.flat_characterization(H)
        assert out.report.max_abs < 1e-12
        assert np.max(np.abs(out.f_samples - f)) < 1e-10
        assert np.max(np.abs(out.g_samples - g)) < 1e-10

    def test_line_fit_is_the_least_squares_line_of_each_row(self):
        # a curved 1/H on a 9 x 14 grid: the closed-form fit matches a
        # least-squares solve against [v, 1], row by row
        u = np.linspace(0.0, 1.0, 9)
        v = np.linspace(0.5, 2.0, 14)
        inv_h = 1.0 + u[:, None] * v[None, :] ** 2 + 0.3 * np.sin(3.0 * v)[None, :]
        out = cs.flat_characterization(cs.Grid2.from_axes(u, v, 1.0 / inv_h))
        design = np.stack([v, np.ones(v.size)], axis=1)
        coef = np.linalg.lstsq(design, inv_h.T, rcond=None)[0]
        rms = np.sqrt(np.mean((design @ coef - inv_h.T) ** 2, axis=0))
        assert np.max(np.abs(out.f_samples - coef[0])) < 1e-12
        assert np.max(np.abs(out.g_samples - coef[1])) < 1e-12
        assert np.max(np.abs(out.fit_rms - rms)) < 1e-12
        assert np.min(out.fit_rms) > 1e-3

    def test_torus_detection_case(self):
        # torus H in the swapped canonical labeling (rulings would need to be
        # the v-lines): 1/H = (2 + cos v)/(1 + cos v) is not linear in v, and
        # the residual stalls under refinement instead of converging
        maxes = []
        for n in (33, 65):
            u = np.linspace(0.0, 2.0, n)
            v = np.linspace(0.0, 2.0, n)
            Hv = (1.0 + np.cos(v)) / (2.0 + np.cos(v))
            H = cs.Grid2.from_axes(u, v, Hv[None, :] * np.ones((n, n)))
            maxes.append(cs.flat_characterization(H).report.max_abs)
        assert maxes[0] > 0.1
        assert maxes[0] / maxes[1] < 1.5

    def test_zero_mean_curvature_guard(self):
        n = 9
        vals = np.full((n, n), 0.5)
        vals[4, 4] = 0.0
        H = cs.Grid2(0, 0, 0.1, 0.1, vals)
        with pytest.raises(ZeroMeanCurvatureError):
            cs.flat_characterization(H)


def test_weingarten_specializes_canonical_gauss_with_scaled_constants():
    # with general A = 1/b, B = 1/a the linear Weingarten residual tracks the
    # canonical Gauss residual of (nu, -nu) data with those constants
    n = 65
    inv, _, _ = catenoid_invariants(n)
    nu = inv.geometry.like(np.abs(inv.field1.values))
    data = cs.WeingartenData(np.linspace(0.35, 1.05, 301), np.linspace(0.35, 1.05, 301),
                             -np.linspace(0.35, 1.05, 301), nu, 1.0, 1.0, inv.base)
    with pytest.warns(UserWarning):
        rep = cs.weingarten_residual(data)
    assert rep.max_abs < 1e-2
