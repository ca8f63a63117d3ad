import math

import numpy as np
import pytest

import canonsurf as cs
from canonsurf.errors import DegenerateDirectionError, NotPrincipalError, RegularityError
from canonsurf.invariants import is_principal

from helpers import random_rotation, sample_chart


def test_plane_forms():
    j = cs.evaluate_jet(cs.make_entry("plane"), 0.3, -0.7)
    f = cs.fundamental_forms(j)
    assert (f.E, f.F, f.G) == (1.0, 0.0, 1.0)
    assert (f.L, f.M, f.N) == (0.0, 0.0, 0.0)


def test_torus_forms_closed_form():
    j = cs.evaluate_jet(cs.make_entry("torus", R=2.0, r=1.0), 0.0, 0.0)
    f = cs.fundamental_forms(j)
    assert np.allclose([f.E, f.F, f.G, f.L, f.M, f.N], [1, 0, 9, 1, 0, 3], atol=1e-12)


def test_catenoid_forms_closed_form():
    for u, v in [(0.0, 0.0), (0.5, 1.0), (-0.8, 2.0)]:
        j = cs.evaluate_jet(cs.make_entry("catenoid"), u, v)
        f = cs.fundamental_forms(j)
        ch2 = math.cosh(u) ** 2
        assert abs(f.E - ch2) < 1e-12 * ch2
        assert abs(f.G - ch2) < 1e-12 * ch2
        assert abs(f.F) < 1e-12
        assert abs(f.L + 1.0) < 1e-12
        assert abs(f.M) < 1e-12
        assert abs(f.N - 1.0) < 1e-12


def test_degenerate_jet_rejected():
    j = cs.Jet2(np.zeros(3), np.array([1.0, 0, 0]), np.array([2.0, 0, 0]),
                np.zeros(3), np.zeros(3), np.zeros(3))
    with pytest.raises(RegularityError):
        cs.fundamental_forms(j)


def test_cylinder_curvatures_with_fixed_orientation():
    # With n = (xu x xv)/|xu x xv| the chart (cos u, sin u, v) has L = -1,
    # so the u-direction principal curvature is -1 and H = -1/2.
    j = cs.evaluate_jet(cs.make_entry("cylinder", r=1.0), 0.7, 0.2)
    c = cs.curvatures(cs.fundamental_forms(j), principal_chart=True)
    assert abs(c.K) < 1e-12
    assert abs(c.H + 0.5) < 1e-12
    assert abs(c.nu1 + 1.0) < 1e-12
    assert abs(c.nu2) < 1e-12


def test_torus_curvatures():
    j = cs.evaluate_jet(cs.make_entry("torus", R=2.0, r=1.0), 0.0, 0.0)
    c = cs.curvatures(cs.fundamental_forms(j), principal_chart=True)
    assert abs(c.nu1 - 1.0) < 1e-12
    assert abs(c.nu2 - 1.0 / 3.0) < 1e-12
    assert abs(c.K - 1.0 / 3.0) < 1e-12
    assert abs(c.H - 2.0 / 3.0) < 1e-12


def test_catenoid_curvatures():
    for u in (-0.6, 0.0, 1.0):
        j = cs.evaluate_jet(cs.make_entry("catenoid"), u, 0.8)
        c = cs.curvatures(cs.fundamental_forms(j), principal_chart=True)
        sech2 = 1.0 / math.cosh(u) ** 2
        assert abs(c.H) < 1e-12
        assert abs(c.K + sech2 * sech2) < 1e-12
        assert abs(c.nu1 + sech2) < 1e-12
        assert abs(c.nu2 - sech2) < 1e-12


def test_magnitude_convention_without_chart():
    j = cs.evaluate_jet(cs.make_entry("catenoid"), 0.5, 0.0)
    c = cs.curvatures(cs.fundamental_forms(j), principal_chart=False)
    assert c.nu1 >= c.nu2
    assert abs(c.nu1 - 1.0 / math.cosh(0.5) ** 2) < 1e-12


def test_principal_flag_rejected_on_skew_chart():
    f = cs.FormCoefficients(E=1.0, F=0.3, G=1.0, L=0.1, M=0.0, N=0.2, W=math.sqrt(1 - 0.09))
    with pytest.raises(NotPrincipalError):
        cs.curvatures(f, principal_chart=True)


_NON_REGULAR_ENTRY_POINTS = {
    "curvatures": lambda point, grid: cs.curvatures(point, principal_chart=False),
    "curvatures_grid": lambda point, grid: cs.curvatures_grid(grid, principal_chart=True),
    "normal_curvature": lambda point, grid: cs.normal_curvature(point, (1.0, 0.5)),
    "geodesic": lambda point, grid: cs.geodesic_curvatures_of_parametric_lines(grid),
}


@pytest.mark.parametrize("entry", sorted(_NON_REGULAR_ENTRY_POINTS))
@pytest.mark.parametrize("E, F, G", [(1.0, 1.0, 1.0), (1.0, 0.0, -1.0), (1.0, 0.0, 0.0),
                                     (-1.0, 0.0, -1.0)])
def test_non_regular_metric_rejected(E, F, G, entry):
    # EG - F^2 vanishes or is negative, or E is: no curvature is defined
    point = cs.FormCoefficients(E, F, G, 1.0, 0.0, 1.0, 0.0)
    g = cs.Grid2(0.0, 0.0, 0.1, 0.1, np.zeros((5, 5)))
    grid = cs.FormGrid(*(g.like(np.full((5, 5), q)) for q in (E, F, G, 1.0, 0.0, 1.0, 0.0)))
    with pytest.raises(RegularityError, match=r"EG - F\^2 is not positive"):
        _NON_REGULAR_ENTRY_POINTS[entry](point, grid)


class TestNormalCurvature:
    cyl = cs.FormCoefficients(E=1.0, F=0.0, G=1.0, L=-1.0, M=0.0, N=0.0, W=1.0)

    def test_cylinder_principal_directions(self):
        assert abs(cs.normal_curvature(self.cyl, (1, 0)) + 1.0) < 1e-15
        assert abs(cs.normal_curvature(self.cyl, (0, 1))) < 1e-15

    def test_scale_invariance(self):
        f = cs.fundamental_forms(cs.evaluate_jet(cs.make_entry("torus", R=2, r=1), 0.4, 0.9))
        base = cs.normal_curvature(f, (0.3, -0.8))
        assert abs(cs.normal_curvature(f, (7 * 0.3, 7 * -0.8)) - base) < 1e-14

    def test_torus_diagonal_direction(self):
        f = cs.fundamental_forms(cs.evaluate_jet(cs.make_entry("torus", R=2, r=1), 0.0, 0.0))
        assert abs(cs.normal_curvature(f, (1, 1)) - 0.4) < 1e-12

    def test_zero_direction_rejected(self):
        with pytest.raises(DegenerateDirectionError):
            cs.normal_curvature(self.cyl, (0.0, 0.0))

    def test_bounded_by_principal_curvatures(self):
        rng = np.random.default_rng(42)
        for name, params, pt in [("torus", {"R": 2, "r": 1}, (0.5, 1.0)),
                                 ("catenoid", {}, (0.4, 0.2)),
                                 ("cylinder", {"r": 2.0}, (0.1, 0.3))]:
            f = cs.fundamental_forms(cs.evaluate_jet(cs.make_entry(name, **params), *pt))
            c = cs.curvatures(f, principal_chart=True)
            lo, hi = min(c.nu1, c.nu2), max(c.nu1, c.nu2)
            for _ in range(64):
                d = rng.normal(size=2)
                if np.hypot(*d) < 1e-6:
                    continue
                k = cs.normal_curvature(f, d)
                assert lo - 1e-12 <= k <= hi + 1e-12

    def test_principal_directions_give_principal_curvatures(self):
        f = cs.fundamental_forms(cs.evaluate_jet(cs.make_entry("torus", R=2, r=1), 0.7, 0.1))
        c = cs.curvatures(f, principal_chart=True)
        assert abs(cs.normal_curvature(f, (1, 0)) - c.nu1) < 1e-12
        assert abs(cs.normal_curvature(f, (0, 1)) - c.nu2) < 1e-12


class TestGeodesicCurvatures:
    def test_cylinder_zero(self):
        _, forms, *_ = sample_chart("cylinder", (0, 3), (0, 2), 17, r=1.0)
        g1, g2 = cs.geodesic_curvatures_of_parametric_lines(forms)
        assert np.max(np.abs(g1.values)) < 1e-12
        assert np.max(np.abs(g2.values)) < 1e-12

    def test_torus_closed_form(self):
        _, forms, *_ = sample_chart("torus", (0, 2 * math.pi), (0, 2 * math.pi), 65, R=2, r=1)
        g1, g2 = cs.geodesic_curvatures_of_parametric_lines(forms)
        u = forms.geometry.u_axis[:, None]
        expected = -np.sin(u) / (2.0 + np.cos(u)) * np.ones_like(g2.values)
        assert np.max(np.abs(g1.values)) < 1e-10
        assert np.max(np.abs(g2.values - expected)) < 2e-3  # stencil error on G_u
        # interior nodes converge at second order
        errs = []
        for n in (33, 65):
            _, f2, *_ = sample_chart("torus", (0, 2 * math.pi), (0, 2 * math.pi), n, R=2, r=1)
            _, g2n = cs.geodesic_curvatures_of_parametric_lines(f2)
            uu = f2.geometry.u_axis[:, None]
            exp_n = -np.sin(uu) / (2.0 + np.cos(uu)) * np.ones_like(g2n.values)
            errs.append(np.max(np.abs(g2n.values - exp_n)[2:-2, 2:-2]))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_catenoid_closed_form(self):
        _, forms, *_ = sample_chart("catenoid", (-1, 1), (0, 3), 65)
        g1, g2 = cs.geodesic_curvatures_of_parametric_lines(forms)
        u = forms.geometry.u_axis[:, None]
        expected = np.sinh(u) / np.cosh(u) ** 2 * np.ones_like(g2.values)
        assert np.max(np.abs(g1.values)) < 1e-12
        assert np.max(np.abs(g2.values - expected)) < 1e-3

    def test_rejects_non_principal(self):
        _, forms, *_ = sample_chart("torus", (0, 1), (0, 1), 9, R=2, r=1)
        skew = cs.FormGrid(forms.E, forms.E, forms.G, forms.L, forms.M, forms.N, forms.W)
        with pytest.raises(NotPrincipalError):
            cs.geodesic_curvatures_of_parametric_lines(skew)


class TestDetectUmbilics:
    def test_sphere_fully_flagged(self):
        _, _, curv, _ = sample_chart("sphere", (-1, 1), (0, 2), 17, R=1.0)
        mask, rep = cs.detect_umbilics(curv)
        assert rep.count == rep.total == 17 * 17
        assert np.all(mask.values == 1.0)
        # with the fixed orientation the unit sphere's normal points inward,
        # so both principal curvatures are +1
        assert np.max(np.abs(curv.nu1.values - 1.0)) < 1e-12
        assert np.max(np.abs(curv.nu2.values - 1.0)) < 1e-12

    def test_plane_fully_flagged(self):
        _, _, curv, _ = sample_chart("plane", (-1, 1), (-1, 1), 9)
        _, rep = cs.detect_umbilics(curv)
        assert rep.count == rep.total

    def test_torus_unflagged(self):
        _, _, curv, _ = sample_chart("torus", (0, 2 * math.pi), (0, 2 * math.pi), 33, R=2, r=1)
        _, rep = cs.detect_umbilics(curv)
        assert rep.count == 0
        assert rep.min_separation > 2.0 / 3.0 - 1e-9  # analytic minimum of nu1 - nu2


def test_identity_K_H_on_catalog_grids():
    for name, params, urange, vrange in [
        ("cylinder", {"r": 1.0}, (0, 2 * math.pi), (0, 2)),
        ("torus", {"R": 2.0, "r": 1.0}, (0, 2 * math.pi), (0, 2 * math.pi)),
        ("catenoid", {}, (-1, 1), (0, math.pi)),
        ("cone", {"alpha": 0.5}, (0, 2 * math.pi), (0.5, 2.0)),
    ]:
        _, _, curv, _ = sample_chart(name, urange, vrange, 65, **params)
        k_gap = np.max(np.abs(curv.K.values - curv.nu1.values * curv.nu2.values))
        h_gap = np.max(np.abs(2 * curv.H.values - curv.nu1.values - curv.nu2.values))
        assert k_gap < 1e-12, name
        assert h_gap < 1e-12, name


def test_rigid_motion_invariance():
    jets, forms, curv, _ = sample_chart("torus", (0, 2), (0, 2), 9, R=2, r=1)
    R = random_rotation(7)
    t = np.array([0.4, -1.2, 2.0])
    rot = lambda g: g.like(g.values @ R.T)
    moved = cs.JetGrid(jets.x.like(jets.x.values @ R.T + t), rot(jets.xu), rot(jets.xv),
                       rot(jets.xuu), rot(jets.xuv), rot(jets.xvv))
    forms2 = cs.fundamental_forms_grid(moved)
    curv2 = cs.curvatures_grid(forms2, principal_chart=True)
    for name in ("E", "F", "G", "L", "M", "N"):
        a = getattr(forms, name).values
        b = getattr(forms2, name).values
        assert np.max(np.abs(a - b)) < 1e-12, name
    for name in ("K", "H", "nu1", "nu2"):
        a = getattr(curv, name).values
        b = getattr(curv2, name).values
        assert np.max(np.abs(a - b)) < 1e-12, name


def test_is_principal_tolerance():
    assert is_principal(np.array([1.0]), np.array([1e-11]), np.array([1.0]), np.array([0.0]))
    assert not is_principal(np.array([1.0]), np.array([1e-6]), np.array([1.0]), np.array([0.0]))
