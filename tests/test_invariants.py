import math

import numpy as np
import pytest

import canonsurf as cs
from canonsurf.errors import NotPrincipalError, RegularityError
from canonsurf.invariants import is_principal

from helpers import at_origin, chart_at, random_rotation, sample_chart


def _constant_grid(*values):
    """3 x 3 grids, each holding one of the values at every node."""
    g = cs.Grid2(0.0, 0.0, 0.1, 0.1, np.zeros((3, 3)))
    return [g.like(np.broadcast_to(q, (3, 3) + np.shape(q))) for q in values]


def test_plane_forms():
    f = at_origin(cs.fundamental_forms_grid(chart_at(cs.make_entry("plane"), 0.3, -0.7)))
    assert (f.E, f.F, f.G) == (1.0, 0.0, 1.0)
    assert (f.L, f.M, f.N) == (0.0, 0.0, 0.0)


def test_torus_forms_closed_form():
    f = at_origin(cs.fundamental_forms_grid(chart_at(cs.make_entry("torus", R=2.0, r=1.0), 0.0, 0.0)))
    assert np.allclose([f.E, f.F, f.G, f.L, f.M, f.N], [1, 0, 9, 1, 0, 3], atol=1e-12)


def test_catenoid_forms_closed_form():
    for u, v in [(0.0, 0.0), (0.5, 1.0), (-0.8, 2.0)]:
        f = at_origin(cs.fundamental_forms_grid(chart_at(cs.make_entry("catenoid"), u, v)))
        ch2 = math.cosh(u) ** 2
        assert abs(f.E - ch2) < 1e-12 * ch2
        assert abs(f.G - ch2) < 1e-12 * ch2
        assert abs(f.F) < 1e-12
        assert abs(f.L + 1.0) < 1e-12
        assert abs(f.M) < 1e-12
        assert abs(f.N - 1.0) < 1e-12


def test_degenerate_jet_rejected():
    jets = cs.JetGrid(*_constant_grid(np.zeros(3), np.array([1.0, 0, 0]), np.array([2.0, 0, 0]),
                                      np.zeros(3), np.zeros(3), np.zeros(3)))
    with pytest.raises(RegularityError):
        cs.fundamental_forms_grid(jets)


def test_nan_jet_node_rejected():
    # a NaN compares false both ways, so the guard must ask for positive values
    # rather than look for non-positive ones
    jets = chart_at(cs.make_entry("torus", R=2.0, r=1.0), 0.0, 0.0)
    xu = jets.xu.values.copy()
    xu[1, 2, 0] = np.nan
    jets = cs.JetGrid(jets.x, jets.xu.like(xu), jets.xv, jets.xuu, jets.xuv, jets.xvv)
    with pytest.raises(RegularityError, match=r"EG - F\^2 is not positive"):
        cs.fundamental_forms_grid(jets)


def _curvatures_at(entry, u, v, principal_chart):
    forms = cs.fundamental_forms_grid(chart_at(entry, u, v))
    return at_origin(cs.curvatures_grid(forms, principal_chart=principal_chart))


def test_cylinder_curvatures_with_fixed_orientation():
    # With n = (xu x xv)/|xu x xv| the chart (cos u, sin u, v) has L = -1,
    # so the u-direction principal curvature is -1 and H = -1/2.
    c = _curvatures_at(cs.make_entry("cylinder", r=1.0), 0.7, 0.2, True)
    assert abs(c.K) < 1e-12
    assert abs(c.H + 0.5) < 1e-12
    assert abs(c.nu1 + 1.0) < 1e-12
    assert abs(c.nu2) < 1e-12


def test_torus_curvatures():
    c = _curvatures_at(cs.make_entry("torus", R=2.0, r=1.0), 0.0, 0.0, True)
    assert abs(c.nu1 - 1.0) < 1e-12
    assert abs(c.nu2 - 1.0 / 3.0) < 1e-12
    assert abs(c.K - 1.0 / 3.0) < 1e-12
    assert abs(c.H - 2.0 / 3.0) < 1e-12


def test_catenoid_curvatures():
    for u in (-0.6, 0.0, 1.0):
        c = _curvatures_at(cs.make_entry("catenoid"), u, 0.8, True)
        sech2 = 1.0 / math.cosh(u) ** 2
        assert abs(c.H) < 1e-12
        assert abs(c.K + sech2 * sech2) < 1e-12
        assert abs(c.nu1 + sech2) < 1e-12
        assert abs(c.nu2 - sech2) < 1e-12


def test_magnitude_convention_without_chart():
    c = _curvatures_at(cs.make_entry("catenoid"), 0.5, 0.0, False)
    assert c.nu1 >= c.nu2
    assert abs(c.nu1 - 1.0 / math.cosh(0.5) ** 2) < 1e-12


def test_principal_flag_rejected_on_skew_chart():
    forms = cs.FormGrid(*_constant_grid(1.0, 0.3, 1.0, 0.1, 0.0, 0.2, math.sqrt(1 - 0.09)))
    with pytest.raises(NotPrincipalError):
        cs.curvatures_grid(forms, principal_chart=True)


_NON_REGULAR_ENTRY_POINTS = {
    "curvatures_grid": lambda grid: cs.curvatures_grid(grid, principal_chart=True),
    "curvatures_grid-by-size": lambda grid: cs.curvatures_grid(grid, principal_chart=False),
}


@pytest.mark.parametrize("entry", sorted(_NON_REGULAR_ENTRY_POINTS))
@pytest.mark.parametrize("E, F, G", [(1.0, 1.0, 1.0), (1.0, 0.0, -1.0), (1.0, 0.0, 0.0),
                                     (-1.0, 0.0, -1.0), (math.nan, 0.0, 1.0)])
def test_non_regular_metric_rejected(E, F, G, entry):
    # EG - F^2 vanishes or is negative, or E is, or E is NaN: no curvature is defined
    grid = cs.FormGrid(*_constant_grid(E, F, G, 1.0, 0.0, 1.0, 0.0))
    with pytest.raises(RegularityError, match=r"EG - F\^2 is not positive"):
        _NON_REGULAR_ENTRY_POINTS[entry](grid)


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
