import math

import numpy as np
import pytest

import canonsurf as cs
from canonsurf.errors import DomainError

from helpers import at_origin, chart_at, sample_chart


def test_cylinder_jet_at_origin():
    e = cs.make_entry("cylinder", r=1.0)
    j = at_origin(chart_at(e, 0.0, 0.0))
    assert np.allclose(j.xu, [0, 1, 0])
    assert np.allclose(j.xv, [0, 0, 1])
    assert np.allclose(j.xuu, [-1, 0, 0])
    assert np.allclose(j.xuv, [0, 0, 0])
    assert np.allclose(j.xvv, [0, 0, 0])


def test_torus_jet_at_origin():
    e = cs.make_entry("torus", R=2.0, r=1.0)
    j = at_origin(chart_at(e, 0.0, 0.0))
    assert np.allclose(j.xu, [0, 0, 1])
    assert np.allclose(j.xv, [0, 3, 0])
    assert np.allclose(j.xuu, [-1, 0, 0])


def test_catenoid_jet_at_origin():
    e = cs.make_entry("catenoid")
    j = at_origin(chart_at(e, 0.0, 0.0))
    assert np.allclose(j.xu, [0, 0, 1])
    assert np.allclose(j.xv, [0, 1, 0])
    assert np.allclose(j.xuu, [1, 0, 0])


def test_sample_matches_pointwise():
    # each node's jet depends on that node alone, not on the grid around it
    e = cs.make_entry("torus", R=2.0, r=1.0)
    jets = cs.sample_surface(e, 0.1, 0.2, 3, -0.3, 0.25, 3)
    for i in range(3):
        for j in range(3):
            pt = chart_at(e, 0.1 + 0.2 * i, -0.3 + 0.25 * j)
            for name in ("x", "xu", "xv", "xuu", "xuv", "xvv"):
                got = getattr(jets, name).values[i, j]
                assert np.array_equal(got, getattr(pt, name).values[0, 0]), name


def test_sphere_regular_off_poles():
    e = cs.make_entry("sphere", R=1.0)
    jets = cs.sample_surface(e, -1.2, 2.4 / 16, 17, 0.0, 0.3, 17)
    forms = cs.fundamental_forms_grid(jets)  # raises RegularityError if degenerate
    assert np.all(forms.W.values > 0)


def test_sphere_pole_outside_domain():
    e = cs.make_entry("sphere", R=1.0)
    # only node (0, 0) lies on the boundary u = -pi/2; its neighbours are admissible
    with pytest.raises(DomainError):
        chart_at(e, -math.pi / 2, 0.0)


def test_cone_apex_outside_domain():
    e = cs.make_entry("cone", alpha=0.5)
    with pytest.raises(DomainError):
        chart_at(e, 0.0, 0.0)
    j = at_origin(chart_at(e, 0.0, 1.0))
    assert np.allclose(j.x, [math.sin(0.5), 0.0, math.cos(0.5)])


def test_unknown_surface_and_params():
    with pytest.raises(DomainError):
        cs.make_entry("moebius")
    with pytest.raises(DomainError):
        cs.make_entry("torus", R=2.0, r=1.0, bogus=3.0)
    with pytest.raises(DomainError):
        cs.make_entry("torus", R=1.0, r=2.0)


@pytest.mark.parametrize("name, params", [
    ("sphere", {"R": math.inf}),
    ("cylinder", {"r": math.inf}),
    ("cone", {"alpha": math.inf}),
    ("torus", {"R": math.inf, "r": 1.0}),
    ("torus", {"R": 2.0, "r": math.nan}),
], ids=["sphere-R", "cylinder-r", "cone-alpha", "torus-R", "torus-r-nan"])
def test_non_finite_parameters_are_refused(name, params):
    # an infinite radius passed the chart's inequalities and gave NaN jets
    with pytest.raises(DomainError):
        cs.make_entry(name, **params)


def _fd_jet_error(jets):
    """Largest gap between the jets and central differences of x (x_uv: of x_u)."""
    x = jets.x
    fd = {"xu": cs.d_u(x.values, x), "xv": cs.d_v(x.values, x), "xuu": cs.d_uu(x.values, x),
          "xuv": cs.d_v(jets.xu.values, jets.xu), "xvv": cs.d_vv(x.values, x)}
    return max(np.max(np.abs(fd[c] - getattr(jets, c).values)) for c in fd)


@pytest.mark.parametrize("name,params,u_range,v_range", [
    ("plane", {}, (-1, 1), (-1, 1)),
    ("sphere", {"R": 1.0}, (-1.0, 1.0), (0.0, 2.0)),
    ("cylinder", {"r": 1.0}, (0.0, 3.0), (-1.0, 1.0)),
    ("cone", {"alpha": 0.6}, (0.0, 3.0), (0.5, 2.0)),
    ("torus", {"R": 2.0, "r": 1.0}, (0.0, 5.0), (0.0, 5.0)),
    ("catenoid", {}, (-1.0, 1.0), (0.0, 3.0)),
])
def test_fd_positions_reproduce_xu_at_second_order(name, params, u_range, v_range):
    errs = [_fd_jet_error(sample_chart(name, u_range, v_range, n, **params)[0])
            for n in (33, 65)]
    if errs[0] < 1e-12:  # plane: differences are exact
        assert errs[1] < 1e-12
    else:
        assert 3.0 < errs[0] / errs[1] < 5.0


@pytest.mark.parametrize("name,params,u_range,v_range", [
    ("plane", {}, (-1, 1), (-1, 1)),
    ("sphere", {"R": 2.0}, (-1.0, 1.0), (0.0, 2.0)),
    ("cylinder", {"r": 1.0}, (0.0, 3.0), (-1.0, 1.0)),
    ("cone", {"alpha": 0.6}, (0.0, 3.0), (0.5, 2.0)),
    ("torus", {"R": 2.0, "r": 1.0}, (0.0, 5.0), (0.0, 5.0)),
    ("catenoid", {}, (-1.0, 1.0), (0.0, 3.0)),
])
def test_principal_entries_have_vanishing_F_M(name, params, u_range, v_range):
    entry = cs.make_entry(name, **params)
    assert entry.principal
    jets, forms, *_ = sample_chart(name, u_range, v_range, 17, **params)
    scale = np.sqrt(forms.E.values * forms.G.values)
    assert np.max(np.abs(forms.F.values) / scale) < 1e-12
    assert np.max(np.abs(forms.M.values) / scale) < 1e-12


class TestRevolution:
    def _entry(self):
        t = np.linspace(-1.0, 1.0, 81)
        return cs.make_revolution_entry(t, np.cosh(t), t)

    def test_jets_close_to_catenoid(self):
        # spline profile of the catenoid: jets approximate the analytic ones
        e = self._entry()
        j = at_origin(chart_at(e, 0.25, 0.4))
        ref = at_origin(chart_at(cs.make_entry("catenoid"), 0.25, 0.4))
        assert np.max(np.abs(j.x - ref.x)) < 1e-6
        assert np.max(np.abs(j.xu - ref.xu)) < 1e-4

    def test_f_and_m_vanish_identically(self):
        e = self._entry()
        jets = cs.sample_surface(e, -0.9, 0.1, 10, 0.0, 0.3, 8)
        forms = cs.fundamental_forms_grid(jets)
        assert np.max(np.abs(forms.F.values)) < 1e-14
        assert np.max(np.abs(forms.M.values)) < 1e-14
        assert not e.principal  # user data: flag stays conservative

    def test_fd_consistency_of_spline_jets(self):
        e = self._entry()
        errs = [_fd_jet_error(cs.sample_surface(e, -0.5, 1.0 / (n - 1), n, 0.0, 1.0 / (n - 1), n))
                for n in (33, 65)]
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_validation(self):
        t = np.linspace(0, 1, 10)
        with pytest.raises(DomainError):
            cs.make_revolution_entry(t, -np.ones_like(t), t)
        with pytest.raises(DomainError):
            cs.make_revolution_entry(t[::-1], np.ones_like(t), t)

    def test_too_few_samples(self):
        t = np.linspace(0, 1, 3)
        with pytest.raises(DomainError, match=">= 4 samples"):
            cs.make_revolution_entry(t, np.ones_like(t), t)

    @pytest.mark.parametrize("bad", ["rho", "z"])
    def test_non_finite_profile(self, bad):
        t = np.linspace(0, 1, 10)
        rho, z = np.ones_like(t), t.copy()
        if bad == "rho":
            rho[3] = np.nan
        else:
            z[5] = np.inf
        with pytest.raises(DomainError, match="must be finite"):
            cs.make_revolution_entry(t, rho, z)


def test_domain_error_on_grid_leaving_domain():
    e = cs.make_entry("cone", alpha=0.5)
    with pytest.raises(DomainError):
        cs.sample_surface(e, 0.0, 0.1, 5, -0.5, 0.25, 5)


@pytest.mark.parametrize("du, dv", [(1e308, 0.1), (0.1, math.inf), (0.1, -1e308), (math.nan, 0.1)])
def test_overflowing_axes_are_refused(du, dv):
    # the end node overflows to inf, or is NaN; numpy would warn while forming the axis
    with pytest.raises(DomainError, match="the grid's axes are not finite"):
        cs.sample_surface(cs.make_entry("torus"), 0.0, du, 5, 0.0, dv, 5)
