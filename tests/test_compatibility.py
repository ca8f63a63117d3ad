import dataclasses
import math

import numpy as np
import pytest

import canonsurf as cs
from canonsurf import compatibility, grid, invariants
from canonsurf.errors import RangeError, RegularityError, UmbilicError
from canonsurf.reports import make_report

from helpers import (
    canonical_grid,
    catenoid_invariants,
    cone_invariants,
    fabricated_invariants,
    observed_orders,
    overflowing_invariants,
    sample_chart,
    torus_invariants,
)


def _skew_jets(n):
    """Hand-coded jets of a chart with F != 0, M != 0 to exercise all terms."""
    u = np.linspace(-0.5, 0.5, n)[:, None]
    v = np.linspace(-0.4, 0.6, n)[None, :]
    du = float(u[1, 0] - u[0, 0])
    dv = float(v[0, 1] - v[0, 0])
    one = np.ones((n, n))
    stack = lambda a, b, c: np.stack(np.broadcast_arrays(a * one, b * one, c * one), axis=-1)
    make = lambda vals: cs.Grid2(float(u[0, 0]), float(v[0, 0]), du, dv, vals)
    x = stack(u + 0.3 * v**2, v - 0.1 * u**2, u**2 - v**2 + 0.2 * u * v)
    xu = stack(1.0, -0.2 * u, 2 * u + 0.2 * v)
    xv = stack(0.6 * v, 1.0, -2 * v + 0.2 * u)
    xuu = stack(0.0, -0.2, 2.0)
    xuv = stack(0.0, 0.0, 0.2)
    xvv = stack(0.6, 0.0, -2.0)
    return cs.JetGrid(make(x), make(xu), make(xv), make(xuu), make(xuv), make(xvv))


def gauss_residual_principal(forms):
    """Gauss residual of a principal chart (F = M = 0): the general residual,
    checked against Liouville's form K = LN/(EG) = -[(E_v/W)_v + (G_u/W)_u]/(2W),
    W = sqrt(EG), which uses E, G, L and N alone."""
    E, F, G = forms.E.values, forms.F.values, forms.G.values
    L, M, N = forms.L.values, forms.M.values, forms.N.values
    assert invariants.is_principal(E, F, G, M)
    rep = cs.gauss_residual_general(forms)
    geo = forms.geometry
    W = np.sqrt(E * G)
    rhs = -(grid.d_v(grid.d_v(E, geo) / W, geo) + grid.d_u(grid.d_u(G, geo) / W, geo)) / (2.0 * W)
    np.testing.assert_allclose(rep.residual.values, L * N / (E * G) - rhs, rtol=0, atol=1e-12)
    return rep


class TestGaussGeneral:
    def test_plane_zero(self):
        _, forms, *_ = sample_chart("plane", (-1, 1), (-1, 1), 17)
        rep = cs.gauss_residual_general(forms)
        assert rep.max_abs < 1e-12

    @pytest.mark.parametrize("name,params,urange,vrange", [
        ("torus", {"R": 2.0, "r": 1.0}, (0, 2 * math.pi), (0, 2 * math.pi)),
        ("sphere", {"R": 1.0}, (-1.0, 1.0), (0.0, 2.0)),
        ("catenoid", {}, (-1, 1), (0, math.pi)),
    ])
    def test_second_order_convergence(self, name, params, urange, vrange):
        errs = []
        for n in (65, 129):
            _, forms, *_ = sample_chart(name, urange, vrange, n, **params)
            errs.append(cs.gauss_residual_general(forms).max_abs)
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_skew_chart_exercises_determinant_term(self):
        errs = []
        for n in (33, 65):
            rep = cs.gauss_residual_general(cs.fundamental_forms_grid(_skew_jets(n)))
            errs.append(rep.max_abs)
        assert errs[0] > 1e-9  # residual genuinely nonzero before convergence
        assert 3.0 < errs[0] / errs[1] < 5.0


class TestCodazziGeneral:
    def test_plane_zero(self):
        _, forms, *_ = sample_chart("plane", (-1, 1), (-1, 1), 17)
        r1, r2 = cs.codazzi_residual_general(forms)
        assert r1.max_abs < 1e-12 and r2.max_abs < 1e-12

    def test_torus_second_order_convergence(self):
        errs = []
        for n in (65, 129):
            _, forms, *_ = sample_chart("torus", (0, 2 * math.pi), (0, 2 * math.pi), n,
                                        R=2.0, r=1.0)
            r1, r2 = cs.codazzi_residual_general(forms)
            errs.append(max(r1.max_abs, r2.max_abs))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_catenoid_degenerately_exact(self):
        # EN + GL = 0 and L, M, N are constant: every term vanishes identically
        _, forms, *_ = sample_chart("catenoid", (-1, 1), (0, math.pi), 65)
        r1, r2 = cs.codazzi_residual_general(forms)
        assert max(r1.max_abs, r2.max_abs) < 1e-12

    def test_skew_chart(self):
        errs = []
        for n in (33, 65):
            r1, r2 = cs.codazzi_residual_general(cs.fundamental_forms_grid(_skew_jets(n)))
            errs.append(max(r1.max_abs, r2.max_abs))
        assert 3.0 < errs[0] / errs[1] < 5.0


@pytest.mark.parametrize("residual", [cs.gauss_residual_general, cs.codazzi_residual_general,
                                      gauss_residual_principal])
def test_general_residuals_reject_vanishing_w(residual):
    _, forms, *_ = sample_chart("plane", (-1, 1), (-1, 1), 9)
    W = forms.W.values.copy()
    W[4, 4] = 0.0
    with pytest.raises(RegularityError):
        residual(dataclasses.replace(forms, W=forms.W.like(W)))


class TestCodazziPrincipal:
    def test_catenoid(self):
        errs = []
        for n in (65, 129):
            _, forms, curv, _ = sample_chart("catenoid", (-1, 1), (0, math.pi), n)
            r1, r2 = cs.codazzi_residual_principal(curv.nu1, curv.nu2, forms.E, forms.G)
            # E and nu1 are v-independent: the first identity is 0 = 0 exactly
            assert r1.max_abs < 1e-13
            errs.append(r2.max_abs)
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_torus_first_identity_exact(self):
        _, forms, curv, _ = sample_chart("torus", (0, 2 * math.pi), (0, 2 * math.pi), 65,
                                         R=2.0, r=1.0)
        r1, r2 = cs.codazzi_residual_principal(curv.nu1, curv.nu2, forms.E, forms.G)
        assert r1.max_abs < 1e-13  # E and nu1 constant
        assert r2.max_abs > 0

    def test_constant_fields_exact_zero(self):
        g = cs.Grid2(0, 0, 0.1, 0.1, np.full((9, 9), 2.0))
        nu1 = g.like(np.full((9, 9), 1.0))
        nu2 = g.like(np.zeros((9, 9)))
        r1, r2 = cs.codazzi_residual_principal(nu1, nu2, g, g.like(np.full((9, 9), 3.0)))
        assert r1.max_abs == 0.0 and r2.max_abs == 0.0

    def test_umbilic_rejected(self):
        _, forms, curv, _ = sample_chart("sphere", (-1, 1), (0, 2), 9, R=1.0)
        with pytest.raises(UmbilicError):
            cs.codazzi_residual_principal(curv.nu1, curv.nu2, forms.E, forms.G)


class TestGaussPrincipal:
    def test_plane_zero(self):
        _, forms, *_ = sample_chart("plane", (-1, 1), (-1, 1), 17)
        assert gauss_residual_principal(forms).max_abs < 1e-12

    @pytest.mark.parametrize("name,params,urange,vrange", [
        ("torus", {"R": 2.0, "r": 1.0}, (0, 2 * math.pi), (0, 2 * math.pi)),
        ("catenoid", {}, (-1, 1), (0, math.pi)),
    ])
    def test_second_order_convergence(self, name, params, urange, vrange):
        errs = []
        for n in (65, 129):
            _, forms, *_ = sample_chart(name, urange, vrange, n, **params)
            errs.append(gauss_residual_principal(forms).max_abs)
        assert 3.0 < errs[0] / errs[1] < 5.0


class TestCanonicalFactors:
    def test_constant_fields_give_unit_factors(self):
        g = cs.Grid2(0, 0, 0.1, 0.1, np.full((9, 9), 1.0))
        inv = cs.InvariantGrid("nu", g, g.like(np.zeros((9, 9))), 1.0, 1.0, cs.BaseIndex(4, 4))
        for f in (*cs.canonical_factors(inv), *cs.canonical_factors(inv.to_kh())):
            assert np.max(np.abs(f - 1.0)) == 0.0

    def test_catenoid_psi1_closed_form(self):
        inv, _, _ = catenoid_invariants(129)
        psi1, psi2 = cs.canonical_factors(inv)
        u = inv.geometry.u_axis[:, None]
        expected = np.cosh(u) * np.ones_like(psi1)
        assert np.max(np.abs(psi1 - expected)) < 5e-4
        assert np.max(np.abs(psi2 - expected)) < 5e-4

    def test_torus_psi2_closed_form(self):
        inv, _, _ = torus_invariants(129)
        psi1, psi2 = cs.canonical_factors(inv)
        u = inv.geometry.u_axis[:, None]
        u0 = inv.geometry.u_axis[inv.base.i0]
        expected = (2.0 + np.cos(u)) / (2.0 + math.cos(u0)) * np.ones_like(psi2)
        assert np.max(np.abs(psi2 - expected)) < 5e-3
        assert np.max(np.abs(psi1 - 1.0)) < 1e-12  # nu1 constant

    def test_factors_positive_and_one_at_base(self):
        for inv in (catenoid_invariants(33)[0], torus_invariants(33)[0]):
            for f in (*cs.canonical_factors(inv), *cs.canonical_factors(inv.to_kh())):
                assert np.all(f > 0)
                assert f[inv.base.i0, inv.base.j0] == 1.0

    def test_metric_reproduction_property(self):
        # a Psi1^2 = E and b Psi2^2 = G to O(h^2) on canonical charts
        errs = []
        for n in (65, 129):
            inv, _, forms = catenoid_invariants(n)
            psi1, psi2 = cs.canonical_factors(inv)
            e_err = np.max(np.abs(inv.a * psi1**2 - forms.E.values))
            g_err = np.max(np.abs(inv.b * psi2**2 - forms.G.values))
            errs.append(max(e_err, g_err))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_each_route_integrates_only_its_own_factors(self, monkeypatch):
        calls = []
        path_exponent = grid.path_exponent
        monkeypatch.setattr(grid, "path_exponent",
                            lambda *args: calls.append(1) or path_exponent(*args))

        def count(fn, inv):
            calls.clear()
            fn(inv)
            return len(calls)

        inv = catenoid_invariants(33)[0]
        assert count(cs.gauss_residual_canonical, inv) == 2
        assert count(cs.gauss_residual_canonical, inv.to_kh()) == 2
        assert count(cs.compatibility_floor, inv) == 4
        assert count(cs.compatibility_floor, inv.to_kh()) == 4
        assert count(cs.reconstruct, inv) == 6


class TestGaussCanonical:
    def test_catenoid_convergence(self):
        errs = []
        for n in (65, 129, 257):
            inv, _, _ = catenoid_invariants(n)
            errs.append(cs.gauss_residual_canonical(inv).max_abs)
        for order in observed_orders(errs):
            assert order >= 1.9

    def test_torus_convergence(self):
        errs = []
        for n in (65, 129):
            inv, _, _ = torus_invariants(n)
            errs.append(cs.gauss_residual_canonical(inv).max_abs)
        assert errs[0] / errs[1] > 3.0

    def test_cone_convergence(self):
        errs = []
        for n in (65, 129):
            inv, _, _ = cone_invariants(n)
            errs.append(cs.gauss_residual_canonical(inv).max_abs)
        assert errs[0] / errs[1] > 3.0

    def test_cylinder_constants_exact(self):
        g = cs.Grid2(0, 0, 0.1, 0.1, np.full((17, 17), -1.0))
        inv = cs.InvariantGrid("nu", g, g.like(np.zeros((17, 17))), 1.0, 1.0,
                               cs.BaseIndex(8, 8))
        assert cs.gauss_residual_canonical(inv).max_abs < 1e-14

    def test_perturbation_leaves_floor(self):
        maxes = []
        for n in (65, 129):
            inv, _, _ = catenoid_invariants(n)
            geo = inv.geometry
            uu = geo.u_axis[:, None]
            vv = geo.v_axis[None, :]
            bad1 = geo.like(inv.field1.values + 0.1 * np.sin(3 * uu) * np.sin(3 * vv))
            bad = cs.InvariantGrid("nu", bad1, inv.field2, inv.a, inv.b, inv.base)
            maxes.append(cs.gauss_residual_canonical(bad).max_abs)
        assert maxes[0] / maxes[1] < 1.5  # stalls instead of converging

    def test_kh_grid_is_read_through_nu_arrays(self):
        # one residual for both modes: a kh grid is the nu grid of nu_arrays()
        # with the constants of nu_constants()
        kh = catenoid_invariants(17)[0].to_kh()
        like = kh.geometry.like
        nu1, nu2 = kh.nu_arrays()
        as_nu = cs.InvariantGrid("nu", like(nu1), like(nu2), *kh.nu_constants(), kh.base)
        assert (cs.gauss_residual_canonical(kh).to_dict()
                == cs.gauss_residual_canonical(as_nu).to_dict())

    def test_orientation_flip_invariance(self):
        inv, _, _ = catenoid_invariants(65)
        flipped = cs.InvariantGrid("nu", inv.geometry.like(-inv.field1.values),
                                   inv.geometry.like(-inv.field2.values),
                                   inv.a, inv.b, inv.base)
        a = cs.gauss_residual_canonical(inv).max_abs
        b = cs.gauss_residual_canonical(flipped).max_abs
        assert abs(a - b) <= 1e-12 * max(1.0, a)


def _gauss_residual_through_canonical_factors(inv):
    # the residual as it was formed before it reused its factors' rates: the
    # factors through canonical_factors, both rates formed a second time
    nu1, nu2 = inv.nu_arrays()
    a, b = inv.nu_constants()
    gap = nu1 - nu2
    geo = inv.geometry
    p1, p2 = cs.canonical_factors(inv)
    lhs = nu1 * nu2 * p1 * p2
    rhs = (cs.d_v(cs.d_v(nu1, geo) / gap * p1 / p2, geo) / b
           - cs.d_u(cs.d_u(nu2, geo) / gap * p2 / p1, geo) / a)
    return make_report("gauss-canonical", geo.like(lhs - rhs))


def _residual_pin_grids():
    yield "fabricated", fabricated_invariants(33, 5)
    for build in (torus_invariants, catenoid_invariants, cone_invariants):
        yield build.__name__, build(33)[0]
        yield build.__name__ + "-off-centre", build(33, base=cs.BaseIndex(5, 26))[0]


@pytest.mark.parametrize("name, inv", list(_residual_pin_grids()))
@pytest.mark.parametrize("mode", ["nu", "kh"])
@pytest.mark.parametrize("subsampled", [False, True])
def test_gauss_residual_canonical_is_bitwise_its_factor_route(name, inv, mode, subsampled):
    if mode == "kh":
        inv = inv.to_kh()
    if subsampled:  # the coarse grid of the floor test
        inv = compatibility._subsample(inv)
    got = cs.gauss_residual_canonical(inv)
    want = _gauss_residual_through_canonical_factors(inv)
    assert np.array_equal(got.residual.values, want.residual.values)
    assert (got.max_abs, got.rms) == (want.max_abs, want.rms)


class TestGaussCanonicalKH:
    def test_catenoid_convergence(self):
        errs = []
        for n in (65, 129, 257):
            inv, _, _ = catenoid_invariants(n)
            errs.append(cs.gauss_residual_canonical(inv.to_kh()).max_abs)
        for order in observed_orders(errs):
            assert order >= 1.9

    def test_constant_invariants_zero(self):
        g = cs.Grid2(0, 0, 0.05, 0.05, np.zeros((33, 33)))
        inv = cs.InvariantGrid("kh", g, g.like(np.full((33, 33), 0.5)), 0.5, 0.5,
                               cs.BaseIndex(16, 16))
        assert cs.gauss_residual_canonical(inv).max_abs < 1e-14

    def test_torus_convergence(self):
        errs = []
        for n in (65, 129):
            inv, _, _ = torus_invariants(n)
            errs.append(cs.gauss_residual_canonical(inv.to_kh()).max_abs)
        assert errs[0] / errs[1] > 3.0

    def test_equivalence_of_forms(self):
        for build in (catenoid_invariants, torus_invariants):
            errs_nu, errs_kh = [], []
            for n in (65, 129, 257):
                inv, _, _ = build(n)
                errs_nu.append(cs.gauss_residual_canonical(inv).max_abs)
                errs_kh.append(cs.gauss_residual_canonical(inv.to_kh()).max_abs)
            for a, b in zip(errs_nu, errs_kh):
                assert max(a / b, b / a) < 10.0
            assert all(o >= 1.9 for o in observed_orders(errs_nu))
            assert all(o >= 1.9 for o in observed_orders(errs_kh))


class TestFloor:
    def test_compatible_data_passes(self):
        inv, _, _ = catenoid_invariants(65)
        fc = cs.compatibility_floor(inv)
        assert fc.compatible
        assert fc.ratio > 3.0
        assert fc.fine.to_dict() == cs.gauss_residual_canonical(inv).to_dict()
        assert fc.fine.max_abs < fc.coarse_max_abs

    @pytest.mark.parametrize("n", [17, 65, 257])
    @pytest.mark.parametrize("name, params", [("cone", {"alpha": 0.6}), ("cylinder", {})])
    def test_exact_kh_data_is_compatible_as_in_nu_mode(self, name, params, n):
        # to_kh orients these charts (nu1 < nu2) by flipping the normal, so the
        # kh grid describes the same surface and reads the nu grid's residual
        inv = canonical_grid(name, (0.0, 2.0), (0.5, 2.5), n, None, "nu", **params)
        nu, kh = cs.compatibility_floor(inv), cs.compatibility_floor(inv.to_kh())
        assert nu.compatible and kh.compatible
        if name == "cylinder":
            assert nu.fine.max_abs == kh.fine.max_abs == 0.0
            assert nu.ratio == kh.ratio == math.inf
        else:
            for got, want in ((kh.fine.max_abs, nu.fine.max_abs), (kh.ratio, nu.ratio)):
                assert abs(got - want) <= 1e-8 * want, (got, want)

    def test_incompatible_data_fails(self):
        inv, _, _ = catenoid_invariants(65)
        geo = inv.geometry
        uu = geo.u_axis[:, None]
        vv = geo.v_axis[None, :]
        bad1 = geo.like(inv.field1.values * (1.0 + 0.05 * np.sin(3 * uu) * np.sin(2 * vv)))
        bad = cs.InvariantGrid("nu", bad1, inv.field2, inv.a, inv.b, inv.base)
        fc = cs.compatibility_floor(bad)
        assert not fc.compatible

    def test_exactly_zero_residual_is_compatible(self):
        g = cs.Grid2(0, 0, 0.1, 0.1, np.full((17, 17), 1.0))
        inv = cs.InvariantGrid("nu", g, g.like(np.zeros((17, 17))), 1.0, 1.0,
                               cs.BaseIndex(8, 8))
        assert cs.compatibility_floor(inv).compatible

    @pytest.mark.parametrize("shape", [(8, 8), (33, 8), (9, 9)])
    def test_runs_only_from_floor_min_nodes_a_side(self, shape):
        g = cs.Grid2(0, 0, 0.1, 0.1, np.full(shape, 1.0))
        inv = cs.InvariantGrid("nu", g, g.like(np.zeros(shape)), 1.0, 1.0,
                               cs.BaseIndex(shape[0] // 2, shape[1] // 2))
        fc = cs.compatibility_floor(inv)
        if min(shape) < compatibility.FLOOR_MIN_NODES:
            assert fc is None
        else:
            assert isinstance(fc, cs.FloorCheck) and fc.compatible

    def test_overflowing_residual_gives_no_verdict(self):
        # finite fields whose residual overflows: fine = coarse = inf, ratio nan
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RangeError, match="not finite"):
                cs.compatibility_floor(overflowing_invariants())


def test_report_serialization_schema():
    inv, _, _ = catenoid_invariants(33)
    rep = cs.gauss_residual_canonical(inv)
    d = rep.to_dict()
    assert set(d) == {"name", "max_abs", "rms", "margin", "grid_shape"}
    assert d["name"] == "gauss-canonical"
    assert d["margin"] == 2
    assert d["grid_shape"] == [33, 33]
    assert d["max_abs"] >= d["rms"] >= 0.0


def test_report_margin_is_the_one_every_side_kept():
    # a 4-node axis trims one layer a side, so row 1 is interior and counts
    values = np.zeros((4, 9))
    values[1] = 1.0
    d = make_report("short", cs.Grid2(0.0, 0.0, 0.1, 0.1, values)).to_dict()
    assert (d["max_abs"], d["margin"]) == (1.0, 1)
    five = make_report("long", cs.Grid2(0.0, 0.0, 0.1, 0.1, np.zeros((5, 9))))
    assert five.to_dict()["margin"] == 2
