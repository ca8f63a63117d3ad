import math

import numpy as np
import pytest

import canonsurf as cs
from canonsurf import canonical
from canonsurf.errors import CodazziViolation, MonotonicityError, UmbilicError
from canonsurf.errors import DimensionError, DiscriminantError, RangeError

from helpers import canonical_grid, catenoid_invariants, reparametrised_profile, torus_invariants


def _chart_pipeline(name, u_range, v_range, nu, nv, base=None, **params):
    entry = cs.make_entry(name, **params)
    u0, u1 = u_range
    v0, v1 = v_range
    jets = cs.sample_surface(entry, u0, (u1 - u0) / (nu - 1), nu,
                             v0, (v1 - v0) / (nv - 1), nv)
    forms = cs.fundamental_forms_grid(jets)
    curv = cs.curvatures_grid(forms, principal_chart=True)
    if base is None:
        base = cs.BaseIndex(nu // 2, nv // 2)
    maps = cs.build_canonical_maps(forms.E, forms.G, curv.nu1, curv.nu2, base)
    return jets, forms, curv, base, maps


def _canonical_pair(name, u_range, v_range, n, base_b, mode, **params):
    """Canonical grids of one n x n chart: A about the centre node, B about base_b."""
    return tuple(canonical_grid(name, u_range, v_range, n, base, mode, **params)
                 for base in (None, cs.BaseIndex(*base_b)))


def _identity_error(maps):
    eu = np.max(np.abs(maps.ubar_samples - (maps.u_samples - maps.u_samples[maps.base.i0])))
    ev = np.max(np.abs(maps.vbar_samples - (maps.v_samples - maps.v_samples[maps.base.j0])))
    return max(eu, ev)


class TestBuildMaps:
    def test_catenoid_identity(self):
        *_, maps = _chart_pipeline("catenoid", (-1, 1), (0, math.pi), 257, 257)
        assert _identity_error(maps) < 1e-8

    def test_torus_identity(self):
        *_, maps = _chart_pipeline("torus", (0, 2 * math.pi), (0, 2 * math.pi),
                                   257, 257, R=2.0, r=1.0)
        assert _identity_error(maps) < 1e-6

    def test_cylinder_identity_exact(self):
        *_, maps = _chart_pipeline("cylinder", (0, 2), (0, 2), 33, 33, r=1.0)
        assert _identity_error(maps) < 1e-14

    def test_integrand_variation_shrinks_second_order(self):
        # the ubar integrand must be v-independent on compatible data
        torus_vars = []
        for n in (33, 65):
            *_, maps = _chart_pipeline("torus", (0.5, 2.0), (0.0, 2.0), n, n, R=2.0, r=1.0)
            torus_vars.append(maps.vbar_integrand_variation)
        assert torus_vars[1] < torus_vars[0]
        assert torus_vars[0] / torus_vars[1] > 3.0

    def test_codazzi_violation_detected(self, monkeypatch):
        _, forms, curv, base, _ = _chart_pipeline("catenoid", (-1, 1), (0, math.pi), 65, 65)
        geo = curv.nu1
        uu = geo.u_axis[:, None]
        vv = geo.v_axis[None, :]
        bad_nu1 = geo.like(curv.nu1.values + 0.25 * np.sin(3 * uu) * np.sin(3 * vv))
        variations = []
        for n_tol in (math.inf,):
            monkeypatch.setattr(canonical, "CODAZZI_TOL", n_tol)
            maps = cs.build_canonical_maps(forms.E, forms.G, bad_nu1, curv.nu2, base)
            variations.append(maps.ubar_integrand_variation)
        assert variations[0] > 0.05  # refinement-independent violation
        monkeypatch.setattr(canonical, "CODAZZI_TOL", 0.01)
        with pytest.raises(CodazziViolation):
            cs.build_canonical_maps(forms.E, forms.G, bad_nu1, curv.nu2, base)

    def test_nonpositive_integrand_rejected(self):
        _, forms, curv, base, _ = _chart_pipeline("catenoid", (-1, 1), (0, math.pi), 17, 17)
        broken = forms.E.values.copy()
        broken[3, :] = 0.0
        with pytest.raises(MonotonicityError):
            cs.build_canonical_maps(forms.E.like(broken), forms.G, curv.nu1, curv.nu2, base)

    def test_umbilic_input_rejected(self):
        _, forms, curv, base, _ = _chart_pipeline("catenoid", (-1, 1), (0, math.pi), 17, 17)
        with pytest.raises(UmbilicError):
            cs.build_canonical_maps(forms.E, forms.G, curv.nu1, curv.nu1, base)


class TestResample:
    def test_identity_maps_passthrough(self):
        _, forms, curv, base, maps = _chart_pipeline("cylinder", (0, 2), (0, 2), 33, 33,
                                                     r=1.0)
        inv = cs.resample_to_canonical(maps, curv.nu1, curv.nu2)
        assert inv.geometry.nu == 33 and inv.geometry.nv == 33
        assert np.max(np.abs(inv.field1.values - curv.nu1.values)) < 1e-10
        assert np.max(np.abs(inv.field2.values - curv.nu2.values)) < 1e-10

    def test_affine_maps_preserve_field_values(self):
        n = 65
        u = np.linspace(0.0, 1.0, n)
        v = np.linspace(0.0, 2.0, n)
        field = np.sin(u)[:, None] * np.cos(v)[None, :]
        g = cs.Grid2.from_axes(u, v, field)
        maps = cs.CanonicalMaps(u, 2 * u + 1 - (2 * u[n // 2] + 1), v, v - v[n // 2],
                                1.0, 1.0, cs.BaseIndex(n // 2, n // 2), 0.0, 0.0)
        inv = cs.resample_to_canonical(maps, g, g.like(field - 2.0))
        ubar = inv.geometry.u_axis
        vbar = inv.geometry.v_axis
        u_back = (ubar + (2 * u[n // 2] + 1) - 1) / 2.0
        v_back = vbar + v[n // 2]
        expected = np.sin(u_back)[:, None] * np.cos(v_back)[None, :]
        assert np.max(np.abs(inv.field1.values - expected)) < 1e-5

    def test_base_lands_on_node(self):
        _, forms, curv, base, maps = _chart_pipeline("catenoid", (-1, 1), (0, math.pi),
                                                     65, 65, base=cs.BaseIndex(20, 10))
        inv = cs.resample_to_canonical(maps, curv.nu1, curv.nu2)
        geo = inv.geometry
        assert abs(geo.u_axis[inv.base.i0]) < 1e-12  # ubar0 = 0
        assert abs(geo.v_axis[inv.base.j0]) < 1e-12


    def test_maps_of_another_grid_rejected(self):
        *_, maps = _chart_pipeline("cylinder", (0, 2), (0, 2), 17, 17, r=1.0)
        _, _, curv, _, _ = _chart_pipeline("cylinder", (0, 2), (0, 2), 21, 17, r=1.0)
        with pytest.raises(DimensionError):
            cs.resample_to_canonical(maps, curv.nu1, curv.nu2)

    def test_companion_grids_on_a_canonical_chart(self):
        # the catenoid chart is canonical about any base: its maps are the
        # shifts u - u_base, v - v_base up to their fourth-order error, so E
        # and G resampled onto the canonical grid are the chart's own cosh^2 u
        errs = []
        for n in (33, 65):
            base = cs.BaseIndex(10 * (n - 1) // 32, 20 * (n - 1) // 32)
            _, forms, curv, base, maps = _chart_pipeline("catenoid", (-1, 1), (0, math.pi),
                                                         n, n, base=base)
            inv = cs.resample_to_canonical(maps, curv.nu1, curv.nu2)
            u = inv.geometry.u_axis[:, None] + forms.geometry.u_axis[base.i0]
            for chart in (forms.E, forms.G):
                got = cs.resample_grid(maps, chart, inv)
                errs.append(np.max(np.abs(got.values - np.cosh(u) ** 2)))
        assert max(errs[:2]) < 1e-5 and min(errs[:2]) / max(errs[2:]) > 12.0, errs


@pytest.mark.parametrize("base_frac", [None, (0.3, 0.6)], ids=["centre", "off-centre"])
@pytest.mark.parametrize("kind, n", [("catenoid", n) for n in (33, 65, 129, 257)]
                         + [("torus", n) for n in (65, 129, 257)])
def test_reparametrised_charts_pass_the_floor_test(kind, n, base_frac):
    # charts that are not canonical: the resampled fields must keep the
    # canonical Gauss residual at its second-order truncation, which a field
    # interpolant of lower order (PCHIP) turns into a stall
    entry = cs.make_revolution_entry(*reparametrised_profile(kind))
    jets = cs.sample_surface(entry, -0.9, 1.8 / (n - 1), n, 0.0, 3.0 / (n - 1), n)
    forms = cs.fundamental_forms_grid(jets)
    curv = cs.curvatures_grid(forms, principal_chart=True)
    base = (cs.BaseIndex(n // 2, n // 2) if base_frac is None
            else cs.BaseIndex(round(base_frac[0] * (n - 1)), round(base_frac[1] * (n - 1))))
    maps = cs.build_canonical_maps(forms.E, forms.G, curv.nu1, curv.nu2, base)
    inv = cs.resample_to_canonical(maps, curv.nu1, curv.nu2)
    floor = cs.compatibility_floor(inv)
    assert floor.compatible, floor.ratio
    if kind == "catenoid":
        assert floor.ratio >= 3.5, floor.ratio
    # the same grid in kh mode: oriented by to_kh, it reads the nu ratio (the
    # catenoid's unoriented kh grid read 1.475 at 257^2)
    kh = cs.compatibility_floor(inv.to_kh())
    assert kh.compatible == floor.compatible
    assert abs(kh.ratio - floor.ratio) <= 1e-6 * floor.ratio, (kh.ratio, floor.ratio)


class TestVerifyCanonical:
    def test_catenoid_standard_chart(self):
        errs = []
        for n in (65, 129):
            _, forms, curv, base, maps = _chart_pipeline("catenoid", (-1, 1), (0, math.pi), n, n)
            inv = cs.InvariantGrid("nu", curv.nu1, curv.nu2, maps.a, maps.b, base)
            assert abs(maps.a - 1.0) < 1e-12 and abs(maps.b - 1.0) < 1e-12
            r1, r2 = cs.verify_canonical(inv, forms.E, forms.G)
            errs.append(max(r1.max_abs, r2.max_abs))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_torus_standard_chart_constants(self):
        n = 65
        base = cs.BaseIndex(n // 4, n // 2)
        _, forms, curv, base, maps = _chart_pipeline("torus", (0, 2 * math.pi),
                                                     (0, 2 * math.pi), n, n,
                                                     base=base, R=2.0, r=1.0)
        u0 = forms.geometry.u_axis[base.i0]
        assert abs(maps.a - 1.0) < 1e-12  # r^2
        assert abs(maps.b - (2.0 + math.cos(u0)) ** 2) < 1e-12
        inv = cs.InvariantGrid("nu", curv.nu1, curv.nu2, maps.a, maps.b, base)
        r1, r2 = cs.verify_canonical(inv, forms.E, forms.G)
        assert max(r1.max_abs, r2.max_abs) < 5e-3
        assert r1.name == "canonical-E" and r2.name == "canonical-G"

    def test_cylinder_exact(self):
        _, forms, curv, base, maps = _chart_pipeline("cylinder", (0, 2), (0, 2), 17, 17, r=1.0)
        inv = cs.InvariantGrid("nu", curv.nu1, curv.nu2, maps.a, maps.b, base)
        r1, r2 = cs.verify_canonical(inv, forms.E, forms.G)
        assert max(r1.max_abs, r2.max_abs) < 1e-12


def test_idempotence_of_canonicalization():
    # canonicalizing the (already canonical) catenoid chart: identity maps and
    # nu fields preserved through the resampling
    _, forms, curv, base, maps = _chart_pipeline("catenoid", (-1, 1), (0, math.pi), 257, 257)
    assert _identity_error(maps) < 1e-8
    inv = cs.resample_to_canonical(maps, curv.nu1, curv.nu2)
    assert np.max(np.abs(inv.field1.values - curv.nu1.values)) < 1e-7
    assert np.max(np.abs(inv.field2.values - curv.nu2.values)) < 1e-7


class TestAffineEquivalence:
    def test_self_match_is_identity(self):
        inv, _, _ = catenoid_invariants(65)
        m = cs.check_affine_equivalence(inv, inv)
        # the exact minimum coincides with the initial guess, so the fit
        # returns it unchanged
        assert not m.swapped
        assert abs(m.lam - 1.0) < 1e-9
        assert abs(m.mu - 1.0) < 1e-9
        assert abs(m.c1) < 1e-9 and abs(m.c2) < 1e-9
        assert m.misfit < 1e-12

    def test_catenoid_two_base_points(self):
        # chart A canonicalized about (0, 0), chart B about (0.3, 1.0)
        _, _, curv_a, base_a, maps_a = _chart_pipeline(
            "catenoid", (-1, 1), (0, 3), 201, 151, base=cs.BaseIndex(100, 0))
        inv_a = cs.resample_to_canonical(maps_a, curv_a.nu1, curv_a.nu2)
        _, _, curv_b, base_b, maps_b = _chart_pipeline(
            "catenoid", (-1, 1), (0, 3), 201, 151, base=cs.BaseIndex(130, 50))
        inv_b = cs.resample_to_canonical(maps_b, curv_b.nu1, curv_b.nu2)
        assert abs(maps_b.a - math.cosh(0.3) ** 2) < 1e-10

        m = cs.check_affine_equivalence(inv_a, inv_b)
        assert not m.swapped
        assert m.misfit < 1e-6
        # the u-direction is pinned by the fields up to the mirror symmetry of
        # sech^2 about B's base; both signs of lam give c1 = -0.3
        assert abs(abs(m.lam) - 1.0) < 1e-4
        assert abs(m.c1 - (-0.3)) < 1e-4
        # normalization: (ubar - ubar0) sqrt(E_B(base)) = (u - u0) sqrt(E_A(base))
        # at the shared base point, i.e. |lam| = sqrt(E_A / a_B) with both
        # metrics evaluated at B's base point
        e_a_at_b_base = math.cosh(0.3) ** 2
        assert abs(abs(m.lam) - math.sqrt(e_a_at_b_base / maps_b.a)) < 1e-4

    def test_torus_axis_relabeling_sets_swap_flag(self):
        n = 65
        _, _, curv, base, maps = _chart_pipeline("torus", (0, 2 * math.pi),
                                                 (0, 2 * math.pi), n, n, R=2.0, r=1.0)
        inv = cs.resample_to_canonical(maps, curv.nu1, curv.nu2)
        geo = inv.geometry
        swapped_geo = cs.Grid2(geo.v0, geo.u0, geo.dv, geo.du, inv.field2.values.T)
        inv_sw = cs.InvariantGrid("nu", swapped_geo,
                                  swapped_geo.like(inv.field1.values.T),
                                  inv.b, inv.a, cs.BaseIndex(inv.base.j0, inv.base.i0))
        m = cs.check_affine_equivalence(inv, inv_sw)
        assert m.swapped
        assert m.misfit < 1e-6
        assert abs(abs(m.mu) - 1.0) < 1e-3

    @pytest.mark.parametrize("mode", ["nu", "kh"])
    @pytest.mark.parametrize("base_b", [(40, 40), (40, 24)])
    def test_cone_bases_off_the_centre_row(self, base_b, mode):
        # the v-slope of a base above the centre row used to start above 1 and
        # stall; in kh mode to_kh flips the cone's normal (nu1 < nu2)
        inv_a, inv_b = _canonical_pair("cone", (0, 2), (0.5, 2.5), 65, base_b, mode, alpha=0.6)
        m = cs.check_affine_equivalence(inv_a, inv_b)
        assert not m.swapped
        assert m.misfit <= 1e-12, m.misfit
        assert abs(abs(m.lam) - 1.0) < 1e-5 and abs(abs(m.mu) - 1.0) < 1e-5, (m.lam, m.mu)

    @pytest.mark.parametrize("mode", ["nu", "kh"])
    def test_catenoid_misfit_converges(self, mode):
        # base at 30% / 60% of the axes: the misfit is truncation error, not a
        # stall, so it falls at second order or better
        misfits = []
        for n in (33, 65, 129):
            base_b = (round(0.3 * (n - 1)), round(0.6 * (n - 1)))
            inv_a, inv_b = _canonical_pair("catenoid", (-1, 1), (0, math.pi), n, base_b, mode)
            m = cs.check_affine_equivalence(inv_a, inv_b)
            assert not m.swapped
            assert abs(abs(m.lam) - 1.0) < 1e-4 and abs(abs(m.mu) - 1.0) < 1e-4
            # the fields do not see v: the positive slope wins the tie, and the
            # v-offset stays the seed's (q_v = 0, the node nearest B's base)
            assert m.mu > 0 and abs(m.c2) < 1e-6, (m.mu, m.c2)
            misfits.append(m.misfit)
        assert all(ratio >= 2**1.8 for ratio in np.divide(misfits[:-1], misfits[1:])), misfits
        assert misfits[1] <= 1e-11, misfits

    def test_one_levenberg_marquardt_start(self, monkeypatch):
        from canonsurf import canonical
        calls = []
        fit = canonical.least_squares
        monkeypatch.setattr(canonical, "least_squares",
                            lambda *args, **kw: calls.append(1) or fit(*args, **kw))
        inv_a, inv_b = _canonical_pair("cone", (0, 2), (0.5, 2.5), 33, (20, 20), "kh", alpha=0.6)
        cs.check_affine_equivalence(inv_a, inv_b)
        assert len(calls) == 1

    def test_mixed_modes_rejected(self):
        inv, _, _ = torus_invariants(33)
        with pytest.raises(DimensionError):
            cs.check_affine_equivalence(inv, inv.to_kh())

    def test_no_overlap_rejected(self):
        # constants 1e12 times larger stretch both slopes by 1e6, and the seed
        # (the base node, 64) is not one of the samples (every 3rd node): every
        # choice sends all of A's samples outside B's domain
        inv, _, _ = catenoid_invariants(129)
        big = cs.InvariantGrid("nu", inv.field1, inv.field2, 1e12 * inv.a, 1e12 * inv.b, inv.base)
        with pytest.raises(RangeError):
            cs.check_affine_equivalence(big, inv)


def test_invariant_grid_validation():
    g = cs.Grid2(0, 0, 0.1, 0.1, np.full((9, 9), 0.5))
    with pytest.raises(UmbilicError):
        cs.InvariantGrid("nu", g, g, 1.0, 1.0, cs.BaseIndex(4, 4))
    with pytest.raises(DiscriminantError):
        cs.InvariantGrid("kh", g, g.like(np.zeros((9, 9))), 1.0, 1.0, cs.BaseIndex(4, 4))
    with pytest.raises(Exception):
        cs.InvariantGrid("nu", g, g.like(np.zeros((9, 9))), -1.0, 1.0, cs.BaseIndex(4, 4))


def test_to_kh_names_the_discriminant_floor_a_small_gap_misses():
    # a gap of 5e-7 clears the umbilic test, but H^2 - K = (5e-7 / 2)^2 = 6.25e-14
    # lies below the kh floor 1e-12 * max(1, H^2, |K|) = 1e-12
    g = cs.Grid2(0, 0, 0.1, 0.1, np.ones((17, 17)))
    inv = cs.InvariantGrid("nu", g, g.like(np.full((17, 17), 1.0 - 5e-7)), 1.0, 1.0,
                           cs.BaseIndex(8, 8))
    # the kh constants need only the base node's gap
    assert inv.kh_constants() == pytest.approx((2.5e-7, 2.5e-7), rel=1e-9)
    with pytest.raises(DiscriminantError) as err:
        inv.to_kh()
    msg = str(err.value)
    disc = float(msg.split("H^2 - K = ")[1].split()[0])
    assert abs(disc - 6.25e-14) <= 4 * np.finfo(float).eps  # cancellation, about eps H^2
    assert "not above 1.000e-12 = 1e-12 * max(1, H^2, |K|), the floor" in msg
    assert "cancellation error of about eps * H^2" in msg


def test_invariant_grid_rejects_unknown_mode():
    # fields a kh-mode grid accepts, so only the mode check can refuse them
    g = cs.Grid2(0, 0, 0.1, 0.1, np.zeros((9, 9)))
    with pytest.raises(DimensionError, match="mode"):
        cs.InvariantGrid("xy", g, g.like(np.ones((9, 9))), 1.0, 1.0, cs.BaseIndex(4, 4))


@pytest.mark.parametrize("mode", ["nu", "kh"])
@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_invariant_grid_rejects_non_finite_fields(mode, which, bad):
    # one bad node used to slip through: the floor test then read ratio=inf,
    # compatible=True and reconstruct failed inside scipy
    g = cs.Grid2(0, 0, 0.1, 0.1, np.zeros((9, 9)))
    fields = [np.ones((9, 9)), np.zeros((9, 9))]  # nu: (1, 0); kh: K = 0, H = 1
    if mode == "kh":
        fields.reverse()
    fields[which][3, 5] = bad
    with pytest.raises(RangeError, match=f"field{which + 1} has non-finite"):
        cs.InvariantGrid(mode, g.like(fields[0]), g.like(fields[1]), 1.0, 1.0,
                         cs.BaseIndex(4, 4))


@pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
def test_invariant_grid_rejects_non_finite_constants(a, b):
    g = cs.Grid2(0, 0, 0.1, 0.1, np.ones((9, 9)))
    with pytest.raises(DimensionError, match="finite"):
        cs.InvariantGrid("nu", g, g.like(np.zeros((9, 9))), a, b, cs.BaseIndex(4, 4))


def test_to_kh_weights_constants_at_base():
    inv, _, _ = catenoid_invariants(17)
    inv = cs.InvariantGrid("nu", inv.field1, inv.field2, inv.a, inv.b, cs.BaseIndex(3, 11))
    kh = inv.to_kh()
    n1, n2 = inv.field1.values, inv.field2.values
    s0 = 0.5 * abs(n1[3, 11] - n2[3, 11])
    assert kh.mode == "kh" and kh.base == inv.base
    assert np.array_equal(kh.field1.values, n1 * n2)
    # nu1 < nu2 on this catenoid: to_kh flips the normal, so the larger
    # curvature -nu1 lies along u
    assert np.all(n1 < n2)
    assert np.array_equal(kh.field2.values, -(0.5 * (n1 + n2)))
    assert (kh.a, kh.b) == (inv.a * s0, inv.b * s0) == inv.kh_constants()
    assert kh.kh_constants() == (kh.a, kh.b)
    assert kh.to_kh() is kh
