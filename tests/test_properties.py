"""Property tests: curvature invariants under a u<->v swap, a homothety and a rigid
motion of the chart, the affine fit between canonical charts whose axes are listed in the other order,
reconstruction under a rigid motion of the initial frame, and the verdict and surface of
invariant grids under a transposition or a normal flip in nu and kh modes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonsurf as cs
from canonsurf.errors import CompatibilityWarning, UmbilicError

from helpers import canonical_grid, catenoid_invariants, cone_invariants, torus_invariants

N = 17
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def charts(draw):
    """Jets of a torus, catenoid or cone chart on an N x N grid inside its domain."""
    name = draw(st.sampled_from(["torus", "catenoid", "cone"]))
    if name == "torus":
        entry = cs.make_entry("torus", R=draw(st.floats(1.5, 3.0)), r=1.0)
        u0, v0 = draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(0.0, 2.0 * math.pi))
        du, dv = draw(st.floats(0.05, 0.4)), draw(st.floats(0.05, 0.4))
    elif name == "catenoid":
        entry = cs.make_entry("catenoid")
        u0, v0 = draw(st.floats(-1.5, 1.0)), draw(st.floats(0.0, 2.0 * math.pi))
        du, dv = draw(st.floats(0.01, 0.1)), draw(st.floats(0.01, 0.1))
    else:
        entry = cs.make_entry("cone", alpha=draw(st.floats(0.2, 1.3)))
        u0, v0 = draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(0.2, 2.0))
        du, dv = draw(st.floats(0.01, 0.2)), draw(st.floats(0.01, 0.2))
    return cs.sample_surface(entry, u0, du, N, v0, dv, N)


def _curvatures(jets):
    return cs.curvatures_grid(cs.fundamental_forms_grid(jets), principal_chart=True)


@PROPERTY_SETTINGS
@given(charts())
def test_swapping_u_and_v_transposes_and_negates_curvatures(jets):
    # y(s, t) = x(t, s): the normal flips, so H and the labeled curvatures
    # change sign and nu1, nu2 trade places; K keeps its sign
    t = lambda g: cs.Grid2(g.v0, g.u0, g.dv, g.du, np.swapaxes(g.values, 0, 1))
    swapped = cs.JetGrid(t(jets.x), t(jets.xv), t(jets.xu), t(jets.xvv), t(jets.xuv), t(jets.xuu))
    c, s = _curvatures(jets), _curvatures(swapped)
    assert np.array_equal(s.K.values, c.K.values.T)
    assert np.array_equal(s.H.values, -c.H.values.T)
    assert np.array_equal(s.nu1.values, -c.nu2.values.T)
    assert np.array_equal(s.nu2.values, -c.nu1.values.T)


@PROPERTY_SETTINGS
@given(charts(), st.floats(0.1, 10.0))
def test_homothety_scales_curvatures(jets, lam):
    scaled = cs.JetGrid(*(g.like(lam * g.values)
                          for g in (jets.x, jets.xu, jets.xv, jets.xuu, jets.xuv, jets.xvv)))
    c, s = _curvatures(jets), _curvatures(scaled)
    # one scale for every field: the catenoid's H and the cone's K vanish
    scale = max(np.max(np.abs(c.nu1.values)), np.max(np.abs(c.nu2.values)))
    tol = 1e-12 * scale
    assert np.max(np.abs(lam**2 * s.K.values - c.K.values)) <= tol * scale
    assert np.max(np.abs(lam * s.H.values - c.H.values)) <= tol
    assert np.max(np.abs(lam * s.nu1.values - c.nu1.values)) <= tol
    assert np.max(np.abs(lam * s.nu2.values - c.nu2.values)) <= tol


AFFINE_N = 33
# (u range, v range, parameters) of standard charts that are already canonical
AFFINE_CHARTS = {
    "torus": ((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi), {"R": 2.0, "r": 1.0}),
    "catenoid": ((-1.0, 1.0), (0.0, math.pi), {}),
    "cone": ((0.0, 2.0), (0.5, 2.5), {"alpha": 0.6}),
}


def _canonical_grid(name, base, mode):
    u_range, v_range, params = AFFINE_CHARTS[name]
    return canonical_grid(name, u_range, v_range, AFFINE_N, base, mode, **params)


@PROPERTY_SETTINGS
@given(st.sampled_from(sorted(AFFINE_CHARTS)), st.sampled_from(["nu", "kh"]),
       st.integers(AFFINE_N // 4, 3 * AFFINE_N // 4), st.integers(AFFINE_N // 4, 3 * AFFINE_N // 4))
def test_swapped_chart_reports_swapped(name, mode, i, j):
    # B is canonical about another base and lists its axes in the other order;
    # the direction-labeled curvatures and the constants a, b trade places with them
    centre = AFFINE_N // 2
    inv_a = _canonical_grid(name, cs.BaseIndex(centre, centre), mode)
    inv_b = _canonical_grid(name, cs.BaseIndex(i, j), mode)
    f1, f2 = inv_b.field1.values.T, inv_b.field2.values.T
    if mode == "nu":
        f1, f2 = f2, f1
    g = inv_b.geometry
    t = cs.Grid2(g.v0, g.u0, g.dv, g.du, f1)
    swapped = cs.InvariantGrid(mode, t, t.like(f2), inv_b.b, inv_b.a,
                               cs.BaseIndex(inv_b.base.j0, inv_b.base.i0))
    m = cs.check_affine_equivalence(inv_a, swapped)
    assert m.swapped
    assert m.misfit <= 1e-6, m.misfit
    assert abs(abs(m.lam) - 1.0) < 1e-3 and abs(abs(m.mu) - 1.0) < 1e-3, (m.lam, m.mu)


@st.composite
def rigid_motions(draw):
    """A proper rotation R, from a unit quaternion, and a translation t."""
    q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
                      .filter(lambda q: np.linalg.norm(q) > 0.1)))
    w, x, y, z = q / np.linalg.norm(q)
    R = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                  [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                  [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
    t = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)))
    return R, t


@PROPERTY_SETTINGS
@given(st.sampled_from(sorted(AFFINE_CHARTS)), st.sampled_from(["nu", "kh"]), rigid_motions())
def test_reconstruction_is_equivariant_under_the_initial_frame(name, mode, motion):
    # the frame (t; R e1, R e2, R n) moves the whole mesh by x -> R x + t
    R, t = motion
    inv = _canonical_grid(name, None, mode)
    mesh = cs.reconstruct(inv)
    moved = cs.reconstruct(inv, initial_frame=cs.FrameState(t, *R.T))
    pos = mesh.positions.values
    scale = max(np.max(np.abs(pos)), np.max(np.abs(t)))
    assert np.max(np.abs(moved.positions.values - (pos @ R.T + t))) <= 1e-12 * scale
    assert np.max(np.abs(moved.normals.values - mesh.normals.values @ R.T)) <= 1e-12


@PROPERTY_SETTINGS
@given(charts(), rigid_motions())
def test_rigid_motion_keeps_curvatures(jets, motion):
    # x -> R x + t moves every derivative by R, and a proper rotation carries
    # the normal along, so K and H keep their values and signs
    R, t = motion
    moved = cs.JetGrid(jets.x.like(jets.x.values @ R.T + t),
                       *(g.like(g.values @ R.T)
                         for g in (jets.xu, jets.xv, jets.xuu, jets.xuv, jets.xvv)))
    c, m = _curvatures(jets), _curvatures(moved)
    scale = max(np.max(np.abs(c.nu1.values)), np.max(np.abs(c.nu2.values)))
    tol = 1e-12 * scale
    assert np.max(np.abs(m.K.values - c.K.values)) <= tol * scale
    assert np.max(np.abs(m.H.values - c.H.values)) <= tol


def _transposed(inv):
    """The chart y(s, t) = x(t, s) of a nu grid: fields, constants and base trade axes."""
    g = inv.geometry
    t = lambda f: cs.Grid2(g.v0, g.u0, g.dv, g.du, f.values.T)
    return cs.InvariantGrid("nu", t(inv.field2), t(inv.field1), inv.b, inv.a,
                            cs.BaseIndex(inv.base.j0, inv.base.i0))


def _flipped(inv):
    """The same chart with the opposite normal: (nu1, nu2) -> (-nu1, -nu2)."""
    return cs.InvariantGrid("nu", inv.field1.like(-inv.field1.values),
                            inv.field2.like(-inv.field2.values), inv.a, inv.b, inv.base)


def _oriented_variants(build):
    """(label, nu grid, chart positions) of a 65^2 canonical chart, its transpose and its flip."""
    inv, jets, _ = build(65)
    x = jets.x.values
    return [("chart", inv, x), ("transposed", _transposed(inv), np.swapaxes(x, 0, 1)),
            ("flipped", _flipped(inv), x)]


def _mirror_rms(inv, x):
    """Align rms of inv's reconstruction against the positions x or their mirror image."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompatibilityWarning)
        mesh = cs.reconstruct(inv)
    return min(cs.align_rigid(mesh, cs.SurfaceMesh(inv.geometry.like(p)))[2]
               for p in (x, x * np.array([1.0, 1.0, -1.0])))


ORIENTATION_CHARTS = [catenoid_invariants, torus_invariants, cone_invariants]


@pytest.mark.parametrize("build", ORIENTATION_CHARTS)
def test_transposed_and_flipped_grids_keep_the_verdict_in_both_modes(build):
    # the transposed torus has nu1 < nu2: before to_kh oriented it, its kh
    # grid described no surface and read a floor ratio of 1.000
    want = cs.compatibility_floor(build(65)[0])
    assert want.compatible
    for label, inv, _ in _oriented_variants(build):
        for grid in (inv, inv.to_kh()):
            got = cs.compatibility_floor(grid)
            assert got.compatible == want.compatible, (label, grid.mode, got.ratio)
            assert abs(got.ratio - want.ratio) <= 1e-6 * want.ratio, (label, grid.mode)


@pytest.mark.parametrize("build", ORIENTATION_CHARTS)
def test_transposed_and_flipped_grids_reconstruct_the_same_surface(build):
    # up to rigid motion and mirror; the march order differs with the axes, so
    # each variant's kh mesh is held to that variant's nu-mode rms
    for label, inv, x in _oriented_variants(build):
        nu_rms = _mirror_rms(inv, x)
        kh_rms = _mirror_rms(inv.to_kh(), x)
        assert nu_rms < 0.02, (label, nu_rms)
        assert kh_rms <= nu_rms * (1.0 + 1e-6), (label, kh_rms, nu_rms)


def test_to_kh_refuses_labels_that_cross():
    # nu1 - nu2 = 2 sin u changes sign between nodes, though no node is umbilic
    u = np.linspace(-1.0, 1.0, 16)
    g = cs.Grid2.from_axes(u, np.linspace(0.0, 1.0, 16), (2.0 + np.sin(u))[:, None] * np.ones(16))
    inv = cs.InvariantGrid("nu", g, g.like(4.0 - g.values), 1.0, 1.0, cs.BaseIndex(8, 8))
    with pytest.raises(UmbilicError, match="changes sign"):
        inv.to_kh()
