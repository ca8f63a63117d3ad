"""Shared fixtures-by-hand for the test suite: chart sampling and convergence runs."""

import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

import canonsurf as cs

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "canonsurf", *args],
                          capture_output=True, text=True, env=env)


def chart_at(entry, u, v):
    """Jets of a chart on the 3 x 3 grid of spacing 0.1 whose node (0, 0) is (u, v)."""
    return cs.sample_surface(entry, u, 0.1, 3, v, 0.1, 3)


def at_origin(grids):
    """The value at node (0, 0) of each grid of a JetGrid, FormGrid or CurvatureGrid."""
    return SimpleNamespace(**{name: g.values[0, 0] for name, g in vars(grids).items()})


def sample_chart(name, u_range, v_range, n, base=None, **params):
    """(jets, forms, curv, base) on an n x n grid of a catalog chart, named or
    given as its CatalogEntry."""
    entry = name if isinstance(name, cs.CatalogEntry) else cs.make_entry(name, **params)
    u0, u1 = u_range
    v0, v1 = v_range
    jets = cs.sample_surface(entry, u0, (u1 - u0) / (n - 1), n, v0, (v1 - v0) / (n - 1), n)
    forms = cs.fundamental_forms_grid(jets)
    curv = cs.curvatures_grid(forms, principal_chart=entry.principal)
    if base is None:
        base = cs.BaseIndex(n // 2, n // 2)
    return jets, forms, curv, base


def canonical_grid(name, u_range, v_range, n, base, mode, **params):
    """Invariant grid (mode "nu" or "kh") of a catalog chart resampled to canonical
    parameters about base (the centre node when None)."""
    _, forms, curv, base = sample_chart(name, u_range, v_range, n, base, **params)
    maps = cs.build_canonical_maps(forms.E, forms.G, curv.nu1, curv.nu2, base)
    inv = cs.resample_to_canonical(maps, curv.nu1, curv.nu2)
    return inv.to_kh() if mode == "kh" else inv


def reparametrised_profile(kind, samples=8193):
    """(t, rho, z) of the catenoid (rho = cosh s, z = s) or torus (rho = 2 + cos s,
    z = sin s) meridian in the parameter t of s = t + 0.3 t^3, t uniform on
    [-1, 1]: charts of surfaces of revolution that are not canonical."""
    t = np.linspace(-1.0, 1.0, samples)
    s = t + 0.3 * t**3
    if kind == "catenoid":
        return t, np.cosh(s), s
    return t, 2.0 + np.cos(s), np.sin(s)


def five_point_slopes(y):
    """Node slopes, times the step, of samples y at uniform nodes along axis 0
    by the textbook five-point weights: central (1, -8, 0, 8, -1) / 12 inside,
    (-25, 48, -36, 16, -3) / 12 and (-3, -10, 18, -6, 1) / 12 at the first two
    nodes and their mirror images at the last two; below five nodes the
    second-order slopes of np.gradient."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 5:
        return np.gradient(y, axis=0, edge_order=2)
    D = np.zeros((n, n))
    for i in range(2, n - 2):
        D[i, i - 2:i + 3] = (1.0, -8.0, 0.0, 8.0, -1.0)
    D[0, :5] = (-25.0, 48.0, -36.0, 16.0, -3.0)
    D[1, :5] = (-3.0, -10.0, 18.0, -6.0, 1.0)
    D[-1, -5:] = -D[0, 4::-1]
    D[-2, -5:] = -D[1, 4::-1]
    return np.tensordot(D / 12.0, y, axes=1)


def refine_sizes(n0, levels):
    return [2**k * (n0 - 1) + 1 for k in range(levels)]


def observed_orders(errors):
    return [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]


def grid_from_fn(fn, u_range, v_range, n, m=None):
    """Scalar Grid2 sampling fn(u, v) on an n x m grid."""
    m = m or n
    u = np.linspace(u_range[0], u_range[1], n)
    v = np.linspace(v_range[0], v_range[1], m)
    return cs.Grid2.from_axes(u, v, fn(u[:, None], v[None, :]) * np.ones((n, m)))


def random_rotation(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def catenoid_invariants(n, u_range=(-1.0, 1.0), v_range=(0.0, math.pi), base=None):
    """Canonical-grid invariant data for the catenoid (its standard chart is canonical),
    about base (the centre node when None)."""
    jets, forms, curv, base = sample_chart("catenoid", u_range, v_range, n, base)
    a = float(forms.E.values[base.i0, base.j0])
    b = float(forms.G.values[base.i0, base.j0])
    return cs.InvariantGrid("nu", curv.nu1, curv.nu2, a, b, base), jets, forms


def torus_invariants(n, R=2.0, r=1.0, u_range=(0.0, 2.0 * math.pi), v_range=(0.0, 2.0 * math.pi),
                     base=None):
    jets, forms, curv, base = sample_chart("torus", u_range, v_range, n, base, R=R, r=r)
    a = float(forms.E.values[base.i0, base.j0])
    b = float(forms.G.values[base.i0, base.j0])
    return cs.InvariantGrid("nu", curv.nu1, curv.nu2, a, b, base), jets, forms


def cone_invariants(n, alpha=0.6, u_range=(0.0, 2.0), v_range=(0.5, 2.5), base=None):
    """The natural cone chart is canonical; nu2 = 0 along the rulings."""
    jets, forms, curv, base = sample_chart("cone", u_range, v_range, n, base, alpha=alpha)
    a = float(forms.E.values[base.i0, base.j0])
    b = float(forms.G.values[base.i0, base.j0])
    return cs.InvariantGrid("nu", curv.nu1, curv.nu2, a, b, base), jets, forms


def fabricated_invariants(n, seed):
    """Smooth, umbilic-free nu-mode fields (nu1 < 0 < nu2) that satisfy no Gauss equation."""
    rng = np.random.default_rng(seed)
    eps = rng.uniform(0.03, 0.08)
    k1, k2 = (int(k) for k in rng.integers(2, 4, size=2))
    p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    u = np.linspace(-1.0, 1.0, n)
    v = np.linspace(0.0, math.pi, n)
    sech2 = (1.0 / np.cosh(u) ** 2)[:, None] * np.ones((1, n))
    nu1 = -sech2 * (1.0 + eps * np.sin(k1 * u + p1)[:, None] * np.sin(k2 * v + p2)[None, :])
    g = cs.Grid2.from_axes(u, v, nu1)
    return cs.InvariantGrid("nu", g, g.like(sech2), 1.0, 1.0, cs.BaseIndex(n // 2, n // 2))


def overflowing_invariants(n=33, scale=1e160):
    """Finite nu-mode fields +-scale whose canonical Gauss residual overflows to inf."""
    g = cs.Grid2(0.0, 0.0, 0.1, 0.1, np.full((n, n), scale))
    return cs.InvariantGrid("nu", g, g.like(np.full((n, n), -scale)), 1.0, 1.0,
                            cs.BaseIndex(n // 2, n // 2))


def constant_invariants(nu1, nu2, n, du, dv, a=1.0, b=1.0):
    """nu-mode grid of constant curvatures on an n x n grid about its centre."""
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
