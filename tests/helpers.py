"""Shared fixtures-by-hand for the test suite: chart sampling and convergence runs."""

import math
import os
import subprocess
import sys

import numpy as np

import canonsurf as cs

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "canonsurf", *args],
                          capture_output=True, text=True, env=env)


def sample_chart(name, u_range, v_range, n, base=None, **params):
    """(jets, forms, curv, base) for a catalog chart on an n x n grid."""
    entry = cs.make_entry(name, **params)
    u0, u1 = u_range
    v0, v1 = v_range
    jets = cs.sample_surface(entry, u0, (u1 - u0) / (n - 1), n, v0, (v1 - v0) / (n - 1), n)
    forms = cs.fundamental_forms_grid(jets)
    curv = cs.curvatures_grid(forms, principal_chart=entry.principal)
    if base is None:
        base = cs.BaseIndex(n // 2, n // 2)
    return jets, forms, curv, base


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


def catenoid_invariants(n, u_range=(-1.0, 1.0), v_range=(0.0, math.pi)):
    """Canonical-grid invariant data for the catenoid (its standard chart is canonical)."""
    jets, forms, curv, base = sample_chart("catenoid", u_range, v_range, n)
    a = float(forms.E.values[base.i0, base.j0])
    b = float(forms.G.values[base.i0, base.j0])
    return cs.InvariantGrid("nu", curv.nu1, curv.nu2, a, b, base), jets, forms


def torus_invariants(n, R=2.0, r=1.0, u_range=(0.0, 2.0 * math.pi), v_range=(0.0, 2.0 * math.pi)):
    jets, forms, curv, base = sample_chart("torus", u_range, v_range, n, R=R, r=r)
    a = float(forms.E.values[base.i0, base.j0])
    b = float(forms.G.values[base.i0, base.j0])
    return cs.InvariantGrid("nu", curv.nu1, curv.nu2, a, b, base), jets, forms


def cone_invariants(n, alpha=0.6, u_range=(0.0, 2.0), v_range=(0.5, 2.5)):
    """The natural cone chart is canonical; nu2 = 0 along the rulings."""
    jets, forms, curv, base = sample_chart("cone", u_range, v_range, n, alpha=alpha)
    a = float(forms.E.values[base.i0, base.j0])
    b = float(forms.G.values[base.i0, base.j0])
    return cs.InvariantGrid("nu", curv.nu1, curv.nu2, a, b, base), jets, forms
