"""Seeded inputs, the operations of each workload and the checks on their outputs.

Every workload is a closed loop: one client in one process sends the next
operation only after the previous one returns. `build` makes a workload's
inputs from a seed and returns one round of jobs; the runner repeats the
round until its time is up. A job's function returns the seconds spent in
canonsurf (checks run outside that interval) and the accuracy figures it
observed, and raises when the output is wrong.

Jobs marked primary carry the work the workload is meant to stress. The side
jobs measure the end-to-end metrics the workload would otherwise not report;
accuracy metrics come from primary jobs whenever a primary job observes them.
mesh-513 stresses the frame march (reconstruction); canon-verdict bypasses it
in its primary jobs (catalog, invariants, canonical, compatibility) and runs
the cold CLI sequence at 257^2 (import and text I/O) as side jobs.

The seed draws the initial frame of every reconstruction, the fabricated
incompatible fields, the revolution profile and the second base index of
every affine pair (for the cone, on the centre row or a row below it; see
the note above `affine_pair`). Each round repeats the same operations on the
same inputs. Accuracy metrics come from catalog charts only: the seeded
revolution chart's Gauss residual is checked through its verdict but not
recorded, and the affine misfits of catalog pairs do not depend on the base.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable

import numpy as np

import canonsurf as cs
from canonsurf import formats
from canonsurf.errors import CompatibilityWarning

# bound before any tracer is installed: the checks' own calls stay out of the spans
_check_make_entry, _check_sample_surface = cs.make_entry, cs.sample_surface

PI = math.pi
# (u range, v range, parameters); each of these standard charts is already canonical
CHARTS = {
    "catenoid": ((-1.0, 1.0), (0.0, PI), {}),
    "torus": ((0.0, 2.0 * PI), (0.0, 2.0 * PI), {"R": 2.0, "r": 1.0}),
    "cone": ((0.0, 2.0), (0.5, 2.5), {"alpha": 0.6}),
}
REVOLUTION_RANGES = ((-1.0, 1.0), (0.0, PI))
# Special class checked in the verdict. minimal_natural_residual(nu, a, b)
# holds only where a * nu = 1 at the base, as for the unit catenoid; the
# seeded revolution surface is a catenoid of another neck radius, where it
# stalls at 0.08-0.22, so its class is not checked.
SPECIAL_CLASS = {"catenoid": "minimal", "cone": "flat"}

# Tolerances, in units of h^2 for h the larger grid spacing: catalog data sits
# at 0.1-3.3 h^2 on every check, so a factor of a few flags a real error.
MESH_RMS_H2 = 5.0
DIAGNOSTIC_H2 = 10.0
CANON_H2 = 5.0
SPECIAL_H2 = 1.0
# The 65^2 catenoid pair fits to 9.5e-3 whatever the base; the stalled cone
# fits (see the note above affine_pair) sit at 0.019-0.22. The bound passes
# the first and records it in affine_misfit.
AFFINE_MISFIT_TOL = 2e-2

# A catenoid fit costs 0.5-0.9 s at 65^2 depending on the seeded base; the
# median over five pairs varies far less from seed to seed than one pair.
AFFINE_CATENOID_PAIRS = 5

SIZES = {
    False: {"big": 513, "levels": (65, 129, 257), "small": 65, "cli": 257, "tor": 129},
    True: {"big": 65, "levels": (65,), "small": 65, "cli": 65, "tor": 65},
}


class CheckFailed(Exception):
    """An operation returned output that fails its check."""


def _check(cond, msg):
    if not cond:
        raise CheckFailed(msg)


@dataclass(frozen=True)
class Job:
    kind: str
    label: str
    fn: Callable
    primary: bool


# inputs ---------------------------------------------------------------------

def _h2(geo) -> float:
    return max(geo.du, geo.dv) ** 2


def _sample(entry, ranges, n):
    (u0, u1), (v0, v1) = ranges
    return cs.sample_surface(entry, u0, (u1 - u0) / (n - 1), n, v0, (v1 - v0) / (n - 1), n)


def _entry(name):
    return cs.make_entry(name, **CHARTS[name][2])


def to_kh(inv):
    """KH-mode copy of a nu-mode grid, with the sqrt(H^2 - K) weighted constants."""
    n1, n2 = inv.field1.values, inv.field2.values
    s0 = 0.5 * abs(float((n1 - n2)[inv.base.i0, inv.base.j0]))
    geo = inv.geometry
    return cs.InvariantGrid("kh", geo.like(n1 * n2), geo.like(0.5 * (n1 + n2)),
                            inv.a * s0, inv.b * s0, inv.base)


def chart_invariants(name, n, mode):
    """Invariant grid of a canonical catalog chart at its centre base, and the chart's nodes."""
    jets = _sample(_entry(name), CHARTS[name][:2], n)
    forms = cs.fundamental_forms_grid(jets)
    curv = cs.curvatures_grid(forms, principal_chart=True)
    base = cs.BaseIndex(n // 2, n // 2)
    inv = cs.InvariantGrid("nu", curv.nu1, curv.nu2, float(forms.E.values[base.i0, base.j0]),
                           float(forms.G.values[base.i0, base.j0]), base)
    return (to_kh(inv) if mode == "kh" else inv), jets.x.values


def initial_frame(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return cs.FrameState(rng.uniform(-1.0, 1.0, 3), q[0], q[1], q[2])


def fabricated(rng, n):
    """Smooth, umbilic-free (nu1 < 0 < nu2) fields that satisfy no Gauss equation."""
    eps = rng.uniform(0.03, 0.08)
    k1, k2 = (int(k) for k in rng.integers(2, 4, size=2))
    p1, p2 = rng.uniform(0.0, 2.0 * PI, size=2)
    u = np.linspace(-1.0, 1.0, n)
    v = np.linspace(0.0, PI, n)
    sech2 = (1.0 / np.cosh(u) ** 2)[:, None] * np.ones((1, n))
    nu1 = -sech2 * (1.0 + eps * np.sin(k1 * u + p1)[:, None] * np.sin(k2 * v + p2)[None, :])
    g = cs.Grid2.from_axes(u, v, nu1)
    return cs.InvariantGrid("nu", g, g.like(sech2), 1.0, 1.0, cs.BaseIndex(n // 2, n // 2))


def revolution_entry(rng):
    """Catenoid profile of seeded neck radius, sampled densely enough for the floor test."""
    scale = rng.uniform(0.9, 1.15)
    t = np.linspace(-1.2, 1.2, 513)
    return cs.make_revolution_entry(t, scale * np.cosh(t / scale), t)


def canonicalize(entry, ranges, n, base):
    jets = _sample(entry, ranges, n)
    forms = cs.fundamental_forms_grid(jets)
    curv = cs.curvatures_grid(forms, principal_chart=True)
    _, umb = cs.detect_umbilics(curv)
    maps = cs.build_canonical_maps(forms.E, forms.G, curv.nu1, curv.nu2, base)
    return forms, maps, cs.resample_to_canonical(maps, curv.nu1, curv.nu2), umb


# Known defect of check_affine_equivalence: it starts the slopes at
# sqrt(a_A / a_B) and its inverse, but the cone's canonical charts about any
# two bases differ by slopes of exactly 1. For a base on a row above the
# centre row (farther from the apex) the v-slope starts above 1 and the fit
# stalls there: misfit 0.02-0.22 at 65^2, on every such row. On the centre
# row and every row below it the fit succeeds (misfit <= 1e-10) in 1.2-24 s,
# which is the cone's cost the benchmark measures. Until the slope start is
# fixed, cone bases are drawn from those rows only (j <= n // 2).
def affine_pair(name, n, rng):
    """(A, B): A canonical about the centre node, B about a seeded other node.

    B's base lies in the middle half of the grid; for the cone, on a row j <= n // 2.
    """
    entry, ranges = _entry(name), CHARTS[name][:2]
    centre = n // 2
    while True:
        i = int(rng.integers(n // 4, 3 * n // 4 + 1))
        j = int(rng.integers(n // 4, (centre if name == "cone" else 3 * n // 4) + 1))
        if (i, j) != (centre, centre):
            break
    inv_a = canonicalize(entry, ranges, n, cs.BaseIndex(centre, centre))[2]
    return (i, j), (inv_a, canonicalize(entry, ranges, n, cs.BaseIndex(i, j))[2])


# operations -----------------------------------------------------------------

def _rms(positions, truth, mirror):
    rms = cs.align_rigid(cs.SurfaceMesh(cs.Grid2(0.0, 0.0, 1.0, 1.0, positions)),
                         cs.SurfaceMesh(cs.Grid2(0.0, 0.0, 1.0, 1.0, truth)))[2]
    if mirror:
        # the magnitude convention of KH data may relabel the directions,
        # which reconstructs the mirror image
        rms = min(rms, _rms(positions, truth * np.array([1.0, 1.0, -1.0]), False))
    return rms


def op_mesh(inv, truth, mirror, init, ctx):
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompatibilityWarning)
        t0 = time.perf_counter()
        mesh = cs.reconstruct(inv, initial_frame=init)
        dt = time.perf_counter() - t0
    rms = _rms(mesh.positions.values, truth, mirror)
    _check(rms <= MESH_RMS_H2 * _h2(inv.geometry), f"align rms {rms:.3e}")
    nu, nv = inv.geometry.nu, inv.geometry.nv
    # RK4 steps of single frames: the base row, then every column
    return dt, {"align_rms": rms, "frame_steps": (nu - 1) + (nv - 1) * nu}


def op_diagnose(coeffs, base, init, ctx):
    t0 = time.perf_counter()
    gap = cs.path_consistency_diagnostic(*coeffs, init, base)
    dt = time.perf_counter() - t0
    _check(math.isfinite(gap) and gap <= DIAGNOSTIC_H2 * _h2(coeffs[0]), f"path gap {gap:.3e}")
    return dt, {}


def op_canon(entry, ranges, n, key, ctx):
    t0 = time.perf_counter()
    forms, maps, inv, umb = canonicalize(entry, ranges, n, cs.BaseIndex(n // 2, n // 2))
    rep_e, rep_g = cs.verify_canonical(inv, cs.resample_grid(maps, forms.E, inv),
                                       cs.resample_grid(maps, forms.G, inv))
    dt = time.perf_counter() - t0
    err = max(rep_e.max_abs, rep_g.max_abs)
    _check(not umb.any, f"{umb.count} umbilic nodes")
    _check(min(inv.geometry.nu, inv.geometry.nv) >= n - 1, "canonical grid lost resolution")
    _check(err <= CANON_H2 * _h2(forms.geometry), f"canonical identity residual {err:.3e}")
    ctx.store[key] = inv
    return dt, {}


def op_verdict(source, compatible, special_class, record, ctx):
    inv = ctx.store[source] if isinstance(source, str) else source
    t0 = time.perf_counter()
    gauss = (cs.gauss_residual_canonical if inv.mode == "nu"
             else cs.gauss_residual_canonical_kh)(inv)
    floor = cs.compatibility_floor(inv)
    K, H = inv.kh_arrays()
    n1, n2 = inv.nu_arrays()
    geo = inv.geometry
    # each special-class residual is evaluated where its equation is defined
    special = {"minimal": cs.minimal_natural_residual(geo.like(0.5 * np.abs(n1 - n2)), inv.a, inv.b)}
    h0 = float(np.mean(H))
    if np.all(h0 * h0 - K > 1e-9 * max(1.0, h0 * h0, float(np.max(np.abs(K))))):
        special["cmc"] = cs.cmc_residual(geo.like(K), h0, inv.a, inv.b)
    if np.all(H > 0) or np.all(H < 0):
        special["flat"] = cs.flat_characterization(geo.like(H)).report
    dt = time.perf_counter() - t0
    _check(floor.compatible == compatible, f"floor ratio {floor.ratio:.3f}")
    _check(all(math.isfinite(r.max_abs) for r in (gauss, *special.values())), "non-finite residual")
    if special_class:
        res = special[special_class].max_abs
        _check(res <= SPECIAL_H2 * _h2(geo), f"{special_class} residual {res:.3e}")
    return dt, ({"gauss_max_abs": gauss.max_abs} if compatible and record else {})


def op_affine(inv_a, inv_b, ctx):
    t0 = time.perf_counter()
    match = cs.check_affine_equivalence(inv_a, inv_b)
    dt = time.perf_counter() - t0
    _check(not match.swapped and match.misfit <= AFFINE_MISFIT_TOL, f"affine misfit {match.misfit:.3e}")
    return dt, {"affine_misfit": match.misfit}


def _remove(*paths):
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def cli_range(lo, hi, n):
    return f"{lo!r}:{hi!r}:{n}"


def op_cli_canonicalize(name, mode, n, path, ctx):
    (u0, u1), (v0, v1), params = CHARTS[name]
    argv = ["canonicalize", "--surface", name, "--u", cli_range(u0, u1, n),
            "--v", cli_range(v0, v1, n), "--mode", mode, "--output", path]
    for key, value in params.items():
        argv += ["--param", f"{key}={value!r}"]
    _remove(path)
    dt, code, _ = ctx.run_cli(argv)
    _check(code == 0, f"exit code {code}")
    _check(os.path.getsize(path) > 0, "no grid written")
    return dt, {}


def op_cli_check(path, compatible, ctx):
    dt, code, out = ctx.run_cli(["check", "--input", path])
    _check(code == (0 if compatible else 4), f"exit code {code}")
    report = json.loads(out)
    _check(report["floor_check"]["compatible"] == compatible, "wrong verdict")
    return dt, ({"gauss_max_abs": report["residuals"][0]["max_abs"]} if compatible else {})


def read_obj(path):
    """Vertex array and face count of an OBJ file, parsed independently of canonsurf."""
    verts, faces = [], 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append(line[2:])
            elif line.startswith("f "):
                faces += 1
    return np.loadtxt(verts, ndmin=2), faces


def op_cli_reconstruct(name, n, grid_path, obj_path, report_path, ctx):
    _remove(obj_path, report_path)
    dt, code, _ = ctx.run_cli(["reconstruct", "--input", grid_path, "--output", obj_path,
                               "--report", report_path])
    _check(code == 0, f"exit code {code}")
    with open(grid_path, "r", encoding="utf-8") as fh:
        grid = json.load(fh)
    nu, nv = grid["nu"]
    verts, faces = read_obj(obj_path)
    _check(verts.shape == (nu * nv, 3) and faces == 2 * (nu - 1) * (nv - 1),
           f"OBJ holds {verts.shape[0]} vertices and {faces} faces")
    # the chart is canonical, so canonical node k sits at chart parameter
    # (canonical coordinate + base parameter of the chart)
    (u0, u1), (v0, v1), params = CHARTS[name]
    base_u = u0 + (u1 - u0) / (n - 1) * (n // 2)
    base_v = v0 + (v1 - v0) / (n - 1) * (n // 2)
    (ou, ov), (du, dv) = grid["origin"], grid["spacing"]
    truth = _check_sample_surface(_check_make_entry(name, **params), ou + base_u, du, nu,
                                  ov + base_v, dv, nv).x.values
    positions = verts.reshape(nv, nu, 3).swapaxes(0, 1)
    rms = _rms(positions, truth, grid["mode"] == "kh")
    _check(rms <= MESH_RMS_H2 * max(du, dv) ** 2, f"align rms {rms:.3e}")
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    _check(math.isfinite(report["max_abs_error_E"]), "non-finite report")
    return dt, {"align_rms": rms}


# workloads ------------------------------------------------------------------

def _spread(main, side):
    """Main jobs with the side jobs spread evenly among them, each list keeping its order."""
    slots = [round((k + 1) * len(main) / (len(side) + 1)) for k in range(len(side))]
    out, rest = [], list(side)
    for k, job in enumerate(main):
        while rest and slots[len(side) - len(rest)] <= k:
            out.append(rest.pop(0))
        out.append(job)
    return out + rest


def _mesh_jobs(n, rng, primary):
    """Reconstruction and path diagnostic of the catenoid (nu), torus (nu) and catenoid (kh)."""
    init = initial_frame(rng)
    jobs, invs = [], []
    for name, mode in (("catenoid", "nu"), ("torus", "nu"), ("catenoid", "kh")):
        inv, truth = chart_invariants(name, n, mode)
        coeffs = cs.coefficients_from_invariants(inv)
        label = f"{name}-{mode}-{n}"
        jobs.append(Job("mesh", label, partial(op_mesh, inv, truth, mode == "kh", init), primary))
        jobs.append(Job("diagnose", label, partial(op_diagnose, coeffs, inv.base, init), primary))
        invs.append((name, label, inv))
    return jobs, invs


def _cli_jobs(workdir, name, mode, n, primary):
    """canonicalize -> check -> reconstruct --report, one cold process each."""
    stem = os.path.join(workdir, f"{name}-{mode}-{n}")
    grid, label = stem + ".json", f"{name}-{mode}-{n}"
    return [Job("cli_canonicalize", label, partial(op_cli_canonicalize, name, mode, n, grid), primary),
            Job("cli_check", label, partial(op_cli_check, grid, True), primary),
            Job("cli_reconstruct", label, partial(op_cli_reconstruct, name, n, grid, stem + ".obj",
                                                  stem + "-report.json"), primary)]


def _canon_pair(entry, ranges, name, n, primary):
    key = f"canon-{name}-{n}"
    verdict = partial(op_verdict, key, True, SPECIAL_CLASS.get(name), name in CHARTS)
    return [Job("canon", key, partial(op_canon, entry, ranges, n, key), primary),
            Job("verdict", key, verdict, primary)]


def _fab_verdict(rng, n, primary):
    return Job("verdict", f"fabricated-{n}", partial(op_verdict, fabricated(rng, n), False, None, False),
               primary)


def _affine_job(name, n, rng, primary):
    (i, j), pair = affine_pair(name, n, rng)
    return Job("affine", f"{name}-{n}-base-{i}-{j}", partial(op_affine, *pair), primary)


# Side jobs repeat within a round, so that each of their metrics has several
# samples per run.

def mesh_513(rng, size, workdir):
    n, small = size["big"], size["small"]
    mesh, invs = _mesh_jobs(n, rng, True)
    main = []
    for k, (name, label, inv) in enumerate(invs):
        main += mesh[2 * k:2 * k + 2]
        main.append(Job("verdict", label, partial(op_verdict, inv, True, SPECIAL_CLASS.get(name), True),
                        True))
        main += _canon_pair(_entry("catenoid"), CHARTS["catenoid"][:2], "catenoid", n, True)
    main.append(_fab_verdict(rng, n, True))
    cli = _cli_jobs(workdir, "catenoid", "nu", small, False)
    affine = [_affine_job("catenoid", small, rng, False) for _ in range(AFFINE_CATENOID_PAIRS)]
    return _spread(main, [*cli, *affine[:3], *cli, *affine[3:]])


def canon_verdict(rng, size, workdir):
    """Canonicalization, verdicts and affine fits, with the cold CLI sequence as side jobs.

    The CLI runs canonicalize -> check -> reconstruct --report on the
    catenoid (nu) and the torus (kh) at 257^2, plus a check of a fabricated
    incompatible grid file, one cold process each: import and text I/O
    dominate those calls.
    """
    small, n_cli = size["small"], size["cli"]
    charts = {name: (_entry(name), CHARTS[name][:2]) for name in ("catenoid", "torus", "cone")}
    charts["revolution"] = (revolution_entry(rng), REVOLUTION_RANGES)
    main = []
    for n in size["levels"]:
        for name, (entry, ranges) in charts.items():
            main += _canon_pair(entry, ranges, name, n, True)
        main.append(_fab_verdict(rng, n, True))
    # The cone pair is the slowest fit and stays in every round; its seeded
    # base lies on the centre row or below it. Catenoid pairs are the
    # majority, so that the median falls inside one cluster of costs rather
    # than in the gap between two.
    cat = [_affine_job("catenoid", small, rng, True) for _ in range(AFFINE_CATENOID_PAIRS)]
    tor, cone = _affine_job("torus", size["tor"], rng, True), _affine_job("cone", small, rng, True)
    fab_path = os.path.join(workdir, f"fabricated-{n_cli}.json")
    formats.write_invariant_grid(fabricated(rng, n_cli), fab_path)
    cli_cat = _cli_jobs(workdir, "catenoid", "nu", n_cli, False)
    cli_tor = _cli_jobs(workdir, "torus", "kh", n_cli, False)
    cli_fab = Job("cli_check", f"fabricated-{n_cli}", partial(op_cli_check, fab_path, False), False)
    slow = [cat[0], cli_cat[0], tor, cli_cat[1], cat[1], cli_cat[2], cat[2], cone, cli_tor[0], cat[3],
            cli_tor[1], cat[4], cli_tor[2], cli_fab]
    mesh = _mesh_jobs(small, rng, False)[0]
    # the fast jobs go between the slow ones, so that their samples cover the whole round
    return _spread(slow, _spread(main, mesh + mesh))


WORKLOADS = {"mesh-513": mesh_513, "canon-verdict": canon_verdict}


def _warm_up():
    """Run every in-process operation once at 33^2, untimed.

    The first call into scipy's fitting and spline code costs up to twice a
    later one; a batch process pays that once, so set-up pays it here.
    """
    rng = np.random.default_rng(0)
    jobs = _mesh_jobs(33, rng, False)[0]
    jobs += _canon_pair(_entry("catenoid"), CHARTS["catenoid"][:2], "catenoid", 33, False)
    jobs += [_fab_verdict(rng, 33, False), _affine_job("catenoid", 33, rng, False)]
    warm = SimpleNamespace(store={})
    for job in jobs:
        try:
            job.fn(warm)
        except CheckFailed:
            pass


def build(workload, seed, smoke, workdir):
    """Make the workload's inputs from the seed; return one round of jobs."""
    jobs = WORKLOADS[workload](np.random.default_rng(seed), SIZES[smoke], workdir)
    _warm_up()
    return jobs
