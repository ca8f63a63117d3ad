import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import canonsurf as cs
from canonsurf import cli, compatibility, formats

from helpers import (SRC_DIR, canonical_grid, fabricated_invariants, overflowing_invariants,
                     reparametrised_profile, run_cli)


def test_analyze_torus_identity(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("analyze", "--surface", "torus", "--param", "R=2", "--param", "r=1",
                  "--u", "0:6.2832:65", "--v", "0:6.2832:65", "--output", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["identity_max_K_minus_nu1nu2"] < 1e-12
    assert report["identity_max_2H_minus_nu_sum"] < 1e-12
    assert report["principal"] is True
    assert report["umbilic"]["count"] == 0
    names = sorted(r["name"] for r in report["residuals"])
    assert names == ["codazzi-general-1", "codazzi-general-2", "codazzi-principal-1",
                     "codazzi-principal-2", "gauss-general"]


def test_analyze_infinite_radius_exits_3(capsys):
    # refused by make_entry before any NaN jet is sampled
    assert cli.main(["analyze", "--surface", "sphere", "--param", "R=inf",
                     "--u", "-1:1:9", "--v", "0:2:9"]) == 3
    assert capsys.readouterr().err == "canonsurf: error: 'sphere' needs finite parameters, got {'R': inf}\n"


def test_analyze_sphere_exits_2(tmp_path):
    res = run_cli("analyze", "--surface", "sphere", "--param", "R=1",
                  "--u", "-1:1:33", "--v", "0:2:33",
                  "--output", str(tmp_path / "sphere.json"))
    assert res.returncode == 2
    report = json.loads((tmp_path / "sphere.json").read_text())
    assert report["umbilic"]["count"] == 33 * 33


@pytest.mark.parametrize("surface, params, u, v", [
    ("torus", {"R": 2.0, "r": 1.0}, (0.0, 6.2832), (0.0, 6.2832)),
    ("cone", {"alpha": 0.6}, (0.0, 2.0), (0.5, 2.5)),  # nu1 < nu2: the normal flips
])
def test_analyze_save_invariants_kh_uses_to_kh_constants(tmp_path, surface, params, u, v):
    path = tmp_path / f"{surface}_kh.json"
    res = run_cli("analyze", "--surface", surface,
                  *(arg for k, x in params.items() for arg in ("--param", f"{k}={x}")),
                  "--u", f"{u[0]}:{u[1]}:17", "--v", f"{v[0]}:{v[1]}:17", "--base-index", "5,11",
                  "--save-invariants", str(path), "--mode", "kh",
                  "--output", str(tmp_path / "report.json"))
    assert res.returncode == 0, res.stderr
    saved = formats.read_invariant_grid(str(path))
    entry = cs.make_entry(surface, **params)
    jets = cs.sample_surface(entry, u[0], (u[1] - u[0]) / 16, 17, v[0], (v[1] - v[0]) / 16, 17)
    forms = cs.fundamental_forms_grid(jets)
    curv = cs.curvatures_grid(forms, principal_chart=True)
    base = cs.BaseIndex(5, 11)
    inv = cs.InvariantGrid("nu", curv.nu1, curv.nu2, float(forms.E.values[5, 11]),
                           float(forms.G.values[5, 11]), base)
    kh = inv.to_kh()
    assert saved.mode == "kh" and saved.base == base
    assert (saved.a, saved.b) == (kh.a, kh.b)
    # the file is to_kh of the chart's nu grid, H with its sign; exactly equal,
    # though the cone's K = nu1 * 0 of -0.0 reads back as 0.0
    assert inv.normal_sign() == (1.0 if surface == "torus" else -1.0)
    for got, want in ((saved.field1, kh.field1), (saved.field2, kh.field2)):
        assert np.array_equal(got.values, want.values)


def test_analyze_catenoid_minimal(tmp_path):
    out = tmp_path / "cat.json"
    res = run_cli("analyze", "--surface", "catenoid",
                  "--u", "-1:1:65", "--v", "0:3.1416:65", "--output", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["H_max_abs"] < 1e-12


def test_unknown_surface_exits_64():
    res = run_cli("analyze", "--surface", "klein", "--u", "0:1:9", "--v", "0:1:9")
    assert res.returncode == 64


def test_bad_flag_exits_64():
    res = run_cli("analyze", "--surface", "torus", "--frobnicate")
    assert res.returncode == 64


def test_bad_range_exits_3():
    res = run_cli("analyze", "--surface", "torus", "--u", "0:1:2", "--v", "0:1:9")
    assert res.returncode == 3


def test_negative_refine_exits_3():
    res = run_cli("roundtrip", "--surface", "catenoid", "--u", "-1:1:17",
                  "--v", "0:3:17", "--refine", "-1")
    assert res.returncode == 3


def test_check_constant_invariants(tmp_path):
    n = 33
    g = cs.Grid2(0.0, 0.0, math.pi / (n - 1), 2.0 / (n - 1), np.full((n, n), 1.0))
    inv = cs.InvariantGrid("nu", g, g.like(np.zeros((n, n))), 1.0, 1.0,
                           cs.BaseIndex(n // 2, n // 2))
    path = tmp_path / "flat_cylinder.json"
    formats.write_invariant_grid(inv, str(path))
    out = tmp_path / "check.json"
    res = run_cli("check", "--input", str(path), "--output", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert all(r["max_abs"] < 1e-10 for r in report["residuals"])


def test_check_incompatible_exits_4(tmp_path):
    n = 65
    u = np.linspace(-1, 1, n)
    v = np.linspace(0, math.pi, n)
    nu1 = (-1.0 / np.cosh(u) ** 2)[:, None] * np.ones((n, n))
    nu1 = nu1 + 0.1 * np.sin(3 * u)[:, None] * np.sin(2 * v)[None, :]
    nu2 = (1.0 / np.cosh(u) ** 2)[:, None] * np.ones((n, n))
    g = cs.Grid2.from_axes(u, v, nu1)
    inv = cs.InvariantGrid("nu", g, g.like(nu2), 1.0, 1.0, cs.BaseIndex(n // 2, n // 2))
    path = tmp_path / "bad.json"
    formats.write_invariant_grid(inv, str(path))
    res = run_cli("check", "--input", str(path))
    assert res.returncode == 4


@pytest.mark.parametrize("n", [17, 65, 257])
def test_check_accepts_exact_kh_grids(tmp_path, n):
    # to_kh flips the normal of these charts (nu1 < nu2): the cone then reads
    # its nu-mode ratio and the cylinder an exactly zero residual
    for name, params in (("cone", {"alpha": 0.6}), ("cylinder", {})):
        path = tmp_path / f"{name}.json"
        formats.write_invariant_grid(
            canonical_grid(name, (0.0, 2.0), (0.5, 2.5), n, None, "kh", **params), str(path))
        assert cli.main(["check", "--input", str(path), "--output", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("mode", ["nu", "kh"])
def test_check_fabricated_grids_exit_4(tmp_path, mode):
    for n in (33, 65, 257):
        inv = fabricated_invariants(n, seed=n)
        path = tmp_path / f"fab{n}.json"
        formats.write_invariant_grid(inv.to_kh() if mode == "kh" else inv, str(path))
        assert cli.main(["check", "--input", str(path), "--output", str(tmp_path / "r.json")]) == 4


@pytest.mark.parametrize("n", [8, 9])
def test_check_floor_test_minimum_grid(tmp_path, n):
    g = cs.Grid2(0.0, 0.0, 0.1, 0.1, np.full((n, n), 1.0))
    inv = cs.InvariantGrid("nu", g, g.like(np.zeros((n, n))), 1.0, 1.0,
                           cs.BaseIndex(n // 2, n // 2))
    path = tmp_path / "grid.json"
    formats.write_invariant_grid(inv, str(path))
    res = run_cli("check", "--input", str(path))
    assert res.returncode == 0, res.stderr
    floor = json.loads(res.stdout)["floor_check"]
    assert (floor is not None) == (n >= 9)


def test_check_non_finite_field_exits_3_from_reader(tmp_path):
    n = 9
    field1 = [1.0] * (n * n)
    field1[40] = float("nan")
    payload = {
        "format": "invariant-grid/1", "mode": "nu", "nu": [n, n],
        "origin": [0.0, 0.0], "spacing": [0.1, 0.1], "base_index": [4, 4],
        "a": 1.0, "b": 1.0, "field1": field1, "field2": [0.0] * (n * n),
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(payload))
    res = run_cli("check", "--input", str(path))
    assert res.returncode == 3
    assert "field1 has non-finite values" in res.stderr


NESTED_FIELD_GRID = json.dumps({
    "format": "invariant-grid/1", "mode": "nu", "nu": [9, 9], "origin": [0.0, 0.0],
    "spacing": [0.1, 0.1], "base_index": [4, 4], "a": 1.0, "b": 1.0,
    "field1": [[1.0]] * 81, "field2": [0.0] * 81})


# loaded as a 9 x 9 grid while header values were passed through int()
COERCED_HEADER_GRID = json.dumps({
    "format": "invariant-grid/1", "mode": "nu", "nu": [9.9, "9"], "origin": [0.0, 0.0],
    "spacing": [0.1, 0.1], "base_index": [4, 4], "a": 1.0, "b": 1.0,
    "field1": [1.0] * 81, "field2": [0.0] * 81})


@pytest.mark.parametrize("text", ["[1, 2]", '{"format": "invariant-grid/1", ',
                                  pytest.param(NESTED_FIELD_GRID, id="nested-field"),
                                  pytest.param(COERCED_HEADER_GRID, id="coerced-header")])
def test_check_malformed_grid_file_exits_3(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    res = run_cli("check", "--input", str(path))
    assert res.returncode == 3
    assert res.stderr.startswith("canonsurf: error: malformed invariant-grid file")


def test_check_runs_without_scipy(tmp_path):
    # pytest's own process has scipy loaded, so only a fresh interpreter, in
    # which importing scipy raises ImportError, shows that the package runs on
    # numpy alone: the CLI commands (canonicalize, check and reconstruct in
    # both modes, a revolution profile, the Weingarten residual, a round trip)
    # and the affine fit of a nu pair and of a swapped kh pair
    t = np.linspace(-1.0, 1.0, 81)
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"t": list(t), "rho": list(np.cosh(t)), "z": list(t)}))
    n = 17
    u = np.linspace(-1.0, 1.0, n)
    t = np.linspace(0.3, 1.1, 101)
    weingarten = tmp_path / "wg.json"
    weingarten.write_text(json.dumps({
        "format": "weingarten/1", "t": list(t), "f": list(t), "g": list(-t), "A": 1.0, "B": 1.0,
        "nu": [n, n], "origin": [-1.0, 0.0], "spacing": [u[1] - u[0], math.pi / (n - 1)],
        "base_index": [n // 2, n // 2],
        "field": list(np.tile(1.0 / np.cosh(u) ** 2, n))}))
    script = """
import contextlib, importlib.abc, io, math, os, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
import canonsurf as cs
from canonsurf import cli
from helpers import canonical_grid

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

run_dir, profile, weingarten = sys.argv[1:4]
for surface, ranges, mode in (
        (["--surface", "catenoid"], ["--u", "-1:1:33", "--v", "0:3.141592653589793:21",
                                     "--base-index", "9,14"], "nu"),
        (["--surface", "torus", "--param", "R=2", "--param", "r=1"],
         ["--u", "0:6.283185307179586:33", "--v", "0:6.283185307179586:33"], "kh")):
    stem = os.path.join(run_dir, mode)
    run("canonicalize", *surface, *ranges, "--mode", mode, "--output", stem + ".json")
    run("check", "--input", stem + ".json")
    run("reconstruct", "--input", stem + ".json", "--output", stem + ".obj",
        "--report", stem + "-report.json")
run("analyze", "--surface", "revolution", "--profile", profile, "--u", "-0.9:0.9:33",
    "--v", "0:3:33")
run("special", "--case", "weingarten", "--input", weingarten)
run("roundtrip", "--surface", "catenoid", "--u", "-1:1:17", "--v", "0:3:17", "--refine", "1")

def transposed(inv):
    g = inv.geometry
    t = lambda f: cs.Grid2(g.v0, g.u0, g.dv, g.du, f.values.T)
    return cs.InvariantGrid("nu", t(inv.field2), t(inv.field1), inv.b, inv.a,
                            cs.BaseIndex(inv.base.j0, inv.base.i0))

ranges = ((0.0, 2.0), (0.5, 2.5))
inv_a = canonical_grid("cone", *ranges, 33, None, "nu", alpha=0.6)
inv_b = canonical_grid("cone", *ranges, 33, cs.BaseIndex(20, 12), "nu", alpha=0.6)
for pair, swapped in (((inv_a, inv_b), False), ((inv_a.to_kh(), transposed(inv_b).to_kh()), True)):
    m = cs.check_affine_equivalence(*pair)
    assert m.swapped == swapped and m.misfit <= 1e-6, (pair[0].mode, m)
assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC_DIR, os.path.dirname(__file__)]))
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path), str(profile),
                          str(weingarten)], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    for mode in ("nu", "kh"):
        assert formats.read_invariant_grid(str(tmp_path / f"{mode}.json")).mode == mode
        assert (tmp_path / f"{mode}.obj").stat().st_size > 0


def test_check_overflowing_residual_exits_3(tmp_path):
    # 8 nodes a side skips the floor test, 33 runs it: both reject the residual
    for n in (8, 33):
        path = tmp_path / f"huge{n}.json"
        formats.write_invariant_grid(overflowing_invariants(n), str(path))
        res = run_cli("check", "--input", str(path))
        assert res.returncode == 3
        # no numpy RuntimeWarning lines ahead of the error
        assert res.stderr.splitlines() == ["canonsurf: error: gauss-canonical residual is "
                                           "not finite (interior max abs inf, rms inf)"]


@pytest.mark.parametrize("name, u, v, mode", [
    ("catenoid", (-1.0, 1.0), (0.0, math.pi), "nu"),
    ("torus", (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi), "kh"),
])
def test_check_evaluates_one_residual_per_grid(tmp_path, monkeypatch, name, u, v, mode):
    # the floor test reuses the full grid's residual: one evaluation on the
    # full grid and one on the halved grid, and the report is unchanged
    inv = canonical_grid(name, u, v, 33, None, mode)
    path = tmp_path / "grid.json"
    formats.write_invariant_grid(inv, str(path))
    inv = formats.read_invariant_grid(str(path))
    g = inv.geometry
    rep = cs.gauss_residual_canonical(inv)
    floor = cs.compatibility_floor(inv)
    expected = {
        "format": "check-report/1", "mode": mode,
        "grid": {"counts": [g.nu, g.nv], "origin": [g.u0, g.v0], "spacing": [g.du, g.dv]},
        "residuals": [rep.to_dict()],
        "floor_check": {"fine_max_abs": floor.fine.max_abs, "coarse_max_abs": floor.coarse_max_abs,
                        "ratio": floor.ratio, "compatible": floor.compatible},
    }
    calls = []
    real = compatibility.gauss_residual_canonical
    monkeypatch.setattr(compatibility, "gauss_residual_canonical",
                        lambda grid: calls.append(grid.geometry.nu) or real(grid))
    assert cli.main(["check", "--input", str(path), "--output", str(tmp_path / "r.json")]) == 0
    assert calls == [33, 17]
    assert (tmp_path / "r.json").read_text() == formats.dumps(expected) + "\n"


def test_reconstruct_overflowing_frame_exits_3(tmp_path):
    # 8 nodes a side skips the floor test; the overflowing frame rates reach
    # the step angle guard as inf, and nothing is written
    path = tmp_path / "huge8.json"
    formats.write_invariant_grid(overflowing_invariants(8), str(path))
    res = run_cli("reconstruct", "--input", str(path), "--output", str(tmp_path / "m.obj"),
                  "--report", str(tmp_path / "r.json"))
    assert res.returncode == 3
    assert res.stderr.splitlines() == ["canonsurf: error: frame step angle inf exceeds 0.204; "
                                       "grid is too coarse for the stepper"]
    assert not (tmp_path / "m.obj").exists()


def test_canonicalize_umbilic_chart_exits_2(tmp_path):
    res = run_cli("canonicalize", "--surface", "sphere", "--u", "-1:1:17",
                  "--v", "0:2:17", "--output", str(tmp_path / "s.json"))
    assert res.returncode == 2
    assert not (tmp_path / "s.json").exists()


def test_canonicalize_then_reconstruct(tmp_path):
    grid_path = tmp_path / "cat_nu.json"
    res = run_cli("canonicalize", "--surface", "catenoid",
                  "--u", "-1:1:65", "--v", "0:3.1416:65", "--output", str(grid_path))
    assert res.returncode == 0, res.stderr
    mesh_path = tmp_path / "mesh.obj"
    res = run_cli("reconstruct", "--input", str(grid_path), "--output", str(mesh_path),
                  "--report", str(tmp_path / "rec.json"))
    assert res.returncode == 0, res.stderr
    verts, norms, faces = formats.read_obj(str(mesh_path))
    assert verts.shape == (65 * 65, 3)
    assert len(faces) == 2 * 64 * 64
    rec = json.loads((tmp_path / "rec.json").read_text())
    assert rec["max_abs_error_E"] < 5e-2
    assert abs(rec["base_E_minus_a"]) < 1e-2


def _incompatible_grid_file(tmp_path):
    n = 65
    u = np.linspace(-1, 1, n)
    v = np.linspace(0, math.pi, n)
    base_field = (-1.0 / np.cosh(u) ** 2)[:, None] * np.ones((n, n))
    nu1 = base_field * (1 + 0.05 * np.sin(3 * u)[:, None] * np.sin(2 * v)[None, :])
    g = cs.Grid2.from_axes(u, v, nu1)
    inv = cs.InvariantGrid("nu", g, g.like(-base_field), 1.0, 1.0,
                           cs.BaseIndex(n // 2, n // 2))
    path = tmp_path / "bad.json"
    formats.write_invariant_grid(inv, str(path))
    return str(path)


def test_reconstruct_strict_incompatible_exits_4(tmp_path):
    res = run_cli("reconstruct", "--input", _incompatible_grid_file(tmp_path), "--strict",
                  "--output", str(tmp_path / "m.obj"))
    assert res.returncode == 4
    assert not (tmp_path / "m.obj").exists()
    [line] = res.stderr.splitlines()
    assert line.startswith("canonsurf: incompatible invariants: invariant data looks "
                           "incompatible: residual only improves by ")


def test_reconstruct_incompatible_warns_and_writes(tmp_path):
    res = run_cli("reconstruct", "--input", _incompatible_grid_file(tmp_path),
                  "--output", str(tmp_path / "m.obj"))
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "m.obj").stat().st_size > 0
    [line] = res.stderr.splitlines()
    assert line.startswith("canonsurf: warning: invariant data looks incompatible: "
                           "residual only improves by ")
    assert ".py:" not in line


def test_kh_mode_invariants_with_bad_discriminant_exit_3(tmp_path):
    n = 9
    payload = {
        "format": "invariant-grid/1", "mode": "kh", "nu": [n, n],
        "origin": [0.0, 0.0], "spacing": [0.1, 0.1], "base_index": [4, 4],
        "a": 1.0, "b": 1.0,
        "field1": [1.0] * (n * n),   # K = 1
        "field2": [0.5] * (n * n),   # H = 0.5 -> H^2 - K < 0
    }
    path = tmp_path / "bad_kh.json"
    path.write_text(json.dumps(payload))
    res = run_cli("check", "--input", str(path))
    assert res.returncode == 3
    assert "H^2 - K" in res.stderr


def test_roundtrip_prints_orders(tmp_path):
    res = run_cli("roundtrip", "--surface", "catenoid",
                  "--u", "-1:1:33", "--v", "0:3.1416:33", "--refine", "2",
                  "--output", str(tmp_path / "rt.json"))
    assert res.returncode == 0, res.stderr
    orders = [float(line.rsplit("=", 1)[1]) for line in res.stdout.splitlines()
              if line.startswith("order(")]
    assert len(orders) == 4
    assert all(o >= 1.9 for o in orders)
    report = json.loads((tmp_path / "rt.json").read_text())
    assert len(report["levels"]) == 3


@pytest.mark.parametrize("surface", ["reparametrised-catenoid", "torus"])
def test_roundtrip_canonical_identities_converge(tmp_path, surface):
    # E and G of the canonical chart, not of the source chart: on a chart that
    # is not canonical the source metric reads the slopes of the maps
    if surface == "torus":
        args = ["--surface", "torus", "--param", "R=2", "--param", "r=1",
                "--u", "0:6.283185307179586:33", "--v", "0:6.283185307179586:33"]
    else:
        t, rho, z = reparametrised_profile("catenoid")
        ppath = tmp_path / "profile.json"
        ppath.write_text(json.dumps({"t": list(t), "rho": list(rho), "z": list(z)}))
        args = ["--surface", "revolution", "--profile", str(ppath),
                "--u", "-0.9:0.9:33", "--v", "0:3:33"]
    out = tmp_path / "rt.json"
    assert cli.main(["roundtrip", *args, "--refine", "2", "--output", str(out)]) == 0
    seq = [lvl["canonical_identity_max_abs"] for lvl in json.loads(out.read_text())["levels"]]
    assert len(seq) == 3
    assert all(math.log2(seq[k] / seq[k + 1]) >= 1.8 for k in range(2)), seq


def test_special_minimal_and_flat(tmp_path):
    res = run_cli("canonicalize", "--surface", "catenoid",
                  "--u", "-1:1:65", "--v", "0:3.1416:65",
                  "--output", str(tmp_path / "cat.json"))
    assert res.returncode == 0, res.stderr
    out = tmp_path / "special.json"
    res = run_cli("special", "--case", "minimal", "--input", str(tmp_path / "cat.json"),
                  "--output", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["residuals"][0]["name"] == "minimal-natural"
    assert report["residuals"][0]["max_abs"] < 1e-2

    # constant-H grid: CMC and flat residuals vanish
    n = 17
    g = cs.Grid2(0.0, 0.0, 0.1, 0.1, np.full((n, n), 1.0))
    inv = cs.InvariantGrid("nu", g, g.like(np.zeros((n, n))), 1.0, 1.0,
                           cs.BaseIndex(8, 8))
    formats.write_invariant_grid(inv, str(tmp_path / "cyl.json"))
    res = run_cli("special", "--case", "all", "--input", str(tmp_path / "cyl.json"),
                  "--output", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    by_name = {r["name"]: r for r in report["residuals"]}
    assert by_name["cmc"]["max_abs"] < 1e-10
    assert by_name["flat-1overH-vv"]["max_abs"] < 1e-10


@pytest.mark.parametrize("surface, flags, undefined, error", [
    ("catenoid", ["--mode", "nu", "--base-index", "9,20", "--u", "-1:1:33",
                  "--v", "0:3.1416:33"],
     "flat", "mean curvature vanishes; 1/H undefined"),
    ("torus", ["--mode", "kh", "--base-index", "10,20", "--param", "R=2", "--param", "r=1",
               "--u", "0:6.2832:33", "--v", "0:6.2832:33"],
     "cmc", "CMC equation needs K < H^2 strictly"),
], ids=["catenoid-nu", "torus-kh"])
def test_special_all_skips_undefined_class(tmp_path, surface, flags, undefined, error):
    path = str(tmp_path / "inv.json")
    res = run_cli("canonicalize", "--surface", surface, *flags, "--output", path)
    assert res.returncode == 0, res.stderr
    res = run_cli("special", "--case", "all", "--input", path)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["skipped"] == [{"case": undefined, "error": error}]
    names = {"cmc": "cmc", "minimal": "minimal-natural", "flat": "flat-1overH-vv"}
    assert [r["name"] for r in report["residuals"]] == [
        v for k, v in names.items() if k != undefined]
    # the class on its own still fails
    res = run_cli("special", "--case", undefined, "--input", path)
    assert res.returncode == 3
    assert res.stderr.splitlines() == [f"canonsurf: error: {error}"]


def test_special_all_exits_3_when_no_class_evaluates(tmp_path):
    # H = 0 leaves the flat test undefined; a = b = 1e-310 overflows the
    # weighted Laplacians of the CMC and minimal residuals
    n = 17
    u = np.linspace(0.0, 1.0, n)[:, None] * np.ones((n, n))
    g = cs.Grid2(0.0, 0.0, 0.1, 0.1, 1.0 + 0.5 * np.sin(3.0 * u))
    inv = cs.InvariantGrid("nu", g, g.like(-g.values), 1e-310, 1e-310, cs.BaseIndex(8, 8))
    path = tmp_path / "inv.json"
    formats.write_invariant_grid(inv, str(path))
    res = run_cli("special", "--case", "all", "--input", str(path))
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr.startswith("canonsurf: error: no special class can be evaluated: cmc: ")
    assert "flat: mean curvature vanishes" in res.stderr


@pytest.mark.parametrize("h", [0.0, 0.5])
def test_special_cmc_takes_the_given_mean_curvature(tmp_path, capsys, h):
    # without the option the CMC case takes the grid's mean H, 0 on a catenoid
    path = str(tmp_path / "cat.json")
    formats.write_invariant_grid(canonical_grid("catenoid", (-1, 1), (0, math.pi), 33,
                                                cs.BaseIndex(9, 20), "nu"), path)
    inv = formats.read_invariant_grid(path)
    assert cli.main(["special", "--case", "cmc", "--mean-curvature", str(h),
                     "--input", path]) == 0
    want = cs.cmc_residual(inv.geometry.like(inv.kh_arrays()[0]), h, *inv.kh_constants())
    assert json.loads(capsys.readouterr().out)["residuals"][0]["max_abs"] == want.max_abs


def test_special_minimal_off_centre_base_uses_kh_constants(tmp_path):
    # about an off-centre base the nu-mode a = E(base) = cosh^2(u_base) != 1;
    # with those constants the residual stalled at 0.297 on every grid
    res = run_cli("canonicalize", "--surface", "catenoid", "--u", "-1:1:65",
                  "--v", "0:3.1416:65", "--base-index", "19,32",
                  "--output", str(tmp_path / "cat.json"))
    assert res.returncode == 0, res.stderr
    res = run_cli("special", "--case", "minimal", "--input", str(tmp_path / "cat.json"))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["residuals"][0]["max_abs"] < 1e-3


def test_special_reads_small_gap_nu_grid(tmp_path):
    # nu1 - nu2 = 5e-7 passes nu mode's umbilic test but not the kh discriminant
    # floor; only the CMC case, which needs K < H^2 itself, refuses it
    n = 17
    u = np.linspace(0.0, 1.0, n)[:, None] * np.ones((n, n))
    g = cs.Grid2(0.0, 0.0, 0.1, 0.1, 1.0 + 0.5 * np.sin(3.0 * u) + 5e-7)
    inv = cs.InvariantGrid("nu", g, g.like(g.values - 5e-7), 1.0, 1.0, cs.BaseIndex(8, 8))
    path = str(tmp_path / "inv.json")
    formats.write_invariant_grid(inv, path)
    res = run_cli("special", "--case", "all", "--input", path)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["skipped"] == [{"case": "cmc", "error": "CMC equation needs K < H^2 strictly"}]
    assert [r["name"] for r in report["residuals"]] == ["minimal-natural", "flat-1overH-vv"]
    res = run_cli("special", "--case", "cmc", "--input", path)
    assert res.returncode == 3
    assert res.stderr.splitlines() == ["canonsurf: error: CMC equation needs K < H^2 strictly"]


def test_special_weingarten(tmp_path):
    n = 33
    u = np.linspace(-1, 1, n)
    v = np.linspace(0, math.pi, n)
    field = (1.0 / np.cosh(u) ** 2)[:, None] * np.ones((n, n))
    t = np.linspace(0.3, 1.1, 201)
    payload = {
        "format": "weingarten/1",
        "t": list(t), "f": list(t), "g": list(-t), "A": 1.0, "B": 1.0,
        "nu": [n, n], "origin": [-1.0, 0.0],
        "spacing": [u[1] - u[0], v[1] - v[0]], "base_index": [n // 2, n // 2],
        "field": list(field.ravel(order="F")),
    }
    path = tmp_path / "wg.json"
    path.write_text(json.dumps(payload))
    res = run_cli("special", "--case", "weingarten", "--input", str(path))
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["residuals"][0]["name"] == "weingarten"


@pytest.mark.parametrize("key, value", [("nu", [33.5, 33]), ("base_index", [16, True]),
                                        ("A", "1.0"), ("origin", ["-1", 0.0])])
def test_special_weingarten_refuses_coerced_header(tmp_path, key, value):
    n = 33
    t = np.linspace(0.3, 1.1, 201)
    payload = {
        "format": "weingarten/1",
        "t": list(t), "f": list(t), "g": list(-t), "A": 1.0, "B": 1.0,
        "nu": [n, n], "origin": [-1.0, 0.0], "spacing": [2.0 / (n - 1), math.pi / (n - 1)],
        "base_index": [n // 2, n // 2], "field": [0.5] * (n * n), key: value,
    }
    path = tmp_path / "wg.json"
    path.write_text(json.dumps(payload))
    res = run_cli("special", "--case", "weingarten", "--input", str(path))
    assert res.returncode == 3
    assert res.stderr.startswith(f"canonsurf: error: {key} must"), res.stderr


@pytest.mark.parametrize("key", ["t", "f", "g"])
@pytest.mark.parametrize("value", [["0.3"] * 201, [True] * 201, [None] * 201, [[0.3]] * 201,
                                   [[0.3, 0.4], [0.5]], "0.3", 0.3],
                         ids=["strings", "booleans", "nulls", "nested", "ragged", "string",
                              "number"])
def test_special_weingarten_refuses_non_numeric_samples(tmp_path, key, value):
    n = 33
    t = np.linspace(0.3, 1.1, 201)
    payload = {
        "format": "weingarten/1",
        "t": list(t), "f": list(t), "g": list(-t), "A": 1.0, "B": 1.0,
        "nu": [n, n], "origin": [-1.0, 0.0], "spacing": [2.0 / (n - 1), math.pi / (n - 1)],
        "base_index": [n // 2, n // 2], "field": [0.5] * (n * n), key: value,
    }
    path = tmp_path / "wg.json"
    path.write_text(json.dumps(payload))
    res = run_cli("special", "--case", "weingarten", "--input", str(path))
    assert res.returncode == 3
    assert res.stderr == f"canonsurf: error: {key} must be a flat list of numbers\n"


@pytest.mark.parametrize("text", ["[1, 2]", '{"format": "invariant-grid/1"}'])
def test_special_weingarten_refuses_other_files(tmp_path, text):
    path = tmp_path / "wg.json"
    path.write_text(text)
    res = run_cli("special", "--case", "weingarten", "--input", str(path))
    assert res.returncode == 3
    assert res.stderr == "canonsurf: error: weingarten case needs a weingarten/1 file\n"


def test_special_weingarten_reports_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "wg.json"
    path.write_text('{"format": "weingarten/1", "t": [0.3,')
    res = run_cli("special", "--case", "weingarten", "--input", str(path))
    assert res.returncode == 3
    assert res.stderr.startswith("canonsurf: error: malformed weingarten file: "), res.stderr
    assert len(res.stderr.splitlines()) == 1


def test_reports_are_byte_identical_across_runs(tmp_path):
    args = ("analyze", "--surface", "torus", "--param", "R=2", "--param", "r=1",
            "--u", "0:6.2832:17", "--v", "0:6.2832:17")
    r1 = run_cli(*args, "--output", str(tmp_path / "a.json"))
    r2 = run_cli(*args, "--output", str(tmp_path / "b.json"))
    assert r1.returncode == r2.returncode == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_revolution_profile(tmp_path):
    t = np.linspace(-1.0, 1.0, 81)
    prof = {"t": list(t), "rho": list(np.cosh(t)), "z": list(t)}
    ppath = tmp_path / "profile.json"
    ppath.write_text(json.dumps(prof))
    res = run_cli("analyze", "--surface", "revolution", "--profile", str(ppath),
                  "--u", "-0.9:0.9:33", "--v", "0:3:33",
                  "--output", str(tmp_path / "rev.json"))
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "rev.json").read_text())
    assert report["H_max_abs"] < 1e-3  # spline catenoid is nearly minimal


def test_reparametrised_catenoid_canonicalizes_and_passes_check(tmp_path):
    # a catenoid chart that is not canonical, about an off-centre base
    t, rho, z = reparametrised_profile("catenoid")
    ppath = tmp_path / "profile.json"
    ppath.write_text(json.dumps({"t": list(t), "rho": list(rho), "z": list(z)}))
    grid = tmp_path / "canonical.json"
    res = run_cli("canonicalize", "--surface", "revolution", "--profile", str(ppath),
                  "--u", "-0.9:0.9:65", "--v", "0:3:65", "--base-index", "19,38",
                  "--output", str(grid))
    assert res.returncode == 0, res.stderr
    res = run_cli("check", "--input", str(grid), "--output", str(tmp_path / "check.json"))
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "check.json").read_text())
    assert report["floor_check"]["ratio"] >= 3.5, report["floor_check"]


@pytest.mark.parametrize("profile", [
    {"t": [0.0, 0.5, 1.0, 1.5, 2.0], "rho": [1.0, 1.1, True, 1.3, 1.4], "z": [0, 1, 2, 3, 4]},
    [[0.0, 0.5, 1.0, 1.5, 2.0], [1.0, 1.1, 1.2, 1.3, 1.4], [0, 1, 2, 3, 4]],
], ids=["boolean-radius", "top-level-list"])
def test_revolution_profile_must_be_an_object_of_number_lists(tmp_path, profile):
    ppath = tmp_path / "profile.json"
    ppath.write_text(json.dumps(profile))
    res = run_cli("analyze", "--surface", "revolution", "--profile", str(ppath),
                  "--u", "0.2:1.8:9", "--v", "0:3:9")
    assert res.returncode == 3, res.stderr
    assert res.stderr.startswith("canonsurf: error: "), res.stderr
