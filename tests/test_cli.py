import json
import math

import numpy as np
import pytest

import canonsurf as cs
from canonsurf import formats

from helpers import run_cli


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
    names = {r["name"] for r in report["residuals"]}
    assert {"gauss-general", "codazzi-general-1", "codazzi-general-2",
            "gauss-principal", "codazzi-principal-1", "codazzi-principal-2"} <= names


def test_analyze_sphere_exits_2(tmp_path):
    res = run_cli("analyze", "--surface", "sphere", "--param", "R=1",
                  "--u", "-1:1:33", "--v", "0:2:33",
                  "--output", str(tmp_path / "sphere.json"))
    assert res.returncode == 2
    report = json.loads((tmp_path / "sphere.json").read_text())
    assert report["umbilic"]["count"] == 33 * 33


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


def test_reconstruct_strict_incompatible_exits_4(tmp_path):
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
    res = run_cli("reconstruct", "--input", str(path), "--strict",
                  "--output", str(tmp_path / "m.obj"))
    assert res.returncode == 4


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


def test_outdir_env_redirects_relative_output(tmp_path):
    res = run_cli("analyze", "--surface", "torus", "--param", "R=2", "--param", "r=1",
                  "--u", "0:6.2832:17", "--v", "0:6.2832:17",
                  "--output", "report.json",
                  env_extra={"CANONSURF_OUTDIR": str(tmp_path)})
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "report.json").exists()


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
