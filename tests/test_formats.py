import json
import math

import numpy as np
import pytest

import canonsurf as cs
from canonsurf import formats
from canonsurf.errors import DimensionError, RangeError

from helpers import catenoid_invariants


def test_dumps_float_formatting():
    assert formats.dumps(1.0) == "1"
    assert formats.dumps(0.1) == "0.10000000000000001"
    assert formats.dumps({"a": [1, 2.5], "b": True, "c": None}) == (
        '{\n  "a": [1, 2.5],\n  "b": true,\n  "c": null\n}')
    with pytest.raises(ValueError):
        formats.dumps(float("nan"))


def test_dumps_roundtrips_doubles_exactly():
    rng = np.random.default_rng(0)
    vals = list(rng.normal(size=50)) + [math.pi, 1e-300, 1e300, -0.0]
    for v in vals:
        assert json.loads(formats.dumps(float(v))) == float(v)


def test_invariant_grid_roundtrip(tmp_path):
    inv, _, _ = catenoid_invariants(17)
    path = tmp_path / "grid.json"
    formats.write_invariant_grid(inv, str(path))
    back = formats.read_invariant_grid(str(path))
    assert back.mode == inv.mode
    assert back.a == inv.a and back.b == inv.b
    assert (back.base.i0, back.base.j0) == (inv.base.i0, inv.base.j0)
    assert np.array_equal(back.field1.values, inv.field1.values)
    assert np.array_equal(back.field2.values, inv.field2.values)
    g1, g2 = back.geometry, inv.geometry
    assert (g1.u0, g1.v0, g1.du, g1.dv) == (g2.u0, g2.v0, g2.du, g2.dv)


def test_invariant_grid_serialization_is_deterministic(tmp_path):
    inv, _, _ = catenoid_invariants(9)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    formats.write_invariant_grid(inv, str(p1))
    formats.write_invariant_grid(inv, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_invariant_grid_row_major_u_fastest(tmp_path):
    # node (i, j) must land at flat index j * nu + i
    g = cs.Grid2(0, 0, 1.0, 1.0, np.arange(12, dtype=float).reshape(3, 4))
    inv = cs.InvariantGrid("nu", g, g.like(g.values + 100.0), 1.0, 1.0, cs.BaseIndex(0, 0))
    d = formats.invariant_grid_to_dict(inv)
    flat = np.asarray(d["field1"])
    nu = d["nu"][0]
    for i in range(3):
        for j in range(4):
            assert flat[j * nu + i] == g.values[i, j]


def test_write_json_leaves_no_file_when_a_value_cannot_be_serialized(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(ValueError, match="non-finite"):
        formats.write_json({"x": float("inf")}, str(path))
    assert not path.exists()


def test_rejects_wrong_format_tag(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else/9"}')
    with pytest.raises(RangeError):
        formats.read_invariant_grid(str(path))


def test_obj_roundtrip(tmp_path):
    n = 17
    inv, jets, _ = catenoid_invariants(n)
    mesh = cs.reconstruct(inv)
    path = tmp_path / "mesh.obj"
    formats.write_obj(mesh, str(path))
    verts, norms, faces = formats.read_obj(str(path))
    assert verts.shape == (n * n, 3)
    assert norms.shape == (n * n, 3)
    assert len(faces) == 2 * (n - 1) * (n - 1)
    # row-major u-fastest ordering
    pos = mesh.positions.values
    for i in range(n):
        for j in range(n):
            assert np.array_equal(verts[j * n + i], pos[i, j])
    # all face indices valid and triangular
    for f in faces:
        assert len(f) == 3
        assert all(1 <= k <= n * n for k in f)


def test_obj_without_normals(tmp_path):
    g = cs.Grid2(0, 0, 1, 1, np.zeros((3, 3, 3)))
    path = tmp_path / "flat.obj"
    formats.write_obj(cs.SurfaceMesh(g, None), str(path))
    verts, norms, faces = formats.read_obj(str(path))
    assert norms is None
    assert verts.shape == (9, 3)
    assert len(faces) == 8


# values whose shortest round-trip text differs from their 17-digit text, plus
# signed zero, the smallest subnormal and the largest finite double
_SPECIAL_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e22]


def _mesh_values(nu, nv, seed):
    values = np.random.default_rng(seed).normal(size=(nu, nv, 3)) * 10.0 ** np.arange(-3, 6, 3)
    values.reshape(-1)[: len(_SPECIAL_FLOATS)] = _SPECIAL_FLOATS
    values[nu - 1, nv - 1] = _SPECIAL_FLOATS[-3:]
    return values


def _reference_obj(pos, nrm):
    # the per-element writer: every float through f"{x:.17g}", every line by hand
    nu, nv = pos.shape[:2]
    lines = [f"# canonsurf surface mesh, grid {nu} x {nv} (u fastest)"]
    for tag, values in (("v", pos), ("vn", nrm)):
        if values is not None:
            lines += [f"{tag} " + " ".join(f"{x:.17g}" for x in values[i, j])
                      for j in range(nv) for i in range(nu)]
    node = lambda i, j: j * nu + i + 1
    for j in range(nv - 1):
        for i in range(nu - 1):
            q = (node(i, j), node(i + 1, j), node(i + 1, j + 1), node(i, j + 1))
            for tri in ((q[0], q[1], q[2]), (q[0], q[2], q[3])):
                lines.append("f " + " ".join(f"{k}//{k}" if nrm is not None else str(k)
                                             for k in tri))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("with_normals", [False, True])
def test_obj_bytes_equal_per_element_reference(tmp_path, with_normals):
    pos = _mesh_values(5, 4, 0)
    nrm = _mesh_values(5, 4, 1) if with_normals else None
    mesh = cs.SurfaceMesh(cs.Grid2(0, 0, 1, 1, pos),
                          cs.Grid2(0, 0, 1, 1, nrm) if with_normals else None)
    path = tmp_path / "mesh.obj"
    formats.write_obj(mesh, str(path))
    assert path.read_bytes() == _reference_obj(pos, nrm).encode("utf-8")


def test_json_float_array_bytes_equal_per_element_reference(tmp_path):
    arr = _mesh_values(4, 3, 2).ravel()
    path = tmp_path / "a.json"
    formats.write_json({"x": arr, "empty": np.zeros(0)}, str(path))
    want = '{\n  "x": [' + ", ".join(f"{x:.17g}" for x in arr) + '],\n  "empty": []\n}\n'
    assert path.read_bytes() == want.encode("utf-8")
    assert formats.dumps(arr) == formats.dumps(arr.tolist())


@pytest.mark.parametrize("where", ["positions", "normals"])
def test_write_obj_leaves_no_file_on_nan(tmp_path, where):
    pos, nrm = np.zeros((3, 3, 3)), np.ones((3, 3, 3))
    (pos if where == "positions" else nrm)[1, 2, 0] = np.nan
    mesh = cs.SurfaceMesh(cs.Grid2(0, 0, 1, 1, pos), cs.Grid2(0, 0, 1, 1, nrm))
    path = tmp_path / "mesh.obj"
    with pytest.raises(ValueError, match="non-finite"):
        formats.write_obj(mesh, str(path))
    assert not path.exists()


def test_write_json_float_array_with_nan_leaves_no_file(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(ValueError, match="non-finite"):
        formats.write_json({"x": np.array([1.0, np.nan])}, str(path))
    assert not path.exists()


@pytest.mark.parametrize("content", [b"[1, 2]", b'"grid"', b'{"format": "invariant-grid/1", ',
                                     b"\xff\xfe{}"])
def test_malformed_grid_file_raises_dimension_error(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(DimensionError, match="malformed invariant-grid file"):
        formats.read_invariant_grid(str(path))


FLAT_GRID = {"format": "invariant-grid/1", "mode": "nu", "nu": [9, 9], "origin": [0.0, 0.0],
             "spacing": [0.1, 0.1], "base_index": [4, 4], "a": 1.0, "b": 1.0,
             "field1": [1.0] * 81, "field2": [0.0] * 81}


@pytest.mark.parametrize("field1", [[[1.0]] * 81, [[1.0] * 9] * 9, [1.0] * 80, [1.0] * 82,
                                    ["1.0"] * 81, [True] * 81, [1.0] * 80 + [True],
                                    [None] * 81, "1.0"],
                         ids=["nested-81x1", "nested-9x9", "short", "long", "strings",
                              "booleans", "one-boolean", "nulls", "string"])
def test_grid_field_must_be_flat_list_of_nu_nv_numbers(field1):
    assert formats.invariant_grid_from_dict(FLAT_GRID).geometry.nu == 9
    data = dict(FLAT_GRID, field1=field1)
    with pytest.raises(DimensionError, match="field1 must be a flat list of 81 numbers"):
        formats.invariant_grid_from_dict(data)


@pytest.mark.parametrize("value", [["0.3"], [True, False], [0.5, True], [None], [[0.3]],
                                   [[0.3, 0.4], [0.5]], "0.3", 0.3, None],
                         ids=["strings", "booleans", "number-and-boolean", "nulls", "nested",
                              "ragged", "string", "number", "null"])
def test_number_list_refuses_anything_but_a_flat_list_of_numbers(value):
    assert formats.number_list({"t": [0, 0.5, 2**63]}, "t").tolist() == [0.0, 0.5, 2.0**63]
    with pytest.raises(DimensionError, match="^t must be a flat list of numbers$"):
        formats.number_list({"t": value}, "t")


@pytest.mark.parametrize("key, value", [
    ("nu", [9.9, "9"]), ("nu", [9.0, 9]), ("nu", [True, 9]), ("nu", [9, 9, 9]), ("nu", 9),
    ("base_index", [4.7, True]), ("base_index", [4, None]), ("base_index", "4,4"),
    ("origin", ["0.0", 0.0]), ("origin", [False, 0.0]), ("spacing", [0.1]),
    ("spacing", [0.1, 10**400]), ("a", True), ("a", None), ("b", "1.0"), ("b", [1.0]),
])
def test_header_values_are_validated_not_coerced(key, value):
    data = dict(FLAT_GRID, **{key: value})
    with pytest.raises(DimensionError, match=f"malformed invariant-grid file: {key}"):
        formats.invariant_grid_from_dict(data)


def test_header_accepts_integral_json_numbers_for_floats():
    data = dict(FLAT_GRID, origin=[0, -1], spacing=[1, 0.5], a=2, b=3)
    inv = formats.invariant_grid_from_dict(data)
    g = inv.geometry
    assert (g.u0, g.v0, g.du, g.dv, inv.a, inv.b) == (0.0, -1.0, 1.0, 0.5, 2.0, 3.0)
    assert all(type(q) is float for q in (g.u0, g.v0, g.du, g.dv, inv.a, inv.b))


def test_missing_header_entry_is_named():
    data = {k: v for k, v in FLAT_GRID.items() if k != "b"}
    with pytest.raises(DimensionError, match="missing header entry b"):
        formats.invariant_grid_from_dict(data)
