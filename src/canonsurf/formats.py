"""File formats: deterministic JSON reports, invariant-grid files, revolution
profiles, Weingarten data, Wavefront OBJ.

All numbers are written with 17 significant digits so identical inputs give
byte-identical files and every float survives a parse round-trip exactly.
Grid fields are serialized row-major with u fastest: list index k holds node
(i, j) with k = j * nu + i.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .canonical import InvariantGrid
from .errors import DimensionError, RangeError
from .grid import BaseIndex, Grid2
from .reconstruction import SurfaceMesh
from .special_surfaces import WeingartenData

INVARIANT_GRID_FORMAT = "invariant-grid/1"
_NON_FINITE = "cannot serialize non-finite numbers"


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(_NON_FINITE)
    return f"{x:.17g}"


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(_NON_FINITE)


def dumps(obj) -> str:
    """JSON text with fixed float formatting (17 significant digits)."""
    return _dumps(obj, "")


def _dumps(obj, pad: str) -> str:
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f"{inner}{json.dumps(str(k))}: {_dumps(v, inner)}"
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f":
        _check_finite(obj)
        return "[" + ", ".join(["%.17g"] * obj.size) % tuple(obj.tolist()) + "]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq):
            return "[" + ", ".join(_scalar(v) for v in seq) + "]"
        items = ",\n".join(f"{inner}{_dumps(v, inner)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    return _scalar(obj)


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    return json.dumps(v)


def write_json(obj, path: str) -> None:
    """Write dumps(obj); a value that cannot be serialized raises before the file is opened."""
    text = dumps(obj) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def invariant_grid_to_dict(inv: InvariantGrid) -> dict:
    g = inv.geometry
    return {
        "format": INVARIANT_GRID_FORMAT,
        "mode": inv.mode,
        "nu": [g.nu, g.nv],
        "origin": [g.u0, g.v0],
        "spacing": [g.du, g.dv],
        "base_index": [inv.base.i0, inv.base.j0],
        "a": inv.a,
        "b": inv.b,
        "field1": inv.field1.values.ravel(order="F"),
        "field2": inv.field2.values.ravel(order="F"),
    }


def _header_scalar(value, key: str, kind: type):
    kinds, what = (int, "integers") if kind is int else ((int, float), "numbers")
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise DimensionError(f"{key} must hold JSON {what}, got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise DimensionError(f"{key} does not fit a float: {value!r}") from exc


def header_number(data: dict, key: str) -> float:
    """data[key], which must be a JSON number (no bool, no string), as a float."""
    if key not in data:
        raise DimensionError(f"missing header entry {key}")
    return _header_scalar(data[key], key, float)


def header_pair(data: dict, key: str, kind: type) -> tuple:
    """data[key], which must be a list of two JSON integers (kind int) or
    numbers (kind float), as a tuple of kind; bools and strings are refused."""
    pair = data.get(key)
    if not isinstance(pair, list) or len(pair) != 2:
        raise DimensionError(f"{key} must be a list of two values, got {pair!r}")
    return tuple(_header_scalar(value, key, kind) for value in pair)


def _flat_numbers(values) -> np.ndarray | None:
    """values as a 1-D array if it is a flat list of JSON numbers, else None."""
    # numpy would coerce a bool among numbers to 0 or 1
    if not isinstance(values, list) or bool in set(map(type, values)):
        return None
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged nested list
        return None
    # a string or null makes the dtype non-numeric, a nested list adds a dimension
    return array if array.ndim == 1 and array.dtype.kind in "iuf" else None


def number_list(data: dict, key: str) -> np.ndarray:
    """data[key], a flat list of JSON numbers, as a float array."""
    array = _flat_numbers(data[key])
    if array is None:
        raise DimensionError(f"{key} must be a flat list of numbers")
    return array.astype(float)


def grid_field(data: dict, key: str, nu: int, nv: int) -> np.ndarray:
    """data[key], a flat list of nu * nv numbers with u fastest, as an (nu, nv) array."""
    array = _flat_numbers(data[key])
    if array is None or array.size != nu * nv:
        raise DimensionError(f"{key} must be a flat list of {nu * nv} numbers")
    return array.astype(float, copy=False).reshape((nu, nv), order="F")


def invariant_grid_from_dict(data: dict) -> InvariantGrid:
    if not isinstance(data, dict):
        raise DimensionError(f"malformed invariant-grid file: top level is a "
                             f"{type(data).__name__}, not an object")
    if data.get("format") != INVARIANT_GRID_FORMAT:
        raise RangeError(f"not an invariant-grid file (format={data.get('format')!r})")
    try:
        nu, nv = header_pair(data, "nu", int)
        u0, v0 = header_pair(data, "origin", float)
        du, dv = header_pair(data, "spacing", float)
        i0, j0 = header_pair(data, "base_index", int)
        a, b = header_number(data, "a"), header_number(data, "b")
        mode = data["mode"]
        f1, f2 = (grid_field(data, key, nu, nv) for key in ("field1", "field2"))
    except (DimensionError, KeyError, ValueError, TypeError) as exc:
        raise DimensionError(f"malformed invariant-grid file: {exc}") from exc
    make = lambda vals: Grid2(u0, v0, du, dv, vals)
    return InvariantGrid(mode, make(f1), make(f2), a, b, BaseIndex(i0, j0))


def write_invariant_grid(inv: InvariantGrid, path: str) -> None:
    write_json(invariant_grid_to_dict(inv), path)


def _read_json(path: str, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DimensionError(f"malformed {what} file: {exc}") from exc


def read_invariant_grid(path: str) -> InvariantGrid:
    return invariant_grid_from_dict(_read_json(path, "invariant-grid"))


def read_profile(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, rho, z) of a revolution profile file: a JSON object whose t, rho and
    z are flat lists of JSON numbers (no bool, no string)."""
    data = _read_json(path, "profile")
    if not isinstance(data, dict) or not {"t", "rho", "z"} <= data.keys():
        raise DimensionError("malformed profile file: need an object with t, rho and z")
    return tuple(number_list(data, key) for key in ("t", "rho", "z"))


def read_weingarten(path: str) -> WeingartenData:
    """The data of a weingarten/1 file: flat lists of JSON numbers t, f, g and a
    field of nu * nv of them, with headers nu, origin, spacing, base_index, A, B."""
    data = _read_json(path, "weingarten")
    if not isinstance(data, dict) or data.get("format") != "weingarten/1":
        raise DimensionError("weingarten case needs a weingarten/1 file")
    field = grid_field(data, "field", *header_pair(data, "nu", int))
    return WeingartenData(
        *(number_list(data, key) for key in ("t", "f", "g")),
        Grid2(*header_pair(data, "origin", float), *header_pair(data, "spacing", float), field),
        header_number(data, "A"), header_number(data, "B"),
        BaseIndex(*header_pair(data, "base_index", int)))


def write_obj(mesh: SurfaceMesh, path: str) -> None:
    """Wavefront OBJ: v lines in row-major (u fastest) order, quads as triangles.

    The file is written one grid row (fixed j) at a time, each row formatted
    by one %-operation; "%.17g" % x is the same text as f"{x:.17g}".
    """
    pos = mesh.positions.values
    fields = [("v", pos)] if mesh.normals is None else [("v", pos), ("vn", mesh.normals.values)]
    for _, values in fields:
        _check_finite(values)
    nu, nv = pos.shape[:2]
    # the triangles (q0, q1, q2), (q0, q2, q3) of the quads of row 0; row j adds j * nu
    node = np.arange(1, nu + 1)
    q0, q1, q2, q3 = node[:-1], node[1:], node[1:] + nu, node[:-1] + nu
    tris = np.column_stack([q0, q1, q2, q0, q2, q3])
    face = "f %d %d %d\n"
    if mesh.normals is not None:
        tris, face = np.repeat(tris, 2, axis=1), "f %d//%d %d//%d %d//%d\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# canonsurf surface mesh, grid {nu} x {nv} (u fastest)\n")
        for tag, values in fields:
            line = f"{tag} %.17g %.17g %.17g\n" * nu
            for j in range(nv):
                fh.write(line % tuple(values[:, j].ravel().tolist()))
        faces = face * (2 * (nu - 1))
        for j in range(nv - 1):
            fh.write(faces % tuple((tris + j * nu).ravel().tolist()))


def read_obj(path: str):
    """Parse an OBJ written by write_obj: (vertices, normals or None, faces)."""
    vertices, normals, faces = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                vertices.append([float(p) for p in parts[1:4]])
            elif parts[0] == "vn":
                normals.append([float(p) for p in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(p.split("/")[0]) for p in parts[1:]])
    verts = np.array(vertices, dtype=float)
    norms = np.array(normals, dtype=float) if normals else None
    return verts, norms, faces
