"""File formats: deterministic JSON reports, invariant-grid files, Wavefront OBJ.

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

INVARIANT_GRID_FORMAT = "invariant-grid/1"


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot serialize non-finite numbers")
    return f"{x:.17g}"


def dumps(obj, _level: int = 0) -> str:
    """JSON text with fixed float formatting (17 significant digits)."""
    pad = "  " * _level
    inner = "  " * (_level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f"{inner}{json.dumps(str(k))}: {dumps(v, _level + 1)}"
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq):
            return "[" + ", ".join(_scalar(v) for v in seq) + "]"
        items = ",\n".join(f"{inner}{dumps(v, _level + 1)}" for v in seq)
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


def invariant_grid_from_dict(data: dict) -> InvariantGrid:
    if data.get("format") != INVARIANT_GRID_FORMAT:
        raise RangeError(f"not an invariant-grid file (format={data.get('format')!r})")
    try:
        nu, nv = (int(n) for n in data["nu"])
        u0, v0 = (float(q) for q in data["origin"])
        du, dv = (float(q) for q in data["spacing"])
        i0, j0 = (int(n) for n in data["base_index"])
        a, b = float(data["a"]), float(data["b"])
        mode = data["mode"]
        f1 = np.asarray(data["field1"], dtype=float).reshape((nu, nv), order="F")
        f2 = np.asarray(data["field2"], dtype=float).reshape((nu, nv), order="F")
    except (KeyError, ValueError, TypeError) as exc:
        raise DimensionError(f"malformed invariant-grid file: {exc}") from exc
    make = lambda vals: Grid2(u0, v0, du, dv, vals)
    return InvariantGrid(mode, make(f1), make(f2), a, b, BaseIndex(i0, j0))


def write_invariant_grid(inv: InvariantGrid, path: str) -> None:
    write_json(invariant_grid_to_dict(inv), path)


def read_invariant_grid(path: str) -> InvariantGrid:
    with open(path, "r", encoding="utf-8") as fh:
        return invariant_grid_from_dict(json.load(fh))


def write_obj(mesh: SurfaceMesh, path: str) -> None:
    """Wavefront OBJ: v lines in row-major (u fastest) order, quads as triangles."""
    pos = mesh.positions.values
    nu, nv = pos.shape[:2]
    lines = [f"# canonsurf surface mesh, grid {nu} x {nv} (u fastest)"]
    order = [(i, j) for j in range(nv) for i in range(nu)]
    for i, j in order:
        x, y, z = pos[i, j]
        lines.append(f"v {format_float(x)} {format_float(y)} {format_float(z)}")
    has_normals = mesh.normals is not None
    if has_normals:
        nrm = mesh.normals.values
        for i, j in order:
            x, y, z = nrm[i, j]
            lines.append(f"vn {format_float(x)} {format_float(y)} {format_float(z)}")
    node = lambda i, j: j * nu + i + 1
    for j in range(nv - 1):
        for i in range(nu - 1):
            q = (node(i, j), node(i + 1, j), node(i + 1, j + 1), node(i, j + 1))
            for tri in ((q[0], q[1], q[2]), (q[0], q[2], q[3])):
                if has_normals:
                    lines.append("f " + " ".join(f"{k}//{k}" for k in tri))
                else:
                    lines.append("f " + " ".join(str(k) for k in tri))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
