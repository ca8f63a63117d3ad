# Reconstruction: two invariant functions in canonical principal parameters
# determine the surface up to a rigid motion. We rebuild the catenoid from its
# principal curvature fields, rebuild a cylinder from two constants, and export
# a mesh.

import math
import os
import tempfile

import numpy as np

import canonsurf as cs
from canonsurf import formats

print("=== catenoid from its principal curvature fields ===")
print(f"{'n':>5} {'align rms':>12} {'path gap':>12}")
for n in (65, 129):
    entry = cs.make_entry("catenoid")
    jets = cs.sample_surface(entry, -1.0, 2.0 / (n - 1), n, 0.0, math.pi / (n - 1), n)
    curv = cs.curvatures_grid(cs.fundamental_forms_grid(jets), principal_chart=True)
    inv = cs.InvariantGrid("nu", curv.nu1, curv.nu2, 1.0, 1.0,
                           cs.BaseIndex(n // 2, n // 2))
    mesh = cs.reconstruct(inv)
    _, _, rms = cs.align_rigid(mesh, cs.SurfaceMesh(jets.x))
    E, G, L, N = cs.coefficients_from_invariants(inv)
    gap = cs.path_consistency_diagnostic(E, G, L, N, cs.identity_frame(), inv.base)
    print(f"{n:>5} {rms:>12.3e} {gap:>12.3e}")

print()
print("=== uniqueness up to position ===")
n = 129
entry = cs.make_entry("catenoid")
jets = cs.sample_surface(entry, -1.0, 2.0 / (n - 1), n, 0.0, math.pi / (n - 1), n)
curv = cs.curvatures_grid(cs.fundamental_forms_grid(jets), principal_chart=True)
inv = cs.InvariantGrid("nu", curv.nu1, curv.nu2, 1.0, 1.0, cs.BaseIndex(64, 64))
rng = np.random.default_rng(1)
frames = []
for _ in range(2):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    frames.append(cs.FrameState(rng.normal(size=3), q[0], q[1], q[2]))
m1 = cs.reconstruct(inv, initial_frame=frames[0])
m2 = cs.reconstruct(inv, initial_frame=frames[1])
_, _, rms = cs.align_rigid(m1, m2)
print(f"two random initial frames, after Procrustes alignment: rms = {rms:.3e}")

print()
print("=== cylinder from two constants ===")
n = 129
g = cs.Grid2(0.0, 0.0, math.pi / (n - 1), 2.0 / (n - 1), np.full((n, n), 1.0))
inv = cs.InvariantGrid("nu", g, g.like(np.zeros((n, n))), 1.0, 1.0,
                       cs.BaseIndex(n // 2, n // 2))
mesh = cs.reconstruct(inv)
pts = mesh.positions.values.reshape(-1, 3)
print("reconstructed", len(pts), "mesh points; exporting OBJ")
path = os.path.join(tempfile.gettempdir(), "canonsurf_cylinder.obj")
formats.write_obj(mesh, path)
verts, norms, faces = formats.read_obj(path)
print(f"wrote {path}: {len(verts)} vertices, {len(faces)} triangles")
