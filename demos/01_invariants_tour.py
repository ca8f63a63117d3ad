# Tour of the invariants on grids: jets, fundamental forms, curvatures and
# umbilic detection.

import math

import numpy as np

import canonsurf as cs

print("=== grids of invariants ===")
torus = cs.make_entry("torus", R=2.0, r=1.0)
n = 65
jets = cs.sample_surface(torus, 0.0, 2 * math.pi / (n - 1), n,
                         0.0, 2 * math.pi / (n - 1), n)
form_grid = cs.fundamental_forms_grid(jets)
curv_grid = cs.curvatures_grid(form_grid, principal_chart=True)

at = (0, 0)
print(f"torus jet at node {at}, (u, v) = (0, 0):  xu =", jets.xu.values[at],
      " xv =", jets.xv.values[at])
print("first form  (E, F, G) =", tuple(float(g.values[at]) for g in
                                       (form_grid.E, form_grid.F, form_grid.G)))
print("second form (L, M, N) =", tuple(float(g.values[at]) for g in
                                       (form_grid.L, form_grid.M, form_grid.N)))
print("curvatures: K = %.6f  H = %.6f  nu = (%.4f, %.4f)"
      % tuple(g.values[at] for g in (curv_grid.K, curv_grid.H, curv_grid.nu1, curv_grid.nu2)))
print("max |K - nu1 nu2| over the grid:",
      np.max(np.abs(curv_grid.K.values - curv_grid.nu1.values * curv_grid.nu2.values)))

print()
print("=== umbilic detection ===")
for name, params, urange in [("torus", {"R": 2, "r": 1}, (0.0, 2 * math.pi)),
                             ("sphere", {"R": 1.0}, (-1.0, 1.0))]:
    entry = cs.make_entry(name, **params)
    jg = cs.sample_surface(entry, urange[0], (urange[1] - urange[0]) / 16, 17,
                           0.0, 0.1, 17)
    cg = cs.curvatures_grid(cs.fundamental_forms_grid(jg), principal_chart=True)
    _, report = cs.detect_umbilics(cg)
    print(f"{name}: {report.count} of {report.total} nodes umbilic "
          f"(min |nu1 - nu2| = {report.min_separation:.3e})")
