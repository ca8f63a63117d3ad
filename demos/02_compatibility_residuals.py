# The compatibility equations as numerical residuals. On real surface data
# every residual converges to zero at second order under grid refinement;
# made-up invariant data stalls at a floor. That contrast is the whole test.

import math

import numpy as np

import canonsurf as cs


def chart_pipeline(name, urange, vrange, n, **params):
    entry = cs.make_entry(name, **params)
    jets = cs.sample_surface(entry, urange[0], (urange[1] - urange[0]) / (n - 1), n,
                             vrange[0], (vrange[1] - vrange[0]) / (n - 1), n)
    forms = cs.fundamental_forms_grid(jets)
    curv = cs.curvatures_grid(forms, principal_chart=True)
    return forms, curv


print("=== general Gauss and Codazzi residuals, torus ===")
print(f"{'n':>5} {'gauss':>12} {'codazzi-1':>12} {'codazzi-2':>12}")
prev = None
for n in (33, 65, 129):
    forms, _ = chart_pipeline("torus", (0, 2 * math.pi), (0, 2 * math.pi), n, R=2, r=1)
    g = cs.gauss_residual_general(forms)
    c1, c2 = cs.codazzi_residual_general(forms)
    print(f"{n:>5} {g.max_abs:>12.3e} {c1.max_abs:>12.3e} {c2.max_abs:>12.3e}")
    if prev is not None:
        print(f"      order {math.log2(prev / g.max_abs):.2f}")
    prev = g.max_abs

print()
print("=== canonical-parameter Gauss equation, catenoid and cone ===")
print("both standard charts are already canonical; a kh grid is read back as")
print("(nu1, nu2), so one residual judges both modes. The cone's u-curvature is")
print("the smaller one: to_kh flips its normal to keep the larger one along u")
print(f"{'surface':>9} {'n':>5} {'nu-form':>12} {'KH-form':>12}")
for name, urange, vrange, params in (("catenoid", (-1, 1), (0, math.pi), {}),
                                     ("cone", (0, 2), (0.5, 2.5), {"alpha": 0.6})):
    for n in (65, 129, 257):
        forms, curv = chart_pipeline(name, urange, vrange, n, **params)
        base = cs.BaseIndex(n // 2, n // 2)
        inv = cs.InvariantGrid("nu", curv.nu1, curv.nu2, float(forms.E.values[n // 2, n // 2]),
                               float(forms.G.values[n // 2, n // 2]), base)
        r_nu = cs.gauss_residual_canonical(inv)
        r_kh = cs.gauss_residual_canonical(inv.to_kh())
        print(f"{name:>9} {n:>5} {r_nu.max_abs:>12.3e} {r_kh.max_abs:>12.3e}")

print()
print("=== incompatible data is detected by the residual floor ===")
n = 65
forms, curv = chart_pipeline("catenoid", (-1, 1), (0, math.pi), n)
base = cs.BaseIndex(n // 2, n // 2)
u = curv.nu1.u_axis[:, None]
v = curv.nu1.v_axis[None, :]
fake = curv.nu1.like(curv.nu1.values * (1 + 0.05 * np.sin(3 * u) * np.sin(2 * v)))
bad = cs.InvariantGrid("nu", fake, curv.nu2, 1.0, 1.0, base)
check = cs.compatibility_floor(bad)
print(f"perturbed catenoid: residual {check.fine.max_abs:.3e} at full resolution, "
      f"{check.coarse_max_abs:.3e} subsampled")
print(f"improvement ratio {check.ratio:.2f} -> compatible: {check.compatible}")
good = cs.compatibility_floor(cs.InvariantGrid("nu", curv.nu1, curv.nu2, 1.0, 1.0, base))
print(f"true catenoid data: improvement ratio {good.ratio:.2f} "
      f"-> compatible: {good.compatible}")
