# Special surface classes as residual checks: minimal surfaces, constant mean
# curvature, flat surfaces, and Weingarten relations between the principal
# curvatures.

import math

import numpy as np

import canonsurf as cs

n = 65
u = np.linspace(-1.0, 1.0, n)
v = np.linspace(0.0, math.pi, n)
sech2 = (1.0 / np.cosh(u) ** 2)[:, None] * np.ones((n, n))

print("=== minimal surfaces: log(nu) equation ===")
nu = cs.Grid2.from_axes(u, v, sech2)
rep = cs.minimal_natural_residual(nu, 1.0, 1.0)
print(f"catenoid curvature field: residual max {rep.max_abs:.3e} (converges ~h^2)")
rep_const = cs.minimal_natural_residual(nu.like(np.full((n, n), 0.7)), 1.0, 1.0)
print(f"constant field 0.7: residual is exactly 2 nu = {rep_const.max_abs:.3f} "
      "(no constant solutions exist)")

print()
print("=== constant mean curvature ===")
K_cat = cs.Grid2.from_axes(u, v, -sech2**2)
print(f"catenoid (H = 0): residual max {cs.cmc_residual(K_cat, 0.0, 1.0, 1.0).max_abs:.3e}")
K_cyl = cs.Grid2(0, 0, 0.1, 0.1, np.zeros((33, 33)))
print(f"cylinder (K = 0, H = 1/2): residual max "
      f"{cs.cmc_residual(K_cyl, 0.5, 1.0, 1.0).max_abs:.3e}")

print()
print("=== flat surfaces: 1/H is linear along the rulings ===")
alpha = 0.6
vv = np.linspace(0.5, 2.5, 33)
uu = np.linspace(0.0, 2.0, 33)
H_cone = cs.Grid2.from_axes(uu, vv, (-1.0 / (2 * math.tan(alpha) * vv))[None, :]
                            * np.ones((33, 33)))
flat = cs.flat_characterization(H_cone)
print(f"cone: (1/H)_vv residual {flat.report.max_abs:.3e}, "
      f"fitted slope f = {flat.f_samples[0]:+.4f} (expected {-2 * math.tan(alpha):+.4f})")
Hv = (1.0 + np.cos(vv)) / (2.0 + np.cos(vv))
H_torus = cs.Grid2.from_axes(uu, vv, Hv[None, :] * np.ones((33, 33)))
print(f"torus (not flat): residual {cs.flat_characterization(H_torus).report.max_abs:.3e}")

print()
print("=== Weingarten relation nu1 = nu, nu2 = -nu on the catenoid ===")
t = np.linspace(0.35, 1.05, 301)
base = cs.BaseIndex(n // 2, n // 2)
import warnings
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # nu_v = 0: not strongly regular, by design
    wg = cs.weingarten_residual(cs.WeingartenData(t, t, -t, nu, 1.0, 1.0, base))
ref = cs.gauss_residual_canonical(
    cs.InvariantGrid("nu", nu, nu.like(-sech2), 1.0, 1.0, base))
print(f"Weingarten residual {wg.max_abs:.3e} vs canonical Gauss {ref.max_abs:.3e} "
      "(same equation in different clothes)")
