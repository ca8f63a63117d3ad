# Canonical principal parameters: build the parameter maps, verify the
# defining identities, and watch the affine uniqueness in action.

import math

import numpy as np

import canonsurf as cs


def canonicalize(name, urange, vrange, nu, nv, base, **params):
    entry = cs.make_entry(name, **params)
    jets = cs.sample_surface(entry, urange[0], (urange[1] - urange[0]) / (nu - 1), nu,
                             vrange[0], (vrange[1] - vrange[0]) / (nv - 1), nv)
    forms = cs.fundamental_forms_grid(jets)
    curv = cs.curvatures_grid(forms, principal_chart=True)
    maps = cs.build_canonical_maps(forms.E, forms.G, curv.nu1, curv.nu2, base)
    inv = cs.resample_to_canonical(maps, curv.nu1, curv.nu2)
    return jets, maps, inv


print("=== the catenoid chart is already canonical ===")
jets, maps, inv = canonicalize("catenoid", (-1, 1), (0, math.pi), 129, 129,
                               cs.BaseIndex(64, 64))
ident = np.max(np.abs(maps.ubar_samples - (maps.u_samples - maps.u_samples[64])))
print(f"ubar(u) deviates from u - u0 by at most {ident:.3e}")
print(f"ubar integrand variation across v (Codazzi diagnostic): "
      f"{maps.ubar_integrand_variation:.3e}")
# positions are functions on the chart and resample as they are; E and G pick up
# the squared slopes of the maps, so the canonical chart's are read from its positions
canon = cs.fundamental_forms_grid(cs.finite_difference_jets(
    cs.SurfaceMesh(cs.resample_grid(maps, jets.x, inv))))
r1, r2 = cs.verify_canonical(inv, canon.E, canon.G)
print(f"canonical identities hold to {max(r1.max_abs, r2.max_abs):.3e}")

print()
print("=== the torus needs a nontrivial constant b ===")
base = cs.BaseIndex(32, 64)
jets_t, maps_t, inv_t = canonicalize("torus", (0, 2 * math.pi), (0, 2 * math.pi),
                                     129, 129, base, R=2.0, r=1.0)
u0 = jets_t.geometry.u_axis[base.i0]
print(f"a = {maps_t.a:.6f} (= r^2),  b = {maps_t.b:.6f} (= (R + r cos u0)^2 "
      f"= {(2 + math.cos(u0))**2:.6f})")

print()
print("=== affine uniqueness: two base points, one surface ===")
_, maps_a, inv_a = canonicalize("catenoid", (-1, 1), (0, 3), 201, 151,
                                cs.BaseIndex(100, 0))
_, maps_b, inv_b = canonicalize("catenoid", (-1, 1), (0, 3), 201, 151,
                                cs.BaseIndex(130, 50))
match = cs.check_affine_equivalence(inv_a, inv_b)
print(f"fitted map: ubar = {match.lam:+.6f} u {match.c1:+.6f}, "
      f"vbar = {match.mu:+.6f} v {match.c2:+.6f}")
print(f"axes swapped: {match.swapped},  field misfit (rms): {match.misfit:.3e}")
# the law: the slopes are A's canonical factors at the image q of B's base,
# here the point (0.3, 1.0) of A's (standard, already canonical) chart;
# canonical_factors is second order, the fit's factors fourth order
psi1, psi2 = cs.canonical_factors(inv_a)
geo = inv_a.geometry
i = int(np.argmin(np.abs(geo.u_axis - 0.3)))
j = int(np.argmin(np.abs(geo.v_axis - 1.0)))
print(f"law-predicted |lam| = sqrt(a_A / a_B) Psi1_A(q) = "
      f"{math.sqrt(inv_a.a / inv_b.a) * psi1[i, j]:.6f}  (fitted {abs(match.lam):.6f})")
print(f"law-predicted |mu|  = sqrt(b_A / b_B) Psi2_A(q) = "
      f"{math.sqrt(inv_a.b / inv_b.b) * psi2[i, j]:.6f}  (fitted {abs(match.mu):.6f})")
print("the base offset 0.3 reappears as the translation of the u-map; the fields")
print("are constant along v, so the law alone fixes mu and the v-offset is the seed's")
