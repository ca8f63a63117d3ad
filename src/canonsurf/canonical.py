"""Canonical principal parameters: map construction, resampling, verification.

A principal chart is brought to canonical principal parameters by the two
monotone 1-D maps u -> ubar, v -> vbar built from path integrals of the
curvature fields. The ubar integrand is constant in v exactly when the
Codazzi equations hold, so its v-variation doubles as a Codazzi diagnostic.

The canonical factors (Psi1, Psi2) come from grid.path_factors, and the
half-gap |nu1 - nu2| / 2 = sqrt(H^2 - K) from InvariantGrid.half_gap. Map
construction uses grid.FOURTH_ORDER (five-point differences, spline
quadrature): the maps feed resampling, and second-order map errors would
dominate every downstream comparison. Verification (verify_canonical)
deliberately sticks to grid.SECOND_ORDER so it stays an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CodazziViolation,
    DimensionError,
    DiscriminantError,
    MonotonicityError,
    RangeError,
    UmbilicError,
)
from .grid import (
    FOURTH_ORDER,
    SECOND_ORDER,
    BaseIndex,
    Grid2,
    _cumint4,
    path_factors,
    same_geometry,
    spline_at,
    spline_inverse_at,
)
from .invariants import require_umbilic_free
from .reports import make_report

DISCRIMINANT_RTOL = 1e-12
CODAZZI_TOL = 0.1  # largest map-integrand variation build_canonical_maps accepts
AFFINE_MAX_SAMPLES = 33  # the affine fit keeps every (n // 33)-th node of an n-node axis
AFFINE_MIN_OVERLAP = 0.25  # share of A's samples a choice must map into B's domain
AFFINE_TIE_RTOL = 1e-12  # seed distances and choice scores this close to the least tie
AFFINE_ANCHOR = 1e-8  # weight of the rows that hold q at its seed, per grid cell
# a base image this many steps from a node of the axis through the map's ends
# lies on it: the map samples carry roundoff, which must not shift the origin
# by a roundoff-sized remainder and drop a node
AXIS_SNAP = 1e-9


def require_positive_discriminant(K: np.ndarray, H: np.ndarray) -> np.ndarray:
    disc = H * H - K
    floor = DISCRIMINANT_RTOL * np.maximum(1.0, np.maximum(H * H, np.abs(K)))
    if np.any(disc <= floor):
        worst = np.unravel_index(int(np.argmin(disc - floor)), disc.shape)
        raise DiscriminantError(
            f"H^2 - K = {disc[worst]:.3e} at node {tuple(int(w) for w in worst)} is not above "
            f"{floor[worst]:.3e} = {DISCRIMINANT_RTOL:g} * max(1, H^2, |K|), the floor for its "
            "cancellation error of about eps * H^2 (nu mode has no such floor)")
    return disc


@dataclass(frozen=True)
class InvariantGrid:
    """Two invariant fields on a grid, with the base point and constants a, b.

    mode "nu": field1 = nu1, field2 = nu2 (direction-labeled, need not be
    ordered by size). mode "kh": field1 = K, field2 = H, and a, b carry the
    H^2 - K weighted normalization (a = E * sqrt(H^2 - K) at the base). In kh
    mode nu1 = H + sqrt(H^2 - K), the larger curvature, lies along u; to_kh
    picks the normal that makes it so.
    """

    mode: str
    field1: Grid2
    field2: Grid2
    a: float
    b: float
    base: BaseIndex

    def __post_init__(self):
        if self.mode not in ("nu", "kh"):
            raise DimensionError(f"mode must be 'nu' or 'kh', got {self.mode!r}")
        same_geometry(self.field1, self.field2)
        self.base.validate(self.field1)
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a > 0 and self.b > 0):
            raise DimensionError(f"constants a, b must be finite and positive, "
                                 f"got a={self.a}, b={self.b}")
        for name, f in (("field1", self.field1), ("field2", self.field2)):
            if not np.all(np.isfinite(f.values)):
                raise RangeError(f"{name} has non-finite values")
        if self.mode == "nu":
            require_umbilic_free(self.field1.values, self.field2.values)
        else:
            require_positive_discriminant(self.field1.values, self.field2.values)

    def half_gap(self) -> np.ndarray:
        """|nu1 - nu2| / 2, which is sqrt(H^2 - K): the weight of the kh-mode constants."""
        if self.mode == "nu":
            return 0.5 * np.abs(self.field1.values - self.field2.values)
        K, H = self.field1.values, self.field2.values
        return np.sqrt(H * H - K)

    def nu_arrays(self):
        """(nu1, nu2) arrays; in kh mode H +- sqrt(H^2 - K), nu1 along u."""
        if self.mode == "nu":
            return self.field1.values, self.field2.values
        H, root = self.field2.values, self.half_gap()
        return H + root, H - root

    def kh_arrays(self):
        if self.mode == "kh":
            return self.field1.values, self.field2.values
        n1, n2 = self.field1.values, self.field2.values
        return n1 * n2, 0.5 * (n1 + n2)

    def kh_constants(self) -> tuple[float, float]:
        """(a, b) in kh mode: a nu grid's constants times sqrt(H^2 - K) at the base node."""
        if self.mode == "kh":
            return self.a, self.b
        s0 = float(self.half_gap()[self.base.i0, self.base.j0])
        return self.a * s0, self.b * s0

    def nu_constants(self) -> tuple[float, float]:
        """(a, b) in nu mode: a kh grid's constants divided by sqrt(H^2 - K) at the base node."""
        if self.mode == "nu":
            return self.a, self.b
        s0 = float(self.half_gap()[self.base.i0, self.base.j0])
        return self.a / s0, self.b / s0

    def normal_sign(self) -> float:
        """1.0 when nu1 > nu2 at every node, -1.0 when nu1 < nu2 at every node:
        the factor on H that keeps the larger curvature along u in kh mode, since
        flipping the normal maps (nu1, nu2) to (-nu1, -nu2) and keeps K. Raises
        UmbilicError when the sign of nu1 - nu2 changes between nodes."""
        nu1, nu2 = self.nu_arrays()
        if np.all(nu1 > nu2):
            return 1.0
        if np.all(nu1 < nu2):
            return -1.0
        raise UmbilicError("nu1 - nu2 changes sign on the grid: the direction labels "
                           "cross, so no normal puts the larger curvature along u")

    def to_kh(self) -> "InvariantGrid":
        """The same surface in kh mode, with the constants of kh_constants() and
        H times normal_sign()."""
        if self.mode == "kh":
            return self
        K, H = self.kh_arrays()
        like = self.geometry.like
        return InvariantGrid("kh", like(K), like(self.normal_sign() * H), *self.kh_constants(),
                             self.base)

    @property
    def geometry(self) -> Grid2:
        return self.field1


@dataclass(frozen=True)
class CanonicalMaps:
    """Sampled monotone maps u -> ubar, v -> vbar (base node to 0), with normalization data."""

    u_samples: np.ndarray
    ubar_samples: np.ndarray
    v_samples: np.ndarray
    vbar_samples: np.ndarray
    a: float
    b: float
    base: BaseIndex
    ubar_integrand_variation: float
    vbar_integrand_variation: float


def _map_1d(integrand_2d: np.ndarray, sqrt_base: float, h: float, k0: int,
            reduce_axis: int, what: str):
    if not np.all(integrand_2d > 0.0):
        raise MonotonicityError(f"{what} integrand is not strictly positive")
    mean_line = integrand_2d.mean(axis=reduce_axis)
    span = integrand_2d.max(axis=reduce_axis) - integrand_2d.min(axis=reduce_axis)
    variation = float(np.max(span / np.abs(mean_line)))
    samples = _cumint4(mean_line, h, k0, axis=0) / sqrt_base
    if np.any(np.diff(samples) <= 0.0):
        raise MonotonicityError(f"{what} map is not strictly increasing")
    return samples, variation


def build_canonical_maps(E: Grid2, G: Grid2, nu1: Grid2, nu2: Grid2,
                         base: BaseIndex) -> CanonicalMaps:
    """Monotone maps to canonical principal parameters from a principal chart.

    The ubar integrand sqrt(E) / Psi1 is evaluated on the whole grid, its
    variation across v is reported (and must shrink as O(h^2) on
    Codazzi-compatible data), and the map is the cumulative integral of its
    v-average along the base row; vbar likewise from sqrt(G) / Psi2. Raises
    CodazziViolation when a variation exceeds CODAZZI_TOL, MonotonicityError
    when an integrand is not positive.
    """
    same_geometry(E, G, nu1, nu2)
    base.validate(E)
    require_umbilic_free(nu1.values, nu2.values)
    gap = nu1.values - nu2.values
    i0, j0 = base.i0, base.j0
    a = float(E.values[i0, j0])
    b = float(G.values[i0, j0])

    psi1, psi2 = path_factors(nu1.values, nu2.values, gap, E, base, FOURTH_ORDER)
    ubar, var_u = _map_1d(np.sqrt(E.values) / psi1, math.sqrt(a), E.du, i0,
                          reduce_axis=1, what="ubar")
    vbar, var_v = _map_1d(np.sqrt(G.values) / psi2, math.sqrt(b), E.dv, j0,
                          reduce_axis=0, what="vbar")

    if max(var_u, var_v) > CODAZZI_TOL:
        raise CodazziViolation(
            f"map integrand varies by {max(var_u, var_v):.3e} along the direction it "
            "must be constant in; the input violates the Codazzi equations")
    return CanonicalMaps(E.u_axis, ubar, E.v_axis, vbar, a, b, base, var_u, var_v)


def _canonical_axis(bar_samples: np.ndarray, n: int):
    # (origin, spacing, count, base index) of an axis with the base image 0 on a node
    lo, hi = float(bar_samples[0]), float(bar_samples[-1])
    d = (hi - lo) / (n - 1)
    k = -lo / d
    if abs(k - round(k)) < AXIS_SNAP:
        return lo, d, n, int(round(k))
    origin = lo + (-lo) % d
    return origin, d, n - 1, int(round(-origin / d))


def _resample_2d(values: np.ndarray, pos_u: np.ndarray, pos_v: np.ndarray) -> np.ndarray:
    # values at the fractional node positions pos_u x pos_v, by the not-a-knot
    # spline along u, then along v
    along_u = np.swapaxes(spline_at(values, pos_u), 0, 1)
    return np.swapaxes(spline_at(along_u, pos_v), 0, 1)


def _source_axes(maps: CanonicalMaps, u_axis: np.ndarray, v_axis: np.ndarray):
    # source node positions; clamp roundoff overshoot of the axis endpoints
    ub = np.clip(u_axis, maps.ubar_samples[0], maps.ubar_samples[-1])
    vb = np.clip(v_axis, maps.vbar_samples[0], maps.vbar_samples[-1])
    return spline_inverse_at(maps.ubar_samples, ub), spline_inverse_at(maps.vbar_samples, vb)


def resample_to_canonical(maps: CanonicalMaps, nu1: Grid2, nu2: Grid2) -> InvariantGrid:
    """Resample direction-labeled curvature fields onto a uniform canonical grid.

    The output grid covers the image of the maps, keeps (very nearly) the
    input resolution, and places the image of the base point exactly on a
    node. Fields are interpolated with the not-a-knot spline of the source
    grid at the node positions the inverse maps give.
    """
    same_geometry(nu1, nu2)
    if maps.ubar_samples.size != nu1.nu or maps.vbar_samples.size != nu1.nv:
        raise DimensionError("maps and fields disagree on grid shape")
    uo, du, n_u, i0 = _canonical_axis(maps.ubar_samples, nu1.nu)
    vo, dv, n_v, j0 = _canonical_axis(maps.vbar_samples, nu1.nv)
    if n_u < 3 or n_v < 3:
        raise RangeError("canonical image too small to carry a grid")
    u_axis = uo + du * np.arange(n_u)
    v_axis = vo + dv * np.arange(n_v)
    pos = _source_axes(maps, u_axis, v_axis)
    f1, f2 = (_resample_2d(f.values, *pos) for f in (nu1, nu2))
    make = lambda vals: Grid2(uo, vo, du, dv, vals)
    return InvariantGrid("nu", make(f1), make(f2), maps.a, maps.b, BaseIndex(i0, j0))


def resample_grid(maps: CanonicalMaps, g: Grid2, like: InvariantGrid) -> Grid2:
    """Resample a companion scalar grid (e.g. E or G) onto `like`'s canonical grid."""
    target = like.geometry
    return target.like(_resample_2d(g.values, *_source_axes(maps, target.u_axis, target.v_axis)))


def verify_canonical(inv: InvariantGrid, E: Grid2, G: Grid2):
    """Residuals of the two canonical-parameter identities (each should be 1).

    Uses the shared second-order substrate only, independently of how the
    grid was canonicalized. Returns one report per identity; equivalently
    this checks E = a * Psi1^2 and G = b * Psi2^2.
    """
    same_geometry(inv.field1, E, G)
    nu1, nu2 = inv.nu_arrays()
    geo = inv.geometry
    psi1, psi2 = path_factors(nu1, nu2, nu1 - nu2, geo, inv.base, SECOND_ORDER)
    r1 = np.sqrt(E.values / inv.a) / psi1 - 1.0
    r2 = np.sqrt(G.values / inv.b) / psi2 - 1.0
    return make_report("canonical-E", geo.like(r1)), make_report("canonical-G", geo.like(r2))


@dataclass(frozen=True)
class AffineMatch:
    """Fitted affine relation between two canonical charts of one surface."""

    lam: float
    mu: float
    c1: float
    c2: float
    swapped: bool
    misfit: float


def _field_interpolators(inv: InvariantGrid):
    from scipy.interpolate import RectBivariateSpline

    g = inv.geometry
    return (RectBivariateSpline(g.u_axis, g.v_axis, inv.field1.values),
            RectBivariateSpline(g.u_axis, g.v_axis, inv.field2.values))


def _law_factors(inv: InvariantGrid):
    """Interpolants of the canonical factors (Psi1, Psi2) of inv, one pair per labeling.

    The factors use the fourth-order stencils of the maps. In kh mode both
    carry sqrt(s / s_base), s the half-gap, which takes the weight of the
    base node out of the constants a, b; and since the magnitude convention
    may have exchanged the direction labels, the pair of the exchanged
    labeling (nu2, nu1) is returned as well.
    """
    from scipy.interpolate import RectBivariateSpline

    g = inv.geometry
    nu1, nu2 = inv.nu_arrays()
    labelings = [(nu1, nu2)]
    weight = 1.0
    if inv.mode == "kh":
        labelings.append((nu2, nu1))
        s = inv.half_gap()
        weight = np.sqrt(s / s[inv.base.i0, inv.base.j0])
    return [tuple(RectBivariateSpline(g.u_axis, g.v_axis, weight * p)
                  for p in path_factors(f1, f2, f1 - f2, g, inv.base, FOURTH_ORDER))
            for f1, f2 in labelings]


def check_affine_equivalence(inv_a: InvariantGrid, inv_b: InvariantGrid) -> AffineMatch:
    """Affine map ubar = lam*u + c1, vbar = mu*v + c2 from canonical chart A onto B
    (with A's u and v exchanged when `swapped`) under which the curvature fields agree.

    The canonical transformation law ties all four numbers to the image q of
    B's base point in A: lam = sqrt(a_A / a_B) Psi1_A(q), mu = sqrt(b_A / b_B)
    Psi2_A(q) (swapped: sqrt(b_A / a_B) Psi2_A(q) and sqrt(a_A / b_B) Psi1_A(q)),
    and the offsets send q to B's base node. q is seeded at the node of A whose
    fields come closest to B's at its base. Every discrete choice (swap, the
    signs of lam and mu, and in kh mode the direction labeling) is scored at
    the seed, ties going to the unswapped axes and positive slopes, and one
    Levenberg-Marquardt fit of q refines the best one.
    misfit is the RMS field discrepancy over A's samples whose image lies in
    B's domain. Raises DimensionError when the grids' modes differ, and
    RangeError when no choice maps a share AFFINE_MIN_OVERLAP of A's samples
    into B's domain.
    """
    if inv_a.mode != inv_b.mode:
        raise DimensionError(f"cannot match a {inv_a.mode}-mode grid against a "
                             f"{inv_b.mode}-mode grid")
    ga, gb = inv_a.geometry, inv_b.geometry
    step_u = max(1, ga.nu // AFFINE_MAX_SAMPLES)
    step_v = max(1, ga.nv // AFFINE_MAX_SAMPLES)
    nodes = np.meshgrid(ga.u_axis, ga.v_axis, indexing="ij")
    samples = [x[::step_u, ::step_v] for x in nodes]
    fields_a = (inv_a.field1.values, inv_a.field2.values)
    f1b, f2b = _field_interpolators(inv_b)
    ib, jb = inv_b.base.i0, inv_b.base.j0
    base_b = (gb.u_axis[ib], gb.v_axis[jb])
    at_base_b = (inv_b.field1.values[ib, jb], inv_b.field2.values[ib, jb])
    lo = (gb.u_axis[0], gb.v_axis[0])
    hi = (gb.u_axis[-1], gb.v_axis[-1])
    consts_a, consts_b = (inv_a.a, inv_a.b), (inv_b.a, inv_b.b)
    cell = np.array([ga.du, ga.dv])
    tie = AFFINE_TIE_RTOL * max(np.max(np.abs(f)) for f in fields_a)

    # order[k]: the axis of A that runs along B's axis k; swapping the axes
    # exchanges the direction-labeled curvatures, but not K and H
    def targets(order, field_pair):
        return tuple(field_pair[k] for k in order) if inv_a.mode == "nu" else field_pair

    def seed(order):
        # ties (a whole row on a surface of revolution) go to the node nearest
        # B's base coordinates
        t1, t2 = targets(order, fields_a)
        dist = np.hypot(t1 - at_base_b[0], t2 - at_base_b[1])
        off = (nodes[order[0]] - base_b[0]) ** 2 + (nodes[order[1]] - base_b[1]) ** 2
        k = np.unravel_index(np.argmin(np.where(dist <= dist.min() + tie, off, np.inf)),
                             dist.shape)
        return np.array([ga.u_axis[k[0]], ga.v_axis[k[1]]])

    def affine(q, choice):
        # (lam, mu, c1, c2), the images of A's samples in B's coordinates, and
        # the derivatives of the images by q
        order, factors, signs = choice
        params, image, grads = [], [], []
        for k, ax in enumerate(order):
            w = signs[k] * math.sqrt(consts_a[ax] / consts_b[k])
            psi = factors[ax]
            slope = w * float(psi.ev(q[0], q[1]))
            dslope = w * np.array([float(psi.ev(q[0], q[1], dx=1)),
                                   float(psi.ev(q[0], q[1], dy=1))])
            rel = samples[ax] - q[ax]
            params += [slope, base_b[k] - slope * q[ax]]
            image.append(slope * rel + base_b[k])
            grad = dslope[:, None, None] * rel
            grad[ax] -= slope
            grads.append(grad)
        lam, c1, mu, c2 = params
        return (lam, mu, c1, c2), image, grads

    def clipped(image, mask):
        return [np.clip(x[mask], lo[k], hi[k]) for k, x in enumerate(image)]

    def field_residual(image, t, mask):
        ub, vb = clipped(image, mask)
        return np.concatenate([f1b(ub, vb, grid=False) - t[0][mask],
                               f2b(ub, vb, grid=False) - t[1][mask]])

    def inside(image):
        return np.all([(lo[k] <= x) & (x <= hi[k]) for k, x in enumerate(image)], axis=0)

    def rms(image, t, mask):
        if not mask.any():
            return math.inf
        r = field_residual(image, t, mask)
        return float(np.sqrt(np.mean(r * r)))

    sample_fields = [f[::step_u, ::step_v] for f in fields_a]
    labelings = _law_factors(inv_a)
    best = None
    for order in ((0, 1), (1, 0)):
        q0 = seed(order)
        t = targets(order, sample_fields)
        for factors in labelings:
            for signs in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
                choice = (order, factors, signs)
                image = affine(q0, choice)[1]
                mask = inside(image)
                if mask.mean() < AFFINE_MIN_OVERLAP:
                    continue
                score = rms(image, t, mask)
                # a tie (a direction the fields do not see) keeps the earlier choice
                if best is None or score < best[0] - tie:
                    best = (score, choice, q0, t, mask)
    if best is None:
        raise RangeError(f"no choice of swap and signs maps {AFFINE_MIN_OVERLAP:.0%} of "
                         "A's samples into B's domain")
    _, choice, q0, t, mask = best

    # the anchor rows hold a direction the fields do not see at its seed; the
    # Jacobian is analytic, as difference quotients of a field that is
    # constant up to roundoff would outweigh them
    def residual(q):
        return np.concatenate([field_residual(affine(q, choice)[1], t, mask),
                               AFFINE_ANCHOR * (q - q0) / cell])

    def jacobian(q):
        _, image, grads = affine(q, choice)
        ub, vb = clipped(image, mask)
        gu, gv = (g[:, mask].T for g in grads)
        rows = [f.ev(ub, vb, dx=1)[:, None] * gu + f.ev(ub, vb, dy=1)[:, None] * gv
                for f in (f1b, f2b)]
        return np.vstack(rows + [np.diag(AFFINE_ANCHOR / cell)])

    fit = least_squares(residual, q0, jac=jacobian, method="lm")
    (lam, mu, c1, c2), image, _ = affine(fit.x, choice)
    return AffineMatch(lam, mu, c1, c2, choice[0] == (1, 0), rms(image, t, inside(image)))


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on the first call: it costs
    about a second to import, and only the affine fit needs it. A module
    global, so a caller may replace it."""
    from scipy.optimize import least_squares as fit

    return fit(*args, **kwargs)
