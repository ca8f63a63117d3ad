"""Canonical principal parameters: map construction, resampling, verification.

A principal chart is brought to canonical principal parameters by the two
monotone 1-D maps u -> ubar, v -> vbar built from path integrals of the
curvature fields. The ubar integrand is constant in v exactly when the
Codazzi equations hold, so its v-variation doubles as a Codazzi diagnostic.

The canonical factors (Psi1, Psi2) come from grid.path_factors, and the
half-gap |nu1 - nu2| / 2 = sqrt(H^2 - K) from InvariantGrid.half_gap. Map
construction uses grid.FOURTH_ORDER (five-point differences, cubic
quadrature): the maps feed resampling, and second-order map errors would
dominate every downstream comparison. Verification (verify_canonical)
deliberately sticks to grid.SECOND_ORDER so it stays an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

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
    _deriv4,
    path_factors,
    same_geometry,
    spline_inverse_at,
    tensor_at,
)
from .invariants import require_umbilic_free
from .reports import make_report

DISCRIMINANT_RTOL = 1e-12
CODAZZI_TOL = 0.1  # largest map-integrand variation build_canonical_maps accepts
AFFINE_MAX_SAMPLES = 33  # the affine fit keeps every (n // 33)-th node of an n-node axis
AFFINE_MIN_OVERLAP = 0.25  # share of A's samples a choice must map into B's domain
AFFINE_TIE_RTOL = 1e-12  # seed distances and choice scores this close to the least tie
AFFINE_ANCHOR = 1e-8  # weight of the rows that hold q at its seed, per grid cell
# the fit compares cubics; a 3-node axis carries only a parabola, and a 4-node
# one takes the second-order node slopes of grid._diff, not the cubic through them
AFFINE_MIN_NODES = 4
AFFINE_LM_DAMPING = 1e-6  # first Levenberg-Marquardt damping, relative to J's column norms
AFFINE_LM_TOL = 1e-8  # the fit stops once a step changes q or the cost by less than this share
AFFINE_LM_MAX_NFEV = 300  # evaluations of the fit's residual, 100 (n + 1) for n = 2 unknowns
# a base image this many steps from a node of the axis through the map's ends
# lies on it: the map samples carry roundoff, which must not shift the origin
# by a roundoff-sized remainder and drop a node
AXIS_SNAP = 1e-9


def require_positive_discriminant(K: np.ndarray, H: np.ndarray) -> None:
    disc = H * H - K
    floor = DISCRIMINANT_RTOL * np.maximum(1.0, np.maximum(H * H, np.abs(K)))
    if np.any(disc <= floor):
        worst = np.unravel_index(int(np.argmin(disc - floor)), disc.shape)
        raise DiscriminantError(
            f"H^2 - K = {disc[worst]:.3e} at node {tuple(int(w) for w in worst)} is not above "
            f"{floor[worst]:.3e} = {DISCRIMINANT_RTOL:g} * max(1, H^2, |K|), the floor for its "
            "cancellation error of about eps * H^2 (nu mode has no such floor)")


@dataclass(frozen=True)
class InvariantGrid:
    """Two invariant fields on a grid, with the base point and constants a, b.

    mode "nu": field1 = nu1, field2 = nu2 (direction-labeled, need not be
    ordered by size). mode "kh": field1 = K, field2 = H, and a, b carry the
    H^2 - K weighted normalization (a = E * sqrt(H^2 - K) at the base). In kh
    mode nu1 = H + sqrt(H^2 - K), the larger curvature, lies along u;
    kh_arrays and to_kh pick the normal that makes it so.
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
        """(K, H) arrays; in nu mode nu1 nu2 and normal_sign() (nu1 + nu2) / 2,
        the mean curvature of the normal that puts the larger curvature along u."""
        if self.mode == "kh":
            return self.field1.values, self.field2.values
        n1, n2 = self.field1.values, self.field2.values
        return n1 * n2, self.normal_sign() * (0.5 * (n1 + n2))

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
        """The same surface in kh mode: the fields of kh_arrays() and the
        constants of kh_constants()."""
        if self.mode == "kh":
            return self
        K, H = self.kh_arrays()
        like = self.geometry.like
        return InvariantGrid("kh", like(K), like(H), *self.kh_constants(), self.base)

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


def _source_axes(maps: CanonicalMaps, u_axis: np.ndarray, v_axis: np.ndarray):
    # source node positions; clamp roundoff overshoot of the axis endpoints
    ub = np.clip(u_axis, maps.ubar_samples[0], maps.ubar_samples[-1])
    vb = np.clip(v_axis, maps.vbar_samples[0], maps.vbar_samples[-1])
    return spline_inverse_at(maps.ubar_samples, ub), spline_inverse_at(maps.vbar_samples, vb)


def resample_to_canonical(maps: CanonicalMaps, nu1: Grid2, nu2: Grid2) -> InvariantGrid:
    """Resample direction-labeled curvature fields onto a uniform canonical grid.

    The output grid covers the image of the maps, keeps (very nearly) the
    input resolution, and places the image of the base point exactly on a
    node. Fields are interpolated at the node positions the inverse maps give
    by the Hermite cubic of the source grid whose node slopes are the
    five-point ones of grid._deriv4, fourth order up to the grid's edges.
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
    pu, pv = _source_axes(maps, u_axis, v_axis)
    f1, f2 = (tensor_at(f.values, _deriv4(f.values, 1.0, 0), pu, pv, 0, 0) for f in (nu1, nu2))
    make = lambda vals: Grid2(uo, vo, du, dv, vals)
    return InvariantGrid("nu", make(f1), make(f2), maps.a, maps.b, BaseIndex(i0, j0))


def resample_grid(maps: CanonicalMaps, g: Grid2, like: InvariantGrid) -> Grid2:
    """Resample a function on the chart, such as the positions or a curvature field, onto
    `like`'s canonical grid. Metric coefficients pick up the squared slopes of the maps,
    so a canonical chart's E and G are read from its resampled positions instead."""
    target = like.geometry
    pu, pv = _source_axes(maps, target.u_axis, target.v_axis)
    return target.like(tensor_at(g.values, _deriv4(g.values, 1.0, 0), pu, pv, 0, 0))


def verify_canonical(inv: InvariantGrid, E: Grid2, G: Grid2):
    """Residuals of the two canonical-parameter identities (each should be 1).

    Uses the shared second-order substrate only, independently of how the
    grid was canonicalized. Returns one report per identity; equivalently
    this checks E = a * Psi1^2 and G = b * Psi2^2 with (a, b) =
    inv.nu_constants(), so a kh grid reads as its nu twin.
    """
    same_geometry(inv.field1, E, G)
    nu1, nu2 = inv.nu_arrays()
    a, b = inv.nu_constants()
    geo = inv.geometry
    psi1, psi2 = path_factors(nu1, nu2, nu1 - nu2, geo, inv.base, SECOND_ORDER)
    r1 = np.sqrt(E.values / a) / psi1 - 1.0
    r2 = np.sqrt(G.values / b) / psi2 - 1.0
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


def check_affine_equivalence(inv_a: InvariantGrid, inv_b: InvariantGrid) -> AffineMatch:
    """Affine map ubar = lam*u + c1, vbar = mu*v + c2 from canonical chart A onto B
    (with A's u and v exchanged when `swapped`) under which the curvature fields agree.

    Both grids are read in nu mode, through nu_arrays() and nu_constants(),
    so either may be a nu or a kh grid. The canonical transformation law ties
    all four numbers to the image q of B's base point in A: lam = sqrt(a_A /
    a_B) Psi1_A(q), mu = sqrt(b_A / b_B) Psi2_A(q), and the offsets send q to
    B's base node; a swapped fit is that of A transposed. A chart's order of
    nu1 and nu2 is its normal_sign(), which a swap reverses, and a view of A
    ordered unlike B is charted with the other normal: its curvatures are
    negated. q is seeded at the node of A whose fields come closest to B's at
    its base. Every discrete choice (swap and the signs of lam and mu) is
    scored at the seed, ties going to the unswapped axes and positive slopes,
    and one Levenberg-Marquardt fit of q refines the best one. misfit is the
    RMS discrepancy of (nu1, nu2) over A's samples whose image lies in B's
    domain. Raises DimensionError when either grid has fewer than
    AFFINE_MIN_NODES nodes on an axis, UmbilicError when nu1 - nu2 changes sign
    on either grid, and RangeError when no choice maps a share
    AFFINE_MIN_OVERLAP of A's samples into B's domain.
    """
    for name, inv in (("A", inv_a), ("B", inv_b)):
        g = inv.geometry
        if min(g.nu, g.nv) < AFFINE_MIN_NODES:
            raise DimensionError(f"the affine fit needs at least {AFFINE_MIN_NODES} nodes "
                                 f"per axis, grid {name} has {g.nu}x{g.nv}")
    order_a, order_b = inv_a.normal_sign(), inv_b.normal_sign()
    ga, gb = inv_a.geometry, inv_b.geometry
    nu1, nu2 = inv_a.nu_arrays()
    # with the fourth-order stencils of the maps
    factors_a = np.stack(path_factors(nu1, nu2, nu1 - nu2, ga, inv_a.base, FOURTH_ORDER), axis=-1)
    fields_a, fields_b = np.stack([nu1, nu2], axis=-1), np.stack(inv_b.nu_arrays(), axis=-1)
    slopes_b = _deriv4(fields_b, 1.0, 0)
    # rows: origin, cell, last node and constants, per axis
    geo_a = np.array([[ga.u0, ga.v0], [ga.du, ga.dv], [ga.nu - 1, ga.nv - 1], inv_a.nu_constants()])
    lo, cell_b, last_b, consts_b = np.array([[gb.u0, gb.v0], [gb.du, gb.dv], [gb.nu - 1, gb.nv - 1],
                                             inv_b.nu_constants()])
    hi = lo + cell_b * last_b
    base_b = lo + cell_b * [inv_b.base.i0, inv_b.base.j0]
    tie = AFFINE_TIE_RTOL * np.max(np.abs(fields_a))

    def chart_a(swapped):
        # A with its axes in B's order: transposed when swapped, which
        # exchanges the direction-labeled curvatures, their factors and the
        # constants, and so reverses A's order; a view ordered unlike B has
        # the other normal, which negates the curvatures
        fields, factors, geo = fields_a, factors_a, geo_a
        if order_a * (-1.0 if swapped else 1.0) != order_b:
            fields = -fields
        if swapped:
            fields, factors = (x.transpose(1, 0, 2)[..., ::-1] for x in (fields, factors))
            geo = geo[:, ::-1]
        origin, cell, last, consts = geo
        u, v = (o + c * np.arange(n + 1) for o, c, n in zip(origin, cell, last))
        steps = [max(1, ax.size // AFFINE_MAX_SAMPLES) for ax in (u, v)]
        # the seed; ties (a whole row on a surface of revolution) go to the node
        # nearest B's base coordinates
        dist = np.hypot(*np.moveaxis(fields - fields_b[inv_b.base.i0, inv_b.base.j0], -1, 0))
        off = (u[:, None] - base_b[0]) ** 2 + (v[None, :] - base_b[1]) ** 2
        k = np.unravel_index(np.argmin(np.where(dist <= dist.min() + tie, off, np.inf)),
                             dist.shape)
        return SimpleNamespace(swapped=swapped, q0=np.array([u[k[0]], v[k[1]]]), factors=factors,
                               slopes=_deriv4(factors, 1.0, 0), origin=origin, cell=cell,
                               last=last, consts=consts, samples=(u[::steps[0]], v[::steps[1]]),
                               targets=fields[::steps[0], ::steps[1]])

    def affine(a, q, signs):
        # slopes, offsets, the images of the sample axes in B's coordinates and
        # their derivatives by q
        pos = np.clip((q - a.origin) / a.cell, 0.0, a.last)
        psi, psi_u, psi_v = (tensor_at(a.factors, a.slopes, pos[:1], pos[1:], *d)[0, 0]
                             / np.prod(a.cell**d) for d in ((0, 0), (1, 0), (0, 1)))
        w = signs * np.sqrt(a.consts / consts_b)
        slope, dslope = w * psi, w * np.array([psi_u, psi_v])
        rel = [x - q[k] for k, x in enumerate(a.samples)]
        image = [slope[k] * r + base_b[k] for k, r in enumerate(rel)]
        grads = [dslope[:, k, None] * r - slope[k] * np.eye(2)[:, k, None]
                 for k, r in enumerate(rel)]
        return slope, base_b - slope * q, image, grads

    def flat(table):
        return np.moveaxis(table, -1, 0).ravel()

    def inside(image):
        return [(lo[k] <= x) & (x <= hi[k]) for k, x in enumerate(image)]

    def fields_at(image, masks, d):
        # B's fields, or a derivative, on the tensor product of the kept images, at
        # node positions clamped to B's grid against roundoff past its ends
        pos = [np.clip((x[m] - lo[k]) / cell_b[k], 0.0, last_b[k])
               for k, (x, m) in enumerate(zip(image, masks))]
        return tensor_at(fields_b, slopes_b, *pos, *d) / np.prod(cell_b**d)

    def field_residual(a, image, masks):
        return flat(fields_at(image, masks, (0, 0)) - a.targets[np.ix_(*masks)])

    def rms(a, image, masks):
        if not all(m.any() for m in masks):
            return math.inf
        r = field_residual(a, image, masks)
        return float(np.sqrt(np.mean(r * r)))

    best = None
    for a in (chart_a(False), chart_a(True)):
        for signs in np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]):
            image = affine(a, a.q0, signs)[2]
            masks = inside(image)
            if masks[0].mean() * masks[1].mean() < AFFINE_MIN_OVERLAP:
                continue
            score = rms(a, image, masks)
            # a tie (a direction the fields do not see) keeps the earlier choice
            if best is None or score < best[0] - tie:
                best = (score, a, signs, masks)
    if best is None:
        raise RangeError(f"no choice of swap and signs maps {AFFINE_MIN_OVERLAP:.0%} of "
                         "A's samples into B's domain")
    _, a, signs, masks = best

    # the anchor rows hold a direction the fields do not see at its seed; the
    # Jacobian is analytic, as difference quotients of a field that is
    # constant up to roundoff would outweigh them
    def residual(q):
        return np.concatenate([field_residual(a, affine(a, q, signs)[2], masks),
                               AFFINE_ANCHOR * (q - a.q0) / a.cell])

    def jacobian(q):
        *_, image, grads = affine(a, q, signs)
        fu, fv = (fields_at(image, masks, d) for d in ((1, 0), (0, 1)))
        gu, gv = (g[:, m] for g, m in zip(grads, masks))
        cols = [flat(fu * gu[j][:, None, None] + fv * gv[j][:, None]) for j in (0, 1)]
        return np.vstack([np.column_stack(cols), np.diag(AFFINE_ANCHOR / a.cell)])

    fit = least_squares(residual, a.q0, jacobian)
    (lam, mu), (c1, c2), image, _ = affine(a, fit.x, signs)
    return AffineMatch(float(lam), float(mu), float(c1), float(c2), a.swapped,
                       rms(a, image, inside(image)))


def least_squares(fun, x0, jac) -> SimpleNamespace:
    """Levenberg-Marquardt minimum of |fun(x)|^2 from x0, with the Jacobian
    jac(x) (Moré, Lecture Notes in Math. 630, 1978): each step solves [J;
    sqrt(damping) D] step = [-r; 0] by least squares, D the column norms of J,
    and a step that lowers the cost is taken and cuts the damping tenfold,
    any other raises it tenfold. Returns x, nfev (evaluations of fun) and
    status: 1 once a step moves x, or a taken step lowers the cost, by less
    than AFFINE_LM_TOL of its size, 0 when AFFINE_LM_MAX_NFEV evaluations
    stopped the loop. A module global, so a caller may wrap it."""
    x = np.asarray(x0, dtype=float)
    r = fun(x)
    cost, nfev, damping = r @ r, 1, AFFINE_LM_DAMPING
    while nfev < AFFINE_LM_MAX_NFEV:
        J = jac(x)
        lhs = np.vstack([J, np.diag(math.sqrt(damping) * np.linalg.norm(J, axis=0))])
        step = np.linalg.lstsq(lhs, np.concatenate([-r, np.zeros(x.size)]), rcond=None)[0]
        trial = fun(x + step)
        nfev += 1
        done = np.linalg.norm(step) <= AFFINE_LM_TOL * (AFFINE_LM_TOL + np.linalg.norm(x))
        if trial @ trial < cost:
            done = done or cost - trial @ trial <= AFFINE_LM_TOL * cost
            x, r, cost, damping = x + step, trial, trial @ trial, damping / 10.0
        else:
            damping *= 10.0
        if done:
            return SimpleNamespace(x=x, nfev=nfev, status=1)
    return SimpleNamespace(x=x, nfev=nfev, status=0)
