"""Small-epsilon probes: sweeps, local masses, Pohozaev balances.

As epsilon decreases, a family of torus solutions must (up to
subsequences) do one of three things on a compact set K away from the
vortices: converge to 0 uniformly, stay bounded above by a negative
constant, or bounded below by a positive one.  run_sweep drives a
warm-started family down a schedule and records the trend statistics;
classify_alternative turns them into a verdict, with Mixed/Inconclusive
an allowed honest answer at finite epsilon.

The per-vortex diagnostics operationalize the concentration picture:
ball masses int eps^-2 f(u), the Pohozaev volume/boundary balance, the
quantization integral int q_tau(u)/eps^2 (limit 4(tau+1) pi m^2), and
blow-up rescalings u(center + eps y) for comparison against entire
radial profiles.
"""

import enum
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import ewald, kernels
from . import torus as torus_mod
from .model import ModelParams, eps_schedule
from .radial import RadialSolution
from .stability import EigenConvergenceError, principal_eigen_torus

# rescale_blowup's innermost radius and its radii per decade
_Y_MIN = 1e-2
_POINTS_PER_DECADE = 40
# squared_ratio_test pairs ratios within 2 * _PAIR_TOL of 2 and tests the
# last _N_LAST records against _FIT_SLACK times the fitted constant
_PAIR_TOL = 0.1
_N_LAST = 3
_FIT_SLACK = 2.0
# classify_alternative's gates: |sup_K|, |inf_K| below _ZERO_TOL for A,
# sup_K <= -_AWAY_THRESHOLD on every record for B (inf_K mirrored for C)
_ZERO_TOL = 1e-2
_AWAY_THRESHOLD = 0.25


class GeometryError(ValueError):
    """Ball does not fit the fundamental domain or overlaps a sibling."""


class ResolutionError(ValueError):
    """Requested rescaling is below the grid resolution."""


class SweepError(RuntimeError):
    """A sweep's first solve failed, too few solved for a verdict, or
    an eigen solve failed."""


class Alternative(enum.Enum):
    A_UNIFORM_ZERO = "A_uniform_zero"
    B_SUP_NEGATIVE = "B_sup_negative"
    C_INF_POSITIVE = "C_inf_positive"
    MIXED = "Mixed/Inconclusive"


@dataclass(frozen=True)
class VortexReport:
    """Per-vortex ball diagnostics at one sweep step."""

    vortex: int
    point: tuple
    multiplicity: int
    sign: int
    mass: float
    beta_proxy: float  # -mass/(4 pi) - m
    pohozaev: tuple    # (volume, boundary, residual)
    quantization: float


@dataclass(frozen=True)
class SweepRecord:
    """One epsilon step of a sweep.

    sup_K / inf_K are extrema of u over the vortex-excluding compact
    set K; total_abs_mass tracks int eps^-2 |f(u)|.  error is set (and
    the numeric fields are NaN) when the solve at this epsilon failed.
    resolved and h_over_eps come from the last Newton stage (resolved
    means h <= eps/4), minres_failed counts the Newton steps whose
    inner MINRES solve hit maxiter; all three are None/NaN on a failed
    step.  eigen is the step's principal eigenvalue result when the sweep
    computes it; when that solve raised EigenConvergenceError, eigen is
    None, eigen_error holds its message and the solve's values stay.
    """

    epsilon: float
    sup_K: float
    inf_K: float
    total_abs_mass: float
    per_vortex: tuple = ()
    eigen: object = None
    field: object = None
    error: str = None
    K_radius: float = float("nan")
    resolved: bool = None
    h_over_eps: float = float("nan")
    minres_failed: int = None
    eigen_error: str = None

    @property
    def ok(self):
        return self.error is None


@dataclass(frozen=True)
class AlternativeVerdict:
    kind: Alternative
    evidence: dict = dataclass_field(default_factory=dict)


@dataclass(frozen=True)
class BlowupProfile:
    """Radially sampled rescaling u(center + scale * y).

    angular_mean / angular_variance are statistics of u-hat over the
    sampled angles at each radius y; w is the full shifted grid
    u - 2 ln(eps).
    """

    center: tuple
    scale: float
    y: np.ndarray
    angular_mean: np.ndarray
    angular_variance: np.ndarray
    w: np.ndarray
    n_theta: int


def _validate_ball(geometry, center, r, self_id=None):
    """Ball must fit in the cell and stay clear of other vortices.

    Vortex-centered balls (self_id given) must be pairwise disjoint
    assuming siblings carry the same radius; a free ball must not
    contain any vortex at all.
    """
    if not r > 0:
        raise ValueError("ball radius must be positive, got %r" % (r,))
    L = min(geometry.domain.periods)
    if not r < 0.5 * L:
        raise GeometryError(
            "ball radius %g does not fit the fundamental domain "
            "(needs r < %g)" % (r, 0.5 * L))
    need = 2.0 * r if self_id is not None else r
    for k, (q, m, sgn) in enumerate(geometry.vortices.signed()):
        if k == self_id:
            continue
        d = float(np.hypot(*ewald._min_image(np.subtract(center, q),
                                             geometry.domain.periods)))
        if d < need:
            raise GeometryError(
                "ball of radius %g at (%g, %g) conflicts with vortex %d "
                "at distance %g" % (r, center[0], center[1], k, d))


def _phi(x):
    # antiderivative of sqrt(1 - x^2), clamped to the unit interval
    x = np.clip(x, -1.0, 1.0)
    return 0.5 * (x * np.sqrt(np.maximum(1.0 - x * x, 0.0)) + np.arcsin(x))


def _disk_corner_area(X, Y):
    """Area of {x <= X, y <= Y} inside the unit disk, vectorized.

    Split at x = +-sqrt(1 - Y^2): the middle band integrates Y + g(x)
    with g = sqrt(1 - x^2); the outer caps contribute 2g for Y > 0 and
    nothing for Y < 0.
    """
    X = np.clip(np.asarray(X, dtype=float), -1.0, 1.0)
    Yc = np.clip(np.asarray(Y, dtype=float), -1.0, 1.0)
    xc = np.sqrt(np.maximum(1.0 - Yc * Yc, 0.0))
    lo = np.minimum(X, -xc)
    mid_hi = np.clip(X, -xc, xc)
    caps = 2.0 * (_phi(lo) + 0.25 * np.pi) \
        + 2.0 * (_phi(X) - _phi(xc)) * (X > xc)
    middle = Yc * (mid_hi + xc) + _phi(mid_hi) - _phi(-xc)
    return np.where(Yc >= 0.0, caps, 0.0) + middle


def _ball_coverage(domain, center, r):
    """Area fraction of each grid cell inside the min-image ball.

    Cells are h1 x h2 squares centered on grid points; cells straddling
    the circle get their exact overlap area by corner-area inclusion-
    exclusion, so the only quadrature error left is integrand sampling.
    """
    L1, L2 = domain.periods
    h1, h2 = domain.spacings
    X, Y = domain.mesh
    dx = ewald._min_image(X - center[0], L1)
    dy = ewald._min_image(Y - center[1], L2)
    dist = np.hypot(dx, dy)
    half_diag = 0.5 * np.hypot(h1, h2)
    w = np.zeros(tuple(domain.grid_shape))
    w[dist <= r - half_diag] = 1.0
    band = (dist > r - half_diag) & (dist < r + half_diag)
    if np.any(band):
        a = (dx[band] - 0.5 * h1) / r
        b = (dx[band] + 0.5 * h1) / r
        c = (dy[band] - 0.5 * h2) / r
        d = (dy[band] + 0.5 * h2) / r
        area = (_disk_corner_area(b, d) - _disk_corner_area(a, d)
                - _disk_corner_area(b, c) + _disk_corner_area(a, c))
        # inclusion-exclusion can overshoot [0, 1] by ~1e-13
        w[band] = np.clip(area * r * r / (h1 * h2), 0.0, 1.0)
    return w


def _ball(geometry, center, r, self_id):
    """Validated coverage weights of the ball B_r(center), self_id as in
    _validate_ball; the memo keeps the covered cells and their weights."""
    def build():
        _validate_ball(geometry, center, r, self_id=self_id)
        w = _ball_coverage(geometry.domain, center, r).ravel()
        cells = np.flatnonzero(w)
        return cells, w[cells]
    cells, weights = geometry._cached(("ball", center, r, self_id), build)
    w = np.zeros(geometry.domain.grid_shape)
    w.flat[cells] = weights
    return w


def _vortex(geometry, vortex_id):
    """Entry (point, m, sign) of vortex #vortex_id in vortices.signed();
    the id is an integer (not bool) in range(len(vortices))."""
    entries = geometry.vortices.signed()
    if isinstance(vortex_id, bool) \
            or not isinstance(vortex_id, (int, np.integer)) \
            or not 0 <= vortex_id < len(entries):
        raise ValueError("vortex_id must be an integer in range(%d), one "
                         "per vortex, got %r" % (len(entries), vortex_id))
    return entries[vortex_id]


def _check_n_theta(n_theta):
    if isinstance(n_theta, bool) \
            or not isinstance(n_theta, (int, np.integer)) or n_theta < 1:
        raise ValueError("n_theta must be a positive integer, got %r"
                         % (n_theta,))
    return int(n_theta)


def _ring(geometry, center, r, n_theta):
    """cos, sin of n_theta midpoint angles, the points of |x - center| = r
    there and u0, grad u0 at them (torus._u0_at), once per geometry."""
    def build():
        theta = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
        ct, st = np.cos(theta), np.sin(theta)
        px, py = center[0] + r * ct, center[1] + r * st
        return (ct, st, px, py) + torus_mod._u0_at(geometry, px, py, True)
    return geometry._cached(("ring", center, r, n_theta), build)


def _ball_integral(field, weights, grid):
    """eps^-2 sum weights * grid * h1 h2: the weighted cell quadrature
    every ball integral goes through."""
    h1, h2 = field.domain.spacings
    return float(np.sum(weights * grid)) * h1 * h2 \
        * field.params.epsilon ** -2


def vortex_mass(field, vortex_id, r):
    """Local mass int_{B_r(p)} eps^-2 f(u) dx around vortex #vortex_id.

    Grid quadrature with partial-cell coverage weights at the ball
    boundary.  Ids index field.vortices.signed(); any other id raises
    ValueError.
    """
    p, m, sgn = _vortex(field.geometry, vortex_id)
    return _ball_integral(field, _ball(field.geometry, p, r, vortex_id),
                          field.f)


def mass_partition(field, r):
    """Split the total mass into per-vortex balls plus the exterior.

    Additivity is exact by construction (the coverage weights sum to
    the full cell measure); the interesting check is that the total
    equals 4 pi (N1 - N2).
    """
    covs = [_ball(field.geometry, p, r, k)
            for k, (p, m, sgn) in enumerate(field.vortices.signed())]
    masses = tuple(_ball_integral(field, c, field.f) for c in covs)
    leftover = 1.0 - sum(covs) if covs else np.ones_like(field.f)
    exterior = _ball_integral(field, leftover, field.f)
    return {"masses": masses, "exterior": exterior,
            "total": sum(masses) + exterior}


def quantization_value(field, vortex_id, r):
    """Concentration integral int_{B_r(p)} (1-e^u)^2/(eps^2 (tau+e^u)^2) dx.

    Tends to 4 (tau+1) pi m^2 at an m-fold vortex on the vacuum branch.
    """
    qgrid = field.q
    p, m, sgn = _vortex(field.geometry, vortex_id)
    return _ball_integral(field, _ball(field.geometry, p, r, vortex_id),
                          qgrid)


def _bilinear_periodic(domain, grid, px, py):
    n1, n2 = domain.grid_shape
    h1, h2 = domain.spacings
    gx = np.asarray(px, dtype=float) / h1
    gy = np.asarray(py, dtype=float) / h2
    i0 = np.floor(gx).astype(int)
    j0 = np.floor(gy).astype(int)
    fx = gx - i0
    fy = gy - j0
    i0 %= n1
    j0 %= n2
    i1 = (i0 + 1) % n1
    j1 = (j0 + 1) % n2
    return ((1 - fx) * (1 - fy) * grid[i0, j0]
            + fx * (1 - fy) * grid[i1, j0]
            + (1 - fx) * fy * grid[i0, j1]
            + fx * fy * grid[i1, j1])


def pohozaev_value(obj, vortex_id=None, r=None, center=None, n_theta=1024):
    """Both sides of the dilation (Pohozaev) identity on a ball.

    Returns (volume_term, boundary_term, residual) with residual
    |volume - boundary| / max(1, |boundary|).

    For an entire radial solution the identity on B_R reads

        2 pi int_0^R 2 F2(u) r dr
            = 2 pi [ (R v')^2 / 2 + c_log (R v') + R^2 F2(u(R)) ],

    with u = c_log ln r + v; r selects the quadrature radius (nearest
    grid point, default the last).  vortex_id and center are torus-only
    and raise ValueError here.

    For a torus field the ball sits at vortex #vortex_id (or at an
    explicit center with no enclosed vortex) and the identity reads

        eps^-2 int_B 2 F2(u) dx
            = oint [ (x.grad u)(du/dn) - (x.n)|grad u|^2/2 ] ds
              + eps^-2 oint (x.n) F2(u) ds - 4 pi m^2,

    with x the displacement from the center and m the multiplicity.
    The ring is sampled analytically for the singular part (the lattice
    Green function, once per geometry) and bilinearly for the remainder.
    n_theta, a positive integer, is the number of ring samples.
    """
    n_theta = _check_n_theta(n_theta)
    if isinstance(obj, RadialSolution):
        if vortex_id is not None or center is not None:
            raise ValueError("vortex_id and center apply only on the torus")
        return _pohozaev_radial(obj, r)
    if r is None:
        raise ValueError("ball radius r is required on the torus")
    if vortex_id is None:
        if center is None:
            center = (0.5 * obj.domain.periods[0],
                      0.5 * obj.domain.periods[1])
        center = (float(center[0]), float(center[1]))
        mult = 0
    else:
        center, mult, _ = _vortex(obj.geometry, vortex_id)
    cov = _ball(obj.geometry, center, r, vortex_id)
    return _pohozaev_torus(obj, center, mult, r, cov, n_theta)


def _pohozaev_radial(sol, r_cut):
    rr = sol.r
    if r_cut is None:
        k = rr.size - 1
    else:
        k = int(np.argmin(np.abs(rr - r_cut)))
    if k < 8:
        raise ValueError("quadrature radius leaves too few grid points")
    R = rr[k]
    F2 = kernels.F2_tau(sol.u[:k + 1], sol.tau)
    # trapezoid keeps the quadrature error dominant and cleanly O(h^2),
    # so refinement studies see it; the 0..r0 gap closes analytically
    volume = 2.0 * np.pi * (np.trapezoid(2.0 * F2 * rr[:k + 1], rr[:k + 1])
                            + F2[0] * rr[0] ** 2)
    rv = R * sol.du[k] - sol.c_log
    boundary = 2.0 * np.pi * (0.5 * rv * rv + sol.c_log * rv
                              + R * R * F2[k])
    residual = abs(volume - boundary) / max(1.0, abs(boundary))
    return float(volume), float(boundary), float(residual)


def _pohozaev_torus(field, center, mult, r, cov, n_theta):
    """The torus balance on the validated ball with coverage cov around
    center, which encloses a vortex of multiplicity mult (0: none)."""
    volume = _ball_integral(field, cov, 2.0 * field.F2)

    ie2 = field.params.epsilon ** -2

    ct, st, px, py, *u0 = _ring(field.geometry, center, r, n_theta)
    uring, ux, uy = (_bilinear_periodic(field.domain, g, px, py) + g0
                     for g, g0 in zip((field.v, *field.grad_v), u0))
    un = ct * ux + st * uy  # outward normal derivative
    ring = r * un * un - 0.5 * r * (ux * ux + uy * uy) \
        + ie2 * r * kernels.F2_tau(uring, field.params.tau)
    boundary = float(np.sum(ring)) * (2.0 * np.pi * r / n_theta) \
        - 4.0 * np.pi * mult ** 2
    residual = abs(volume - boundary) / max(1.0, abs(boundary))
    return float(volume), float(boundary), float(residual)


def rescale_blowup(field, center, scale=None, n_theta=64):
    """Blow-up view u-hat(y) = u(center + scale * y), radially sampled.

    Samples geometric radii out to the largest min-image ball and
    reports angular mean and variance per radius, plus the shifted grid
    w = u - 2 ln(eps).  The scale is finite and positive, eps by default;
    n_theta, a positive integer, is the number of angles per radius.
    """
    n_theta = _check_n_theta(n_theta)
    if scale is None:
        scale = field.params.epsilon
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be finite and positive, got %r"
                         % (scale,))
    h1, h2 = field.domain.spacings
    if scale < max(h1, h2):
        raise ResolutionError(
            "rescaling scale %g is below the grid spacing %g"
            % (scale, max(h1, h2)))
    y_max = 0.45 * min(field.domain.periods) / scale
    if y_max <= _Y_MIN:
        raise ValueError("scale too large: no radii between y_min and y_max")
    n_r = max(int(_POINTS_PER_DECADE * np.log10(y_max / _Y_MIN)), 8) + 1
    y = np.geomspace(_Y_MIN, y_max, n_r)
    theta = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    px = (center[0] + scale * y[:, None] * np.cos(theta)[None, :]).ravel()
    py = (center[1] + scale * y[:, None] * np.sin(theta)[None, :]).ravel()
    u0, _, _ = torus_mod._u0_at(field.geometry, px, py, want_grad=False)
    uhat = (_bilinear_periodic(field.domain, field.v, px, py)
            + u0).reshape(n_r, n_theta)
    w = field.u - 2.0 * np.log(field.params.epsilon)
    return BlowupProfile(center=(float(center[0]), float(center[1])),
                         scale=float(scale), y=y,
                         angular_mean=uhat.mean(axis=1),
                         angular_variance=uhat.var(axis=1),
                         w=w, n_theta=n_theta)


def _min_separation(geometry):
    """Smallest min-image distance between two vortices, or from one to
    its own periodic image (the shorter period)."""
    periods = geometry.domain.periods
    entries = geometry.vortices.signed()
    sep = min(periods)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            d = ewald._min_image(np.subtract(entries[i][0], entries[j][0]),
                                 periods)
            sep = min(sep, float(np.hypot(*d)))
    return sep


def run_sweep(geometry, tau, epsilons, K_radius=None, compute_eigen=False,
              first_continuation=None, keep_fields=True):
    """Warm-started epsilon sweep with per-step diagnostics.

    epsilons must be strictly decreasing.  K is the complement of the
    balls of radius K_radius (default 5 * epsilons[0], fixed across the
    sweep so the compact set does not shrink with epsilon) around the
    snapped vortices; it must be nonempty and K_radius finite, positive
    and below half the minimal vortex separation (periodic images
    included).  The per-vortex diagnostic balls have radius K_radius too.
    first_continuation is the first step's solve_newton continuation.

    The first failed solve aborts with SweepError; later failures are
    recorded on their SweepRecord and the sweep continues from the last
    good iterate.  A failed eigen solve (compute_eigen) is recorded as
    the record's eigen_error and ends nothing.
    """
    eps_list = eps_schedule(epsilons, "epsilons")
    if K_radius is None:
        K_radius = 5.0 * eps_list[0]
    K_radius = float(K_radius)
    if not 0.0 < K_radius < math.inf:
        raise ValueError("K_radius must be finite and positive, got %r"
                         % (K_radius,))

    if len(geometry.vortices):
        min_sep = _min_separation(geometry)
        if not K_radius < 0.5 * min_sep:
            raise GeometryError(
                "K_radius %g must be below half the minimal vortex "
                "separation %g" % (K_radius, min_sep))
    X, Y = geometry.domain.mesh
    L1, L2 = geometry.domain.periods
    mask = np.ones(X.shape, dtype=bool)  # K
    for (p, m, sgn) in geometry.vortices.signed():
        mask &= np.hypot(ewald._min_image(X - p[0], L1),
                         ewald._min_image(Y - p[1], L2)) >= K_radius
    if not mask.any():
        raise GeometryError("the compact set K is empty at this K_radius")

    records = []
    v_warm = None
    for idx, eps in enumerate(eps_list):
        params = ModelParams(tau=tau, epsilon=eps)
        try:
            fld = torus_mod.solve_newton(
                geometry, params, v_init=v_warm,
                continuation=first_continuation if idx == 0 else None)
        except (torus_mod.NewtonDivergenceError,
                torus_mod.ConvergenceError, torus_mod.CapacityError) as e:
            if idx == 0:
                raise SweepError(
                    "sweep failed at the first epsilon %g: %s"
                    % (eps, e)) from e
            nan = float("nan")
            records.append(SweepRecord(
                epsilon=eps, sup_K=nan, inf_K=nan, total_abs_mass=nan,
                error=str(e), K_radius=K_radius))
            continue
        v_warm = fld.v
        records.append(_make_record(fld, mask, K_radius, compute_eigen,
                                    keep_fields))
    return records


def _make_record(fld, mask, K_radius, compute_eigen, keep_fields):
    reports = []
    for k, (p, m, sgn) in enumerate(fld.vortices.signed()):
        mass = vortex_mass(fld, k, K_radius)
        reports.append(VortexReport(
            vortex=k, point=(float(p[0]), float(p[1])),
            multiplicity=int(m), sign=int(sgn), mass=mass,
            beta_proxy=-mass / (4.0 * np.pi) - m,
            pohozaev=pohozaev_value(fld, vortex_id=k, r=K_radius),
            quantization=quantization_value(fld, k, K_radius)))
    eig = eig_error = None
    if compute_eigen:
        try:
            eig = principal_eigen_torus(fld)
        except EigenConvergenceError as e:
            eig_error = str(e)
    stage = fld.diagnostics["stages"][-1]
    return SweepRecord(
        epsilon=fld.params.epsilon,
        sup_K=float(fld.u[mask].max()),
        inf_K=float(fld.u[mask].min()),
        total_abs_mass=_ball_integral(fld, 1.0, np.abs(fld.f)),
        per_vortex=tuple(reports),
        eigen=eig,
        field=fld if keep_fields else None,
        K_radius=K_radius,
        resolved=stage["resolved"],
        h_over_eps=stage["h_over_eps"],
        minres_failed=fld.diagnostics["minres_failed"],
        eigen_error=eig_error)


def classify_alternative(records):
    """Trend verdict over a sweep: which alternative the family realizes.

    A needs both sup_K and inf_K tending to zero (non-increasing |.|
    over the last three records, final value below _ZERO_TOL); B needs
    sup_K <= -_AWAY_THRESHOLD on every record, C symmetrically.
    Anything else is Mixed/Inconclusive.  The evidence counts the
    successful records whose grid did not resolve eps (n_underresolved);
    they still enter the verdict.
    """
    ok = [rec for rec in records if rec.ok]
    if len(ok) < 3:
        raise ValueError("need at least 3 successful records, got %d"
                         % len(ok))
    sup = np.array([rec.sup_K for rec in ok])
    inf = np.array([rec.inf_K for rec in ok])

    def to_zero(x):
        # non-increasing |.| over the last three records, except that
        # values already at the floor (0.1 * _ZERO_TOL) need not order
        a = np.abs(x)
        tail = a[-3:]
        slack = 1e-15 * (1.0 + float(tail.max()))
        trend = np.all(np.diff(tail) <= slack) or \
            np.all(tail <= 0.1 * _ZERO_TOL)
        return bool(trend and tail[-1] <= _ZERO_TOL)

    sup_zero = to_zero(sup)
    inf_zero = to_zero(inf)
    sup_below = bool(np.all(sup <= -_AWAY_THRESHOLD))
    inf_above = bool(np.all(inf >= _AWAY_THRESHOLD))
    if sup_zero and inf_zero:
        kind = Alternative.A_UNIFORM_ZERO
    elif sup_below:
        kind = Alternative.B_SUP_NEGATIVE
    elif inf_above:
        kind = Alternative.C_INF_POSITIVE
    else:
        kind = Alternative.MIXED
    evidence = {
        "n_records": len(records),
        "n_failed": len(records) - len(ok),
        "n_underresolved": sum(1 for rec in ok if rec.resolved is False),
        "sup_first": float(sup[0]), "sup_last": float(sup[-1]),
        "inf_first": float(inf[0]), "inf_last": float(inf[-1]),
        "sup_to_zero": sup_zero, "inf_to_zero": inf_zero,
        "sup_all_below": sup_below, "inf_all_above": inf_above,
        "zero_tol": _ZERO_TOL,
        "away_threshold": _AWAY_THRESHOLD,
    }
    return AlternativeVerdict(kind=kind, evidence=evidence)


def squared_ratio_test(epsilons, values):
    """Proxy for faster-than-any-power decay: value(eps/2) <= C value(eps)^2.

    Pairs each record with the one at roughly half its epsilon (ratio
    within 2 * _PAIR_TOL of 2), fits C on the pairs landing before the
    last _N_LAST records, and tests the rest against _FIT_SLACK * C.
    Returns (passed, detail); passed is None when the schedule offers no
    usable pairs on one of the two sides.
    """
    eps = np.asarray(epsilons, dtype=float)
    val = np.abs(np.asarray(values, dtype=float))
    if eps.shape != val.shape or eps.ndim != 1:
        raise ValueError("epsilons and values must be 1-d and equal length")
    pairs = []
    for j in range(eps.size):
        ratios = eps[:j] / eps[j]
        good = np.nonzero(np.abs(ratios - 2.0) <= 2.0 * _PAIR_TOL)[0]
        if good.size:
            i = int(good[np.argmin(np.abs(ratios[good] - 2.0))])
            pairs.append((i, j))
    fit = [(i, j) for (i, j) in pairs if j < eps.size - _N_LAST]
    test = [(i, j) for (i, j) in pairs if j >= eps.size - _N_LAST]
    detail = {"pairs": pairs, "fit_pairs": fit, "test_pairs": test,
              "fit_slack": _FIT_SLACK}
    if not test:
        detail["reason"] = "no half-epsilon pairs land in the tested window"
        return None, detail
    cs = [val[j] / val[i] ** 2 for (i, j) in fit if val[i] > 0]
    if not cs:
        if all(val[j] == 0 for (_, j) in test):
            detail["C"] = 0.0
            return True, detail
        detail["reason"] = "no usable fit pairs with nonzero base value"
        return None, detail
    C = max(cs)
    detail["C"] = float(C)
    passed = all(val[j] <= _FIT_SLACK * C * val[i] ** 2 for (i, j) in test)
    detail["margins"] = [float(_FIT_SLACK * C * val[i] ** 2 - val[j])
                         for (i, j) in test]
    return bool(passed), detail


def export_sweep_csv(records, path):
    """Write sweep records as CSV, per-vortex columns flattened; mu and
    eigen_iterations are empty on a step without an eigen result."""
    n_v = max((len(rec.per_vortex) for rec in records), default=0)
    cols = ["epsilon", "sup_K", "inf_K", "total_abs_mass", "error",
            "resolved", "h_over_eps", "minres_failed", "mu",
            "eigen_iterations"]
    for k in range(n_v):
        cols += ["v%d_mass" % k, "v%d_beta_proxy" % k,
                 "v%d_pohozaev_volume" % k, "v%d_pohozaev_boundary" % k,
                 "v%d_pohozaev_residual" % k, "v%d_quantization" % k]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for rec in records:
            row = ["%.17g" % rec.epsilon, "%.17g" % rec.sup_K,
                   "%.17g" % rec.inf_K, "%.17g" % rec.total_abs_mass,
                   rec.error or "",
                   {True: "true", False: "false", None: ""}[rec.resolved],
                   "%.17g" % rec.h_over_eps,
                   "" if rec.minres_failed is None
                   else "%d" % rec.minres_failed]
            row += ["", ""] if rec.eigen is None else [
                "%.17g" % rec.eigen.eigenvalue, "%d" % rec.eigen.iterations]
            for k in range(n_v):
                if k < len(rec.per_vortex):
                    vr = rec.per_vortex[k]
                    row += ["%.17g" % vr.mass, "%.17g" % vr.beta_proxy,
                            "%.17g" % vr.pohozaev[0],
                            "%.17g" % vr.pohozaev[1],
                            "%.17g" % vr.pohozaev[2],
                            "%.17g" % vr.quantization]
                else:
                    row += [""] * 6
            fh.write(",".join(row) + "\n")
