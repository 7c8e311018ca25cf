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
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import ewald
from . import torus as torus_mod
from .model import ModelParams, Nonlinearity, eps_schedule, nonlinearity_ops
from .radial import RadialSolution
from .stability import principal_eigen_torus

class GeometryError(ValueError):
    """Ball does not fit the fundamental domain or overlaps a sibling."""


class ResolutionError(ValueError):
    """Requested rescaling is below the grid resolution."""


class SweepError(RuntimeError):
    """The first solve of a sweep failed; nothing to warm-start from."""


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
    ball_radius: float = float("nan")

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


def _validate_ball(field, center, r, self_id=None):
    """Ball must fit in the cell and stay clear of other vortices.

    Vortex-centered balls (self_id given) must be pairwise disjoint
    assuming siblings carry the same radius; a free ball must not
    contain any vortex at all.
    """
    if not r > 0:
        raise ValueError("ball radius must be positive, got %r" % (r,))
    L = min(field.domain.periods)
    if not r < 0.5 * L:
        raise GeometryError(
            "ball radius %g does not fit the fundamental domain "
            "(needs r < %g)" % (r, 0.5 * L))
    need = 2.0 * r if self_id is not None else r
    for k, (q, m, sgn) in enumerate(field.vortices.signed()):
        if k == self_id:
            continue
        d = float(np.hypot(*ewald._min_image(np.subtract(center, q),
                                             field.domain.periods)))
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


def _ball(field, center, r, self_id):
    """Validated coverage weights of the ball B_r(center); self_id as in
    _validate_ball."""
    _validate_ball(field, center, r, self_id=self_id)
    return _ball_coverage(field.domain, center, r)


def _ball_integral(field, weights, grid):
    """eps^-2 sum weights * grid * h1 h2: the weighted cell quadrature
    every ball integral goes through."""
    h1, h2 = field.domain.spacings
    return float(np.sum(weights * grid)) * h1 * h2 \
        * field.params.epsilon ** -2


def vortex_mass(field, vortex_id, r):
    """Local mass int_{B_r(p)} eps^-2 f(u) dx around vortex #vortex_id.

    Grid quadrature with partial-cell coverage weights at the ball
    boundary.  Ids index field.vortices.signed().
    """
    p, m, sgn = field.vortices.signed()[vortex_id]
    w = _ball(field, p, r, vortex_id)
    params = field.params
    fgrid = nonlinearity_ops(params.nonlinearity, params.tau).f(field.u)
    return _ball_integral(field, w, fgrid)


def mass_partition(field, r):
    """Split the total mass into per-vortex balls plus the exterior.

    Additivity is exact by construction (the coverage weights sum to
    the full cell measure); the interesting check is that the total
    equals 4 pi (N1 - N2).
    """
    covs = [_ball(field, p, r, k)
            for k, (p, m, sgn) in enumerate(field.vortices.signed())]
    params = field.params
    fgrid = nonlinearity_ops(params.nonlinearity, params.tau).f(field.u)
    masses = tuple(_ball_integral(field, c, fgrid) for c in covs)
    leftover = 1.0 - sum(covs) if covs else np.ones_like(fgrid)
    exterior = _ball_integral(field, leftover, fgrid)
    return {"masses": masses, "exterior": exterior,
            "total": sum(masses) + exterior}


def quantization_value(field, vortex_id, r):
    """Concentration integral int_{B_r(p)} (1-e^u)^2/(eps^2 (tau+e^u)^2) dx.

    Tends to 4 (tau+1) pi m^2 at an m-fold vortex on the vacuum branch.
    """
    params = field.params
    qgrid = nonlinearity_ops(params.nonlinearity, params.tau).q(field.u)
    p, m, sgn = field.vortices.signed()[vortex_id]
    return _ball_integral(field, _ball(field, p, r, vortex_id), qgrid)


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


def _sample_u_grad(field, px, py, want_grad):
    """u (and optionally grad u) at arbitrary points.

    The singular background is evaluated analytically through the
    lattice Green function (torus._u0_at); the smooth remainder v and
    its spectral gradient are sampled bilinearly.
    """
    u0, u0x, u0y = torus_mod._u0_at(field.domain, field.vortices, px, py,
                                    want_grad)
    val = _bilinear_periodic(field.domain, field.v, px, py) + u0
    if not want_grad:
        return val, None, None
    vx, vy = torus_mod.gradient(field.domain, field.v)
    return (val, _bilinear_periodic(field.domain, vx, px, py) + u0x,
            _bilinear_periodic(field.domain, vy, px, py) + u0y)


def pohozaev_value(obj, vortex_id=None, r=None, center=None, n_theta=1024):
    """Both sides of the dilation (Pohozaev) identity on a ball.

    Returns (volume_term, boundary_term, residual) with residual
    |volume - boundary| / max(1, |boundary|).

    For an entire radial solution the identity on B_R reads

        2 pi int_0^R 2 F2(u) r dr
            = 2 pi [ (R v')^2 / 2 + c_log (R v') + R^2 F2(u(R)) ],

    with u = c_log ln r + v; r selects the quadrature radius (nearest
    grid point, default the last).

    For a torus field the ball sits at vortex #vortex_id (or at an
    explicit center with no enclosed vortex) and the identity reads

        eps^-2 int_B 2 F2(u) dx
            = oint [ (x.grad u)(du/dn) - (x.n)|grad u|^2/2 ] ds
              + eps^-2 oint (x.n) F2(u) ds - 4 pi m^2,

    with x the displacement from the center and m the multiplicity.
    The ring is sampled analytically for the singular part and
    bilinearly for the remainder.
    """
    if isinstance(obj, RadialSolution):
        return _pohozaev_radial(obj, r)
    return _pohozaev_torus(obj, vortex_id, r, center, n_theta)


def _pohozaev_radial(sol, r_cut):
    ops = nonlinearity_ops(sol.nonlinearity, sol.tau)
    ops.require_sigma("the Pohozaev balance")
    rr = sol.r
    if r_cut is None:
        k = rr.size - 1
    else:
        k = int(np.argmin(np.abs(rr - r_cut)))
    if k < 8:
        raise ValueError("quadrature radius leaves too few grid points")
    R = rr[k]
    F2 = ops.F2(sol.u[:k + 1])
    # trapezoid keeps the quadrature error dominant and cleanly O(h^2),
    # so refinement studies see it; the 0..r0 gap closes analytically
    volume = 2.0 * np.pi * (np.trapezoid(2.0 * F2 * rr[:k + 1], rr[:k + 1])
                            + F2[0] * rr[0] ** 2)
    rv = R * sol.du[k] - sol.c_log
    boundary = 2.0 * np.pi * (0.5 * rv * rv + sol.c_log * rv
                              + R * R * F2[k])
    residual = abs(volume - boundary) / max(1.0, abs(boundary))
    return float(volume), float(boundary), float(residual)


def _pohozaev_torus(field, vortex_id, r, center, n_theta):
    ops = nonlinearity_ops(field.params.nonlinearity, field.params.tau)
    ops.require_sigma("the Pohozaev balance")
    if r is None:
        raise ValueError("ball radius r is required on the torus")
    if vortex_id is None:
        if center is None:
            center = (0.5 * field.domain.periods[0],
                      0.5 * field.domain.periods[1])
        mult = 0
    else:
        center, mult, _ = field.vortices.signed()[vortex_id]
    cov = _ball(field, center, r, vortex_id)
    volume = _ball_integral(field, cov, 2.0 * ops.F2(field.u))

    ie2 = field.params.epsilon ** -2

    theta = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    ct, st = np.cos(theta), np.sin(theta)
    px = center[0] + r * ct
    py = center[1] + r * st
    uring, ux, uy = _sample_u_grad(field, px, py, want_grad=True)
    un = ct * ux + st * uy  # outward normal derivative
    ring = r * un * un - 0.5 * r * (ux * ux + uy * uy) \
        + ie2 * r * ops.F2(uring)
    boundary = float(np.sum(ring)) * (2.0 * np.pi * r / n_theta) \
        - 4.0 * np.pi * mult ** 2
    residual = abs(volume - boundary) / max(1.0, abs(boundary))
    return float(volume), float(boundary), float(residual)


def rescale_blowup(field, center, scale=None, n_theta=64,
                   y_min=1e-2, points_per_decade=40):
    """Blow-up view u-hat(y) = u(center + scale * y), radially sampled.

    Samples geometric radii out to the largest min-image ball and
    reports angular mean and variance per radius, plus the shifted grid
    w = u - 2 ln(eps).  The default scale is eps itself.
    """
    if scale is None:
        scale = field.params.epsilon
    h1, h2 = field.domain.spacings
    if scale < max(h1, h2):
        raise ResolutionError(
            "rescaling scale %g is below the grid spacing %g"
            % (scale, max(h1, h2)))
    y_max = 0.45 * min(field.domain.periods) / scale
    if y_max <= y_min:
        raise ValueError("scale too large: no radii between y_min and y_max")
    n_r = max(int(points_per_decade * np.log10(y_max / y_min)), 8) + 1
    y = np.geomspace(y_min, y_max, n_r)
    theta = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    px = center[0] + scale * y[:, None] * np.cos(theta)[None, :]
    py = center[1] + scale * y[:, None] * np.sin(theta)[None, :]
    uhat, _, _ = _sample_u_grad(field, px.ravel(), py.ravel(),
                                want_grad=False)
    uhat = uhat.reshape(n_r, n_theta)
    w = field.u - 2.0 * np.log(field.params.epsilon)
    return BlowupProfile(center=(float(center[0]), float(center[1])),
                         scale=float(scale), y=y,
                         angular_mean=uhat.mean(axis=1),
                         angular_variance=uhat.var(axis=1),
                         w=w, n_theta=int(n_theta))


def _min_separation(domain, vortices):
    """Smallest min-image distance between two vortices, or from one to
    its own periodic image (the shorter period)."""
    entries = vortices.signed()
    sep = min(domain.periods)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            d = ewald._min_image(np.subtract(entries[i][0], entries[j][0]),
                                 domain.periods)
            sep = min(sep, float(np.hypot(*d)))
    return sep


def _compact_mask(domain, vortices, K_radius):
    X, Y = domain.mesh
    L1, L2 = domain.periods
    mask = np.ones(tuple(domain.grid_shape), dtype=bool)
    for (p, m, sgn) in vortices.signed():
        mask &= np.hypot(ewald._min_image(X - p[0], L1),
                         ewald._min_image(Y - p[1], L2)) >= K_radius
    return mask


def run_sweep(domain, vortices, tau, epsilons, K_radius=None,
              nonlinearity=Nonlinearity.SIGMA_O3, compute_eigen=False,
              ball_radius=None, first_continuation=None, tol_factor=1e-10,
              keep_fields=True):
    """Warm-started epsilon sweep with per-step diagnostics.

    epsilons must be strictly decreasing.  K is the complement of the
    balls of radius K_radius (default 5 * epsilons[0], fixed across the
    sweep so the compact set does not shrink with epsilon); it must be
    nonempty and K_radius below half the minimal vortex separation
    (periodic images included).  ball_radius (default K_radius) sets
    the per-vortex diagnostic balls.

    The first failed solve aborts with SweepError; later failures are
    recorded on their SweepRecord and the sweep continues from the last
    good iterate.
    """
    eps_list = eps_schedule(epsilons, "epsilons")
    if K_radius is None:
        K_radius = 5.0 * eps_list[0]
    K_radius = float(K_radius)
    if ball_radius is None:
        ball_radius = K_radius
    ball_radius = float(ball_radius)
    if first_continuation is not None and \
            float(first_continuation[-1]) != eps_list[0]:
        raise ValueError("first_continuation must end at epsilons[0]")

    if len(vortices):
        min_sep = _min_separation(domain, vortices)
        if not K_radius < 0.5 * min_sep:
            raise GeometryError(
                "K_radius %g must be below half the minimal vortex "
                "separation %g" % (K_radius, min_sep))
    mask = _compact_mask(domain, vortices, K_radius)
    if not mask.any():
        raise GeometryError("the compact set K is empty at this K_radius")

    records = []
    v_warm = None
    coverages = {}
    for idx, eps in enumerate(eps_list):
        params = ModelParams(tau=tau, epsilon=eps, nonlinearity=nonlinearity)
        try:
            fld = torus_mod.solve_newton(
                domain, vortices, params, v_init=v_warm,
                continuation=first_continuation if idx == 0 else None,
                tol_factor=tol_factor)
        except (torus_mod.NewtonDivergenceError,
                torus_mod.ConvergenceError) as e:
            if idx == 0:
                raise SweepError(
                    "sweep failed at the first epsilon %g: %s"
                    % (eps, e)) from e
            nan = float("nan")
            records.append(SweepRecord(
                epsilon=eps, sup_K=nan, inf_K=nan, total_abs_mass=nan,
                error=str(e), K_radius=K_radius, ball_radius=ball_radius))
            continue
        v_warm = fld.v
        records.append(_make_record(fld, mask, K_radius, ball_radius,
                                    coverages, compute_eigen, keep_fields))
    return records


def _make_record(fld, mask, K_radius, ball_radius, coverages,
                 compute_eigen, keep_fields):
    u = fld.u
    ops = nonlinearity_ops(fld.params.nonlinearity, fld.params.tau)
    fgrid = ops.f(u)
    sigma = ops.sigma
    qgrid = ops.q(u) if sigma else None
    reports = []
    for k, (p, m, sgn) in enumerate(fld.vortices.signed()):
        # the balls are fixed across the sweep: validate and cover once
        if k not in coverages:
            coverages[k] = _ball(fld, p, ball_radius, k)
        cov = coverages[k]
        mass = _ball_integral(fld, cov, fgrid)
        poh = _pohozaev_torus(fld, k, ball_radius, None, 1024) \
            if sigma else (float("nan"),) * 3
        quant = _ball_integral(fld, cov, qgrid) if sigma else float("nan")
        reports.append(VortexReport(
            vortex=k, point=(float(p[0]), float(p[1])),
            multiplicity=int(m), sign=int(sgn), mass=mass,
            beta_proxy=-mass / (4.0 * np.pi) - m,
            pohozaev=poh, quantization=quant))
    eig = principal_eigen_torus(fld) if compute_eigen else None
    return SweepRecord(
        epsilon=fld.params.epsilon,
        sup_K=float(u[mask].max()),
        inf_K=float(u[mask].min()),
        total_abs_mass=_ball_integral(fld, 1.0, np.abs(fgrid)),
        per_vortex=tuple(reports),
        eigen=eig,
        field=fld if keep_fields else None,
        K_radius=K_radius,
        ball_radius=ball_radius)


def classify_alternative(records, zero_tol=1e-2, away_threshold=0.25):
    """Trend verdict over a sweep: which alternative the family realizes.

    A needs both sup_K and inf_K tending to zero (non-increasing |.|
    over the last three records, final value below zero_tol); B needs
    sup_K <= -away_threshold on every record, C symmetrically.
    Anything else is Mixed/Inconclusive.
    """
    ok = [rec for rec in records if rec.ok]
    if len(ok) < 3:
        raise ValueError("need at least 3 successful records, got %d"
                         % len(ok))
    sup = np.array([rec.sup_K for rec in ok])
    inf = np.array([rec.inf_K for rec in ok])

    def to_zero(x):
        # non-increasing |.| over the last three records, except that
        # values already at the floor (0.1 * zero_tol) need not order
        a = np.abs(x)
        tail = a[-3:]
        slack = 1e-15 * (1.0 + float(tail.max()))
        trend = np.all(np.diff(tail) <= slack) or \
            np.all(tail <= 0.1 * zero_tol)
        return bool(trend and tail[-1] <= zero_tol)

    sup_zero = to_zero(sup)
    inf_zero = to_zero(inf)
    sup_below = bool(np.all(sup <= -away_threshold))
    inf_above = bool(np.all(inf >= away_threshold))
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
        "sup_first": float(sup[0]), "sup_last": float(sup[-1]),
        "inf_first": float(inf[0]), "inf_last": float(inf[-1]),
        "sup_to_zero": sup_zero, "inf_to_zero": inf_zero,
        "sup_all_below": sup_below, "inf_all_above": inf_above,
        "zero_tol": float(zero_tol),
        "away_threshold": float(away_threshold),
    }
    return AlternativeVerdict(kind=kind, evidence=evidence)


def squared_ratio_test(epsilons, values, n_last=3, fit_slack=2.0,
                       pair_tol=0.1):
    """Proxy for faster-than-any-power decay: value(eps/2) <= C value(eps)^2.

    Pairs each record with the one at roughly half its epsilon (ratio
    within pair_tol of 2), fits C on the pairs landing before the last
    n_last records, and tests the rest against fit_slack * C.  Returns
    (passed, detail); passed is None when the schedule offers no usable
    pairs on one of the two sides.
    """
    eps = np.asarray(epsilons, dtype=float)
    val = np.abs(np.asarray(values, dtype=float))
    if eps.shape != val.shape or eps.ndim != 1:
        raise ValueError("epsilons and values must be 1-d and equal length")
    pairs = []
    for j in range(eps.size):
        ratios = eps[:j] / eps[j]
        good = np.nonzero(np.abs(ratios - 2.0) <= 2.0 * pair_tol)[0]
        if good.size:
            i = int(good[np.argmin(np.abs(ratios[good] - 2.0))])
            pairs.append((i, j))
    fit = [(i, j) for (i, j) in pairs if j < eps.size - n_last]
    test = [(i, j) for (i, j) in pairs if j >= eps.size - n_last]
    detail = {"pairs": pairs, "fit_pairs": fit, "test_pairs": test,
              "fit_slack": float(fit_slack)}
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
    passed = all(val[j] <= fit_slack * C * val[i] ** 2 for (i, j) in test)
    detail["margins"] = [float(fit_slack * C * val[i] ** 2 - val[j])
                         for (i, j) in test]
    return bool(passed), detail


def export_sweep_csv(records, path):
    """Write sweep records as CSV, per-vortex columns flattened."""
    n_v = max((len(rec.per_vortex) for rec in records), default=0)
    cols = ["epsilon", "sup_K", "inf_K", "total_abs_mass", "error"]
    for k in range(n_v):
        cols += ["v%d_mass" % k, "v%d_beta_proxy" % k,
                 "v%d_pohozaev_volume" % k, "v%d_pohozaev_boundary" % k,
                 "v%d_pohozaev_residual" % k, "v%d_quantization" % k]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for rec in records:
            row = ["%.17g" % rec.epsilon, "%.17g" % rec.sup_K,
                   "%.17g" % rec.inf_K, "%.17g" % rec.total_abs_mass,
                   rec.error or ""]
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
