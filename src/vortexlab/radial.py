"""Radial shooting for the limiting equation on the entire plane.

Solves u'' + u'/r + f_tau(u) = 0 with u(0) = s, u'(0) = 0, or the
vortex-source variant u = c ln r + v (c = 2*vortex_sign*nu) where the
regular part v satisfies v(0) = s, and computes the flux

    beta = (1/2pi) * integral of f_tau(u) dx = -lim r v'(r).

The integrator carries the exact first integral I(r) = int_0^r f t dt
as a third state component, so r u'(r) = c - I(r) can be checked at
every output point.  Tail behavior classifies the run as Topological
(u -> 0), NonTopologicalI (u -> -inf), NonTopologicalII (u -> +inf)
or Undetermined.
"""

import enum
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels

# start radius for the series expansion that removes the 1/r singularity
R0 = 1e-6

# tail tolerances deciding when a profile counts as topological
TOPOLOGICAL_TOL_U = 1e-6
TOPOLOGICAL_TOL_SLOPE = 1e-4

# |u| level at which a run is terminated and classified as divergent;
# the bisected profile stops at the lower level
DIVERGENCE_STOP = 1e4
BISECT_DIVERGENCE_STOP = 30.0

# _shoot's divergence_stop for a bisection probe: stop where the tail
# sign is certified (see _tail_sign), not at a |u| level
_CERTIFY = object()

# |u| level beyond which the tail is called nontopological even
# without an early-stop event
CLASSIFY_DIVERGED = 25.0

# the shooter's defaults: outer radius and output grid density
R_MAX = 1e6
_POINTS_PER_DECADE = 200
# DOP853's relative tolerance (absolute: 1e-2 of it); Hairer, Norsett and
# Wanner, Solving Ordinary Differential Equations I, 2nd ed. (1993), II.10
_TOL = 1e-10


class BCType(enum.Enum):
    TOPOLOGICAL = "Topological"
    NONTOPOLOGICAL_I = "NonTopologicalI"
    NONTOPOLOGICAL_II = "NonTopologicalII"
    UNDETERMINED = "Undetermined"


class MassKind(enum.Enum):
    FLUX = "Flux"
    F1_MASS = "F1Mass"
    F2_MASS = "F2Mass"
    QUANTIZATION = "Quantization"


class IntegrationFailureError(RuntimeError):
    """Integrator gave up (step-size underflow); carries last reached r."""

    def __init__(self, message, r_reached):
        super().__init__(message)
        self.r_reached = r_reached


class BracketError(ValueError):
    """Shooting bracket endpoints diverge to the same side."""


@dataclass
class RadialSolution:
    """One integrated radial profile.

    grid holds (r, u, u') rows for the full solution u; in singular
    mode u includes the c ln r part.  beta is the extrapolated flux,
    diagnostics carries integrator statistics and consistency residuals.
    """

    s: float
    nu: float
    tau: float
    grid: np.ndarray
    beta: float
    bc_type: BCType
    diagnostics: dict = field(default_factory=dict)
    vortex_sign: int = -1

    @property
    def r(self):
        return self.grid[:, 0]

    @property
    def u(self):
        return self.grid[:, 1]

    @property
    def du(self):
        return self.grid[:, 2]

    @property
    def c_log(self):
        return 2.0 * self.vortex_sign * self.nu


@dataclass
class BetaCurve:
    tau: float
    samples: list  # (s, beta, bc_type) triples
    monotone_violations: int
    failures: list = field(default_factory=list)  # (s, message)


def _series_start(s, c_log, tau, nu):
    """Initial state [v, v', I] at R0 from the local expansion.

    Near the origin f(c ln r + s) ~ const * r^(2 nu), so the particular
    solution of v'' + v'/r = -f is -f(u0(r)) r^2 / (2 nu + 2)^2; at
    nu = 0 this is the familiar s - f(s) r^2 / 4.
    """
    u0 = c_log * np.log(R0) + s
    f0 = float(kernels.f_tau(u0, tau))
    p = 2.0 * nu + 2.0
    v = s - f0 * R0**2 / p**2
    dv = -f0 * R0 / p
    i0 = f0 * R0**2 / p
    return [v, dv, i0]


def integrate_radial(s, nu=0.0, tau=1.0, r_max=R_MAX,
                     vortex_sign=-1, divergence_stop=DIVERGENCE_STOP,
                     points_per_decade=_POINTS_PER_DECADE, _retry=True):
    """Integrate the radial profile from R0 out to r_max.

    Parameters
    ----------
    s : float
        Initial value u(0) (regular mode) or regular-part value v(0)
        (singular mode, nu > 0); finite.
    nu : float
        Vortex strength at the origin, finite and >= 0; 0 disables the
        singular split.
    tau : float
        Kernel parameter.
    r_max : float
        Outer integration radius, at least 10 and finite.
    vortex_sign : int
        Sign of the point source: -1 gives u = -2 nu ln r + v (u -> +inf
        at the origin), +1 the mirror orientation.
    divergence_stop : float
        |u| level at which integration stops early and the run is
        classified as divergent.
    points_per_decade : int
        Density of the geometric output grid (also the quadrature grid
        of mass_integral), >= 10.

    Returns
    -------
    RadialSolution
    """
    _check_r_max(r_max)
    _check_points_per_decade(points_per_decade)
    c_log = 2.0 * vortex_sign * nu
    (rr, uu, duu, dvv, ii), event_kind, nfev = _shoot(
        s, nu, tau, r_max, vortex_sign, divergence_stop,
        _radii(r_max, points_per_decade))
    grid = np.column_stack([rr, uu, duu])

    # r u' = c - I(r) is the exact first integral of the equation
    first_integral_residual = float(np.max(np.abs(rr * duu - c_log + ii)))

    beta, beta_samples = _extrapolate_beta(rr, dvv)

    bc_type = _classify(rr, uu, duu, event_kind)

    diagnostics = {
        "nfev": nfev,
        "r_end": float(rr[-1]),
        "u_end": float(uu[-1]),
        "ru_end": float(rr[-1] * duu[-1]),
        "first_integral_residual": first_integral_residual,
        "flux_quadrature": float(ii[-1]),
        "beta_samples": beta_samples,
        "event": event_kind,
        "retried": False,
        "c_log": c_log,
    }

    result = RadialSolution(s=float(s), nu=float(nu), tau=float(tau),
                            grid=grid, beta=float(beta), bc_type=bc_type,
                            diagnostics=diagnostics,
                            vortex_sign=int(vortex_sign))

    if bc_type is BCType.UNDETERMINED and _retry:
        # the same shot once more, out to 100 r_max
        result = integrate_radial(s, nu, tau, r_max * 100.0,
                                  vortex_sign, divergence_stop,
                                  points_per_decade, _retry=False)
        result.diagnostics["retried"] = True
    return result


def _check_r_max(r_max):
    if not 10.0 <= r_max < math.inf:
        raise ValueError("r_max must be finite and >= 10, got %r" % (r_max,))


def _check_points_per_decade(points_per_decade):
    if not points_per_decade >= 10:
        raise ValueError("points_per_decade must be >= 10, got %r"
                         % (points_per_decade,))


def _radii(r_max, points_per_decade):
    """The geometric output grid from R0 to r_max."""
    n_pts = max(int(points_per_decade * np.log10(r_max / R0)), 20) + 1
    return np.geomspace(R0, r_max, n_pts)


def solve_ivp(*args, **kwargs):
    """scipy's solve_ivp, imported on the first shot.  _shoot calls it
    through this module-level name, so a shot can be watched by patching
    radial.solve_ivp."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def _shoot(s, nu, tau, r_max, vortex_sign, divergence_stop, radii):
    """One DOP853 run of the regular part [v, v', I] from R0 to r_max.

    The state is sampled at radii (sorted, inside [R0, r_max]); DOP853's
    steps do not depend on them, so a shot sampled at fewer radii gives
    the same values there and only builds dense output where it samples.
    Returns ((r, u, u', v', I) arrays, event_kind, nfev), u = c ln r + v
    the full solution: event_kind is "up" or "down" when a terminal
    event ended the run, whose point is then appended if it lies past
    the last sample.  The events are |u| = divergence_stop, or, with
    divergence_stop _CERTIFY, the tail-sign certificate of _tail_sign:
    u >= TOPOLOGICAL_TOL_U with u' >= 0 ("up") or its mirror ("down");
    a start that already meets the certificate returns its R0 row with
    that event_kind and nfev 0, unshot.  Events do not change the steps
    either, so a run stopped by either kind holds the same state as an
    unstopped one up to its event.
    """
    if not math.isfinite(s):
        raise ValueError("s must be finite, got %r" % (s,))
    if not 0.0 <= nu < math.inf:
        raise ValueError("nu must be finite and nonnegative, got %r" % (nu,))
    if vortex_sign not in (-1, 1):
        raise ValueError("vortex_sign must be -1 or +1")
    f = kernels.f_tau  # read per shot: a wrapper installed over it is seen
    c_log = 2.0 * vortex_sign * nu
    y0 = _series_start(s, c_log, tau, nu)

    def rhs(r, y):
        u = c_log * np.log(r) + y[0]
        fu = float(f(u, tau))
        return [y[1], -y[1] / r - fu, fu * r]

    # directional events: the singular mode starts at large |u| and
    # transits toward 0, which must not count as divergence
    if divergence_stop is _CERTIFY:
        def hit_upper(r, y):
            return min(c_log * np.log(r) + y[0] - TOPOLOGICAL_TOL_U,
                       c_log / r + y[1])

        def hit_lower(r, y):
            return max(c_log * np.log(r) + y[0] + TOPOLOGICAL_TOL_U,
                       c_log / r + y[1])
    else:
        def hit_upper(r, y):
            return c_log * np.log(r) + y[0] - divergence_stop

        def hit_lower(r, y):
            return c_log * np.log(r) + y[0] + divergence_stop

    hit_upper.terminal = hit_lower.terminal = True
    hit_upper.direction = 1.0
    hit_lower.direction = -1.0

    # an event never fires on a start that already meets it: in regular
    # mode u'(R0) has the sign of s, so |s| > TOPOLOGICAL_TOL_U holds the
    # certificate at R0, and such a probe is decided there unshot
    if divergence_stop is _CERTIFY and (hit_upper(R0, y0) >= 0.0
                                        or hit_lower(R0, y0) <= 0.0):
        rr, (vv, dvv, ii) = np.array([R0]), np.array(y0)[:, None]
        event_kind = "up" if hit_upper(R0, y0) >= 0.0 else "down"
        return (rr, c_log * np.log(rr) + vv, c_log / rr + dvv, dvv, ii), \
            event_kind, 0

    sol = solve_ivp(rhs, (R0, r_max), y0, method="DOP853", rtol=_TOL,
                    atol=_TOL * 1e-2, t_eval=radii,
                    events=(hit_upper, hit_lower))
    # sol.t and sol.y are empty lists when no sample radius was reached
    if sol.status == -1:
        r_reached = sol.t[-1] if len(sol.t) else R0
        raise IntegrationFailureError(sol.message, r_reached)

    rr, vv, dvv, ii = np.vstack([sol.t, sol.y]) if len(sol.t) \
        else np.empty((4, 0))
    event_kind = None
    if sol.status == 1:
        if sol.t_events[0].size:
            event_kind = "up"
            t_ev, y_ev = sol.t_events[0][0], sol.y_events[0][0]
        else:
            event_kind = "down"
            t_ev, y_ev = sol.t_events[1][0], sol.y_events[1][0]
        if rr.size == 0 or t_ev > rr[-1]:
            rr = np.append(rr, t_ev)
            vv = np.append(vv, y_ev[0])
            dvv = np.append(dvv, y_ev[1])
            ii = np.append(ii, y_ev[2])
    uu = c_log * np.log(rr) + vv
    duu = c_log / rr + dvv
    return (rr, uu, duu, dvv, ii), event_kind, int(sol.nfev)


def _extrapolate_beta(rr, dvv):
    """Aitken extrapolation of b(R) = -R v'(R) over the last decades.

    The tail correction decays geometrically decade over decade, so a
    single Aitken step removes the leading term.  Falls back to the
    raw endpoint value when fewer than three decades are available or
    the increments are not contracting.
    """
    b3 = -rr[-1] * dvv[-1]
    if rr[-1] / rr[0] < 1e3:
        return b3, [b3]
    i2 = int(np.searchsorted(rr, rr[-1] / 10.0))
    i1 = int(np.searchsorted(rr, rr[-1] / 100.0))
    b2 = -rr[i2] * dvv[i2]
    b1 = -rr[i1] * dvv[i1]
    d1 = b2 - b1
    d2 = b3 - b2
    denom = d2 - d1
    samples = [b1, b2, b3]
    if abs(d2) < abs(d1) and abs(denom) > 1e-14 * max(abs(b3), 1.0):
        return b3 - d2 * d2 / denom, samples
    return b3, samples


def _in_corridor(r, u, du):
    """Pointwise |u| < TOPOLOGICAL_TOL_U and |r u'| < TOPOLOGICAL_TOL_SLOPE."""
    return (np.abs(u) < TOPOLOGICAL_TOL_U) & \
        (np.abs(r * du) < TOPOLOGICAL_TOL_SLOPE)


def _classify(rr, uu, duu, event_kind):
    if event_kind == "up":
        return BCType.NONTOPOLOGICAL_II
    if event_kind == "down":
        return BCType.NONTOPOLOGICAL_I
    u_end = uu[-1]
    if _in_corridor(rr[-1], u_end, duu[-1]):
        return BCType.TOPOLOGICAL
    if u_end < -CLASSIFY_DIVERGED:
        return BCType.NONTOPOLOGICAL_I
    if u_end > CLASSIFY_DIVERGED:
        return BCType.NONTOPOLOGICAL_II
    # hysteresis: sustained logarithmic slope over the last decade
    mask = rr >= rr[-1] / 10.0
    if mask.sum() >= 3:
        slope = -rr[mask] * duu[mask]
        du_seq = np.diff(uu[mask])
        if np.all(slope > 2.0) and np.all(du_seq < 0):
            return BCType.NONTOPOLOGICAL_I
        if np.all(slope < -2.0) and np.all(du_seq > 0):
            return BCType.NONTOPOLOGICAL_II
    return BCType.UNDETERMINED


def compute_beta_curve(tau, s_values, r_max=R_MAX):
    """Sample beta(s) over a sorted list of nonzero initial values.

    Each sample equals integrate_radial(s, 0.0, tau, r_max)'s beta and
    bc_type.  Its shot samples only the rows of that grid which
    _extrapolate_beta and _classify read: R0, the first radii at or past
    r_max/100 and r_max/10, and r_max; DOP853's steps do not depend on
    them (_shoot), so these rows are the full grid's.  A sample whose shot
    ends at an event, or whose rows classify Undetermined (the hysteresis
    test needs the whole last decade), is shot again by integrate_radial.
    Integration failures are collected per sample instead of aborting
    the sweep.  monotone_violations counts adjacent same-sign pairs
    where beta fails to increase strictly (noise tolerance 1e-6).
    """
    s_values = [float(s) for s in s_values]
    if any(s == 0.0 for s in s_values):
        raise ValueError("s_values must be nonzero")
    if any(b <= a for a, b in zip(s_values, s_values[1:])):
        raise ValueError("s_values must be strictly increasing")
    _check_r_max(r_max)
    radii = _radii(r_max, _POINTS_PER_DECADE)
    rows = radii[[0, *np.searchsorted(radii, [r_max / 100.0, r_max / 10.0]),
                  -1]]

    samples = []
    failures = []
    for s in s_values:
        try:
            (rr, uu, duu, dvv, _), event_kind, _ = _shoot(
                s, 0.0, tau, r_max, -1, DIVERGENCE_STOP, rows)
            bc_type = _classify(rr, uu, duu, event_kind)
            if event_kind is None and bc_type is not BCType.UNDETERMINED:
                beta = float(_extrapolate_beta(rr, dvv)[0])
            else:
                sol = integrate_radial(s, 0.0, tau, r_max)
                beta, bc_type = sol.beta, sol.bc_type
        except IntegrationFailureError as exc:
            failures.append((s, str(exc)))
            continue
        samples.append((s, beta, bc_type))

    violations = 0
    for (s_a, b_a, _), (s_b, b_b, _) in zip(samples, samples[1:]):
        if s_a < 0 < s_b:
            continue  # beta jumps from +inf to -inf across s = 0
        if b_b <= b_a - 1e-6:
            violations += 1
    return BetaCurve(tau=float(tau), samples=samples,
                     monotone_violations=violations, failures=failures)


def _tail_sign(s, nu, tau, r_end, vortex_sign):
    """Which way the profile diverges: -1, +1, or 0 if it never left
    the topological corridor out to r_end; returns (sign, nfev, reshot,
    r_c), r_c the radius where the probe stopped.

    The sign is that of the full-grid shot integrate_radial(s, ..., r_end,
    divergence_stop=BISECT_DIVERGENCE_STOP, _retry=False): its class,
    else the side of u(r_end).  The probe stops where that sign is
    certified.  The kernel satisfies u f(u) <= 0, and the equation is
    (r u')' = -r f(u), in singular mode too (c ln r is harmonic); so a
    profile that reaches u >= TOPOLOGICAL_TOL_U with u' > 0 rises from
    then on, and one that reaches u <= -TOPOLOGICAL_TOL_U with u' < 0
    falls.  Every branch of the sign rule then gives +1, resp. -1, and
    _shoot's certificate events end the probe there; a regular-mode
    probe with |s| > TOPOLOGICAL_TOL_U holds it at R0 and is not shot.
    A probe that reaches r_end uncommitted samples only r_end; only when
    that one row classifies Undetermined is it shot again (reshot),
    sampled on the last decade of the default 200-per-decade grid, the
    rows the hysteresis test of _classify reads.
    """
    shot = (s, nu, tau, r_end, vortex_sign, _CERTIFY)
    (rr, uu, duu, _, _), event_kind, nfev = _shoot(*shot, np.array([r_end]))
    bc_type = _classify(rr, uu, duu, event_kind)
    reshot = bc_type is BCType.UNDETERMINED
    if reshot:
        radii = _radii(r_end, _POINTS_PER_DECADE)
        (rr, uu, duu, _, _), event_kind, more = _shoot(
            *shot, radii[radii >= r_end / 10.0])
        nfev += more
        bc_type = _classify(rr, uu, duu, event_kind)
    if bc_type is BCType.NONTOPOLOGICAL_I:
        sign = -1
    elif bc_type is BCType.NONTOPOLOGICAL_II:
        sign = 1
    elif abs(uu[-1]) < TOPOLOGICAL_TOL_U:
        sign = 0
    else:
        sign = -1 if uu[-1] < 0 else 1
    return sign, nfev, reshot, float(rr[-1])


# find_topological's model probes: they start once the bisection bracket
# is narrower than _MODEL_WIDTH, and a rate fit counts only within
# _MODEL_RATE_TOL of 2 kappa.  Their margin starts at _MODEL_MARGIN times
# the nearest probe's distance from the prediction; it halves (down to
# _MODEL_MARGIN_MIN) after a round that certifies both sides and doubles
# (back up to _MODEL_MARGIN) after one that does not.  Model probes run
# at most _MODEL_CREDIT ahead of the midpoints they let the loop skip,
# and stop where that distance falls below _MODEL_FLOOR: deeper, the
# certificate's |u| >= TOPOLOGICAL_TOL_U bends the law they follow.
_MODEL_WIDTH = 1e-3
_MODEL_RATE_TOL = 0.05
_MODEL_MARGIN = 0.1
_MODEL_MARGIN_MIN = 0.005
_MODEL_CREDIT = 2
_MODEL_FLOOR = 1e-11


def _model_s_star(sides, rate, a, b):
    """Predict s* inside (a, b) from the shot probes on either side.

    sides holds, per side, the (s, r_c) pairs of its certified probes in
    their order of approach to s*, r_c the radius where _tail_sign's
    probe stopped.  That radius follows |s - s*| = D exp(-k r_c) with k
    near rate = 2 kappa, kappa = (1 + tau)^(-3/2): the probe stops where
    the growing mode exp(kappa r) of the linearization overtakes the
    decaying profile exp(-kappa r).  A side's last three probes
    (s1, r1), (s2, r2), (s3, r3) fix k, and then
    s* = s3 + rho (s3 - s2) / (1 - rho), rho = exp(-k (r3 - r2)).
    A side counts only if r_c grows along the three and k lies within
    _MODEL_RATE_TOL of rate.  Of two such sides the faster one is taken:
    on the other, profile and deviation have opposite signs, so the
    probe must also cross the far edge of the corridor
    |u| < TOPOLOGICAL_TOL_U, which slows the law as the profile decays.
    Returns (s*, its distance from s3), or None.
    """
    best = None
    for probes in sides:
        if len(probes) < 3:
            continue
        (s1, r1), (s2, r2), (s3, r3) = probes[-3:]
        if not r1 < r2 < r3:
            continue
        ratio = (s3 - s2) / (s2 - s1)

        def excess(k):
            # (s3 - s2) / (s2 - s1) under the law, minus the measured one
            return (math.exp(-k * (r2 - r1)) * math.expm1(-k * (r3 - r2))
                    / math.expm1(-k * (r2 - r1)) - ratio)

        k_min = rate * (1.0 - _MODEL_RATE_TOL)
        k_max = rate * (1.0 + _MODEL_RATE_TOL)
        if excess(k_min) * excess(k_max) > 0.0:
            continue
        from scipy.optimize import brentq
        k = brentq(excess, k_min, k_max)
        rho = math.exp(-k * (r3 - r2))
        guess = s3 + rho * (s3 - s2) / (1.0 - rho)
        if a < guess < b and (best is None or k > best[0]):
            best = (k, guess, abs(guess - s3))
    return None if best is None else best[1:]


def find_topological(bracket, nu=0.0, tau=1.0, vortex_sign=-1,
                     points_per_decade=_POINTS_PER_DECADE):
    """Bisect the shooting parameter to the topological profile.

    bracket = (s_lo, s_hi) must straddle the connecting value: the two
    endpoint profiles have to diverge to opposite sides.  Each bisection
    probe (_tail_sign) shoots toward r_bisect and stops where its tail
    sign is certified (|u| >= TOPOLOGICAL_TOL_U, moving away from 0;
    at R0 already in regular mode when |s| > TOPOLOGICAL_TOL_U);
    a probe that reaches r_bisect uncommitted samples only r_end, or the
    last decade of the default 200-per-decade grid when the tail needs
    the hysteresis test, whatever points_per_decade is; that sets the
    grid of the returned profile alone, whose own shot stops at
    |u| = BISECT_DIVERGENCE_STOP.

    The loop keeps plain bisection's dyadic midpoints and stop rule,
    which a floating-point bisection always reaches (no step cap), and
    an interval [a, b] that holds s*: every shot probe at or below a
    diverged like s_lo, every one at or above b like s_hi.  A midpoint
    outside [a, b] takes its side's sign unshot (bisect_skipped), which
    on the one crossing that bisection assumes is the sign its shot
    would give; so s* and the profile are plain bisection's.  Once the
    bracket is narrower than _MODEL_WIDTH, a midpoint inside (a, b) is
    preceded by a round of two model probes, at the predicted s* (see
    _model_s_star) minus and plus a margin, each trusted only on the
    side it was sent to.  A model probe of sign 0 ends the model phase,
    and the loop finishes as plain bisection, [a, b] the bracket.

    Returns the profile truncated at the last radius where both
    topological tail tolerances hold; its diagnostics add bisect_probes
    (shot probes, model probes included), bisect_reshots (uncommitted
    probes shot again for the hysteresis test), bisect_nfev (their
    summed nfev) and bisect_skipped.
    """
    _check_points_per_decade(points_per_decade)
    s_lo, s_hi = float(bracket[0]), float(bracket[1])
    if not s_lo < s_hi:
        raise ValueError("bracket must satisfy s_lo < s_hi")

    # the linearization decays on scale (tau+1)^(3/2); integrate far
    # enough that double-precision shooting errors have amplified
    r_bisect = max(200.0, 60.0 * (tau + 1.0) ** 1.5 * (1.0 + nu))
    rate = 2.0 * (1.0 + tau) ** -1.5

    probes = {"bisect_probes": 0, "bisect_reshots": 0, "bisect_nfev": 0,
              "bisect_skipped": 0}

    def tail_sign(s):
        sign, nfev, reshot, r_c = _tail_sign(s, nu, tau, r_bisect,
                                             vortex_sign)
        probes["bisect_probes"] += 1
        probes["bisect_reshots"] += int(reshot)
        probes["bisect_nfev"] += nfev
        return sign, r_c

    (sgn_lo, r_lo), (sgn_hi, r_hi) = tail_sign(s_lo), tail_sign(s_hi)
    s_star = None
    if sgn_lo == 0:
        s_star = s_lo
    elif sgn_hi == 0:
        s_star = s_hi
    elif sgn_lo == sgn_hi:
        raise BracketError(
            "bracket endpoints diverge to the same side (%+d)" % sgn_lo)

    if s_star is None:
        a, b = s_lo, s_hi
        sides = {sgn_lo: [(s_lo, r_lo)], sgn_hi: [(s_hi, r_hi)]}

        def certify(s, sign, r_c):
            nonlocal a, b
            sides[sign].append((s, r_c))
            if sign == sgn_lo:
                a = s
            else:
                b = s

        margin = _MODEL_MARGIN
        model_probes = 0
        modeling = True
        while True:
            mid = 0.5 * (s_lo + s_hi)
            if mid == s_lo or mid == s_hi or s_hi - s_lo < 1e-13:
                break
            guess = None
            if (modeling and a < mid < b and s_hi - s_lo < _MODEL_WIDTH
                    and model_probes <= probes["bisect_skipped"]
                    + _MODEL_CREDIT):
                guess = _model_s_star(sides.values(), rate, a, b)
            if guess is not None and guess[1] < _MODEL_FLOOR:
                modeling = False
            elif guess is not None:
                s_model, width = guess[0], margin * guess[1]
                for s, want in ((s_model - width, sgn_lo),
                                (s_model + width, sgn_hi)):
                    if not a < s < b:
                        continue
                    model_probes += 1
                    sign, r_c = tail_sign(s)
                    if sign == 0:
                        modeling = False
                        a, b = s_lo, s_hi
                        break
                    if sign == want:
                        certify(s, sign, r_c)
                if a >= s_model - width and b <= s_model + width:
                    margin = max(0.5 * margin, _MODEL_MARGIN_MIN)
                else:
                    margin = min(2.0 * margin, _MODEL_MARGIN)
            if mid <= a or mid >= b:
                sgn_mid = sgn_lo if mid <= a else sgn_hi
                probes["bisect_skipped"] += 1
            else:
                sgn_mid, r_c = tail_sign(mid)
                if sgn_mid == 0:
                    break
                certify(mid, sgn_mid, r_c)
            if sgn_mid == sgn_lo:
                s_lo = mid
            else:
                s_hi = mid
        s_star = 0.5 * (s_lo + s_hi)

    sol = integrate_radial(s_star, nu, tau, r_bisect,
                           vortex_sign=vortex_sign,
                           divergence_stop=BISECT_DIVERGENCE_STOP,
                           points_per_decade=points_per_decade,
                           _retry=False)
    sol = _truncate_topological(sol)
    sol.diagnostics.update(probes)
    return sol


def _truncate_topological(sol):
    """Cut the profile at the last point inside the topological corridor."""
    idx = np.nonzero(_in_corridor(sol.r, sol.u, sol.du))[0]
    if idx.size == 0:
        return replace(sol, bc_type=BCType.UNDETERMINED)
    last = idx[-1]
    grid = sol.grid[:last + 1]
    beta = sol.c_log - grid[-1, 0] * grid[-1, 2]
    diagnostics = dict(sol.diagnostics)
    diagnostics["r_end"] = float(grid[-1, 0])
    diagnostics["u_end"] = float(grid[-1, 1])
    diagnostics["ru_end"] = float(grid[-1, 0] * grid[-1, 2])
    diagnostics["truncated"] = True
    return replace(sol, grid=grid, beta=float(beta),
                   bc_type=BCType.TOPOLOGICAL, diagnostics=diagnostics)


def mass_integral(sol, kind):
    """2 pi * int_0^r_end kernel(u(r)) r dr on the stored grid.

    Composite Simpson quadrature plus an O(r0^2) origin correction.
    Undetermined profiles still produce a value but emit a warning.
    """
    kern = {MassKind.FLUX: kernels.f_tau, MassKind.F1_MASS: kernels.F1_tau,
            MassKind.F2_MASS: kernels.F2_tau,
            MassKind.QUANTIZATION: kernels.q_tau}[MassKind(kind)]
    if sol.bc_type is BCType.UNDETERMINED:
        warnings.warn("mass integral on an Undetermined profile",
                      RuntimeWarning, stacklevel=2)
    from scipy.integrate import simpson
    vals = kern(sol.u, sol.tau)
    body = simpson(y=vals * sol.r, x=sol.r)
    origin = 0.5 * float(kern(sol.u[0], sol.tau)) * sol.r[0] ** 2
    return 2.0 * np.pi * (body + origin)
