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
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp, simpson

from .model import Nonlinearity, nonlinearity_ops

# start radius for the series expansion that removes the 1/r singularity
R0 = 1e-6

# tail tolerances deciding when a profile counts as topological
TOPOLOGICAL_TOL_U = 1e-6
TOPOLOGICAL_TOL_SLOPE = 1e-4

# |u| level at which a run is terminated and classified as divergent
DIVERGENCE_STOP = 1e4

# |u| level beyond which the tail is called nontopological even
# without an early-stop event
CLASSIFY_DIVERGED = 25.0

_POINTS_PER_DECADE = 200


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
    nonlinearity: Nonlinearity = Nonlinearity.SIGMA_O3

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


def _series_start(s, c_log, f, nu):
    """Initial state [v, v', I] at R0 from the local expansion.

    Near the origin f(c ln r + s) ~ const * r^(2 nu), so the particular
    solution of v'' + v'/r = -f is -f(u0(r)) r^2 / (2 nu + 2)^2; at
    nu = 0 this is the familiar s - f(s) r^2 / 4.
    """
    u0 = c_log * np.log(R0) + s
    f0 = float(f(u0))
    p = 2.0 * nu + 2.0
    v = s - f0 * R0**2 / p**2
    dv = -f0 * R0 / p
    i0 = f0 * R0**2 / p
    return [v, dv, i0]


def integrate_radial(s, nu=0.0, tau=1.0, r_max=1e6, tol=1e-10,
                     vortex_sign=-1, nonlinearity=Nonlinearity.SIGMA_O3,
                     divergence_stop=DIVERGENCE_STOP,
                     points_per_decade=_POINTS_PER_DECADE, _retry=True):
    """Integrate the radial profile from R0 out to r_max.

    Parameters
    ----------
    s : float
        Initial value u(0) (regular mode) or regular-part value v(0)
        (singular mode, nu > 0).
    nu : float
        Vortex strength at the origin; 0 disables the singular split.
    tau : float
        Kernel parameter.
    r_max : float
        Outer integration radius, >= 10.
    tol : float
        Relative tolerance of the adaptive integrator, in (0, 1e-3].
    vortex_sign : int
        Sign of the point source: -1 gives u = -2 nu ln r + v (u -> +inf
        at the origin), +1 the mirror orientation.
    divergence_stop : float
        |u| level at which integration stops early and the run is
        classified as divergent.
    points_per_decade : int
        Density of the geometric output grid (also the quadrature grid
        of mass_integral).

    Returns
    -------
    RadialSolution
    """
    if not (0.0 < tol <= 1e-3):
        raise ValueError("tol must lie in (0, 1e-3], got %r" % (tol,))
    if r_max < 10.0:
        raise ValueError("r_max must be >= 10, got %r" % (r_max,))
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if vortex_sign not in (-1, 1):
        raise ValueError("vortex_sign must be -1 or +1")
    nonlinearity = Nonlinearity(nonlinearity)
    ops = nonlinearity_ops(nonlinearity, tau)
    if nu > 0:
        ops.require_sigma("singular mode")

    f = ops.f
    c_log = 2.0 * vortex_sign * nu
    y0 = _series_start(s, c_log, f, nu)

    def rhs(r, y):
        u = c_log * np.log(r) + y[0]
        fu = float(f(u))
        return [y[1], -y[1] / r - fu, fu * r]

    # directional events: the singular mode starts at large |u| and
    # transits toward 0, which must not count as divergence
    def hit_upper(r, y):
        return c_log * np.log(r) + y[0] - divergence_stop

    hit_upper.terminal = True
    hit_upper.direction = 1.0

    def hit_lower(r, y):
        return c_log * np.log(r) + y[0] + divergence_stop

    hit_lower.terminal = True
    hit_lower.direction = -1.0

    n_pts = max(int(points_per_decade * np.log10(r_max / R0)), 20) + 1
    t_eval = np.geomspace(R0, r_max, n_pts)

    sol = solve_ivp(rhs, (R0, r_max), y0, method="DOP853", rtol=tol,
                    atol=tol * 1e-2, t_eval=t_eval,
                    events=(hit_upper, hit_lower))
    if sol.status == -1:
        r_reached = sol.t[-1] if sol.t.size else R0
        raise IntegrationFailureError(sol.message, r_reached)

    rr = sol.t
    vv = sol.y[0]
    dvv = sol.y[1]
    ii = sol.y[2]
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
    grid = np.column_stack([rr, uu, duu])

    # r u' = c - I(r) is the exact first integral of the equation
    first_integral_residual = float(np.max(np.abs(rr * duu - c_log + ii)))

    beta, beta_samples = _extrapolate_beta(rr, dvv)

    bc_type = _classify(rr, uu, duu, event_kind)

    diagnostics = {
        "nfev": int(sol.nfev),
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
                            vortex_sign=int(vortex_sign),
                            nonlinearity=nonlinearity)

    if bc_type is BCType.UNDETERMINED and _retry:
        result = integrate_radial(s, nu, tau, r_max * 100.0, tol,
                                  vortex_sign=vortex_sign,
                                  nonlinearity=nonlinearity,
                                  divergence_stop=divergence_stop,
                                  points_per_decade=points_per_decade,
                                  _retry=False)
        result.diagnostics["retried"] = True
    return result


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


def _classify(rr, uu, duu, event_kind):
    if event_kind == "up":
        return BCType.NONTOPOLOGICAL_II
    if event_kind == "down":
        return BCType.NONTOPOLOGICAL_I
    u_end = uu[-1]
    ru_end = rr[-1] * duu[-1]
    if abs(u_end) < TOPOLOGICAL_TOL_U and abs(ru_end) < TOPOLOGICAL_TOL_SLOPE:
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


def compute_beta_curve(tau, s_values, r_max=1e6, tol=1e-10,
                       nonlinearity=Nonlinearity.SIGMA_O3):
    """Sample beta(s) over a sorted list of nonzero initial values.

    Integration failures are collected per sample instead of aborting
    the sweep.  monotone_violations counts adjacent same-sign pairs
    where beta fails to increase strictly (noise tolerance 1e-6).
    """
    s_values = [float(s) for s in s_values]
    if any(s == 0.0 for s in s_values):
        raise ValueError("s_values must be nonzero")
    if any(b <= a for a, b in zip(s_values, s_values[1:])):
        raise ValueError("s_values must be strictly increasing")

    samples = []
    failures = []
    for s in s_values:
        try:
            sol = integrate_radial(s, 0.0, tau, r_max, tol,
                                   nonlinearity=nonlinearity)
        except IntegrationFailureError as exc:
            failures.append((s, str(exc)))
            continue
        samples.append((s, sol.beta, sol.bc_type))

    violations = 0
    for (s_a, b_a, _), (s_b, b_b, _) in zip(samples, samples[1:]):
        if s_a < 0 < s_b:
            continue  # beta jumps from +inf to -inf across s = 0
        if b_b <= b_a - 1e-6:
            violations += 1
    return BetaCurve(tau=float(tau), samples=samples,
                     monotone_violations=violations, failures=failures)


def _tail_sign(s, nu, tau, r_end, tol, vortex_sign, nonlinearity):
    """Which way the profile diverges: -1, +1, or 0 if it never left
    the topological corridor out to r_end."""
    sol = integrate_radial(s, nu, tau, r_end, tol, vortex_sign=vortex_sign,
                           nonlinearity=nonlinearity, divergence_stop=30.0,
                           _retry=False)
    if sol.bc_type is BCType.NONTOPOLOGICAL_I:
        return -1
    if sol.bc_type is BCType.NONTOPOLOGICAL_II:
        return 1
    u_end = sol.u[-1]
    if abs(u_end) < TOPOLOGICAL_TOL_U:
        return 0
    return -1 if u_end < 0 else 1


def find_topological(nu, tau, bracket, tol=1e-10, vortex_sign=-1,
                     nonlinearity=Nonlinearity.SIGMA_O3,
                     points_per_decade=_POINTS_PER_DECADE):
    """Bisect the shooting parameter to the topological profile.

    bracket = (s_lo, s_hi) must straddle the connecting value: the two
    endpoint profiles have to diverge to opposite sides.  Returns the
    profile truncated at the last radius where both topological tail
    tolerances hold.
    """
    if nu > 0:
        nonlinearity_ops(nonlinearity, tau).require_sigma("singular mode")
    s_lo, s_hi = float(bracket[0]), float(bracket[1])
    if not s_lo < s_hi:
        raise ValueError("bracket must satisfy s_lo < s_hi")

    # the linearization decays on scale (tau+1)^(3/2); integrate far
    # enough that double-precision shooting errors have amplified
    r_bisect = max(200.0, 60.0 * (tau + 1.0) ** 1.5 * (1.0 + nu))

    args = (nu, tau, r_bisect, tol, vortex_sign, nonlinearity)
    sgn_lo = _tail_sign(s_lo, *args)
    sgn_hi = _tail_sign(s_hi, *args)
    s_star = None
    if sgn_lo == 0:
        s_star = s_lo
    elif sgn_hi == 0:
        s_star = s_hi
    elif sgn_lo == sgn_hi:
        raise BracketError(
            "bracket endpoints diverge to the same side (%+d)" % sgn_lo)

    if s_star is None:
        for _ in range(200):
            mid = 0.5 * (s_lo + s_hi)
            if mid == s_lo or mid == s_hi or s_hi - s_lo < 1e-13:
                break
            sgn_mid = _tail_sign(mid, *args)
            if sgn_mid == 0:
                break
            if sgn_mid == sgn_lo:
                s_lo = mid
            else:
                s_hi = mid
        s_star = 0.5 * (s_lo + s_hi)

    sol = integrate_radial(s_star, nu, tau, r_bisect, tol,
                           vortex_sign=vortex_sign,
                           nonlinearity=nonlinearity,
                           divergence_stop=30.0,
                           points_per_decade=points_per_decade,
                           _retry=False)
    return _truncate_topological(sol)


def _truncate_topological(sol):
    """Cut the profile at the last point inside the topological corridor."""
    ok = (np.abs(sol.u) < TOPOLOGICAL_TOL_U) & \
         (np.abs(sol.r * sol.du) < TOPOLOGICAL_TOL_SLOPE)
    idx = np.nonzero(ok)[0]
    if idx.size == 0:
        sol.bc_type = BCType.UNDETERMINED
        return sol
    last = idx[-1]
    grid = sol.grid[:last + 1]
    beta = sol.c_log - grid[-1, 0] * grid[-1, 2]
    diagnostics = dict(sol.diagnostics)
    diagnostics["r_end"] = float(grid[-1, 0])
    diagnostics["u_end"] = float(grid[-1, 1])
    diagnostics["ru_end"] = float(grid[-1, 0] * grid[-1, 2])
    diagnostics["truncated"] = True
    return RadialSolution(s=sol.s, nu=sol.nu, tau=sol.tau, grid=grid,
                          beta=float(beta), bc_type=BCType.TOPOLOGICAL,
                          diagnostics=diagnostics,
                          vortex_sign=sol.vortex_sign,
                          nonlinearity=sol.nonlinearity)


def mass_integral(sol, kind):
    """2 pi * int_0^r_end kernel(u(r)) r dr on the stored grid.

    Composite Simpson quadrature plus an O(r0^2) origin correction.
    Undetermined profiles still produce a value but emit a warning.
    Kernels the profile's nonlinearity lacks (CSH: F2 and the
    quantization density) raise UnsupportedKernelError.
    """
    ops = nonlinearity_ops(sol.nonlinearity, sol.tau)
    kern = {MassKind.FLUX: ops.f, MassKind.F1_MASS: ops.F1,
            MassKind.F2_MASS: ops.F2,
            MassKind.QUANTIZATION: ops.q}[MassKind(kind)]
    if sol.bc_type is BCType.UNDETERMINED:
        warnings.warn("mass integral on an Undetermined profile",
                      RuntimeWarning, stacklevel=2)
    vals = kern(sol.u)
    body = simpson(y=vals * sol.r, x=sol.r)
    origin = 0.5 * float(kern(sol.u[0])) * sol.r[0] ** 2
    return 2.0 * np.pi * (body + origin)


def export_profile_csv(sol, path):
    """Write the profile grid as CSV with columns r, u, du_dr."""
    with open(path, "w") as fh:
        fh.write("r,u,du_dr\n")
        for r, u, du in sol.grid:
            fh.write("%.17g,%.17g,%.17g\n" % (r, u, du))


def export_curve_csv(curve, path):
    """Write a beta curve as CSV with columns s, beta, bc_type."""
    with open(path, "w") as fh:
        fh.write("s,beta,bc_type\n")
        for s, beta, bc in curve.samples:
            fh.write("%.17g,%.17g,%s\n" % (s, beta, bc.value))
