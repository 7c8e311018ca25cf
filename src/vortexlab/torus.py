"""Spectral solvers for the vortex equation on a flat 2-torus.

The unknown is split as u = u0 + v: u0 carries every Dirac source via
periodic Green functions (so near a positive vortex u0 ~ 2m ln|x-p|),
and the smooth correction v solves

    F(v) = Lap v + eps^-2 f_tau(u0 + v) - 4pi(N1 - N2)/|O| = 0.

Integrating the equation over the torus kills the Laplacian, so every
converged field satisfies the exact total-mass identity
int eps^-2 f_tau(u) dx = 4pi(N1 - N2); tests lean on this heavily.

All derivatives are spectral (FFT); vortex positions are snapped to
grid points so the discrete deltas sit on the mesh.  solve_newton is
the general driver (damped, optionally eps-continued); solve_monotone
is the classical sub/supersolution scheme for the stable branch.
"""

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import LinearOperator, minres

from . import ewald
from .model import ModelParams, VortexSet, eps_schedule, nonlinearity_ops


class ResolutionWarning(UserWarning):
    """Grid spacing too coarse for the requested epsilon."""


class NewtonDivergenceError(RuntimeError):
    """Damped Newton kept growing; carries the last iterate in .field."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class MonotonicityError(RuntimeError):
    """Monotone iteration violated ordering (shift constant too small)."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching tolerance."""


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TorusDomain:
    """Flat rectangular torus with a periodic FFT grid.

    Grid values are indexed [i, j] for the point (i*L1/n1, j*L2/n2).
    """

    periods: tuple = (1.0, 1.0)
    grid_shape: tuple = (256, 256)

    def __post_init__(self):
        L1, L2 = self.periods
        n1, n2 = self.grid_shape
        if not (L1 > 0 and L2 > 0):
            raise ValueError("periods must be positive")
        if not (_is_pow2(n1) and _is_pow2(n2)) or n1 < 32 or n2 < 32:
            raise ValueError("grid_shape must be powers of two, >= 32")
        object.__setattr__(self, "periods", (float(L1), float(L2)))
        object.__setattr__(self, "grid_shape", (int(n1), int(n2)))

    @property
    def area(self):
        return self.periods[0] * self.periods[1]

    @property
    def spacings(self):
        return (self.periods[0] / self.grid_shape[0],
                self.periods[1] / self.grid_shape[1])

    @cached_property
    def axes(self):
        h1, h2 = self.spacings
        return (np.arange(self.grid_shape[0]) * h1,
                np.arange(self.grid_shape[1]) * h2)

    @cached_property
    def mesh(self):
        return np.meshgrid(*self.axes, indexing="ij")

    @cached_property
    def _k(self):
        # wavenumbers on the real-FFT half plane: full axis 0, half axis 1
        h1, h2 = self.spacings
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.grid_shape[0], d=h1)
        k2 = 2.0 * np.pi * np.fft.rfftfreq(self.grid_shape[1], d=h2)
        return k1[:, None], k2[None, :]

    @cached_property
    def _k2(self):
        k1, k2 = self._k
        return k1 ** 2 + k2 ** 2

    @cached_property
    def _inv_lap(self):
        # zero-mean inverse Laplacian: the constant mode gets -1/inf = 0
        return -1.0 / np.where(self._k2 > 0.0, self._k2, np.inf)

    @cached_property
    def _ik(self):
        # first derivatives of real fields: zero the Nyquist modes
        k1, k2 = (k.copy() for k in self._k)
        k1[self.grid_shape[0] // 2] = 0.0
        k2[..., -1] = 0.0
        return 1j * k1, 1j * k2

    def _multiply(self, symbol, g):
        """Apply a Fourier multiplier given on the half spectrum."""
        return np.fft.irfft2(symbol * np.fft.rfft2(g), s=self.grid_shape)


def laplacian(domain, g):
    return -domain._multiply(domain._k2, g)


def poisson_solve(domain, rhs):
    """Zero-mean solution of Lap phi = rhs - mean(rhs)."""
    return domain._multiply(domain._inv_lap, rhs)


def gradient(domain, g):
    ik1, ik2 = domain._ik
    return domain._multiply(ik1, g), domain._multiply(ik2, g)


def cell_integral(domain, values):
    """Equal-weight (trapezoidal on the periodic grid) quadrature."""
    h1, h2 = domain.spacings
    return float(values.sum() * h1 * h2)


def snap_to_grid(domain, point):
    """Nearest grid point of `point` (indices and coordinates)."""
    h1, h2 = domain.spacings
    n1, n2 = domain.grid_shape
    i = int(np.round(point[0] / h1)) % n1
    j = int(np.round(point[1] / h2)) % n2
    return (i, j), (i * h1, j * h2)


def snapped_vortices(domain, vortices):
    """VortexSet with every position replaced by the nearest grid point.

    Emits a warning when any vortex actually moves; raises ValueError
    when two vortices snap to one grid point.
    """
    h1, h2 = domain.spacings
    moved = []
    taken = {}

    def snap_entries(entries):
        out = []
        for (p, m) in entries:
            _, q = snap_to_grid(domain, p)
            if q in taken:
                raise ValueError(
                    "vortices at (%g, %g) and (%g, %g) both snap to the grid "
                    "point (%g, %g); refine the grid to separate them"
                    % (taken[q] + p + q))
            taken[q] = p
            dx = abs(p[0] - q[0])
            dy = abs(p[1] - q[1])
            if max(dx, dy) > 1e-12 * max(h1, h2):
                moved.append((p, q))
            out.append((q, m))
        return tuple(out)

    pos = snap_entries(vortices.positive_vortices)
    neg = snap_entries(vortices.negative_vortices)
    if moved:
        warnings.warn("%d vortex position(s) snapped to the grid" % len(moved),
                      UserWarning, stacklevel=2)
    return VortexSet(positive_vortices=pos, negative_vortices=neg)


@dataclass(frozen=True)
class GreenField:
    domain: TorusDomain
    source: tuple
    values: np.ndarray
    regular_part_at_source: float


def green_function(domain, source):
    """Periodic Green function -Lap G = delta_src - 1/|O|, zero mean.

    The source is snapped to the nearest grid point; the regular part
    gamma(p,p) is estimated by averaging G + (1/2pi) ln|x-p| over a
    ring of grid points at radius ~4h.
    """
    (i, j), src = snap_to_grid(domain, source)
    h1, h2 = domain.spacings
    delta = np.zeros(domain.grid_shape)
    delta[i, j] = 1.0 / (h1 * h2)
    rhs = delta - 1.0 / domain.area
    G = poisson_solve(domain, -rhs)

    X1, X2 = domain.mesh
    L1, L2 = domain.periods
    dist = np.hypot(ewald._min_image(X1 - src[0], L1),
                    ewald._min_image(X2 - src[1], L2))
    h = max(h1, h2)
    ring = (dist >= 3.5 * h) & (dist <= 4.5 * h)
    gamma = float(np.mean(G[ring] + np.log(dist[ring]) / (2.0 * np.pi)))
    return GreenField(domain=domain, source=src, values=G,
                      regular_part_at_source=gamma)


def _sources(vortices):
    """Points (n, 2) and coefficients c_p = -4pi m sgn of the singular
    background u0 = sum_p c_p G(. - p), in vortices.signed() order."""
    entries = vortices.signed()
    points = np.reshape([p for (p, m, sgn) in entries], (-1, 2))
    c = np.array([-4.0 * np.pi * m * sgn for (p, m, sgn) in entries])
    return points, c


def build_u0(domain, vortices):
    """Singular background u0 = -4pi sum m G(., p+) + 4pi sum m G(., p-).

    Built with a single zero-mean Poisson solve; vortices are snapped
    to grid points first.
    """
    snapped = snapped_vortices(domain, vortices)
    h1, h2 = domain.spacings
    rhs = np.zeros(domain.grid_shape)
    for p, c in zip(*_sources(snapped)):
        (i, j), _ = snap_to_grid(domain, p)
        # Lap u0 = -c delta: +4pi m at positive vortices, -4pi m at negative
        rhs[i, j] -= c / (h1 * h2)
    rhs -= 4.0 * np.pi * (snapped.N1 - snapped.N2) / domain.area
    return poisson_solve(domain, rhs)


@dataclass(frozen=True)
class TorusField:
    """Converged (or last-iterate) torus solution u = u0 + v."""

    domain: TorusDomain
    vortices: VortexSet
    params: ModelParams
    u0: np.ndarray
    v: np.ndarray
    newton_history: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    @property
    def u(self):
        return self.u0 + self.v

    def residual_field(self):
        ops = nonlinearity_ops(self.params.nonlinearity, self.params.tau)
        ie2 = self.params.epsilon ** -2
        K = 4.0 * np.pi * (self.vortices.N1 - self.vortices.N2) / self.domain.area
        return laplacian(self.domain, self.v) + ie2 * ops.f(self.u) - K

    def residual_norm(self):
        return float(np.max(np.abs(self.residual_field())))


def _solver_tol(params, tol_factor):
    return tol_factor * params.epsilon ** -2


def _check_resolution(domain, params):
    """Warn when the coarser spacing exceeds eps/4; the verdict as
    diagnostics fields {"resolved", "h_over_eps"}."""
    h = max(domain.spacings)
    resolved = h <= params.epsilon / 4.0
    if not resolved:
        warnings.warn(
            "grid spacing h=%.3g does not resolve epsilon=%.3g (want h <= eps/4)"
            % (h, params.epsilon), ResolutionWarning, stacklevel=3)
    return {"resolved": resolved, "h_over_eps": h / params.epsilon}


def solve_newton(domain, vortices, params, v_init=None, continuation=None,
                 max_iter=60, tol_factor=1e-10):
    """Damped Newton for F(v) = 0, optionally with eps-continuation.

    continuation, when given, is a decreasing sequence of epsilon
    values ending at params.epsilon's replacement; each stage is
    warm-started from the previous solution.  Returns the final field.
    """
    snapped = snapped_vortices(domain, vortices)
    u0 = build_u0(domain, snapped)

    if continuation is not None:
        eps_list = eps_schedule(continuation, "continuation schedule")
    else:
        eps_list = [params.epsilon]

    v = np.zeros(domain.grid_shape) if v_init is None else np.array(v_init, dtype=float)
    if v.shape != tuple(domain.grid_shape):
        raise ValueError("v_init shape does not match the grid")

    history = []
    stages = []
    failed = 0
    fld = None
    for eps in eps_list:
        p = replace(params, epsilon=float(eps))
        resolution = _check_resolution(domain, p)
        fld = _newton_core(domain, snapped, p, u0, v, max_iter, tol_factor,
                           history)
        v = fld.v
        failed += fld.diagnostics["minres_failed"]
        stages.append({"epsilon": float(eps),
                       "iterations": fld.diagnostics["iterations"],
                       "residual": fld.diagnostics["residual"],
                       **resolution})
    diagnostics = dict(fld.diagnostics)
    diagnostics["minres_failed"] = failed  # over every stage
    diagnostics["stages"] = stages
    return TorusField(domain=domain, vortices=snapped, params=fld.params,
                      u0=u0, v=fld.v, newton_history=tuple(history),
                      diagnostics=diagnostics)


def _newton_core(domain, vortices, params, u0, v, max_iter, tol_factor,
                 history):
    ops = nonlinearity_ops(params.nonlinearity, params.tau)
    ie2 = params.epsilon ** -2
    K = 4.0 * np.pi * (vortices.N1 - vortices.N2) / domain.area
    tol = _solver_tol(params, tol_factor)

    v = v.copy()
    F = laplacian(domain, v) + ie2 * ops.f(u0 + v) - K
    res = float(np.max(np.abs(F)))
    res0 = max(res, tol)
    history.append(res)
    grow_count = 0
    failed = 0
    it = 0
    while res > tol:
        if it >= max_iter:
            fld = _make_field(domain, vortices, params, u0, v, history,
                              res, it, failed)
            raise NewtonDivergenceError(
                "Newton did not converge in %d iterations (residual %.3e)"
                % (max_iter, res), field=fld)
        D = ie2 * ops.df(u0 + v)
        c0 = max(float(np.mean(np.maximum(-D, 0.0))), 1e-6 * ie2)
        eta = min(0.1, max(np.sqrt(res / res0) * 1e-2, 1e-10))
        delta, info = _solve_shifted(domain, -D, c0, F, eta, 800)
        failed += info != 0

        best = None
        for alpha in (1.0, 0.5, 0.25, 0.125, 0.0625):
            v_t = v + alpha * delta
            F_t = laplacian(domain, v_t) + ie2 * ops.f(u0 + v_t) - K
            r_t = float(np.max(np.abs(F_t)))
            if best is None or r_t < best[0]:
                best = (r_t, v_t, F_t)
            if r_t < res * (1.0 - 0.25 * alpha):
                break
        r_new, v, F = best
        grow_count = grow_count + 1 if r_new >= res else 0
        res = r_new
        history.append(res)
        it += 1
        if grow_count >= 5:
            fld = _make_field(domain, vortices, params, u0, v, history,
                              res, it, failed)
            raise NewtonDivergenceError(
                "Newton residual grew for 5 consecutive damped steps "
                "(residual %.3e)" % res, field=fld)
    return _make_field(domain, vortices, params, u0, v, history, res, it,
                       failed)


def _solve_shifted(domain, W, c, b, rtol, maxiter):
    """(-Lap + W) x = b by MINRES with the (c - Lap)^-1 preconditioner.

    Returns the solution grid and MINRES's info (nonzero: rtol missed).
    """
    shape, n = domain.grid_shape, b.size
    pre = 1.0 / (c + domain._k2)

    def matvec(x):
        g = x.reshape(shape)
        return (-laplacian(domain, g) + W * g).ravel()

    def psolve(x):
        return domain._multiply(pre, x.reshape(shape)).ravel()

    op = LinearOperator((n, n), matvec=matvec)
    M = LinearOperator((n, n), matvec=psolve)
    x, info = minres(op, b.ravel(), M=M, rtol=rtol, maxiter=maxiter)
    return x.reshape(shape), info


def _make_field(domain, vortices, params, u0, v, history, res, it, failed):
    # minres_failed counts the Newton steps whose inner solve missed rtol
    return TorusField(domain=domain, vortices=vortices, params=params,
                      u0=u0, v=v, newton_history=tuple(history),
                      diagnostics={"iterations": it, "residual": res,
                                   "minres_failed": failed})


def solve_monotone(domain, vortices, params, sub, super_, max_iter=100000,
                   tol_factor=1e-10):
    """Monotone iteration between a sub- and a supersolution.

    Starts from the supersolution and decreases pointwise toward the
    maximal solution in the bracket; the linearization shift c exceeds
    sup |eps^-2 f_tau'| so the iteration map is order-preserving.
    Residual signs of the supplied bracket are reported in the
    diagnostics, not enforced.
    """
    ops = nonlinearity_ops(params.nonlinearity, params.tau)
    # the shift needs the globally bounded SigmaO3 derivative
    ops.require_sigma("monotone iteration")
    sub = np.asarray(sub, dtype=float)
    super_ = np.asarray(super_, dtype=float)
    if sub.shape != tuple(domain.grid_shape) or super_.shape != sub.shape:
        raise ValueError("sub/super shapes must match the grid")
    if np.any(sub > super_):
        raise ValueError("sub must lie below super pointwise")

    snapped = snapped_vortices(domain, vortices)
    u0 = build_u0(domain, snapped)
    resolution = _check_resolution(domain, params)
    ie2 = params.epsilon ** -2
    K = 4.0 * np.pi * (snapped.N1 - snapped.N2) / domain.area
    tol = _solver_tol(params, tol_factor)
    c = 1.05 * ie2 * ops.sup_abs_df()
    mult = 1.0 / (-domain._k2 - c)

    def residual(v):
        return laplacian(domain, v) + ie2 * ops.f(u0 + v) - K

    diag = {
        "shift": c,
        "sub_residual_min": float(np.min(residual(sub))),
        "super_residual_max": float(np.max(residual(super_))),
        **resolution,
    }

    v = super_.copy()
    history = []
    for it in range(max_iter):
        F = residual(v)
        res = float(np.max(np.abs(F)))
        history.append(res)
        if res < tol:
            diag["iterations"] = it
            diag["residual"] = res
            return TorusField(domain=domain, vortices=snapped, params=params,
                              u0=u0, v=v, newton_history=tuple(history),
                              diagnostics=diag)
        rhs = -c * v - ie2 * ops.f(u0 + v) + K
        v_new = domain._multiply(mult, rhs)
        slack = 1e-9 * (1.0 + float(np.max(np.abs(v))))
        if float(np.max(v_new - v)) > slack:
            raise MonotonicityError(
                "iterate increased by %.3e at step %d (shift %.3e too small?)"
                % (float(np.max(v_new - v)), it, c))
        if float(np.max(sub - v_new)) > slack:
            raise MonotonicityError(
                "iterate fell below the subsolution at step %d" % it)
        v = v_new
    raise ConvergenceError("monotone iteration exhausted %d steps" % max_iter)


def _u0_at(domain, vortices, px, py, want_grad):
    """u0 and grad u0 (None unless want_grad) at off-grid points: one
    lattice-sum call over every (point, vortex) displacement."""
    L1, L2 = domain.periods
    q, c = _sources(vortices)
    dx, dy = np.subtract.outer(px, q[:, 0]), np.subtract.outer(py, q[:, 1])
    val = ewald.green_value(dx, dy, L1, L2) @ c
    if not want_grad:
        return val, None, None
    gx, gy = ewald.green_gradient(dx, dy, L1, L2)
    return val, gx @ c, gy @ c


def _u0_regular(domain, vortices):
    """lim of u0 -/+ 2m ln|x-p| at each vortex, in vortices.signed() order.

    The self term contributes c_p gamma(p,p); every other vortex
    contributes its full (finite) Green value at p.
    """
    L1, L2 = domain.periods
    q, c = _sources(vortices)
    G = ewald.green_value(np.subtract.outer(q[:, 0], q[:, 0]),
                          np.subtract.outer(q[:, 1], q[:, 1]), L1, L2)
    np.fill_diagonal(G, ewald.regular_part(L1, L2))
    return G @ c


def _u0_gradient(domain, vortices):
    """grad u0 = sum_p c_p grad G(x - p), c_p = -4pi m sgn, on the grid.

    Ewald split with eta set by the grid: the dual Gaussian has fallen
    to e^-_Z_CUT at the coarser axis's Nyquist wavenumber, so the dual
    series of all vortices is one exact half-spectrum multiply of point
    charges on their (snapped) cells, and the real-space images reach
    only 2 _Z_CUT/pi ~ 24 cells: one offset stencil, scattered
    periodically around each vortex.  nan on the vortex cells.
    """
    h1, h2 = domain.spacings
    n1, n2 = domain.grid_shape
    eta2 = (np.pi / max(h1, h2)) ** 2 / (4.0 * ewald._Z_CUT)
    r_cut = np.sqrt(ewald._Z_CUT / eta2)
    w1 = int(np.ceil(r_cut / h1))
    w2 = int(np.ceil(r_cut / h2))
    a = np.arange(-w1, w1 + 1)
    b = np.arange(-w2, w2 + 1)
    dx = (a * h1)[:, None]
    dy = (b * h2)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = ewald._real_weight(dx * dx + dy * dy, eta2)
        wx, wy = w * dx, w * dy

    rho = np.zeros(domain.grid_shape)
    stencils = []
    for p, coef in zip(*_sources(vortices)):
        (i, j), _ = snap_to_grid(domain, p)
        rho[i, j] += coef / (h1 * h2)
        stencils.append((coef, np.ix_((i + a) % n1, (j + b) % n2)))
    smooth = ewald._dual_damping(domain._k2 / (4.0 * np.pi ** 2), eta2) \
        * -domain._inv_lap
    grad = []
    for ik, wk in zip(domain._ik, (wx, wy)):
        g = domain._multiply(ik * smooth, rho)
        for coef, cells in stencils:
            # unbuffered: a stencil wider than the grid folds its
            # periodic images onto one cell
            np.add.at(g, cells, coef * wk)
        grad.append(g)
    return tuple(grad)


def _w1_stable(u, a):
    # e^u / (a + e^u)^2 without overflow on either side
    t = np.exp(-np.abs(u))
    pos = t / (a * t + 1.0) ** 2
    neg = t / (a + t) ** 2
    return np.where(u > 0, pos, neg)


def _w2_stable(u, tau, a):
    # e^u (1-e^u)^2 / ((tau+e^u)^3 (a+e^u)) without overflow
    t = np.exp(-np.abs(u))
    m = -np.expm1(-np.abs(u))
    pos = t * m * m / ((tau * t + 1.0) ** 3 * (a * t + 1.0))
    neg = t * m * m / ((tau + t) ** 3 * (a + t))
    return np.where(u > 0, pos, neg)


def identity_check(field, a):
    """Both sides of the a-family integral identity.

    lhs = int (a+1)|grad u|^2 e^u/(a+e^u)^2
          + eps^-2 e^u (1-e^u)^2 / ((tau+e^u)^3 (a+e^u)) dx,
    rhs = 4pi (N1/a + N2).

    grad u is assembled as spectral grad v plus the exact grid-Ewald
    gradient of u0 (_u0_gradient), so the log singularities enter
    exactly; at the vortex cells, where grad u0 is infinite but the
    integrand has a removable singularity, the cell value is replaced
    by its analytic limit.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    params = field.params
    nonlinearity_ops(params.nonlinearity,
                     params.tau).require_sigma("the a-identity")
    domain = field.domain
    u = field.u
    gvx, gvy = gradient(domain, field.v)
    g0x, g0y = _u0_gradient(domain, field.vortices)
    gx = gvx + g0x
    gy = gvy + g0y

    grad2 = gx * gx + gy * gy
    t1 = (a + 1.0) * grad2 * _w1_stable(u, a)
    # grad u0 is infinite at the vortex cells but the integrand has a
    # finite limit there: with e^u ~ e^c |x-p|^(2m) near a positive
    # vortex (c the regular part of u at p), |grad u|^2 e^u/(a+e^u)^2
    # tends to 4 m^2 e^c / a^2 when m = 1 and to 0 when m >= 2; the
    # mirror statement holds at negative vortices with e^u -> e^-c.
    reg = _u0_regular(domain, field.vortices)
    for which, (p, m, sgn) in enumerate(field.vortices.signed()):
        (i, j), _ = snap_to_grid(domain, p)
        if m == 1:
            c = sgn * (field.v[i, j] + reg[which])
            t1[i, j] = (a + 1.0) * 4.0 * np.exp(c) / (a * a if sgn > 0 else 1.0)
        else:
            t1[i, j] = 0.0
    t2 = params.epsilon ** -2 * _w2_stable(u, params.tau, a)

    lhs = cell_integral(domain, t1 + t2)
    rhs = 4.0 * np.pi * (field.vortices.N1 / a + field.vortices.N2)
    rel_err = abs(lhs - rhs) / max(1.0, abs(rhs))
    return lhs, rhs, rel_err


def total_mass(field):
    """int eps^-2 f(u) dx; equals 4pi(N1-N2) exactly at convergence."""
    ops = nonlinearity_ops(field.params.nonlinearity, field.params.tau)
    return cell_integral(field.domain,
                         field.params.epsilon ** -2 * ops.f(field.u))


def mass_bound_report(field):
    """int |eps^-2 f(u)| dx, the quantity bounded uniformly in eps."""
    ops = nonlinearity_ops(field.params.nonlinearity, field.params.tau)
    return cell_integral(field.domain,
                         np.abs(field.params.epsilon ** -2 * ops.f(field.u)))
