"""Spectral solvers for the vortex equation on a flat 2-torus.

The unknown is split as u = u0 + v: u0 carries every Dirac source (so
near a positive vortex u0 ~ 2m ln|x-p|), and the correction v solves

    F(v) = Lap v + eps^-2 f_tau(u0 + v) - 4pi(N1 - N2)/|O| = 0.

The grid u0 is not the exact sum of periodic Green functions G: it is a
spectral Poisson solve of point charges on the vortex cells, that is
the Fourier-truncated G.  It differs from the exact u0 by O(h^2), most
near the cores, and that difference is not smooth, so every field
carries it.  The audits read the exact Green function of ewald
instead: identity_check takes grad u0 from its theta rows on the grid
offsets, rolled to each vortex cell (_u0_gradient), and the off-grid
samples of u0 (_u0_at: Pohozaev rings, blow-up views) sum the same
rows.  ROADMAP direction 9 replaces the grid u0 with the exact one.

Integrating the equation over the torus kills the Laplacian, so every
converged field satisfies the exact total-mass identity
int eps^-2 f_tau(u) dx = 4pi(N1 - N2); tests lean on this heavily.

All derivatives are spectral (FFT); vortex positions are snapped to
grid points so the discrete deltas sit on the mesh.  solve_newton is
the general driver (damped, optionally eps-continued); solve_monotone
is the classical sub/supersolution scheme for the stable branch.
"""

import numbers
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import ewald, kernels
from .model import ModelParams, VortexSet, eps_schedule


class ResolutionWarning(UserWarning):
    """Grid spacing too coarse for the requested epsilon."""


class NewtonDivergenceError(RuntimeError):
    """Damped Newton kept growing; carries the last iterate in .field."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class MonotonicityError(RuntimeError):
    """Monotone iteration has no bracket or violated its ordering."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching tolerance."""


class CapacityError(RuntimeError):
    """No field can carry the total mass the vortices need at this eps."""


def _is_pow2(n):
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) \
        and n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TorusDomain:
    """Flat rectangular torus with a periodic FFT grid.

    Grid values are indexed [i, j] for the point (i*L1/n1, j*L2/n2).
    """

    periods: tuple = (1.0, 1.0)
    grid_shape: tuple = (256, 256)

    def __post_init__(self):
        try:
            (L1, L2), (n1, n2) = self.periods, self.grid_shape
        except (TypeError, ValueError):
            raise ValueError("a torus has two periods and two grid sizes, "
                             "got %r and %r" % (self.periods, self.grid_shape)
                             ) from None
        if not all(isinstance(L, numbers.Real) and not isinstance(L, bool)
                   and 0 < L < np.inf for L in (L1, L2)):
            raise ValueError("periods must be positive and finite")
        if not (_is_pow2(n1) and _is_pow2(n2)) or n1 < 32 or n2 < 32:
            raise ValueError("grid_shape must be integer powers of two, >= 32")
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

    @cached_property
    def _spectrum(self):
        # _multiply's half-spectrum work buffer, reused by every call
        n1, n2 = self.grid_shape
        return np.empty((n1, n2 // 2 + 1), dtype=complex)

    def _multiply(self, symbol, g):
        """Apply a Fourier multiplier given on the half spectrum: a fresh
        array, never a view of the shared work buffer, which makes two
        threads calling on one domain at once unsafe."""
        spec = np.fft.rfft2(g, out=self._spectrum)
        spec *= symbol
        return np.fft.irfft2(spec, s=self.grid_shape)

    def _resample(self, g):
        """Trigonometric interpolation of g from a coarser grid of this
        torus: its half spectrum zero-padded into this grid's, the coarse
        Nyquist row and column dropped."""
        (m1, m2), (n1, n2) = g.shape, self.grid_shape
        spec = np.fft.rfft2(g) * (n1 * n2 / (m1 * m2))
        pad = np.zeros((n1, n2 // 2 + 1), dtype=complex)
        h1, h2 = m1 // 2, m2 // 2
        pad[:h1, :h2] = spec[:h1, :h2]
        pad[n1 - h1 + 1:, :h2] = spec[h1 + 1:, :h2]
        return np.fft.irfft2(pad, s=self.grid_shape)


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


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TorusGeometry:
    """A torus and its vortices, snapped to grid points on construction
    (a warning when one moves, ValueError when two share a point):
    vortices is the snapped set, cells their grid indices and snap_moves
    the (point, grid point) pairs that moved by minimum image.  c_p, u0
    and the regular part of u0 at each vortex are cached read-only on
    first use, the way TorusDomain caches its symbols; _cached memoizes
    what the audits derive from them per ball and per ring.
    """

    domain: TorusDomain
    vortices: VortexSet
    cells: tuple = field(init=False, default=())
    snap_moves: tuple = field(init=False, default=())
    _memo: dict = field(init=False, default_factory=dict, repr=False,
                        compare=False)

    def __post_init__(self):
        tol = 1e-12 * max(self.domain.spacings)
        cells, moves, taken, snapped = [], [], {}, {1: [], -1: []}
        for p, m, sgn in self.vortices.signed():
            cell, q = snap_to_grid(self.domain, p)
            if q in taken:
                raise ValueError(
                    "vortices at (%g, %g) and (%g, %g) both snap to the grid "
                    "point (%g, %g); refine the grid to separate them"
                    % (taken[q] + p + q))
            taken[q] = p
            if np.max(np.abs(ewald._min_image(np.subtract(p, q),
                                              self.domain.periods))) > tol:
                moves.append((p, q))
            cells.append(cell)
            snapped[sgn].append((q, m))
        snapped = VortexSet(positive_vortices=snapped[1],
                            negative_vortices=snapped[-1])
        if moves:
            warnings.warn("%d vortex position(s) snapped to the grid"
                          % len(moves), UserWarning, stacklevel=3)
        object.__setattr__(self, "vortices", snapped)
        object.__setattr__(self, "cells", tuple(cells))
        object.__setattr__(self, "snap_moves", tuple(moves))

    @cached_property
    def _sources(self):
        """Points (n, 2) and coefficients c_p = -4pi m sgn of the singular
        background u0 = sum_p c_p G(. - p)."""
        entries = self.vortices.signed()
        points = np.reshape([p for (p, m, sgn) in entries], (-1, 2))
        c = np.array([-4.0 * np.pi * m * sgn for (p, m, sgn) in entries])
        return _read_only(points), _read_only(c)

    @cached_property
    def u0(self):
        """Singular background u0 ~ -4pi sum m G(., p+) + 4pi sum m G(., p-),
        one zero-mean spectral Poisson solve of the point charges
        c_p/(h1 h2) on the vortex cells: the Fourier-truncated G, off the
        exact sum by O(h^2) near the cores (module docstring)."""
        h1, h2 = self.domain.spacings
        rho = np.zeros(self.domain.grid_shape)
        for (i, j), cp in zip(self.cells, self._sources[1]):
            rho[i, j] += cp / (h1 * h2)
        # Lap u0 = -c delta: +4pi m at positive vortices, -4pi m at negative
        rhs = -rho - 4.0 * np.pi * (self.vortices.N1 - self.vortices.N2) \
            / self.domain.area
        return _read_only(poisson_solve(self.domain, rhs))

    @cached_property
    def u0_regular(self):
        """lim of u0 -/+ 2m ln|x-p| at each vortex, in vortices.signed()
        order: c_p gamma(p,p) from the vortex itself plus the full
        (finite) Green value at p of every other vortex."""
        L1, L2 = self.domain.periods
        q, c = self._sources
        G = ewald.green_value(np.subtract.outer(q[:, 0], q[:, 0]),
                              np.subtract.outer(q[:, 1], q[:, 1]), L1, L2)
        np.fill_diagonal(G, ewald.regular_part(L1, L2))
        return _read_only(G @ c)

    def _cached(self, key, build):
        """build() once per key: a tuple of arrays, kept read-only."""
        if key not in self._memo:
            self._memo[key] = tuple(map(_read_only, build()))
        return self._memo[key]


@dataclass(frozen=True)
class TorusField:
    """Torus field u = u0 + v: a solver iterate or its converged result.

    It is the one place the equation is written: residual is F(v) and
    potential is -eps^-2 f'(u), so the linearization is -Lap + potential.
    These and the grids the audits share (u, f(u), q(u), F2(u), grad v,
    |grad u|^2) are computed on first use and cached read-only, like the
    geometry's members (domain, vortices and u0 read through to it); v
    must not change in place once one of them has been read.
    """

    geometry: TorusGeometry
    params: ModelParams
    v: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    domain = property(lambda self: self.geometry.domain)
    vortices = property(lambda self: self.geometry.vortices)
    u0 = property(lambda self: self.geometry.u0)

    @cached_property
    def u(self):
        return _read_only(self.u0 + self.v)

    @cached_property
    def f(self):
        return _read_only(kernels.f_tau(self.u, self.params.tau))

    @cached_property
    def q(self):
        return _read_only(kernels.q_tau(self.u, self.params.tau))

    @cached_property
    def F2(self):
        return _read_only(kernels.F2_tau(self.u, self.params.tau))

    @cached_property
    def residual(self):
        """F(v) = Lap v + eps^-2 f(u) - 4pi(N1 - N2)/|O|."""
        ie2 = self.params.epsilon ** -2
        K = 4.0 * np.pi * (self.vortices.N1 - self.vortices.N2) / self.domain.area
        return _read_only(laplacian(self.domain, self.v) + ie2 * self.f - K)

    @cached_property
    def potential(self):
        """-eps^-2 f'(u), the potential of the linearization."""
        return _read_only(-self.params.epsilon ** -2
                          * kernels.df_tau(self.u, self.params.tau))

    @cached_property
    def grad_v(self):
        return tuple(_read_only(g) for g in gradient(self.domain, self.v))

    @cached_property
    def grad_u_sq(self):
        """|grad v + grad u0|^2 with the exact grad u0 (_u0_gradient);
        nan on the cells of the vortices with m >= 1."""
        gx, gy = (gv + g0 for gv, g0 in zip(self.grad_v,
                                            _u0_gradient(self.geometry)))
        return _read_only(gx * gx + gy * gy)

    def residual_norm(self):
        return float(np.max(np.abs(self.residual)))


def _solver_tol(params, factor=1.0):
    """The solvers' residual gate, sup |F| <= 1e-10 eps^-2, times factor
    (verify's residual_sup row gates at 50 times it)."""
    return factor * 1e-10 * params.epsilon ** -2


def _resolves(h, eps):
    """The resolution rule: a grid spacing h resolves eps when h <= eps/4."""
    return h <= eps / 4.0


def _check_resolution(domain, params):
    """Warn when the coarser spacing fails _resolves; the verdict as
    diagnostics fields {"resolved", "h_over_eps"}."""
    h = max(domain.spacings)
    resolved = _resolves(h, params.epsilon)
    if not resolved:
        warnings.warn(
            "grid spacing h=%.3g does not resolve epsilon=%.3g (want h <= eps/4)"
            % (h, params.epsilon), ResolutionWarning, stacklevel=3)
    return {"resolved": resolved, "h_over_eps": h / params.epsilon}


def _check_capacity(domain, vortices, params, eps):
    """Raise CapacityError when the mass identity is out of reach at eps.

    Every solution has eps^-2 int f(u) dx = 4pi(N1 - N2), and
    min f <= f <= max f, so N1 > N2 needs eps^-2 |O| max f >= 4pi(N1 - N2)
    and N2 > N1 needs eps^-2 |O| |min f| >= 4pi(N2 - N1).
    """
    charge = vortices.N1 - vortices.N2
    if charge == 0:
        return
    f_min, f_max = kernels.f_extrema_tau(params.tau)
    room = domain.area * (f_max if charge > 0 else -f_min)
    need = 4.0 * np.pi * abs(charge)
    if eps ** -2 * room < need:
        raise CapacityError(
            "epsilon %.6g is over capacity: N1 - N2 = %d at tau %.6g on a "
            "torus of area %.6g needs epsilon <= %.6g"
            % (eps, charge, params.tau, domain.area, np.sqrt(room / need)))


def _stage_domain(domain, cells, eps):
    """The coarsest grid of `domain`'s torus that _resolves eps (both
    axes >= 32) and holds every vortex cell in `cells`
    (target-grid indices) as one of its points."""
    n1, n2 = domain.grid_shape
    h = max(domain.spacings)
    s = 1  # halving a power-of-two grid doubles its spacings exactly
    while (min(n1, n2) // (2 * s) >= 32 and _resolves(2 * s * h, eps)
           and not any(i % (2 * s) or j % (2 * s) for (i, j) in cells)):
        s *= 2
    if s == 1:
        return domain
    return TorusDomain(periods=domain.periods, grid_shape=(n1 // s, n2 // s))


def _snap_record(geometry):
    """snap_moves as diagnostics: [[x, y], [x', y']] per moved vortex."""
    return [[list(p), list(q)] for p, q in geometry.snap_moves]


# Every continuation stage but the last stops at this multiple of the
# solver gate: its field only starts the next stage, whose first Newton
# step corrects far more than that; the last stage meets the gate itself.
_STAGE_GATE = 1e5


def solve_newton(geometry, params, v_init=None, continuation=None,
                 max_iter=60):
    """Damped Newton for F(v) = 0, optionally with eps-continuation.

    continuation, when given, is a decreasing sequence of epsilon
    values ending at params.epsilon (else ValueError); each stage is
    warm-started from the previous solution.  From a cold start
    (v_init None) every epsilon, the last included, runs on the
    coarsest grid of the torus that resolves it and holds every snapped
    vortex as a grid point (_stage_domain), on its own geometry; each
    stage's solution is resampled spectrally onto the next stage's grid
    (nested iteration), and when the last epsilon's grid is coarser than
    the target, one more stage at that epsilon polishes the resampled
    field on the target grid.  A warm start keeps every stage on the
    target grid.  Every stage but the last stops at _STAGE_GATE times
    the solver gate.  Each stages entry records its epsilon, iterations,
    minres_iters (MINRES iterations summed over its Newton steps),
    residual, grid_shape, and resolved/h_over_eps for that grid; the
    last entry is always the target grid's, and the top-level
    minres_iters and minres_failed are totals over every stage.  Returns
    the final field, on `geometry`; a stage that diverges raises with its
    last iterate on that stage's grid.  Raises CapacityError before any
    solve when the schedule's largest epsilon cannot carry the mass
    identity.
    """
    domain = geometry.domain
    if continuation is not None:
        eps_list = eps_schedule(continuation, "continuation schedule")
        if eps_list[-1] != params.epsilon:
            raise ValueError("continuation schedule ends at %r, not at "
                             "epsilon %r" % (eps_list[-1], params.epsilon))
    else:
        eps_list = [params.epsilon]
    _check_capacity(domain, geometry.vortices, params, eps_list[0])

    v = np.zeros(domain.grid_shape) if v_init is None else np.array(v_init, dtype=float)
    if v.shape != tuple(domain.grid_shape):
        raise ValueError("v_init shape does not match the grid")
    plan = [(eps, domain if v_init is not None
             else _stage_domain(domain, geometry.cells, eps))
            for eps in eps_list]
    if plan[-1][1] != domain:
        plan.append((eps_list[-1], domain))  # the polish on the target

    stages = []
    failed = minres_iters = 0
    fld = None
    geo = geometry
    for k, (eps, stage) in enumerate(plan):
        p = replace(params, epsilon=float(eps))
        if stage != geo.domain:
            # a finer grid only: eps decreases, so stage grids never coarsen
            geo = geometry if stage is domain \
                else TorusGeometry(stage, geometry.vortices)
            v = np.zeros(stage.grid_shape) if fld is None \
                else stage._resample(v)
        resolution = _check_resolution(stage, p)
        gate = 1.0 if k == len(plan) - 1 else _STAGE_GATE
        fld = _newton_core(geo, p, v, max_iter, gate)
        v = fld.v
        failed += fld.diagnostics["minres_failed"]
        minres_iters += fld.diagnostics["minres_iters"]
        stages.append({"epsilon": float(eps),
                       "iterations": fld.diagnostics["iterations"],
                       "minres_iters": fld.diagnostics["minres_iters"],
                       "residual": fld.diagnostics["residual"],
                       "grid_shape": stage.grid_shape,
                       **resolution})
    diagnostics = dict(fld.diagnostics)
    diagnostics.update(minres_failed=failed, minres_iters=minres_iters)
    diagnostics["stages"] = stages
    diagnostics["snap_moves"] = _snap_record(geometry)
    return replace(fld, diagnostics=diagnostics)


def _newton_core(geometry, params, v, max_iter, gate):
    """Newton from v until sup |F| <= _solver_tol(params, gate)."""
    tol = _solver_tol(params, gate)
    fld = TorusField(geometry=geometry, params=params, v=v)
    res = fld.residual_norm()
    res0 = max(res, tol)
    grow_count = 0
    failed = minres_iters = 0
    it = 0
    error = None
    while res > tol:
        if it >= max_iter:
            error = ("Newton did not converge in %d iterations (residual %.3e)"
                     % (max_iter, res))
            break
        # an overflowing step ends in a non-finite trial, which the
        # check below reports; numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            pot = fld.potential
            c0 = max(float(np.mean(np.maximum(pot, 0.0))),
                     1e-6 * params.epsilon ** -2)
            eta = min(0.1, max(np.sqrt(res / res0) * 1e-2, 1e-10))
            delta, info, k = _solve_shifted(geometry.domain, pot, c0,
                                            fld.residual, eta, 800)
            failed += info != 0
            minres_iters += k

            best = None
            for alpha in (1.0, 0.5, 0.25, 0.125, 0.0625):
                trial = replace(fld, v=fld.v + alpha * delta)
                if not np.isfinite(trial.v).all():
                    # the kernels refuse it: stop at the last finite iterate
                    error = ("Newton trial iterate is not finite at step %d "
                             "(residual %.3e)" % (it + 1, res))
                    break
                r_t = trial.residual_norm()
                if best is None or r_t < best[0]:
                    best = (r_t, trial)
                if r_t < res * (1.0 - 0.25 * alpha):
                    break
        # a rejected last trial would keep its grids through the next solve
        del trial
        if error is not None:
            break
        r_new, fld = best
        grow_count = grow_count + 1 if r_new >= res else 0
        res = r_new
        it += 1
        if grow_count >= 5:
            error = ("Newton residual grew for 5 consecutive damped steps "
                     "(residual %.3e)" % res)
            break
    # minres_failed counts the Newton steps whose inner solve hit maxiter
    fld = replace(fld, diagnostics={"iterations": it, "residual": res,
                                    "minres_iters": minres_iters,
                                    "minres_failed": failed})
    if error is not None:
        raise NewtonDivergenceError(error, field=fld)
    return fld


def _apply_shifted(domain, W, g):
    """(-Lap + W) g; with W a field's potential, its linearization."""
    return -laplacian(domain, g) + W * g


def _preconditioner(domain, W, c):
    """The (c - Lap)^-1 preconditioner of A = -Lap + W, as r -> (w, A w)
    with w = (c - Lap)^-1 r.

    A = (c - Lap) + (W - c), so A w = r + (W - c) w exactly: the
    preconditioner's one spectral round trip also gives the operator's
    image of its output, and a Krylov solver built on this pair pays one
    _multiply per step instead of two.
    """
    symbol = 1.0 / (c + domain._k2)
    dW = W - c

    def apply(r):
        w = domain._multiply(symbol, r)
        return w, r + dW * w

    return apply


def _solve_shifted(domain, W, c, b, rtol, maxiter):
    """(-Lap + W) x = b by MINRES with the (c - Lap)^-1 preconditioner.

    Preconditioned MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12
    (1975) 617-629) with scipy's recurrences and stopping tests, which
    reads each Lanczos vector's operator image off _preconditioner: k
    iterations make k + 1 spectral multiplies.  Returns the solution
    grid, info (maxiter when the iteration limit stopped it, else 0)
    and the iteration count; MINRES stops on its backward error
    ||r|| <= rtol ||A|| ||x||, not on ||Ax - b|| <= rtol ||b||.
    """
    eps = np.finfo(float).eps
    pre = _preconditioner(domain, W, c)
    x = np.zeros(domain.grid_shape)
    r1 = b
    y, Ay = pre(r1)
    beta1 = float(np.vdot(r1, y))
    if beta1 == 0:
        return x, 0, 0
    beta1 = np.sqrt(beta1)

    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    tnorm2, gmax, gmin = 0.0, 0.0, np.finfo(float).max
    cs, sn = -1.0, 0.0
    w = w2 = np.zeros(domain.grid_shape)
    r2 = r1
    for itn in range(1, maxiter + 1):
        # v = y / beta and its image A v, scaled in place: pre's arrays
        # are this loop's own
        s = 1.0 / beta
        v, y = y, Ay
        v *= s
        y *= s
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = float(np.vdot(v, y))
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        y, Ay = pre(r2)
        oldb = beta
        beta = np.sqrt(float(np.vdot(r2, y)))
        tnorm2 += alfa ** 2 + oldb ** 2 + beta ** 2

        # the plane rotation that eliminates beta from the tridiagonal
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = np.hypot(gbar, dbar)
        gamma = max(np.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        # -oldeps * w1 + v reuses its temporary, where v - oldeps * w1
        # would allocate two grids
        w1, w2 = w2, w
        w = -oldeps * w1 + v
        w -= delta * w2
        w *= 1.0 / gamma
        x += phi * w

        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        Anorm = np.sqrt(tnorm2)
        ynorm = float(np.linalg.norm(x))
        test1 = np.inf if ynorm == 0 or Anorm == 0 \
            else phibar / (Anorm * ynorm)  # ||r|| / (||A|| ||x||)
        test2 = np.inf if Anorm == 0 else root / Anorm  # ||Ar||/(||A|| ||r||)
        # scipy's stops other than the iteration limit, all info 0: b an
        # eigenvector (first step only), either backward error at rtol or
        # at round-off, x at round-off of b, and A's condition at 0.1/eps
        if (itn == 1 and beta / beta1 <= 10 * eps) \
                or test1 <= rtol or test2 <= rtol \
                or 1 + test1 <= 1 or 1 + test2 <= 1 \
                or Anorm * ynorm * eps >= beta1 or gmax / gmin >= 0.1 / eps:
            return x, 0, itn
    return x, maxiter, maxiter


_MONOTONE_OFFSET = 25.0
_MONOTONE_MAX_ITER = 100000


def solve_monotone(geometry, params):
    """Monotone iteration down from the vacuum supersolution -u0.

    The bracket is the solver's own: super -u0 and sub -u0 -
    _MONOTONE_OFFSET.  The iterates decrease pointwise toward the
    maximal solution in it, as the shift c exceeds sup |eps^-2 f_tau'|;
    the bracket's residual signs are reported in the diagnostics.  The
    residual of -u0 is +4pi m/(h1 h2) on a negative vortex's cell, so
    before iterating N2 > 0 raises MonotonicityError, and an epsilon
    that cannot carry the mass identity raises CapacityError.  The step
    v + P F(v), P = (c - Lap)^-1, has derivative P diag(c + eps^-2 f'),
    so it preserves order iff P has no negative entry; P is circulant,
    so P applied to one cell's delta decides it.  Its min/max is the
    diagnostics' kernel_ratio, and a negative one (the truncated kernel
    rings below zero once c is large for the grid) raises
    MonotonicityError before iterating too.
    """
    domain = geometry.domain
    if geometry.vortices.N2:
        raise MonotonicityError(
            "the monotone bracket (-u0 - %g, -u0) needs N2 = 0: -u0 is no "
            "supersolution at the negative vortices %s" % (
                _MONOTONE_OFFSET, ", ".join(
                    "(%g, %g) m=%d" % (*p, m)
                    for p, m in geometry.vortices.negative_vortices if m)))
    super_ = -geometry.u0
    sub = super_ - _MONOTONE_OFFSET

    _check_capacity(domain, geometry.vortices, params, params.epsilon)
    resolution = _check_resolution(domain, params)
    tol = _solver_tol(params)
    c = 1.05 * params.epsilon ** -2 * kernels.sup_abs_df_tau(params.tau)
    mult = 1.0 / (c + domain._k2)
    delta = np.zeros(domain.grid_shape)
    delta[0, 0] = 1.0
    kernel = domain._multiply(mult, delta)
    ratio = float(kernel.min()) / float(kernel.max())
    if ratio < 0.0:
        raise MonotonicityError(
            "the monotone step (c - Lap)^-1 with shift c = %.6g has a "
            "negative kernel on the %d x %d grid (min/max %.3e), so it "
            "cannot preserve order" % (c, *domain.grid_shape, ratio))

    # the first iterate is the supersolution: its residual is the bracket's
    fld = TorusField(geometry=geometry, params=params, v=super_)
    diag = {
        "shift": c,
        "kernel_ratio": ratio,
        "sub_residual_min": float(np.min(replace(fld, v=sub).residual)),
        "super_residual_max": float(np.max(fld.residual)),
        **resolution,
        "snap_moves": _snap_record(geometry),
    }

    for it in range(_MONOTONE_MAX_ITER):
        res = fld.residual_norm()
        if res < tol:
            diag["iterations"] = it
            diag["residual"] = res
            return replace(fld, diagnostics=diag)
        # (c - Lap) v_new = c v + eps^-2 f(u) - 4pi(N1 - N2)/|O|
        v = fld.v
        v_new = v + domain._multiply(mult, fld.residual)
        slack = 1e-9 * (1.0 + float(np.max(np.abs(v))))
        if float(np.max(v_new - v)) > slack:
            raise MonotonicityError(
                "iterate increased by %.3e at step %d (shift %.3e too small?)"
                % (float(np.max(v_new - v)), it, c))
        if float(np.max(sub - v_new)) > slack:
            raise MonotonicityError(
                "iterate fell below the subsolution at step %d" % it)
        fld = replace(fld, v=v_new)
    raise ConvergenceError("monotone iteration exhausted %d steps"
                           % _MONOTONE_MAX_ITER)


def _u0_at(geometry, px, py, want_grad):
    """u0 and grad u0 (None unless want_grad) at off-grid points: one
    lattice-sum call over every (point, vortex) displacement."""
    L1, L2 = geometry.domain.periods
    q, c = geometry._sources
    dx, dy = np.subtract.outer(px, q[:, 0]), np.subtract.outer(py, q[:, 1])
    val = ewald.green_value(dx, dy, L1, L2) @ c
    if not want_grad:
        return val, None, None
    gx, gy = ewald.green_gradient(dx, dy, L1, L2)
    return val, gx @ c, gy @ c


def _u0_gradient(geometry):
    """grad u0 = sum_p c_p grad G(x - p), c_p = -4pi m sgn, on the grid.

    Every vortex sits on a grid point, so each term is one grid of
    grad G at the grid offsets, rolled to the vortex's cell.  That grid
    is ewald.green_gradient on the quarter of offsets 0 <= x <= L1/2,
    0 <= y <= L2/2, unfolded by parity: dG/dx is odd in x and even in
    y, and dG/dy the mirror.  nan on the cells of the vortices with
    m >= 1; a vortex with m = 0 adds no term.
    """
    n1, n2 = geometry.domain.grid_shape
    x, y = geometry.domain.axes
    quarter = ewald.green_gradient(x[:n1 // 2 + 1, None],
                                   y[None, :n2 // 2 + 1],
                                   *geometry.domain.periods)
    grad = []
    for g, sx, sy in zip(quarter, (-1.0, 1.0), (1.0, -1.0)):
        # offset i > n1/2 is -(n1 - i) by minimum image
        g = np.concatenate([g, sx * g[n1 // 2 - 1:0:-1]], axis=0)
        g = np.concatenate([g, sy * g[:, n2 // 2 - 1:0:-1]], axis=1)
        total = np.zeros((n1, n2))
        for cell, cp in zip(geometry.cells, geometry._sources[1]):
            if cp:
                total += cp * np.roll(g, cell, axis=(0, 1))
        grad.append(total)
    return tuple(grad)


def identity_check(field, a):
    """Both sides of the a-family integral identity.

    lhs = int (a+1)|grad u|^2 e^u/(a+e^u)^2
          + eps^-2 e^u (1-e^u)^2 / ((tau+e^u)^3 (a+e^u)) dx,
    rhs = 4pi (N1/a + N2), for a finite a > 0.

    |grad u|^2 is field.grad_u_sq, built once per field from spectral
    grad v plus the exact gradient of u0 (_u0_gradient), so
    the log singularities enter exactly; at the vortex cells, where
    grad u0 is infinite but the integrand has a removable singularity,
    the cell value is replaced by its analytic limit.
    """
    if not 0.0 < a < np.inf:
        raise ValueError("a must be finite and positive, got %r" % (a,))
    params = field.params
    domain = field.domain
    tau = params.tau
    # e^u/(a+e^u)^2 and e^u(1-e^u)^2/((tau+e^u)^3(a+e^u)), overflow-free
    w1 = kernels._two_sided(field.u, lambda e, m: e / (a + e) ** 2,
                            lambda e, m: e / (a * e + 1.0) ** 2)
    w2 = kernels._two_sided(
        field.u,
        lambda e, m: e * m * m / ((tau + e) ** 3 * (a + e)),
        lambda e, m: e * m * m / ((tau * e + 1.0) ** 3 * (a * e + 1.0)))
    t1 = (a + 1.0) * field.grad_u_sq * w1
    # grad u0 is infinite at the vortex cells but the integrand has a
    # finite limit there: with e^u ~ e^c |x-p|^(2m) near a positive
    # vortex (c the regular part of u at p), |grad u|^2 e^u/(a+e^u)^2
    # tends to 4 m^2 e^c / a^2 when m = 1 and to 0 when m >= 2; the
    # mirror statement holds at negative vortices with e^u -> e^-c.  A
    # vortex with m = 0 is no singularity: its cell keeps its value.
    geometry = field.geometry
    for (i, j), (p, m, sgn), reg in zip(geometry.cells,
                                        geometry.vortices.signed(),
                                        geometry.u0_regular):
        if m == 1:
            c = sgn * (field.v[i, j] + reg)
            t1[i, j] = (a + 1.0) * 4.0 * np.exp(c) / (a * a if sgn > 0 else 1.0)
        elif m >= 2:
            t1[i, j] = 0.0
    t2 = params.epsilon ** -2 * w2

    lhs = cell_integral(domain, t1 + t2)
    rhs = 4.0 * np.pi * (field.vortices.N1 / a + field.vortices.N2)
    rel_err = abs(lhs - rhs) / max(1.0, abs(rhs))
    return lhs, rhs, rel_err


def total_mass(field):
    """int eps^-2 f(u) dx; equals 4pi(N1-N2) exactly at convergence."""
    return cell_integral(field.domain, field.params.epsilon ** -2 * field.f)


def mass_bound_report(field):
    """int |eps^-2 f(u)| dx, the quantity bounded uniformly in eps."""
    return cell_integral(field.domain,
                         np.abs(field.params.epsilon ** -2 * field.f))
