"""Principal eigenvalues of the linearized operators.

Two spectral problems back the stability classification: on the torus
the smallest eigenvalue mu_eps of L = -Lap - eps^-2 f_tau'(u) (strict
stability means mu_eps > 0), and on radial entire profiles the
weighted eigenvalue mu* of (-Lap_r - f_tau'(u)) psi = mu (1-e^u) psi,
whose negativity certifies instability of type-I solutions.

The torus solve is a single-vector LOPCG preconditioned by
(c - Lap)^-1: one spectral round trip per step, since the
preconditioner also returns the operator's image of its output
(torus._preconditioner).  c = sqrt(R), with R = max W - min W + 1 the
range of the potential W plus one: the operator shifted by the
certified lower bound min W - 1 has symbol k^2 + W - min W + 1 with
1 <= W - min W + 1 <= R, and this c keeps its ratio to k^2 + c within
a factor sqrt(R) of 1 either way.
The radial problem is assembled in flux (P1 finite element) form on
the shooter's geometric grid with mass lumping, reduced to a symmetric
tridiagonal problem, and solved directly.  Dirichlet truncation at
r_max only raises eigenvalues, so a negative mu* certifies; a positive
one is reported with its sensitivity to halving r_max on the same grid.
"""

import enum
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import _scipy, kernels
from . import torus as torus_mod


class StabilityClass(enum.Enum):
    STRICTLY_STABLE = "StrictlyStable"
    MARGINAL = "Marginal"
    UNSTABLE = "Unstable"


class WeightIndefiniteError(RuntimeError):
    """Weight 1 - e^u changes sign; the mu* problem is not posed."""


class EigenConvergenceError(RuntimeError):
    """Eigensolver missed its residual gate or returned a vector that
    changes sign; carries the Rayleigh quotient it reached."""

    def __init__(self, message, rayleigh=None):
        super().__init__(message)
        self.rayleigh = rayleigh


@dataclass(frozen=True)
class EigenResult:
    eigenvalue: float
    eigenvector: np.ndarray
    residual_norm: float
    iterations: int
    diagnostics: dict = field(default_factory=dict)


_EIGEN_TOL = 1e-9  # LOPCG's stop rule and the residual gate


def _ritz(X, AX):
    """Smallest Ritz pair (value, coefficients) on the span of X, each
    vector with its image in AX, by eigh of the Gram matrices; a third
    vector is dropped when the 3 x 3 basis Gram matrix is not positive
    definite."""
    scipy = _scipy.load()
    n = len(X)
    G, B = np.empty((n, n)), np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            G[i, j] = G[j, i] = np.vdot(X[i], AX[j])
            B[i, j] = B[j, i] = np.vdot(X[i], X[j])
    try:
        vals, vecs = scipy.linalg.eigh(G, B, subset_by_index=(0, 0))
    except scipy.linalg.LinAlgError:  # p depends on x and w
        vals, vecs = scipy.linalg.eigh(G[:2, :2], B[:2, :2],
                                       subset_by_index=(0, 0))
    return float(vals[0]), vecs[:, 0]


def _lopcg(A0, pre, x, max_iter):
    """Single-vector LOPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001)
    517-541) for the smallest eigenpair from the start x.

    Each step is Rayleigh-Ritz (_ritz) on [x, w, p]: w the
    preconditioned residual, orthogonalized against the unit vector x,
    and p the last step's update, dropped for the step when the 3 x 3
    Gram matrix is not positive definite.  pre(r) returns w with its
    operator image, so Ax and Ap are kept by recurrence and A0 (the
    operator) is applied once, to the start.  Stops once the unit
    vector's residual is at most _EIGEN_TOL, or after max_iter steps;
    returns (x, steps).
    """
    x = x / np.linalg.norm(x)
    Ax = A0(x)
    lam = float(np.vdot(x, Ax))
    p = Ap = None
    steps = 0
    while steps < max_iter:
        r = -lam * x + Ax  # reuses its temporary, unlike Ax - lam * x
        if not np.linalg.norm(r) > _EIGEN_TOL:
            break
        steps += 1
        w, Aw = pre(r)
        t = np.vdot(x, w)
        w -= t * x
        Aw -= t * Ax
        X, AX = [x, w], [Ax, Aw]
        if p is not None:
            X.append(p)
            AX.append(Ap)
        lam, c = _ritz(X, AX)
        # the update p = c1 w + c2 p and x = c0 x + p, in place: w, Aw
        # and the iterate are this loop's own arrays
        w *= c[1]
        Aw *= c[1]
        if len(c) == 3:
            w += c[2] * p
            Aw += c[2] * Ap
        p, Ap = w, Aw
        x *= c[0]
        x += p
        Ax *= c[0]
        Ax += Ap
    return x, steps


def principal_eigen_torus(fld, max_iter=60):
    """Smallest eigenvalue of -Lap - eps^-2 f_tau'(u) on the torus grid.

    One LOPCG solve (_lopcg) of the field's linearization -Lap +
    potential, preconditioned by (c - Lap)^-1 with c = sqrt(max
    potential - min potential + 1), the geometric mean of the shifted
    potential's range (module docstring), from the constant start
    (nonzero overlap with the positive principal eigenfunction).  The
    result is accepted only if its L2(domain) residual, recomputed from
    the operator, is at most _EIGEN_TOL * max(1, |mu|) and the
    eigenvector has one sign, since the ground state cannot change sign;
    otherwise EigenConvergenceError carries the Rayleigh quotient.  The
    eigenvector is returned L2(domain)-normalized and oriented positive;
    iterations counts the preconditioned LOPCG steps, each one spectral
    multiply.
    """
    domain = fld.domain
    h1, h2 = domain.spacings
    cellw = h1 * h2
    pot = fld.potential
    pre = torus_mod._preconditioner(
        domain, pot, np.sqrt(float(pot.max()) - float(pot.min()) + 1.0))
    # the unit vector's residual is the L2(domain) residual of the
    # rescaled one, so the stop rule is at least as strict as the gate
    x, steps = _lopcg(lambda g: torus_mod._apply_shifted(domain, pot, g),
                      pre, np.ones(domain.grid_shape), max_iter)
    x = x / float(np.sqrt(cellw * np.sum(x * x)))
    Lx = torus_mod._apply_shifted(domain, pot, x)
    rho = cellw * float(np.sum(x * Lx))
    res = float(np.sqrt(cellw * np.sum((-rho * x + Lx) ** 2)))
    if not res <= _EIGEN_TOL * max(1.0, abs(rho)):
        raise EigenConvergenceError(
            "LOPCG reached residual %.3e in %d steps" % (res, steps),
            rayleigh=rho)
    if float(x.max()) * float(x.min()) <= 0.0:
        raise EigenConvergenceError(
            "converged eigenvector changes sign; not the ground state",
            rayleigh=rho)
    if float(np.mean(x)) < 0:
        x = -x
    return EigenResult(eigenvalue=rho, eigenvector=x,
                       residual_norm=res, iterations=steps,
                       diagnostics={"epsilon": fld.params.epsilon,
                                    "tau": fld.params.tau})


def weighted_eigen_radial(sol, _sensitivity=True):
    """Smallest mu with (-Lap_r - f'(u)) psi = mu (1 - e^u) psi.

    Dirichlet at r_max (last grid point), natural condition at the
    inner end.  P1 elements on the shooter grid in the r dr measure,
    lumped mass; the reduced problem is symmetric tridiagonal.  The
    weight must be strictly positive on the grid.
    """
    r = sol.r
    u = sol.u
    if r.size < 8:
        raise ValueError("radial grid too short for the eigenproblem")
    w = -np.expm1(u)  # 1 - e^u, sign-exact near u = 0
    if np.any(w <= 0.0):
        raise WeightIndefiniteError(
            "weight 1-e^u is nonpositive at %d grid points (min %.3e)"
            % (int(np.sum(w <= 0)), float(w.min())))
    dfu = kernels.df_tau(u, sol.tau)

    h = np.diff(r)
    rmid = 0.5 * (r[:-1] + r[1:])
    k = rmid / h  # element fluxes int r psi' phi' dr
    # lumped node weights int r dr over the support hat
    lump = np.zeros_like(r)
    lump[:-1] += 0.5 * rmid * h
    lump[1:] += 0.5 * rmid * h

    # interior nodes 0..N-2 (node N-1 is the Dirichlet boundary)
    diag = np.empty(r.size - 1)
    diag[0] = k[0]
    diag[1:] = k[:-1] + k[1:]
    diag = diag - dfu[:-1] * lump[:-1]
    off = -k[:-1]
    mass = w[:-1] * lump[:-1]

    # Symmetrizing by mass^-1/2 is numerically fatal here: mass spans
    # ~12 decades, so tridiagonal eigensolvers lose the bottom eigenvalue
    # to O(norm * eps_mach) absolute error.  A itself is well scaled on a
    # geometric grid (k ~ 1/log-step), so factor A - sigma0*B instead and
    # shift-invert from a shift certified below the spectrum:
    # psi'A psi >= -sum (f')_+ lump psi^2 >= -max((f')_+/w) psi'B psi.
    pos = np.maximum(dfu[:-1], 0.0)
    lower = -float(np.max(pos / w[:-1])) if np.any(pos > 0) else 0.0
    sigma0 = lower - 0.1 * (1.0 + abs(lower))
    scipy = _scipy.load()
    A = scipy.sparse.diags([off, diag, off], [-1, 0, 1], format="csc")
    B = scipy.sparse.diags([mass], [0], format="csc")
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            A, k=1, M=B, sigma=sigma0, which="LM", v0=np.ones(diag.size),
            tol=0)
    except Exception as e:
        raise EigenConvergenceError(
            "shift-invert Lanczos failed: %s" % e, rayleigh=None)
    mu = float(vals[0])
    psi = vecs[:, 0]
    Ap = diag * psi
    Ap[:-1] += off * psi[1:]
    Ap[1:] += off * psi[:-1]
    Bp = mass * psi
    resid = Ap - mu * Bp
    res_norm = float(np.linalg.norm(resid)
                     / (np.linalg.norm(Ap) + abs(mu) * np.linalg.norm(Bp)))
    nrm = float(np.sqrt(np.sum(mass * psi * psi)))
    psi = psi / nrm
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi

    diag_info = {"r_max": float(r[-1]), "n_nodes": int(r.size)}
    if _sensitivity:
        # the same solve on the stored grid cut at r_max/2, so no grid change
        # is read; r_max/4 would read the truncation, not the bound state
        half = replace(sol, grid=sol.grid[:np.count_nonzero(r <= 0.5 * r[-1])])
        try:
            mu2 = weighted_eigen_radial(half, _sensitivity=False).eigenvalue
        except ValueError as e:  # too few nodes left below r_max/2
            diag_info["sensitivity"] = None
            diag_info["reliable"] = False
            diag_info["sensitivity_error"] = str(e)
        else:
            sens = abs(mu2 - mu) / max(abs(mu), 1e-300)
            diag_info["mu_half_rmax"] = mu2
            diag_info["sensitivity"] = sens
            diag_info["reliable"] = bool(sens < 0.05)
            if sens >= 0.05:
                warnings.warn(
                    "mu* moved %.1f%% when r_max was halved; flagged "
                    "unreliable" % (100 * sens), UserWarning, stacklevel=2)
    return EigenResult(eigenvalue=mu, eigenvector=psi,
                       residual_norm=res_norm, iterations=1,
                       diagnostics=diag_info)


def classify_stability(result, margin):
    """Trichotomy on the eigenvalue with a dead band of half-width margin."""
    if not margin > 0:
        raise ValueError("margin must be positive")
    if result.eigenvalue < -margin:
        return StabilityClass.UNSTABLE
    if result.eigenvalue > margin:
        return StabilityClass.STRICTLY_STABLE
    return StabilityClass.MARGINAL


def default_torus_margin(params):
    """Classification margin 1e-8 * eps^-2 (the potential's natural scale)."""
    return 1e-8 * params.epsilon ** -2
