"""Principal eigenvalues of the linearized operators.

Two spectral problems back the stability classification: on the torus
the smallest eigenvalue mu_eps of L = -Lap - eps^-2 f_tau'(u) (strict
stability means mu_eps > 0), and on radial entire profiles the
weighted eigenvalue mu* of (-Lap_r - f_tau'(u)) psi = mu (1-e^u) psi,
whose negativity certifies instability of type-I solutions.

The torus solve is inverse iteration with Rayleigh-quotient shifts;
inner systems go through MINRES with a (c - Lap)^-1 preconditioner.
The radial problem is assembled in flux (P1 finite element) form on
the shooter's geometric grid with mass lumping, reduced to a symmetric
tridiagonal problem, and solved directly.  Dirichlet truncation at
r_max only raises eigenvalues, so a negative mu* certifies; a positive
one is reported with its r_max-doubling sensitivity.
"""

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from . import radial as radial_mod
from . import torus as torus_mod


class StabilityClass(enum.Enum):
    STRICTLY_STABLE = "StrictlyStable"
    MARGINAL = "Marginal"
    UNSTABLE = "Unstable"


class WeightIndefiniteError(RuntimeError):
    """Weight 1 - e^u changes sign; the mu* problem is not posed."""


class EigenConvergenceError(RuntimeError):
    """Eigensolver stagnated; carries the best Rayleigh quotient."""

    def __init__(self, message, rayleigh=None):
        super().__init__(message)
        self.rayleigh = rayleigh


@dataclass(frozen=True)
class EigenResult:
    eigenvalue: float
    eigenvector: np.ndarray
    rayleigh: float
    residual_norm: float
    iterations: int
    diagnostics: dict = field(default_factory=dict)


def principal_eigen_torus(fld, tol=1e-9, max_iter=60):
    """Smallest eigenvalue of -Lap - eps^-2 f_tau'(u) on the torus grid.

    Inverse iteration with Rayleigh-quotient shifting from a constant
    start (nonzero overlap with the positive principal eigenfunction).
    The eigenvector is returned L2(domain)-normalized and oriented
    positive; a converged result with a sign change triggers one
    restart and then a hard error, since the ground state cannot
    change sign.
    """
    domain = fld.domain
    h1, h2 = domain.spacings
    cellw = h1 * h2
    pot = fld.potential
    pot_min = float(pot.min())
    pot_max = float(pot.max())
    failed = 0

    def l2norm(g):
        return float(np.sqrt(cellw * np.sum(g * g)))

    def iterate(x0):
        nonlocal failed
        x = x0 / l2norm(x0)
        best = (np.inf, None, None)
        stalled = 0
        for it in range(1, max_iter + 1):
            Lx = torus_mod._apply_shifted(domain, pot, x)
            rho = cellw * float(np.sum(x * Lx))
            res = l2norm(Lx - rho * x)
            if res > 0.97 * best[0]:
                stalled += 1
            else:
                stalled = 0
            if res < best[0]:
                best = (res, rho, x)
            if res <= tol * max(1.0, abs(rho)):
                return rho, x, res, it
            if stalled >= 5:
                # inner-solve accuracy floor; accept if demonstrably tight
                if best[0] <= 1e-7 * max(1.0, abs(best[1])):
                    return best[1], best[2], best[0], it
                raise EigenConvergenceError(
                    "eigen iteration stagnated at residual %.3e" % best[0],
                    rayleigh=best[1])
            if it <= 2:
                sigma = pot_min - 1.0  # strictly below the whole spectrum
            else:
                # |rho - lambda_1| <= res (self-adjoint residual bound),
                # so this shift stays below lambda_1 and the nearest
                # eigenvalue to it is always the bottom one.
                sigma = rho - max(2.0 * res, 1e-12 * max(1.0, abs(rho)))
            rtol = min(1e-10, max(1e-13, 0.1 * res / max(1.0, abs(rho))))
            # (L - sigma) y = x, preconditioned by (c - Lap)^-1
            c = max(pot_max - sigma, 1e-8 * (1.0 + abs(sigma)))
            y, info = torus_mod._solve_shifted(domain, pot - sigma, c, x,
                                               rtol, 2000)
            failed += info != 0
            x = y / l2norm(y)
        raise EigenConvergenceError(
            "eigen iteration stagnated at residual %.3e" % best[0],
            rayleigh=best[1])

    x0 = np.ones(domain.grid_shape)
    rho, x, res, it = iterate(x0)
    if float(x.max()) * float(x.min()) <= 0.0:
        rho, x, res, it2 = iterate(np.abs(x) + 0.1)
        it += it2
        if float(x.max()) * float(x.min()) <= 0.0:
            raise EigenConvergenceError(
                "converged eigenvector changes sign; not the ground state",
                rayleigh=rho)
    if float(np.mean(x)) < 0:
        x = -x
    return EigenResult(eigenvalue=rho, eigenvector=x, rayleigh=rho,
                       residual_norm=res, iterations=it,
                       diagnostics={"epsilon": fld.params.epsilon,
                                    "tau": fld.params.tau,
                                    "minres_failed": failed})


def rayleigh_quotient_torus(fld, phi):
    """Quotient (int |grad phi|^2 - eps^-2 f' phi^2) / int phi^2."""
    Lphi = torus_mod._apply_shifted(fld.domain, fld.potential, phi)
    num = float(np.sum(phi * Lphi))
    den = float(np.sum(phi * phi))
    return num / den


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
    dfu = sol.ops.df(u)

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
    A = sp.diags([off, diag, off], [-1, 0, 1], format="csc")
    B = sp.diags([mass], [0], format="csc")
    try:
        vals, vecs = eigsh(A, k=1, M=B, sigma=sigma0, which="LM",
                           v0=np.ones(diag.size), tol=0)
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
        try:
            sol2 = radial_mod._reshoot(sol, 2.0 * float(r[-1]))
            res2 = weighted_eigen_radial(sol2, _sensitivity=False)
            mu2 = res2.eigenvalue
            sens = abs(mu2 - mu) / max(abs(mu), 1e-300)
            diag_info["mu_doubled_rmax"] = mu2
            diag_info["sensitivity"] = sens
            diag_info["reliable"] = bool(sens < 0.05)
            if sens >= 0.05:
                warnings.warn(
                    "mu* moved %.1f%% when r_max doubled; flagged unreliable"
                    % (100 * sens), UserWarning, stacklevel=2)
        except (radial_mod.IntegrationFailureError, WeightIndefiniteError) as e:
            diag_info["sensitivity"] = None
            diag_info["reliable"] = False
            diag_info["sensitivity_error"] = str(e)
    return EigenResult(eigenvalue=mu, eigenvector=psi, rayleigh=mu,
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
