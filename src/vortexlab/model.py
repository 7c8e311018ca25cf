"""Model parameters, vortex configurations, and hypothesis checks.

Value types shared by every solver: ModelParams (tau, epsilon,
nonlinearity selector), VortexSet (signed vortex points with integer
multiplicities), and HypothesisReport (the two standing structural
assumptions on the vortex data).  All types are immutable and safe to
share between threads.

nonlinearity_ops is the one dispatch from a Nonlinearity selector to
its kernels, including which operations CSH refuses; eps_schedule is
the one validator of epsilon schedules.
"""

import enum
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from . import kernels

__all__ = [
    "Nonlinearity",
    "ModelParams",
    "VortexSet",
    "HypothesisReport",
    "check_hypotheses",
    "UnsupportedKernelError",
    "nonlinearity_ops",
    "eps_schedule",
]


class UnsupportedKernelError(RuntimeError):
    """Raised when an operation is undefined for the active nonlinearity."""


class Nonlinearity(enum.Enum):
    SIGMA_O3 = "SigmaO3"
    CSH = "CSH"


@dataclass(frozen=True)
class ModelParams:
    """Model parameters governing every solver.

    Parameters
    ----------
    tau : finite positive real (not bool)
        Shape parameter of the sigma-model nonlinearity.
    epsilon : finite positive real (not bool)
        Coupling scale; the equation carries the factor epsilon^-2.
    nonlinearity : Nonlinearity
        SIGMA_O3 (default) or the CSH alternate e^u(1-e^u).  In CSH
        mode the tau-dependent operations (F2 and friends) are
        rejected.
    """

    tau: float
    epsilon: float
    nonlinearity: Nonlinearity = Nonlinearity.SIGMA_O3

    def __post_init__(self):
        for name in ("tau", "epsilon"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError("%s: expected a number, got %r" % (name, v))
            v = float(v)
            if not math.isfinite(v):
                raise ValueError("%s must be finite, got %r" % (name, v))
            if not v > 0:
                raise ValueError("%s must be > 0, got %r" % (name, v))
            object.__setattr__(self, name, v)
        if not isinstance(self.nonlinearity, Nonlinearity):
            object.__setattr__(
                self, "nonlinearity", Nonlinearity(self.nonlinearity)
            )


@dataclass(frozen=True)
class VortexSet:
    """Signed vortex points with multiplicities.

    positive_vortices and negative_vortices are tuples of
    ((x, y), m) entries with integer multiplicity m >= 0.  Points must
    be pairwise distinct across both lists.  N1 and N2 are the total
    multiplicities of each sign and are recomputed from the tuples, so
    they are always consistent.
    """

    positive_vortices: tuple = field(default=())
    negative_vortices: tuple = field(default=())

    def __post_init__(self):
        pos = tuple((tuple(map(float, p)), int(m)) for p, m in self.positive_vortices)
        neg = tuple((tuple(map(float, p)), int(m)) for p, m in self.negative_vortices)
        for p, m in pos + neg:
            if len(p) != 2:
                raise ValueError("vortex points are planar, got %r" % (p,))
            if m < 0:
                raise ValueError("multiplicity must be >= 0, got %d" % m)
        points = [p for p, _ in pos + neg]
        if len(set(points)) != len(points):
            raise ValueError("vortex points must be pairwise distinct")
        object.__setattr__(self, "positive_vortices", pos)
        object.__setattr__(self, "negative_vortices", neg)

    @property
    def N1(self):
        return sum(m for _, m in self.positive_vortices)

    @property
    def N2(self):
        return sum(m for _, m in self.negative_vortices)

    def signed(self):
        """All vortices as (point, multiplicity, sign) with sign +1/-1."""
        out = [(p, m, +1) for p, m in self.positive_vortices]
        out += [(p, m, -1) for p, m in self.negative_vortices]
        return out

    def __len__(self):
        return len(self.positive_vortices) + len(self.negative_vortices)


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the two structural hypotheses on the vortex data.

    h1_holds: the signed multiplicity totals differ (N1 != N2).
    h2_holds: tau = 1, or every multiplicity on the heavier side is 1.
    """

    h1_holds: bool
    h2_holds: bool


def check_hypotheses(vortices, params):
    """Evaluate the standing assumptions for a vortex configuration.

    h1 asks N1 != N2.  h2 holds iff tau = 1 or, whenever one side has
    strictly larger total multiplicity, every individual multiplicity
    on that side is at most 1.  When N1 = N2 the h2 condition is
    vacuous and reports true.
    """
    n1, n2 = vortices.N1, vortices.N2
    h2 = True
    if params.tau != 1.0 and n1 != n2:
        heavier = (vortices.positive_vortices if n1 > n2
                   else vortices.negative_vortices)
        h2 = all(m <= 1 for _, m in heavier)
    return HypothesisReport(h1_holds=n1 != n2, h2_holds=h2)


def _refuse(message):
    def refuse(*args):
        raise UnsupportedKernelError(message)
    return refuse


@dataclass(frozen=True)
class _Ops:
    """Kernel bundle of one nonlinearity; sigma tells whether the
    tau-dependent operations exist (CSH's fields for them raise)."""

    sigma: bool
    f: Callable
    df: Callable
    F1: Callable
    F2: Callable
    q: Callable
    sup_abs_df: Callable
    f_extrema: Callable

    def require_sigma(self, what):
        if not self.sigma:
            raise UnsupportedKernelError(
                "%s is only defined for the SigmaO3 kernel" % what)


def nonlinearity_ops(nonlinearity, tau):
    """Return the kernel bundle (f, df, F1, F2, q) of a nonlinearity.

    This is the one place that dispatches on Nonlinearity; a string
    selector ("SigmaO3"/"CSH") is coerced.  bundle.sigma tells whether
    the tau-dependent operations exist, and bundle.require_sigma(what)
    raises UnsupportedKernelError when they do not.  The bundle binds
    the kernels module's functions as they are at this call, so a
    wrapper installed over them (a tracer's) is seen by later bundles.
    """
    if Nonlinearity(nonlinearity) is Nonlinearity.SIGMA_O3:
        return _Ops(True, *(partial(k, tau=tau) for k in (
            kernels.f_tau, kernels.df_tau, kernels.F1_tau, kernels.F2_tau,
            kernels.q_tau, kernels.sup_abs_df_tau, kernels.f_extrema_tau)))
    return _Ops(
        False, kernels.f_csh, kernels.df_csh, kernels.F1_csh,
        _refuse("F2 is undefined for the CSH nonlinearity"),
        _refuse("quantization density is undefined for the CSH nonlinearity"),
        _refuse("df is unbounded for the CSH nonlinearity; no finite sup "
                "exists"),
        # e^u (1 - e^u) peaks at 1/4 (e^u = 1/2) and is unbounded below
        lambda: (float("-inf"), 0.25))


def eps_schedule(epsilons, what):
    """Validated epsilon schedule as a list of floats.

    Raises ValueError unless it is nonempty, positive and strictly
    decreasing; `what` names the schedule in the message.
    """
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ValueError("%s must be nonempty" % what)
    if any(e <= 0 for e in eps):
        raise ValueError("%s must be positive" % what)
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("%s must be strictly decreasing" % what)
    return eps
