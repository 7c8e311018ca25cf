"""Model parameters, vortex configurations, and hypothesis checks.

Value types shared by every solver: ModelParams (tau, epsilon),
VortexSet (signed vortex points with integer multiplicities), and
HypothesisReport (the two standing structural assumptions on the vortex
data).  All types are immutable and safe to share between threads.

check_epsilon is the one floor on epsilon and eps_schedule the one
validator of epsilon schedules.
"""

import math
import numbers
import sys
from dataclasses import dataclass, field

__all__ = [
    "ModelParams",
    "VortexSet",
    "HypothesisReport",
    "check_hypotheses",
    "check_epsilon",
    "eps_schedule",
]

# the smallest epsilon whose epsilon^-2, the equation's factor, is a
# finite double
EPS_MIN = 1.0 / math.sqrt(sys.float_info.max)


def _real(x):
    return not isinstance(x, bool) and isinstance(x, numbers.Real)


@dataclass(frozen=True)
class ModelParams:
    """Model parameters governing every solver.

    Parameters
    ----------
    tau : finite positive real (not bool)
        Shape parameter of the sigma-model nonlinearity.
    epsilon : finite positive real (not bool)
        Coupling scale; the equation carries the factor epsilon^-2.
    """

    tau: float
    epsilon: float

    def __post_init__(self):
        for name in ("tau", "epsilon"):
            v = getattr(self, name)
            if not _real(v):
                raise ValueError("%s: expected a number, got %r" % (name, v))
            v = float(v)
            if not math.isfinite(v):
                raise ValueError("%s must be finite, got %r" % (name, v))
            if not v > 0:
                raise ValueError("%s must be > 0, got %r" % (name, v))
            object.__setattr__(self, name, v)
        check_epsilon(self.epsilon, "epsilon")


def _vortex(entry):
    """One validated ((x, y), m) entry of a VortexSet, as floats and int."""
    point, m = entry
    try:
        x, y = point
    except (TypeError, ValueError):
        raise ValueError("vortex points are planar, got %r" % (point,)) \
            from None
    if not all(_real(c) and math.isfinite(c) for c in (x, y)):
        raise ValueError("vortex point coordinates must be finite reals, "
                         "got %r" % (point,))
    if not (_real(m) and float(m).is_integer()):
        raise ValueError("multiplicity must be an integer, got %r" % (m,))
    if m < 0:
        raise ValueError("multiplicity must be >= 0, got %d" % m)
    return (float(x), float(y)), int(m)


@dataclass(frozen=True)
class VortexSet:
    """Signed vortex points with multiplicities.

    positive_vortices and negative_vortices are tuples of
    ((x, y), m) entries: x and y finite reals, m an integer >= 0 (an
    integral float is taken, a bool or a fraction is not).  Points must
    be pairwise distinct across both lists.  N1 and N2 are the total
    multiplicities of each sign and are recomputed from the tuples, so
    they are always consistent.
    """

    positive_vortices: tuple = field(default=())
    negative_vortices: tuple = field(default=())

    def __post_init__(self):
        pos = tuple(map(_vortex, self.positive_vortices))
        neg = tuple(map(_vortex, self.negative_vortices))
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


def check_epsilon(eps, what):
    """Raise ValueError unless eps^-2 is a finite double; `what` names
    eps in the message."""
    if not eps >= EPS_MIN:
        raise ValueError("%s must be >= %r, where epsilon^-2 stays finite, "
                         "got %r" % (what, EPS_MIN, eps))


def eps_schedule(epsilons, what):
    """Validated epsilon schedule as a list of floats.

    Raises ValueError unless it is nonempty, positive, strictly
    decreasing and each epsilon passes check_epsilon; `what` names the
    schedule in the message.
    """
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ValueError("%s must be nonempty" % what)
    if any(e <= 0 for e in eps):
        raise ValueError("%s must be positive" % what)
    for e in eps:
        check_epsilon(e, "%s entry" % what)
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("%s must be strictly decreasing" % what)
    return eps
