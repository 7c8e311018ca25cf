"""Scalar kernels of the gauged O(3) sigma-model nonlinearity.

The model nonlinearity is

    f_tau(u) = e^u (1 - e^u) / (tau + e^u)^3,   tau > 0,

together with its derivative df_tau and two antiderivatives F1_tau and
F2_tau (normalized so that F1_tau(0) = 0 and F2_tau(-inf) = 0).

Every kernel is evaluated through the substitution t = e^u on u <= 0 and
s = e^-u on u > 0, so all intermediates stay in [0, 1] and nothing
overflows for |u| up to ~700 (e^-|u| simply underflows to zero beyond
that, which reproduces the exact asymptotic limits).  On the positive
side the rewritten forms are

    f_tau(u)  = s (s - 1) / (tau s + 1)^3
    df_tau(u) = s (tau s^2 - 2(tau+1) s + 1) / (tau s + 1)^4
    F1_tau(u) = -(1 - s)^2 / (2 (tau+1) (tau s + 1)^2)
    F2_tau(u) = ((1 - tau) + 2 tau s) / (2 tau^2 (tau s + 1)^2)

which agree with the t-forms identically and reduce to the leading
asymptotics (e.g. f_tau(u) ~ -e^-u as u -> +inf) without any branch
matching.

All functions accept scalars or numpy arrays and reject non-finite
input.  They are pure and stateless, hence thread-safe.

The radial shooter calls f_tau on one float at a time, so a float u
takes a scalar path through _two_sided: it checks u with math.isfinite
and evaluates only the form of u's side, in numpy scalars.  That is the
arithmetic a 0-d array runs, so the value is the same bit for bit.
Python floats are not used on purpose: their arithmetic raises
OverflowError or ZeroDivisionError at extreme tau where numpy returns
inf or 0, and math.exp and math.log differ from numpy's by an ulp on a
few inputs, which shooting toward the saddle amplifies.
"""

import math

import numpy as np

__all__ = [
    "f_tau",
    "df_tau",
    "F1_tau",
    "F2_tau",
    "q_tau",
    "sup_abs_df_tau",
    "f_extrema_tau",
]


def _check_tau(tau):
    tau = float(tau)
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be a finite positive real, got %r" % (tau,))
    return tau


# Array kernels run in blocks of this many elements, so that a form's
# temporaries stay in cache and a block of one sign runs one form only.
# It is a multiple of every SIMD width, so each element keeps its lane
# position and the values are those of one pass over the whole array,
# bit for bit.
_BLOCK = 8192


def _where(a, pos, neg):
    """Each element of the array a in its side's form.

    A block with max <= 0 runs neg(e, m) alone and one with min > 0
    pos(e, m) alone; a mixed block runs both and np.where keeps each
    element's.  Every element gets the expression it gets in np.where,
    so the result is the same bit for bit.
    """
    t = -np.abs(a)
    e, m = np.exp(t), -np.expm1(t)
    if a.max() <= 0.0:
        return neg(e, m)
    if a.min() > 0.0:
        return pos(e, m)
    return np.where(a > 0.0, pos(e, m), neg(e, m))


def _two_sided(u, neg, pos):
    """Evaluate a kernel from its two overflow-free forms.

    neg(e, m) holds on u <= 0 (where e = e^u) and pos(e, m) on u > 0
    (where e = e^-u), in e = e^-|u| and m = 1 - e^-|u|; m = -expm1(-|u|)
    keeps full relative accuracy near u = 0.

    A float u (np.float64 included) takes the scalar path of the module
    docstring: only u's form runs, in numpy scalars, and a Python float
    comes back.  Anything else, a 0-d array included, takes _where; an
    array of one or more dimensions does so in blocks of _BLOCK
    elements.
    """
    if isinstance(u, float):
        if not math.isfinite(u):
            raise ValueError("non-finite input to kernel evaluation")
        a = -abs(u)
        e, m = np.exp(a), -np.expm1(a)
        return float(pos(e, m) if u > 0.0 else neg(e, m))
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite input to kernel evaluation")
    if arr.ndim == 0:
        # a scalar (a 0-d array included) comes back as a float
        return float(_where(arr, pos, neg))
    out = np.empty(arr.shape)
    flat, dest = arr.reshape(-1), out.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        dest[block] = _where(flat[block], pos, neg)
    return out


def f_tau(u, tau):
    """Nonlinearity f_tau(u) = e^u (1 - e^u) / (tau + e^u)^3.

    Positive for u < 0, zero at u = 0, negative for u > 0.  Safe for
    |u| up to ~700.

    Parameters
    ----------
    u : float or ndarray
    tau : positive float

    Returns
    -------
    float or ndarray
    """
    tau = _check_tau(tau)
    return _two_sided(u, lambda e, m: e * m / (tau + e) ** 3,
                      lambda e, m: -e * m / (tau * e + 1.0) ** 3)


def df_tau(u, tau):
    """Derivative of f_tau.

    df_tau(u) = e^u (tau - 2(tau+1) e^u + e^{2u}) / (tau + e^u)^4,
    with df_tau(0) = -1/(tau+1)^3.
    """
    tau = _check_tau(tau)
    return _two_sided(
        u,
        lambda e, m: e * (tau - 2.0 * (tau + 1.0) * e + e * e) / (tau + e) ** 4,
        lambda e, m: (e * (tau * e * e - 2.0 * (tau + 1.0) * e + 1.0)
                      / (tau * e + 1.0) ** 4))


def F1_tau(u, tau):
    """Antiderivative of f_tau vanishing at u = 0.

    F1_tau(u) = -(1 - e^u)^2 / (2 (tau+1) (tau + e^u)^2) <= 0, with
    limits -1/(2(tau+1)tau^2) at -inf and -1/(2(tau+1)) at +inf.
    """
    tau = _check_tau(tau)
    return _two_sided(
        u,
        lambda e, m: -(m * m) / (2.0 * (tau + 1.0) * (tau + e) ** 2),
        lambda e, m: -(m * m) / (2.0 * (tau + 1.0) * (tau * e + 1.0) ** 2))


def F2_tau(u, tau):
    """Antiderivative of f_tau vanishing at u = -inf.

    F2_tau(u) = e^u ((1-tau) e^u + 2 tau) / (2 tau^2 (tau + e^u)^2),
    with F2_tau(0) = 1/(2 tau^2 (tau+1)) and limit (1-tau)/(2 tau^2)
    at +inf.
    """
    tau = _check_tau(tau)
    return _two_sided(
        u,
        lambda e, m: (e * ((1.0 - tau) * e + 2.0 * tau)
                      / (2.0 * tau * tau * (tau + e) ** 2)),
        lambda e, m: (((1.0 - tau) + 2.0 * tau * e)
                      / (2.0 * tau * tau * (tau * e + 1.0) ** 2)))


def q_tau(u, tau):
    """Quantization density (1 - e^u)^2 / (tau + e^u)^2.

    Tends to 1/tau^2 as u -> -inf and to 1 as u -> +inf; vanishes
    quadratically at u = 0.  This is the density whose integral over a
    topological vortex profile is quantized.
    """
    tau = _check_tau(tau)
    # (1 - e^u)/(tau + e^u) = (s - 1)/(tau s + 1) after multiplying by s/s
    return _two_sided(u, lambda e, m: (m / (tau + e)) ** 2,
                      lambda e, m: (m / (tau * e + 1.0)) ** 2)


def _df_critical_points(tau):
    # Stationary points of df_tau solve the cubic (in t = e^u, t > 0)
    #   -t^3 + (7 tau + 4) t^2 - tau (4 tau + 7) t + tau^2 = 0
    # obtained from d/du df_tau = 0 after clearing (tau + t)^5.  It is
    # tau^2 > 0 at t = 0 and tends to -inf, so a positive root exists.
    coeffs = [-1.0, 7.0 * tau + 4.0, -tau * (4.0 * tau + 7.0), tau * tau]
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-9 * (1.0 + np.abs(roots.real))].real
    return real[real > 0.0]


def sup_abs_df_tau(tau):
    """Supremum over u of |df_tau(u)|.

    The extrema of df_tau occur at roots of an explicit cubic in e^u;
    the sup is the largest |df_tau| over those roots (df_tau vanishes
    at both tails).
    """
    tau = _check_tau(tau)
    us = np.log(_df_critical_points(tau))
    vals = np.abs(df_tau(us, tau))
    # u = 0 is itself a candidate (value 1/(tau+1)^3); include it
    return float(max(np.max(vals), 1.0 / (tau + 1.0) ** 3))


def f_extrema_tau(tau):
    """(min, max) of f_tau over u.

    In t = e^u, d/dt [t (1 - t) / (tau + t)^3] vanishes where
    t^2 - 2(tau+1) t + tau = 0, at t = (tau+1) -/+ sqrt(tau^2 + tau + 1).
    The root in (0, 1) is the max and the root above 1 the min.  Both
    come from q = t_min / tau, which neither cancels nor overflows: the
    smaller root is 1/q and the larger one's e^-u is 1/(tau q), each
    evaluated in its side's form.
    """
    tau = _check_tau(tau)
    q = (1.0 + 1.0 / tau) + np.hypot(1.0 + 0.5 / tau, np.sqrt(0.75) / tau)
    r, s = 1.0 / q, 1.0 / tau / q
    return (float(-s * (1.0 - s) / (r + 1.0) ** 3),
            float(r * (1.0 - r) / (tau + r) ** 3))
