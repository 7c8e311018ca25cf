"""The periodic Green function of a rectangular torus, by theta rows.

G solves -Delta G = delta_0 - 1/|O| on the torus with periods (L1, L2),
has zero mean, and behaves like -(1/2pi) ln|x| near the source.  On a
rectangular torus it is -(1/2pi) ln|theta_1| plus a quadratic
(C.-S. Lin and C.-L. Wang, Ann. of Math. 172 (2010) 911-954).  With the
axes swapped so that L1 <= L2, the minimum image (x, y),
k = 2pi/L1 and rho_j = exp(-k |y - j L2|), its product formula summed
row by row reads

    G(x, y) = (y^2/(2 L2) - |y|/2 + L2/12) / L1
            - (1/4pi) sum_j ln(1 - 2 rho_j cos kx + rho_j^2).

Row j is the field of the source's images on the line y = j L2; the
quadratic is the images' linear far fields summed against the uniform
background, with the constant that gives zero mean.  Row j != 0 has
rho_j <= q^(|j| - 1/2), q = exp(-2pi L_long/L_short), so each row is
smaller than the last by that factor; the rows stop at the first j
with q^(j - 1/2) < e^-_Z_CUT, so every dropped row is below e^-_Z_CUT
at every minimum-image point: 13 rows on a square torus, 3 on the
1 x 5 one, row 0 alone once L_long > 12.1 L_short.  Row 0 is written
ln((1 - rho_0)^2 + 4 rho_0 sin^2(kx/2)) with 1 - rho_0 =
-expm1(-k|y|), so it keeps its relative accuracy at the source, where
it is -inf and G is +inf.  grad G is the exact derivative of the same
rows; nan at the source.

torus._u0_gradient evaluates grad G on a quarter of the grid offsets
and rolls it to each vortex cell.  The tests keep the Ewald lattice sum
as the float reference of the rows.

The rows need no scipy.  green_value, green_gradient and regular_part
each import scipy.sparse.linalg all the same, and call nothing in it:
bench/layertrace.py reads its five minres_* counters on that module
and finds the target only once the module is loaded.  The imports go
with those counters.
"""

import math

import numpy as np

# e^-38 ~ 3e-17: the last theta row is cut here (and the lattice
# reference's Ewald windows, E1(38) ~ 8e-19)
_Z_CUT = 38.0


def _min_image(dx, L):
    return dx - L * np.round(dx / L)


def _rows(L1, L2):
    """(L1, L2, swapped, q^j for j = 1..J): the periods with the shorter
    first and the factors of the kept rows j != 0."""
    if not (0.0 < L1 < np.inf and 0.0 < L2 < np.inf):
        raise ValueError("periods must be positive and finite")
    swapped = L1 > L2
    if swapped:
        L1, L2 = L2, L1
    log_q = 2.0 * np.pi * L2 / L1
    j = np.arange(1, int(_Z_CUT / log_q + 0.5) + 1)
    return L1, L2, swapped, np.exp(-log_q * j)


def _image(dx, dy, L1, L2, swapped):
    """The minimum-image displacement along the (swapped) axes."""
    if swapped:
        dx, dy = dy, dx
    return (_min_image(np.asarray(dx, dtype=float), L1),
            _min_image(np.asarray(dy, dtype=float), L2))


def green_value(dx, dy, L1=1.0, L2=1.0):
    """G(x) - G at displacement (dx, dy) from the source.

    Accepts scalars or arrays (broadcast together).  Returns +inf on
    the source point itself.
    """
    import scipy.sparse.linalg  # for the tracer only (module docstring)
    L1, L2, swapped, q = _rows(L1, L2)
    x, y = _image(dx, dy, L1, L2, swapped)
    k = 2.0 * np.pi / L1
    m = np.expm1(-k * np.abs(y))  # rho_0 - 1
    s2 = np.sin(0.5 * k * x) ** 2
    with np.errstate(divide="ignore"):
        rows = np.log(m * m + 4.0 * (1.0 + m) * s2)
    if q.size:
        # rows j and -j: rho = q^j e^(+-ky); their product stays within
        # (1 +- q^(1/2))^(4J) of 1, so one log takes them all
        c = 1.0 - 2.0 * s2
        e = np.exp(k * y)
        prod = 1.0
        for qj in q:
            a = qj * e
            b = qj / e
            prod = prod * (1.0 - 2.0 * a * c + a * a) \
                * (1.0 - 2.0 * b * c + b * b)
        rows = rows + np.log(prod)
    quad = (y * y / (2.0 * L2) - 0.5 * np.abs(y) + L2 / 12.0) / L1
    return quad - rows / (4.0 * np.pi)


def green_gradient(dx, dy, L1=1.0, L2=1.0):
    """(dG/dx, dG/dy) at displacement (dx, dy); nan at the source."""
    import scipy.sparse.linalg  # for the tracer only (module docstring)
    L1, L2, swapped, q = _rows(L1, L2)
    x, y = _image(dx, dy, L1, L2, swapped)
    k = 2.0 * np.pi / L1
    m = np.expm1(-k * np.abs(y))  # rho_0 - 1
    sh = np.sin(0.5 * k * x)
    ch = np.cos(0.5 * k * x)
    s2 = sh * sh
    d0 = m * m + 4.0 * (1.0 + m) * s2
    with np.errstate(divide="ignore", invalid="ignore"):
        # sum_j rho_j / D_j, and row 0's y-derivative folded into the
        # quadratic's -sgn(y)/(2 L1): -sgn(y)(1 - rho_0^2)/(2 L1 D_0)
        wx = (1.0 + m) / d0
        gy = np.sign(y) * m * (2.0 + m) / (2.0 * L1 * d0) + y / (L1 * L2)
    if q.size:
        c = 1.0 - 2.0 * s2
        e = np.exp(k * y)
        for qj in q:
            a = qj * e  # the image at +j L2, rho' = +k rho
            b = qj / e  # the image at -j L2, rho' = -k rho
            da = 1.0 - 2.0 * a * c + a * a
            db = 1.0 - 2.0 * b * c + b * b
            wx = wx + a / da + b / db
            gy = gy + (b * (b - c) / db - a * (a - c) / da) / L1
    with np.errstate(invalid="ignore"):
        gx = -2.0 * sh * ch * wx / L1
    return (gy, gx) if swapped else (gx, gy)


def regular_part(L1=1.0, L2=1.0):
    """gamma(p, p) = lim_{x->p} G(x, p) + (1/2pi) ln|x - p|.

    Row 0 is -(1/4pi) ln(k^2 |x|^2) + o(1) at the source, and row +-j
    is -(1/2pi) ln(1 - q^j) there, so
    gamma = L2/(12 L1) - (1/2pi) ln k - (1/pi) sum_{j>=1} ln(1 - q^j).
    """
    import scipy.sparse.linalg  # for the tracer only (module docstring)
    L1, L2, _, q = _rows(L1, L2)
    rows = math.fsum(math.log1p(-qj) for qj in q)
    return L2 / (12.0 * L1) - math.log(2.0 * np.pi / L1) / (2.0 * np.pi) \
        - rows / np.pi
