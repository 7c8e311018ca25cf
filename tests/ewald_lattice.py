"""The Ewald lattice sum of the torus Green function, in floats.

The float reference for vortexlab.ewald's theta-row series.  G solves
-Delta G = delta_0 - 1/|O| on the torus with periods (L1, L2) and has
zero mean:

    G(x) = (1/4pi) sum_n E1(eta^2 |x - n|^2)
         + (1/|O|) sum_{m != 0} cos(2pi m.x) exp(-pi^2|m|^2/eta^2)
                                / (4pi^2 |m|^2)
         - 1/(4 eta^2 |O|)

(n over the period lattice, m over the dual lattice), for any splitting
parameter eta.  Each window keeps exactly the terms that can exceed
e^-_Z_CUT at some point:

- the images n = (i L1, j L2) with
  ((|i| - 1/2)+ L1)^2 + ((|j| - 1/2)+ L2)^2 <= _Z_CUT / eta^2,
  since a minimum-image displacement lies in [-L/2, L/2] per axis, so
  every dropped image has eta^2 |x - n|^2 > _Z_CUT at every point;
- the dual vectors m = (i/L1, j/L2) != 0 with
  |m|^2 <= _Z_CUT eta^2 / pi^2.

The dual window is closed under m -> -m and both dual series are even
in m, so each +-m pair costs one cosine or sine (_folded).  eta^2 =
2pi/|O|: 25 images and 68 dual vectors (34 pairs) on the 4 x 4 torus.
"""

import numpy as np
from scipy.special import exp1

from vortexlab.ewald import _Z_CUT, _min_image


def _real_weight(r2, eta2):
    """Real-space gradient weight: an image at squared distance r2 adds
    _real_weight * (its displacement); inf on the source itself."""
    return np.where(r2 > 0, -np.exp(-eta2 * r2) / (2.0 * np.pi * r2), np.inf)


def _dual_damping(q2, eta2):
    """Gaussian factor of the dual term at |m|^2 = q2 (m in cycles per
    unit length)."""
    return np.exp(-np.pi**2 * q2 / eta2)


def _setup(L1, L2):
    """(area, eta^2, images, duals): the kept (i, j) of both windows."""
    if not (0.0 < L1 < np.inf and 0.0 < L2 < np.inf):
        raise ValueError("periods must be positive and finite")
    area = L1 * L2
    eta2 = 2.0 * np.pi / area
    r2_cut = _Z_CUT / eta2
    n1 = int(np.sqrt(r2_cut) / L1 + 0.5)
    n2 = int(np.sqrt(r2_cut) / L2 + 0.5)
    images = [(i, j) for i in range(-n1, n1 + 1) for j in range(-n2, n2 + 1)
              if (max(abs(i) - 0.5, 0.0) * L1) ** 2
              + (max(abs(j) - 0.5, 0.0) * L2) ** 2 <= r2_cut]
    q2_cut = _Z_CUT * eta2 / np.pi**2
    m1 = int(np.sqrt(q2_cut) * L1)
    m2 = int(np.sqrt(q2_cut) * L2)
    duals = [(i, j) for i in range(-m1, m1 + 1) for j in range(-m2, m2 + 1)
             if (i or j) and (i / L1) ** 2 + (j / L2) ** 2 <= q2_cut]
    return area, eta2, images, duals


def _folded(duals):
    """One dual vector of each +-m pair in a window closed under
    negation: cos(2pi m.x) and the grad term sin(2pi m.x) m are even in
    m, so each pair is summed once at twice its weight."""
    return [(i, j) for i, j in duals if i > 0 or (i == 0 and j > 0)]


def green_value(dx, dy, L1=1.0, L2=1.0):
    """G at displacement (dx, dy) from the source; +inf on it."""
    area, eta2, images, duals = _setup(L1, L2)
    dx = _min_image(np.asarray(dx, dtype=float), L1)
    dy = _min_image(np.asarray(dy, dtype=float), L2)
    out = np.zeros(np.broadcast(dx, dy).shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, j in images:
            r2 = (dx - i * L1) ** 2 + (dy - j * L2) ** 2
            out = out + np.where(r2 > 0, exp1(eta2 * r2), np.inf)
    out /= 4.0 * np.pi
    for i, j in _folded(duals):
        q2 = (i / L1) ** 2 + (j / L2) ** 2
        w = 2.0 * _dual_damping(q2, eta2) / (4.0 * np.pi**2 * q2 * area)
        out = out + w * np.cos(2.0 * np.pi * (i * dx / L1 + j * dy / L2))
    return out - 1.0 / (4.0 * eta2 * area)


def green_gradient(dx, dy, L1=1.0, L2=1.0):
    """(dG/dx, dG/dy) at displacement (dx, dy); nan at the source."""
    area, eta2, images, duals = _setup(L1, L2)
    dx = _min_image(np.asarray(dx, dtype=float), L1)
    dy = _min_image(np.asarray(dy, dtype=float), L2)
    shape = np.broadcast(dx, dy).shape
    gx = np.zeros(shape)
    gy = np.zeros(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, j in images:
            ax = dx - i * L1
            ay = dy - j * L2
            r2 = ax * ax + ay * ay
            w = _real_weight(r2, eta2)
            gx = gx + w * ax
            gy = gy + w * ay
    for i, j in _folded(duals):
        q2 = (i / L1) ** 2 + (j / L2) ** 2
        w = -np.sin(2.0 * np.pi * (i * dx / L1 + j * dy / L2)) * \
            2.0 * _dual_damping(q2, eta2) / (2.0 * np.pi * q2 * area)
        gx = gx + w * (i / L1)
        gy = gy + w * (j / L2)
    return gx, gy


def regular_part(L1=1.0, L2=1.0):
    """gamma(p, p) = lim_{x->p} G(x, p) + (1/2pi) ln|x - p|.

    The n = 0 lattice term contributes -(euler + 2 ln eta)/4pi after
    the log subtraction; everything else is evaluated at the source.
    """
    area, eta2, images, duals = _setup(L1, L2)
    out = -(float(np.euler_gamma) + np.log(eta2)) / (4.0 * np.pi)
    acc = 0.0
    for i, j in images:
        if i or j:
            acc += exp1(eta2 * ((i * L1) ** 2 + (j * L2) ** 2))
    out += acc / (4.0 * np.pi)
    for i, j in _folded(duals):
        q2 = (i / L1) ** 2 + (j / L2) ** 2
        out += 2.0 * _dual_damping(q2, eta2) / (4.0 * np.pi**2 * q2 * area)
    return out - 1.0 / (4.0 * eta2 * area)
