"""High-precision periodic Green function values on rectangular tori.

The Green function on the torus with periods (L1, L2) obeys
-Delta G = delta_0 - 1/|O|, |O| = L1 L2, with zero mean.  Two
independent routes:

1. Ewald split: G(x) = (1/4pi) sum_n E1(eta^2 |x-n|^2)
                      + (1/|O|) sum_{m!=0} cos(2pi m.x)
                                  exp(-pi^2|m|^2/eta^2)/(4pi^2|m|^2)
                      - 1/(4 eta^2 |O|),
   n = (n1 L1, n2 L2), m = (m1/L1, m2/L2), valid for any splitting
   parameter eta (checked by computing at two eta values), zero mean by
   construction.

2. Jacobi theta: with nome q = exp(-pi L2/L1),
   h(z) = (1/2pi) ln|theta1(pi z/L1, q)| - (Im z)^2/(2|O|)
   is periodic and satisfies Delta h = delta - 1/|O| up to an additive
   constant, so differences G(x1)-G(x2) must equal -(h(z1)-h(z2)).

Prints golden values for the library's float Ewald implementation:
first the unit torus, then the rectangular tori (1, 3) and (4, 1.5).
"""

import mpmath as mp

mp.mp.dps = 30

# window cutoff: every dropped term is below e^-_Z ~ 1e-35
_Z = 80


def _windows(eta, L1, L2):
    r = mp.sqrt(_Z) / eta
    q = mp.sqrt(_Z) * eta / mp.pi
    return ((int(mp.ceil(r / L1)) + 1, int(mp.ceil(r / L2)) + 1),
            (int(mp.ceil(q * L1)) + 1, int(mp.ceil(q * L2)) + 1))


def _dual(eta, L1, L2):
    """(m1/L1, m2/L2, |m|^2, exp(-pi^2 |m|^2/eta^2)) of every m != 0."""
    (_, _), (m1max, m2max) = _windows(eta, L1, L2)
    for m1 in range(-m1max, m1max + 1):
        for m2 in range(-m2max, m2max + 1):
            if m1 == 0 and m2 == 0:
                continue
            k1, k2 = m1 / L1, m2 / L2
            mm = k1 * k1 + k2 * k2
            yield k1, k2, mm, mp.exp(-mp.pi**2 * mm / eta**2)


def _images(eta, L1, L2):
    (n1max, n2max), _ = _windows(eta, L1, L2)
    for n1 in range(-n1max, n1max + 1):
        for n2 in range(-n2max, n2max + 1):
            yield n1 * L1, n2 * L2


def ewald_G(x1, x2, eta, L1=1, L2=1):
    area = L1 * L2
    s = mp.mpf(0)
    for a, b in _images(eta, L1, L2):
        r2 = (x1 - a) ** 2 + (x2 - b) ** 2
        if r2 > 0:
            s += mp.e1(eta**2 * r2)
    s = s / (4 * mp.pi)
    f = mp.mpf(0)
    for k1, k2, mm, damp in _dual(eta, L1, L2):
        f += mp.cos(2 * mp.pi * (k1 * x1 + k2 * x2)) * damp \
            / (4 * mp.pi**2 * mm)
    return s + f / area - 1 / (4 * eta**2 * area)


def ewald_gamma(eta, L1=1, L2=1):
    # regular part at the source: lim G(x) + ln|x| / 2pi
    area = L1 * L2
    s = mp.mpf(0)
    for a, b in _images(eta, L1, L2):
        if a != 0 or b != 0:
            s += mp.e1(eta**2 * (a * a + b * b))
    s = s / (4 * mp.pi)
    f = mp.mpf(0)
    for _, _, mm, damp in _dual(eta, L1, L2):
        f += damp / (4 * mp.pi**2 * mm)
    # n = 0 term of the lattice sum contributes -(euler + 2 ln eta)/4pi
    # after the log subtraction
    local = -(mp.euler + 2 * mp.log(eta)) / (4 * mp.pi)
    return local + s + f / area - 1 / (4 * eta**2 * area)


def ewald_grad(x1, x2, eta, L1=1, L2=1):
    area = L1 * L2
    gx = mp.mpf(0)
    gy = mp.mpf(0)
    for a, b in _images(eta, L1, L2):
        dx = x1 - a
        dy = x2 - b
        r2 = dx * dx + dy * dy
        if r2 > 0:
            w = -mp.exp(-eta**2 * r2) / r2 / (2 * mp.pi)
            gx += w * dx
            gy += w * dy
    for k1, k2, mm, damp in _dual(eta, L1, L2):
        w = -mp.sin(2 * mp.pi * (k1 * x1 + k2 * x2)) * damp \
            / (2 * mp.pi * mm * area)
        gx += w * k1
        gy += w * k2
    return gx, gy


def theta_h(x1, x2, L1=1, L2=1):
    q = mp.exp(-mp.pi * mp.mpf(L2) / L1)
    z = mp.mpc(x1, x2)
    return mp.log(abs(mp.jtheta(1, mp.pi * z / L1, q))) / (2 * mp.pi) \
        - x2**2 / (2 * L1 * L2)


def theta_grad(x1, x2, L1=1, L2=1, h=mp.mpf("1e-9")):
    # central differences of -h, O(h^2) = 1e-18 accurate
    fx = -(theta_h(x1 + h, x2, L1, L2) - theta_h(x1 - h, x2, L1, L2)) / (2 * h)
    fy = -(theta_h(x1, x2 + h, L1, L2) - theta_h(x1, x2 - h, L1, L2)) / (2 * h)
    return fx, fy


def unit_torus():
    eta1 = mp.sqrt(mp.pi)
    eta2 = mp.mpf("1.6")
    pts = [(mp.mpf(1) / 2, mp.mpf(1) / 2),
           (mp.mpf(1) / 4, mp.mpf(1) / 4),
           (mp.mpf("0.32"), mp.mpf("0.17")),
           (mp.mpf("0.3"), mp.mpf("0.1"))]

    print("# eta independence and theta cross-check (unit torus, source 0)")
    vals = []
    for (a, b) in pts:
        g1 = ewald_G(a, b, eta1)
        g2 = ewald_G(a, b, eta2)
        assert abs(g1 - g2) < mp.mpf("1e-25"), (a, b, g1 - g2)
        vals.append(g1)
        print("G(%s, %s) = %s"
              % (mp.nstr(a, 5), mp.nstr(b, 5), mp.nstr(g1, 22)))

    # differences against the theta route
    for i in range(len(pts) - 1):
        d_ewald = vals[i] - vals[i + 1]
        d_theta = -(theta_h(*pts[i]) - theta_h(*pts[i + 1]))
        assert abs(d_ewald - d_theta) < mp.mpf("1e-25"), (i, d_ewald - d_theta)
    print("# theta-difference cross-check passed at 1e-25")

    gam1 = ewald_gamma(eta1)
    gam2 = ewald_gamma(eta2)
    assert abs(gam1 - gam2) < mp.mpf("1e-25")
    print("gamma(0,0) = %s" % mp.nstr(gam1, 22))

    gx, gy = ewald_grad(mp.mpf("0.3"), mp.mpf("0.1"), eta1)
    gx2, gy2 = ewald_grad(mp.mpf("0.3"), mp.mpf("0.1"), eta2)
    assert abs(gx - gx2) + abs(gy - gy2) < mp.mpf("1e-25")
    # central-difference check against the theta route
    fx, fy = theta_grad(mp.mpf("0.3"), mp.mpf("0.1"))
    assert abs(gx - fx) < mp.mpf("1e-12") and abs(gy - fy) < mp.mpf("1e-12")
    print("gradG(0.3, 0.1) = (%s, %s)" % (mp.nstr(gx, 22), mp.nstr(gy, 22)))

    # value at a generic separation for the symmetry test
    g = ewald_G(mp.mpf("0.15"), mp.mpf("0.45"), eta1)
    print("G(0.15, 0.45) = %s" % mp.nstr(g, 22))


# rectangular tori: (periods, value points, gradient point)
RECTANGLES = [
    ((1, 3), [("0.5", "1.5"), ("0.2", "0.7"), ("0.45", "-1.3")],
     ("0.2", "0.7")),
    ((4, "1.5"), [("2", "0.75"), ("0.6", "0.3"), ("-1.7", "0.5")],
     ("0.6", "0.3")),
]


def rectangles():
    for (L1, L2), pts, gpt in RECTANGLES:
        L1, L2 = mp.mpf(L1), mp.mpf(L2)
        area = L1 * L2
        # the library's eta and one a third larger
        eta1 = mp.sqrt(2 * mp.pi / area)
        eta2 = eta1 * mp.mpf(4) / 3
        print("# periods (%s, %s)" % (mp.nstr(L1, 5), mp.nstr(L2, 5)))
        pts = [(mp.mpf(a), mp.mpf(b)) for a, b in pts]
        vals = []
        for (a, b) in pts:
            g1 = ewald_G(a, b, eta1, L1, L2)
            g2 = ewald_G(a, b, eta2, L1, L2)
            assert abs(g1 - g2) < mp.mpf("1e-25"), (a, b, g1 - g2)
            vals.append(g1)
            print("G(%s, %s) = %s"
                  % (mp.nstr(a, 5), mp.nstr(b, 5), mp.nstr(g1, 22)))
        for i in range(len(pts) - 1):
            d_ewald = vals[i] - vals[i + 1]
            d_theta = -(theta_h(*pts[i], L1, L2)
                        - theta_h(*pts[i + 1], L1, L2))
            assert abs(d_ewald - d_theta) < mp.mpf("1e-25"), \
                (i, d_ewald - d_theta)

        gam1 = ewald_gamma(eta1, L1, L2)
        gam2 = ewald_gamma(eta2, L1, L2)
        assert abs(gam1 - gam2) < mp.mpf("1e-25")
        print("gamma(0,0) = %s" % mp.nstr(gam1, 22))

        a, b = mp.mpf(gpt[0]), mp.mpf(gpt[1])
        gx, gy = ewald_grad(a, b, eta1, L1, L2)
        gx2, gy2 = ewald_grad(a, b, eta2, L1, L2)
        assert abs(gx - gx2) + abs(gy - gy2) < mp.mpf("1e-25")
        fx, fy = theta_grad(a, b, L1, L2)
        assert abs(gx - fx) < mp.mpf("1e-12")
        assert abs(gy - fy) < mp.mpf("1e-12")
        print("gradG(%s, %s) = (%s, %s)" % (mp.nstr(a, 5), mp.nstr(b, 5),
                                           mp.nstr(gx, 22), mp.nstr(gy, 22)))
    print("# eta independence and theta cross-checks passed at 1e-25")


def main():
    unit_torus()
    rectangles()


if __name__ == "__main__":
    main()
