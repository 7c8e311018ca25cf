"""Principal eigenvalues on both sides of the theory.

Three acts: the constant-coefficient oracle where the answer is a
formula, the one-vortex torus branch whose bottom eigenvalue stays
safely positive, and the radial plane profiles where the weighted
eigenvalue dips negative and certifies instability.

Run:  python demos/stability_scan.py
"""

import warnings

from vortexlab import (
    ModelParams,
    TorusDomain,
    TorusGeometry,
    VortexSet,
    classify_stability,
    default_torus_margin,
    integrate_radial,
    principal_eigen_torus,
    solve_newton,
    weighted_eigen_radial,
)

warnings.simplefilter("ignore")


def main():
    dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(64, 64))

    print("= vacuum oracle: mu = eps^-2 / (tau+1)^3 =")
    for tau, eps in ((1.0, 0.5), (2.0, 0.3)):
        fld = solve_newton(TorusGeometry(dom, VortexSet()),
                           ModelParams(tau, eps))
        res = principal_eigen_torus(fld)
        want = eps ** -2 / (tau + 1.0) ** 3
        print("  tau=%g eps=%g   mu = %.10f   formula = %.10f"
              % (tau, eps, res.eigenvalue, want))

    print()
    print("= one-vortex torus branch =")
    geo = TorusGeometry(dom, VortexSet(positive_vortices=(((2.0, 2.0), 1),)))
    for eps, sched in ((0.15, [0.25, 0.2, 0.15]),
                       (0.1, [0.25, 0.2, 0.15, 0.12, 0.1])):
        fld = solve_newton(geo, ModelParams(1.0, eps), continuation=sched)
        res = principal_eigen_torus(fld)
        cls = classify_stability(res, default_torus_margin(fld.params))
        print("  eps=%.2f   mu = %9.4f   %s" % (eps, res.eigenvalue,
                                                cls.value))

    print()
    print("= radial plane profiles, weighted eigenvalue mu* =")
    for s in (-1.0, -3.0):
        sol = integrate_radial(s, tau=1.0)
        res = weighted_eigen_radial(sol)
        cls = classify_stability(res, 1e-8)
        print("  s=%+.1f (%s)  mu* = %+.9f   %s   r_max sensitivity %.1e"
              % (s, sol.bc_type.value, res.eigenvalue, cls.value,
                 res.diagnostics["sensitivity"]))
    print("  (mu* < 0 certifies an unstable direction for the")
    print("   entire-plane profile; the reading is r_max-stable)")


if __name__ == "__main__":
    main()
