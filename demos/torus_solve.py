"""Solve the periodic vortex equation and audit the solution.

Places one positive vortex on a 4 x 4 torus, continues the Newton
solver down to eps = 0.1, and then checks every exact identity the
discrete field is supposed to satisfy: residual, quantized total
mass, the one-parameter family of scaling identities, cross-solver
agreement, and the sign-flip duality between tau and 1/tau.

Run:  python demos/torus_solve.py
"""

import warnings

import numpy as np

from vortexlab import (
    ModelParams,
    TorusDomain,
    TorusGeometry,
    VortexSet,
    identity_check,
    solve_monotone,
    solve_newton,
    total_mass,
)

warnings.simplefilter("ignore")


def main():
    dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(128, 128))
    vs = VortexSet(positive_vortices=(((2.0, 2.0), 1),))
    geo = TorusGeometry(dom, vs)
    params = ModelParams(tau=1.0, epsilon=0.1)
    sched = [0.25, 0.2, 0.15, 0.12, 0.1]

    fld = solve_newton(geo, params, continuation=sched)
    print("= one +1 vortex, eps = 0.1, 128^2 grid =")
    print("  continuation stages : %s" % sched)
    print("  sup residual        : %.3e" % fld.residual_norm())
    print("  u range             : [%.3f, %.3f]"
          % (float(np.min(fld.u)), float(np.max(fld.u))))

    mass = total_mass(fld)
    print()
    print("= integral audits =")
    print("  total mass          : %.12f   (4 pi = %.12f)"
          % (mass, 4.0 * np.pi))
    for a in (0.5, 1.0, 2.0):
        lhs, rhs, rel = identity_check(fld, a)
        print("  a = %-4g identity    : lhs %.6f  rhs %.6f  rel %.1e"
              % (a, lhs, rhs, rel))

    # down from the vacuum supersolution -u0
    mono = solve_monotone(geo, params)
    print()
    print("= monotone iteration cross-check =")
    print("  iterations          : %d" % mono.diagnostics["iterations"])
    print("  max |newton - mono| : %.3e"
          % float(np.max(np.abs(fld.u - mono.u))))

    # swapping the vortex sign mirrors the solution when tau -> 1/tau
    # and eps picks up a factor tau^(3/2)
    sched2 = [0.2, 0.17, 0.15]
    a1 = solve_newton(
        TorusGeometry(dom, VortexSet(negative_vortices=(((2.0, 2.0), 1),))),
        ModelParams(2.0, 0.15), continuation=sched2)
    a2 = solve_newton(geo, ModelParams(0.5, 0.15 * 2.0 ** 1.5),
                      continuation=[e * 2.0 ** 1.5 for e in sched2])
    print()
    print("= sign-flip duality =")
    print("  max |u(tau=2, -1) + u(tau=1/2, +1)| : %.3e"
          % float(np.max(np.abs(a1.u + a2.u))))


if __name__ == "__main__":
    main()
