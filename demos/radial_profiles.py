"""Tour of the radial entire-plane solver.

Shoots profiles at a few initial heights to show the boundary-type
trichotomy, samples the flux curve beta(s) on both sides of zero,
and bisects for the vacuum-connecting solution whose mass quantizes.

Run:  python demos/radial_profiles.py
"""

import numpy as np

from vortexlab import (
    MassKind,
    compute_beta_curve,
    find_topological,
    integrate_radial,
    mass_integral,
)


def main():
    print("= single profiles: the boundary trichotomy =")
    for s in (-2.0, 0.0, 2.0):
        sol = integrate_radial(s, tau=1.0)
        print("  s = %+5.2f  ->  %-16s beta = %+.6f" %
              (s, sol.bc_type.value, sol.beta))
    print("  (negative s dives to -inf, s = 0 stays at vacuum,")
    print("   positive s blows up; beta jumps past +-4)")

    print()
    print("= flux curve beta(s), tau = 1 =")
    curve = compute_beta_curve(1.0, list(np.linspace(-6.0, -0.5, 8)))
    for s, beta, bc in curve.samples:
        print("  s = %+5.2f  beta = %9.6f   %s" % (s, beta, bc.value))
    print("  monotone violations: %d, failures: %d"
          % (curve.monotone_violations, len(curve.failures)))

    print()
    print("= vacuum-connecting profile with a unit vortex at the origin =")
    # bisect the series coefficient of the log-singular local expansion
    sol = find_topological((-8.0, 8.0), nu=1.0, tau=1.0)
    q = mass_integral(sol, MassKind.QUANTIZATION)
    print("  separatrix coefficient s* = %.12f" % sol.s)
    print("  quantization integral      = %.8f" % q)
    print("  4 pi (tau + 1) nu^2        = %.8f" % (8.0 * np.pi))
    print("  relative gap               = %.2e"
          % (abs(q - 8.0 * np.pi) / (8.0 * np.pi)))


if __name__ == "__main__":
    main()
