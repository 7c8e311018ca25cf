"""The eps -> 0 experiment: concentration and the vanishing exterior.

Runs the default one-vortex sweep, prints the per-step concentration
table, classifies which asymptotic alternative the family realizes,
and rescales the last field to compare its core against the
entire-plane limit profile.

Run:  python demos/epsilon_sweep.py
"""

import warnings

import numpy as np

from vortexlab import TorusDomain, TorusGeometry, VortexSet, find_topological
from vortexlab.asymptotics import (
    classify_alternative,
    rescale_blowup,
    run_sweep,
    squared_ratio_test,
)

warnings.simplefilter("ignore")


def main():
    dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(128, 128))
    vs = VortexSet(positive_vortices=(((2.0, 2.0), 1),))
    eps = np.geomspace(0.25, 0.05, 8)

    records = run_sweep(TorusGeometry(dom, vs), 1.0, eps, keep_fields=True)
    print("= sweep: one +1 vortex, eps 0.25 -> 0.05 =")
    print("  eps      sup_K u     inf_K u     ball mass   quantization")
    for rec in records:
        vr = rec.per_vortex[0]
        print("  %.4f  %+.3e  %+.3e  %9.5f    %9.5f"
              % (rec.epsilon, rec.sup_K, rec.inf_K, vr.mass,
                 vr.quantization))
    print("  (ball mass climbs toward 4 pi = %.5f; quantization"
          % (4.0 * np.pi))
    print("   toward 8 pi = %.5f)" % (8.0 * np.pi))

    verdict = classify_alternative(records)
    vals = [max(abs(r.sup_K), abs(r.inf_K)) for r in records]
    passed, detail = squared_ratio_test([r.epsilon for r in records], vals)
    print()
    print("= verdict =")
    print("  alternative        : %s" % verdict.kind.value)
    print("  squared-ratio test : %s  (margins %s)"
          % ({True: "pass", False: "fail", None: "n/a"}[passed],
             ", ".join("%.1e" % m for m in detail["margins"])))
    if passed is False:
        print("  (the last pair sits on the 128^2 discretization floor;")
        print("   at 256^2 every margin clears zero)")

    # zoom into the core of the last field at scale eps
    limit = find_topological((-8.0, 8.0), nu=1.0, tau=1.0, vortex_sign=1)
    bp = rescale_blowup(records[-1].field, (2.0, 2.0))
    sel = bp.y <= 3.0
    ref = np.interp(np.log(bp.y[sel]), np.log(limit.r), limit.u)
    dev = float(np.max(np.abs(bp.angular_mean[sel] - ref)))
    print()
    print("= blow-up profile at eps = %.2f =" % records[-1].epsilon)
    print("  max angular variance      : %.2e"
          % float(np.max(bp.angular_variance)))
    print("  gap to entire-plane limit : %.2e  (on y <= 3)" % dev)


if __name__ == "__main__":
    main()
