"""End-to-end acceptance battery.

Each criterion owns one test and prints exactly one pass/fail line
(visible with pytest -s, and in the captured output on failure).  The
tolerances here are the product contract; loosening them to make a
failing build green defeats the point of the file.
"""

import time
import warnings

import numpy as np
import pytest

from vortexlab import (
    MassKind,
    ModelParams,
    StabilityClass,
    TorusDomain,
    TorusGeometry,
    VortexSet,
    classify_stability,
    compute_beta_curve,
    default_torus_margin,
    find_topological,
    identity_check,
    integrate_radial,
    mass_integral,
    principal_eigen_torus,
    solve_monotone,
    solve_newton,
    total_mass,
    weighted_eigen_radial,
)
from vortexlab.asymptotics import (
    Alternative,
    classify_alternative,
    pohozaev_value,
    run_sweep,
    squared_ratio_test,
)
from vortexlab.kernels import f_tau

pytestmark = [
    pytest.mark.filterwarnings("ignore::vortexlab.torus.ResolutionWarning"),
    pytest.mark.filterwarnings("ignore:.*snapped to the grid.*"),
]

ONE_PLUS = VortexSet(positive_vortices=(((2.0, 2.0), 1),))


def _report(num, label, ok, detail):
    print("%s  criterion %2d  %-28s  %s"
          % ("PASS" if ok else "FAIL", num, label, detail), flush=True)
    return ok


@pytest.fixture(scope="module")
def dom256():
    return TorusDomain(periods=(4.0, 4.0), grid_shape=(256, 256))


@pytest.fixture(scope="module")
def sweep256(dom256):
    # shared by the sweep criterion and the small-eps stability check
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_sweep(TorusGeometry(dom256, ONE_PLUS),
                         1.0, np.geomspace(0.25, 0.05, 8),
                         keep_fields=True)


def test_criterion_01_beta_curve_structure():
    ok = True
    details = []
    for tau in (0.5, 1.0, 2.0):
        t0 = time.time()
        neg = compute_beta_curve(tau, list(np.linspace(-8.0, -0.25, 16)))
        pos = compute_beta_curve(tau, list(np.linspace(0.25, 8.0, 16)))
        elapsed = time.time() - t0
        bn = [b for _, b, _ in neg.samples]
        bp = [b for _, b, _ in pos.samples]
        ok &= len(bn) == 16 and len(bp) == 16
        ok &= not neg.failures and not pos.failures
        ok &= all(b > 4.0 for b in bn)
        ok &= neg.monotone_violations == 0
        ok &= (bn[0] - 4.0) < (bn[-1] - 4.0)
        ok &= all(b < -4.0 for b in bp)
        ok &= all(b > a for a, b in zip(bp, bp[1:]))
        ok &= -4.5 < bp[-1] < -4.0
        ok &= elapsed < 120.0
        details.append("tau=%g %.1fs" % (tau, elapsed))
    assert _report(1, "beta-curve structure", ok, ", ".join(details))


def test_criterion_02_vacuum_profile_is_exact():
    sol = integrate_radial(0.0, tau=1.0)
    ok = sol.beta == 0.0 and float(np.max(np.abs(sol.u))) == 0.0
    assert _report(2, "beta(0) = 0 exactly", ok,
                   "beta=%r max|u|=%r" % (sol.beta, float(np.max(np.abs(sol.u)))))


def test_criterion_03_radial_quantization():
    ok = True
    details = []
    for nu, tau, bracket in ((1.0, 1.0, (-8.0, 8.0)),
                             (2.0, 1.0, (-16.0, 16.0)),
                             (1.0, 0.5, (-8.0, 8.0))):
        sol = find_topological(bracket, nu=nu, tau=tau)
        got = mass_integral(sol, MassKind.QUANTIZATION)
        want = 4.0 * (tau + 1.0) * np.pi * nu ** 2
        rel = abs(got - want) / want
        ok &= rel < 5e-3
        details.append("(%g,%g) rel=%.1e" % (nu, tau, rel))
    assert _report(3, "mass quantization", ok, ", ".join(details))


def test_criterion_04_total_mass_is_quantized():
    dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(64, 64))
    configs = [
        ((((2.0, 2.0), 1),), ()),
        ((((1.3, 1.2), 1), ((2.8, 2.9), 1)), ()),
        ((((2.0, 2.0), 2),), ()),
        ((((1.2, 1.2), 1),), (((2.9, 2.9), 1),)),  # N1 = N2
    ]
    ok = True
    rels = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for pos, neg in configs:
            vs = VortexSet(positive_vortices=pos, negative_vortices=neg)
            fld = solve_newton(TorusGeometry(dom, vs), ModelParams(1.0, 0.15),
                               continuation=[0.2, 0.17, 0.15])
            target = 4.0 * np.pi * (vs.N1 - vs.N2)
            scale = 4.0 * np.pi * max(1, vs.N1 + vs.N2)
            rel = abs(total_mass(fld) - target) / scale
            ok &= rel < 1e-6
            rels.append(rel)
    assert _report(4, "exact total mass", ok,
                   "4 configs, worst rel=%.1e" % max(rels))


def test_criterion_05_scaling_identity(dom256):
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fld = solve_newton(TorusGeometry(dom256, ONE_PLUS),
                           ModelParams(1.0, 0.1),
                           continuation=[0.25, 0.2, 0.15, 0.12, 0.1])
    rels = []
    ok = True
    for a in (0.5, 1.0, 2.0):
        _, rhs, rel = identity_check(fld, a)
        ok &= rel < 1e-3
        ok &= rhs == 4.0 * np.pi * (fld.vortices.N1 / a + fld.vortices.N2)
        rels.append(rel)
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    assert _report(5, "a-identity at 256^2", ok,
                   "rels=%s %.1fs" % (["%.1e" % r for r in rels], elapsed))


def test_criterion_06_stability_trichotomy(sweep256):
    # (i) constant-coefficient oracle
    dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(64, 64))
    oracle_ok = True
    for tau, eps in ((1.0, 0.5), (2.0, 0.3), (0.5, 0.2)):
        fld = solve_newton(TorusGeometry(dom, VortexSet()),
                           ModelParams(tau, eps))
        res = principal_eigen_torus(fld)
        want = eps ** -2 / (tau + 1.0) ** 3
        oracle_ok &= abs(res.eigenvalue - want) / want < 1e-10

    # (ii) topological branch at the two smallest sweep eps values
    branch_ok = True
    mus = []
    for rec in sweep256[-2:]:
        res = principal_eigen_torus(rec.field)
        cls = classify_stability(res, default_torus_margin(rec.field.params))
        branch_ok &= cls is StabilityClass.STRICTLY_STABLE
        mus.append(res.eigenvalue)

    # (iii) radial type-I profiles are unstable, with a stable mu* reading
    radial_ok = True
    stars = []
    for s in (-1.0, -3.0):
        sol = integrate_radial(s, tau=1.0)
        res = weighted_eigen_radial(sol)
        cls = classify_stability(res, 1e-8)
        radial_ok &= res.eigenvalue < 0.0
        radial_ok &= cls is StabilityClass.UNSTABLE
        radial_ok &= res.diagnostics["sensitivity"] < 0.05
        stars.append(res.eigenvalue)

    ok = oracle_ok and branch_ok and radial_ok
    assert _report(6, "stability trichotomy", ok,
                   "oracle=%s torus mu=%s radial mu*=%s"
                   % (oracle_ok, ["%.1f" % m for m in mus],
                      ["%.4f" % m for m in stars]))


def test_criterion_07_epsilon_sweep(sweep256):
    t0 = time.time()
    verdict = classify_alternative(sweep256)
    vals = [max(abs(r.sup_K), abs(r.inf_K)) for r in sweep256]
    passed, detail = squared_ratio_test([r.epsilon for r in sweep256], vals)
    ok = verdict.kind is Alternative.A_UNIFORM_ZERO
    ok &= all(b < a for a, b in zip(vals, vals[1:]))
    ok &= passed is True
    ok &= all(m > 0.0 for m in detail["margins"][-3:])
    ok &= max(r.total_abs_mass for r in sweep256) < 4.0 * np.pi + 1e-2
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    assert _report(7, "epsilon sweep verdict", ok,
                   "verdict=%s ratio_margins=%s"
                   % (verdict.kind.value,
                      ["%.1e" % m for m in detail["margins"]]))


def test_criterion_08_pohozaev_residuals():
    resids = []
    for ppd in (200, 400):
        sol = find_topological((-8.0, 8.0), nu=1.0, tau=1.0,
                               points_per_decade=ppd)
        resids.append(pohozaev_value(sol, r=10.0)[2])
    ok = resids[0] < 1e-4 and resids[1] <= resids[0] / 2.0
    assert _report(8, "pohozaev balance", ok,
                   "resid=%.1e -> %.1e on doubling" % tuple(resids))


def test_criterion_09_duality_suite():
    # kernel identity f_tau(u) = -f_{1/tau}(-u) / tau^3
    u = np.linspace(-30.0, 30.0, 2001)
    kernel_gap = 0.0
    for tau in (0.5, 1.0, 2.0, 3.7):
        lhs = f_tau(u, tau)
        rhs = -f_tau(-u, 1.0 / tau) / tau ** 3
        scale = np.max(np.abs(lhs)) or 1.0
        kernel_gap = max(kernel_gap, float(np.max(np.abs(lhs - rhs))) / scale)
    kernel_ok = kernel_gap < 1e-12

    # solver level: swapping vortex signs with tau -> 1/tau mirrors u
    dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(64, 64))
    sched = [0.2, 0.17, 0.15]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        minus = VortexSet(negative_vortices=(((2.0, 2.0), 1),))
        a = solve_newton(TorusGeometry(dom, minus), ModelParams(2.0, 0.15),
                         continuation=sched)
        b = solve_newton(TorusGeometry(dom, ONE_PLUS),
                         ModelParams(0.5, 0.15 * 2.0 ** 1.5),
                         continuation=[e * 2.0 ** 1.5 for e in sched])
    solver_gap = float(np.max(np.abs(a.u + b.u)))
    solver_ok = solver_gap < 1e-8

    ok = kernel_ok and solver_ok
    assert _report(9, "duality suite", ok,
                   "kernel=%.1e solver=%.1e" % (kernel_gap, solver_gap))


def test_criterion_10_cross_solver_agreement():
    dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(128, 128))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        geo = TorusGeometry(dom, ONE_PLUS)
        newton = solve_newton(geo, ModelParams(1.0, 0.1),
                              continuation=[0.25, 0.2, 0.15, 0.12, 0.1])
        mono = solve_monotone(geo, ModelParams(1.0, 0.1))
    gap = float(np.max(np.abs(newton.u - mono.u)))
    ok = gap < 1e-8
    assert _report(10, "cross-solver agreement", ok, "max gap %.1e" % gap)
