"""Radial shooting tests.

Golden beta values were frozen from tests/oracles/radial_oracle.py
(dual-precision mpmath Taylor marcher, 30 vs 40 digit agreement)
before the production integrator was written.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexlab import radial
from vortexlab import (
    BCType,
    BracketError,
    MassKind,
    compute_beta_curve,
    export_curve_csv,
    export_profile_csv,
    find_topological,
    integrate_radial,
    mass_integral,
)

# (s, tau) -> beta, tail-corrected oracle values
GOLDEN_BETA = {
    (-8.0, 1.0): 4.0008947404021823027,
    (-4.0, 1.0): 4.049359802059221967,
    (-2.0, 1.0): 4.3899328166930129469,
    (-1.0, 1.0): 5.2203815866676373823,
    (-0.5, 1.0): 6.4203887240746690044,
    (-0.25, 1.0): 7.7983986213546737934,
    (1.0, 1.0): -5.2203815866676373823,
    (8.0, 1.0): -4.0008947404021823027,
    (-1.0, 0.5): 6.146582033103438383,
    (1.0, 0.5): -4.7640369880181005375,
    (-1.0, 2.0): 4.7640369880181005375,
    (1.0, 2.0): -6.146582033103438383,
}


class TestGoldenBeta:
    @pytest.mark.parametrize("s,tau", sorted(GOLDEN_BETA))
    def test_frozen_oracle_values(self, s, tau):
        sol = integrate_radial(s, tau=tau)
        assert sol.beta == pytest.approx(GOLDEN_BETA[(s, tau)], rel=1e-8)

    def test_duality_pairs(self):
        # u -> -u maps the kernel with tau -> 1/tau, so beta flips sign
        for (s, tau), beta in GOLDEN_BETA.items():
            partner = GOLDEN_BETA.get((-s, 1.0 / tau))
            if partner is not None:
                assert partner == pytest.approx(-beta, rel=1e-15)

    def test_duality_fresh_pair(self):
        a = integrate_radial(-0.7, tau=4.0)
        b = integrate_radial(0.7, tau=0.25)
        assert b.beta == pytest.approx(-a.beta, rel=1e-7)


class TestClassification:
    def test_negative_s_is_type_one(self):
        sol = integrate_radial(-1.0, tau=1.0)
        assert sol.bc_type is BCType.NONTOPOLOGICAL_I
        assert sol.u[-1] < -30.0

    def test_positive_s_is_type_two(self):
        sol = integrate_radial(1.0, tau=1.0)
        assert sol.bc_type is BCType.NONTOPOLOGICAL_II
        assert sol.u[-1] > 30.0

    def test_zero_start_is_the_vacuum(self):
        sol = integrate_radial(0.0, tau=1.0)
        assert sol.bc_type is BCType.TOPOLOGICAL
        assert sol.beta == 0.0
        assert np.max(np.abs(sol.u)) == 0.0
        assert np.max(np.abs(sol.du)) == 0.0

    def test_type_one_tail_slope_matches_beta(self):
        # u ~ -beta ln r, so r u' -> -beta on the truncated tail
        sol = integrate_radial(-2.0, tau=1.0)
        assert sol.r[-1] * sol.du[-1] == pytest.approx(-sol.beta, rel=1e-6)


class TestFirstIntegral:
    @pytest.mark.parametrize("s,tau", [(-1.0, 1.0), (-4.0, 2.0), (2.0, 0.5)])
    def test_residual_small(self, s, tau):
        sol = integrate_radial(s, tau=tau)
        assert sol.diagnostics["first_integral_residual"] < 1e-6

    def test_flux_equals_clog_minus_tail_slope(self):
        # (r u')' = -f r integrates to 2 pi (c_log - r u'(R)) = Flux(R)
        sol = integrate_radial(-1.0, tau=1.0)
        flux = mass_integral(sol, MassKind.FLUX)
        want = 2.0 * np.pi * (sol.c_log - sol.r[-1] * sol.du[-1])
        assert flux == pytest.approx(want, rel=1e-6)

    def test_flux_is_two_pi_beta_for_regular_type_one(self):
        sol = integrate_radial(-1.0, tau=1.0)
        flux = mass_integral(sol, MassKind.FLUX)
        assert flux == pytest.approx(2.0 * np.pi * sol.beta, rel=1e-6)


@pytest.fixture(scope="module")
def topological():
    # one bisection shared by the tests below; no library call changes
    # a profile in place
    return find_topological((-8.0, 8.0), nu=1.0, tau=1.0)


class TestSingularTopological:
    def test_find_topological_connects(self, topological):
        sol = topological
        assert sol.bc_type is BCType.TOPOLOGICAL
        # connecting shooting value, frozen from a converged bisection
        assert sol.s == pytest.approx(3.2781023384423236, abs=1e-7)
        assert sol.c_log == -2.0
        # tail actually reached the connecting branch
        assert abs(sol.u[-1]) < 1e-3

    def test_topological_quantization_integral(self, topological):
        # int q_tau(u) over the plane is 4 pi (tau + 1) nu^2
        sol = topological
        q = mass_integral(sol, MassKind.QUANTIZATION)
        assert q == pytest.approx(8.0 * np.pi, rel=1e-6)

    def test_topological_flux_is_two_pi_clog(self, topological):
        sol = topological
        flux = mass_integral(sol, MassKind.FLUX)
        assert flux == pytest.approx(2.0 * np.pi * sol.c_log, rel=1e-4)

    def test_find_topological_reports_no_retry(self, topological):
        # bisection and the final run never retry further out
        sol = topological
        assert sol.diagnostics["retried"] is False

    def test_undetermined_run_retries_once(self):
        sol = integrate_radial(-1e-3, r_max=10.0)
        assert sol.diagnostics["retried"] is True
        assert sol.diagnostics["r_end"] == 1000.0

    def test_retried_shot_records_its_settings(self):
        # the retry out to 100 r_max keeps the shot's grid density
        sol = integrate_radial(-1e-3, r_max=10.0, points_per_decade=50)
        assert sol.diagnostics["retried"] is True
        assert sol.r[-1] == 1000.0
        assert np.allclose(1.0 / np.diff(np.log10(sol.r)), 50.0, rtol=1e-2)

    def test_truncation_keeps_the_shot_settings(self):
        sol = find_topological((-8.0, 8.0), nu=1.0, tau=1.0,
                               points_per_decade=100)
        assert sol.diagnostics["truncated"] is True
        assert np.allclose(1.0 / np.diff(np.log10(sol.r)), 100.0, rtol=1e-2)

    def test_same_side_bracket_raises(self):
        with pytest.raises(BracketError):
            find_topological((-8.0, -7.0), nu=1.0, tau=1.0)

    @pytest.mark.parametrize("ppd", [9, 0, -3])
    def test_points_per_decade_below_ten_rejected_before_a_shot(
            self, ppd, monkeypatch):
        def no_shot(*args):
            raise AssertionError("shot taken")
        monkeypatch.setattr(radial, "_shoot", no_shot)
        with pytest.raises(ValueError, match="points_per_decade"):
            integrate_radial(-1.0, r_max=1e3, points_per_decade=ppd)
        with pytest.raises(ValueError, match="points_per_decade"):
            find_topological((-8.0, 8.0), nu=1.0, tau=1.0,
                             points_per_decade=ppd)

    @pytest.mark.parametrize("shot, name", [
        (lambda: integrate_radial(-1.0, r_max=np.inf), "r_max"),
        (lambda: integrate_radial(-1.0, r_max=np.nan), "r_max"),
        (lambda: integrate_radial(-1.0, r_max=5.0), "r_max"),
        (lambda: integrate_radial(-1.0, nu=np.nan, r_max=1e3), "nu"),
        (lambda: integrate_radial(-1.0, nu=np.inf, r_max=1e3), "nu"),
        (lambda: integrate_radial(-1.0, nu=-1.0, r_max=1e3), "nu"),
        (lambda: integrate_radial(np.nan, r_max=1e3), "s"),
        (lambda: integrate_radial(np.inf, r_max=1e3), "s"),
        (lambda: integrate_radial(-np.inf, nu=1.0, r_max=1e3), "s"),
        (lambda: find_topological((-8.0, 8.0), nu=np.inf, tau=1.0), "nu"),
        (lambda: find_topological((-8.0, 8.0), nu=np.nan, tau=1.0), "nu"),
        (lambda: integrate_radial(2.0, nu=1e300), "nu"),
        (lambda: integrate_radial(2.0, nu=1e154), "nu"),
        (lambda: find_topological((-1.0, 1.0), nu=1e300), "nu"),
        (lambda: compute_beta_curve(1.0, [-1.0], r_max=np.inf), "r_max"),
        (lambda: compute_beta_curve(1.0, [-1.0], r_max=5.0), "r_max"),
        (lambda: compute_beta_curve(1.0, [-np.inf, -1.0]), "s"),
    ], ids=["r_max-inf", "r_max-nan", "r_max-5", "nu-nan", "nu-inf",
            "nu-negative", "s-nan", "s-inf", "s-minus-inf",
            "bisection-nu-inf", "bisection-nu-nan", "nu-overflow",
            "nu-overflow-1e154", "bisection-nu-overflow",
            "beta-curve-r_max-inf", "beta-curve-r_max-5",
            "beta-curve-s-minus-inf"])
    def test_bad_input_is_named_before_integrating(self, shot, name,
                                                   monkeypatch):
        def no_integration(*args, **kwargs):
            raise AssertionError("integration started")
        monkeypatch.setattr(radial, "solve_ivp", no_integration)
        with pytest.raises(ValueError, match="^%s must be " % name):
            shot()

    def test_nu_is_refused_exactly_where_the_series_start_overflows(self):
        # _series_start's (2 nu + 2)**2 raised OverflowError past the bound
        nu_max = radial._NU_MAX
        assert math.isfinite((2.0 * nu_max + 2.0) ** 2)
        with pytest.raises(OverflowError):
            (2.0 * math.nextafter(nu_max, math.inf) + 2.0) ** 2
        for nu in (6e153, nu_max):
            assert integrate_radial(2.0, nu=nu, r_max=1e3).nu == nu
        with pytest.raises(ValueError, match="^nu must be finite, "
                           "nonnegative and at most 6.703903964971298e\\+153, "
                           "got 6.703903964971299e\\+153$"):
            integrate_radial(2.0, nu=math.nextafter(nu_max, math.inf))

    def test_type_one_f2_mass_approaches_half_pi_beta_sq(self):
        # Pohozaev limit: 2 pi int 2 F2 r dr -> pi beta^2 on type-I
        sol = integrate_radial(-1.0, tau=1.0)
        f2 = mass_integral(sol, MassKind.F2_MASS)
        assert 2.0 * f2 == pytest.approx(np.pi * sol.beta ** 2, rel=1e-4)


def _full_grid_tail_sign(s, nu, tau, r_end, vortex_sign):
    """Reference probe: the whole 200-per-decade shot and its sign rule."""
    sol = integrate_radial(s, nu, tau, r_end, vortex_sign=vortex_sign,
                           divergence_stop=radial.BISECT_DIVERGENCE_STOP,
                           _retry=False)
    if sol.bc_type is BCType.NONTOPOLOGICAL_I:
        sign = -1
    elif sol.bc_type is BCType.NONTOPOLOGICAL_II:
        sign = 1
    elif abs(sol.u[-1]) < radial.TOPOLOGICAL_TOL_U:
        sign = 0
    else:
        sign = -1 if sol.u[-1] < 0 else 1
    return sign, sol.diagnostics["nfev"], False, float(sol.r[-1])


class TestBisectionProbe:
    R_BISECT = max(200.0, 60.0 * 2.0 ** 1.5 * 2.0)  # nu = 1, tau = 1

    @pytest.mark.parametrize("nu,tau,bracket,vortex_sign", [
        pytest.param(1.0, 1.0, (-8.0, 8.0), -1, id="1.0-1.0"),
        pytest.param(1.0, 0.5, (-8.0, 8.0), -1, id="1.0-0.5"),
        pytest.param(2.0, 1.0, (-16.0, 16.0), -1, id="2.0-1.0"),
        pytest.param(1.0, 1.0, (-8.0, 8.0), 1, id="1.0-1.0-plus"),
        pytest.param(0.0, 1.0, (-1.0, 2.0), -1, id="0.0-1.0"),
    ])
    def test_full_grid_probes_give_the_same_profile(self, nu, tau, bracket,
                                                    vortex_sign, monkeypatch):
        probes = []

        def recording(*args):
            probe = real_tail_sign(*args)
            probes.append((args, probe))
            return probe

        real_tail_sign = radial._tail_sign
        monkeypatch.setattr(radial, "_tail_sign", recording)
        real = find_topological(bracket, nu=nu, tau=tau,
                                vortex_sign=vortex_sign)
        monkeypatch.setattr(radial, "_tail_sign", _full_grid_tail_sign)
        ref = find_topological(bracket, nu=nu, tau=tau,
                               vortex_sign=vortex_sign)
        assert real.s == ref.s
        assert real.beta == ref.beta
        assert real.grid.tobytes() == ref.grid.tobytes()
        # every shot probe, model probes included, has the sign of the
        # full-grid shot at its s
        assert real.diagnostics["bisect_probes"] == len(probes)
        for args, (sign, _, _, _) in probes:
            assert sign == _full_grid_tail_sign(*args)[0]
        # every probe stops at its certificate, short of r_end
        assert real.diagnostics["bisect_reshots"] == 0
        assert ref.diagnostics["bisect_reshots"] == 0
        assert real.diagnostics["bisect_nfev"] < \
            0.45 * ref.diagnostics["bisect_nfev"]

    @pytest.mark.parametrize("s,shots", [
        (-8.0, 1),  # falls past -TOL_U: the full-grid hysteresis case
        (3.3, 1),   # turns up above TOL_U: the full-grid |u| = 30 event
        (4.0, 1),   # rises past TOL_U: the full-grid u(r_end) > 25 case
    ])
    def test_probe_sign_and_shots(self, s, shots, monkeypatch):
        args = (s, 1.0, 1.0, self.R_BISECT, -1)
        want = _full_grid_tail_sign(*args)[0]
        calls = []

        def counting(*a, **kw):
            calls.append(kw["t_eval"].size)
            return real_solve_ivp(*a, **kw)

        real_solve_ivp = radial.solve_ivp
        monkeypatch.setattr(radial, "solve_ivp", counting)
        sign, nfev, reshot, r_c = radial._tail_sign(*args)
        assert sign == want
        assert len(calls) == shots
        assert reshot is (shots == 2)
        assert calls[0] == 1
        assert nfev > 0
        # the radius of the certificate event, short of r_end
        assert radial.R0 < r_c < self.R_BISECT

    def test_regular_mode_probes(self, monkeypatch):
        """At nu = 0 a probe with |s| > TOL_U holds its certificate at R0
        and is decided unshot, with the sign of the full-grid shot."""
        probes = []

        def recording(*args):
            probe = real_tail_sign(*args)
            probes.append((args, probe))
            return probe

        real_tail_sign = radial._tail_sign
        monkeypatch.setattr(radial, "_tail_sign", recording)
        sol = find_topological((-1.0, 2.0), nu=0.0, tau=1.0)
        assert abs(sol.s) < 1e-13  # the vacuum u = 0
        for args, (sign, nfev, reshot, r_c) in probes:
            assert not reshot
            unshot = abs(args[0]) > radial.TOPOLOGICAL_TOL_U
            assert (nfev == 0) is unshot
            assert (r_c == radial.R0) is unshot
            assert sign == _full_grid_tail_sign(*args)[0]

        calls = []

        def counting(*a, **kw):
            calls.append(kw["t_eval"].size)
            return real_solve_ivp(*a, **kw)

        real_solve_ivp = radial.solve_ivp
        monkeypatch.setattr(radial, "solve_ivp", counting)
        for s, sign in ((2.0, 1), (-1.0, -1)):
            args = (s, 0.0, 1.0, 200.0, -1)
            assert real_tail_sign(*args) == (sign, 0, False, radial.R0)
        assert calls == []
        # the full-grid shot on s = 2 has the same sign
        monkeypatch.setattr(radial, "solve_ivp", real_solve_ivp)
        assert _full_grid_tail_sign(2.0, 0.0, 1.0, 200.0, -1)[0] == 1

    # a bisected s* for (nu, tau) = (1, 1): the profile stays near the
    # corridor past r = 40, so a probe to 20 or 40 reaches r_end uncommitted
    @pytest.mark.parametrize("r_end,sign,reshot", [
        (20.0, 1, True),    # u(20) > TOL_U: the hysteresis re-shot, then
                            # the side of u(r_end)
        (40.0, 0, False),   # the r_end row lies in the corridor
    ])
    def test_uncommitted_probe_keeps_the_row_rule(self, r_end, sign, reshot):
        args = (3.2781023384423125, 1.0, 1.0, r_end, -1)
        assert radial._tail_sign(*args)[::2] == (sign, reshot)
        assert _full_grid_tail_sign(*args)[0] == sign


def _plain_bisection(bracket, nu, tau, vortex_sign=-1):
    """find_topological without model probes: every dyadic midpoint shot.
    Returns the truncated profile and the probed s values."""
    r_bisect = max(200.0, 60.0 * (tau + 1.0) ** 1.5 * (1.0 + nu))
    probed = []
    nfev = 0

    def tail_sign(s):
        nonlocal nfev
        sign, more, _, _ = radial._tail_sign(s, nu, tau, r_bisect,
                                             vortex_sign)
        probed.append(s)
        nfev += more
        return sign

    s_lo, s_hi = bracket
    sgn_lo = tail_sign(s_lo)
    assert sgn_lo == -tail_sign(s_hi) != 0
    while True:
        mid = 0.5 * (s_lo + s_hi)
        if mid == s_lo or mid == s_hi or s_hi - s_lo < 1e-13:
            break
        sgn_mid = tail_sign(mid)
        if sgn_mid == 0:
            break
        if sgn_mid == sgn_lo:
            s_lo = mid
        else:
            s_hi = mid
    sol = integrate_radial(0.5 * (s_lo + s_hi), nu, tau, r_bisect,
                           vortex_sign=vortex_sign,
                           divergence_stop=radial.BISECT_DIVERGENCE_STOP,
                           _retry=False)
    return radial._truncate_topological(sol), probed, nfev


# the three shoot brackets of bench radial on seeds 1, 2, 3 and 7919, then
# the tier-1 ones: (nu, tau, bracket, vortex_sign)
BISECTION_CASES = [
    (1.0, 1.0, (-7.509832222395366, 8.176584265195807), -1),
    (2.0, 1.0, (-15.529987873915733, 16.447234407778904), -1),
    (1.0, 0.5, (-7.443253321716607, 8.189832420252689), -1),
    (1.0, 1.0, (-7.497792109211599, 8.697762875441251), -1),
    (2.0, 1.0, (-16.93018358369927, 16.71603155227472), -1),
    (1.0, 0.5, (-7.276273985543783, 8.198981142640973), -1),
    (1.0, 1.0, (-7.410586282144463, 7.4911202505686685), -1),
    (2.0, 1.0, (-14.696365968882915, 14.916230825589444), -1),
    (1.0, 0.5, (-7.3379291992689035, 7.264294220918401), -1),
    (1.0, 1.0, (-8.284812332179925, 8.311197566857583), -1),
    (2.0, 1.0, (-14.431437210855785, 14.50414704797123), -1),
    (1.0, 0.5, (-7.700200003278381, 8.575851511056154), -1),
    (1.0, 1.0, (-8.0, 8.0), -1),
    (2.0, 1.0, (-16.0, 16.0), -1),
    (1.0, 0.5, (-8.0, 8.0), -1),
    (1.0, 1.0, (-8.0, 8.0), 1),
    (0.0, 1.0, (-1.0, 2.0), -1),
]


class TestModelBisection:
    @pytest.mark.parametrize("nu,tau,bracket,vortex_sign", BISECTION_CASES,
                             ids=["bench-%d" % k for k in range(12)]
                             + ["1-1", "2-1", "1-0.5", "1-1-plus", "0-1"])
    def test_is_plain_bisection_at_no_more_nfev(self, nu, tau, bracket,
                                                vortex_sign):
        sol = find_topological(bracket, nu=nu, tau=tau,
                               vortex_sign=vortex_sign)
        ref, probed, nfev = _plain_bisection(bracket, nu, tau, vortex_sign)
        assert sol.s == ref.s
        assert sol.beta == ref.beta
        assert sol.grid.tobytes() == ref.grid.tobytes()
        diag = sol.diagnostics
        assert diag["bisect_nfev"] <= nfev
        if nu > 0.0:
            # the model certifies most of the deep midpoints
            assert diag["bisect_skipped"] > 20
            assert diag["bisect_probes"] < len(probed)

    def test_wide_bracket_bisects_to_its_stop_rule(self, topological):
        # (-1e80, 1e80) needs about 300 midpoints; a step cap of 200 once
        # returned the midpoint of a bracket still 1e20 wide
        sol = find_topological((-1e80, 1e80), nu=1.0, tau=1.0)
        assert sol.bc_type is BCType.TOPOLOGICAL
        assert abs(sol.s - topological.s) <= 1e-12

    def _mislead(self, monkeypatch, bracket, answer):
        """Let answer(sign) replace the sign of every model probe, the
        probes at s that plain bisection does not visit; returns the
        (s, is model probe) list of the shot probes and plain bisection's
        probed s values."""
        _, probed, _ = _plain_bisection(bracket, 1.0, 1.0)
        plain = set(probed)
        real_tail_sign = radial._tail_sign
        shots = []

        def misleading(s, *args):
            sign, nfev, reshot, r_c = real_tail_sign(s, *args)
            shots.append((s, s not in plain))
            if s not in plain:
                sign = answer(sign)
            return sign, nfev, reshot, r_c

        monkeypatch.setattr(radial, "_tail_sign", misleading)
        return shots, probed

    def test_model_probe_of_sign_zero_ends_the_model_phase(
            self, topological, monkeypatch):
        shots, probed = self._mislead(monkeypatch, (-8.0, 8.0),
                                      lambda sign: 0)
        sol = find_topological((-8.0, 8.0), nu=1.0, tau=1.0)
        assert sol.s == topological.s
        assert sol.grid.tobytes() == topological.grid.tobytes()
        # one model probe, then plain bisection: every midpoint shot
        model = [k for k, (_, is_model) in enumerate(shots) if is_model]
        assert len(model) == 1
        assert [s for s, is_model in shots if not is_model] == probed

    def test_model_probes_on_the_wrong_side_are_not_trusted(
            self, topological, monkeypatch):
        shots, _ = self._mislead(monkeypatch, (-8.0, 8.0),
                                 lambda sign: -sign)
        sol = find_topological((-8.0, 8.0), nu=1.0, tau=1.0)
        assert sol.s == topological.s
        assert sol.grid.tobytes() == topological.grid.tobytes()
        # no model probe certified anything, and the credit caps them
        assert sol.diagnostics["bisect_skipped"] == 0
        assert 0 < sum(is_model for _, is_model in shots) \
            <= radial._MODEL_CREDIT + 2


def _stock_pairs(monkeypatch):
    """Run every shot of _shoot twice: through its own DOP853 class, and
    through solve_ivp(..., method="DOP853") with the same arguments.
    Returns the list the (stepper, stock) result pairs are appended to."""
    pairs = []

    def both(fun, t_span, y0, **kwargs):
        stock = dict(kwargs, method="DOP853")
        del stock["stops"]
        pairs.append((real_solve_ivp(fun, t_span, y0, **kwargs),
                      real_solve_ivp(fun, t_span, y0, **stock)))
        return pairs[-1][0]

    real_solve_ivp = radial.solve_ivp
    monkeypatch.setattr(radial, "solve_ivp", both)
    return pairs


def _assert_bit_for_bit(new, old):
    assert np.array_equal(new.t, old.t)
    assert np.array_equal(new.y, old.y)
    assert len(new.t_events) == len(old.t_events) == 2
    for got, want in zip(new.t_events + new.y_events,
                         old.t_events + old.y_events):
        assert np.array_equal(got, want)
    assert new.status == old.status
    assert new.message == old.message
    assert new.nfev == old.nfev


class TestStepper:
    """_shoot's DOP853 class keeps every float of scipy's stock DOP853."""

    @pytest.mark.parametrize("nu,vortex_sign,s_values", [
        (0.0, -1, (-1.0, 1.0, -5e-7, 5e-7)),  # small |s| shoots a probe
        (1.0, -1, (-8.0, 8.0)),
        (1.0, 1, (-8.0, 8.0)),
        (2.0, -1, (-16.0, 16.0)),
        (2.0, 1, (-16.0, 16.0)),
    ], ids=["nu0", "nu1", "nu1-plus", "nu2", "nu2-plus"])
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_shots_match_stock_dop853(self, nu, vortex_sign, s_values, tau,
                                      monkeypatch):
        pairs = _stock_pairs(monkeypatch)
        r_bisect = max(200.0, 60.0 * (tau + 1.0) ** 1.5 * (1.0 + nu))
        # (the event kind, r_max) of a beta-curve row shot, a bisected
        # profile and a bisection probe
        for stop, r_max in ((radial.DIVERGENCE_STOP, radial.R_MAX),
                            (radial.BISECT_DIVERGENCE_STOP, r_bisect),
                            (radial._CERTIFY, r_bisect)):
            radii = radial._radii(r_max, radial._POINTS_PER_DECADE)
            rows = radii[[0, *np.searchsorted(
                radii, [r_max / 100.0, r_max / 10.0]), -1]]
            for s in s_values:
                for sampled in (radii, rows, radii[-1:],
                                radii[radii >= r_max / 10.0]):
                    radial._shoot(s, nu, tau, r_max, vortex_sign, stop,
                                  sampled)
        assert len(pairs) >= 8 * len(s_values)
        for new, old in pairs:
            _assert_bit_for_bit(new, old)
        # some shots reach r_max, the others end at an event
        assert {new.status for new, _ in pairs} == {0, 1}

    @pytest.mark.parametrize("s, stop", [
        (-1.0, radial.DIVERGENCE_STOP), (3.0, radial.DIVERGENCE_STOP),
        (-1.0, radial.BISECT_DIVERGENCE_STOP)])
    def test_sample_radius_on_a_step_end(self, s, stop, monkeypatch):
        steps = []

        def every_step(fun, t_span, y0, **kwargs):
            # with no t_eval, solve_ivp returns every accepted step's end
            kwargs.update(method="DOP853", t_eval=None)
            del kwargs["stops"]
            steps.append(real_solve_ivp(fun, t_span, y0, **kwargs))
            return steps[-1]

        real_solve_ivp = radial.solve_ivp
        monkeypatch.setattr(radial, "solve_ivp", every_step)
        radial._shoot(s, 0.0, 1.0, 1e4, -1, stop, None)
        ends = steps[0].t[1:-1]
        assert ends.size > 20
        monkeypatch.setattr(radial, "solve_ivp", real_solve_ivp)
        pairs = _stock_pairs(monkeypatch)
        for picked in (ends[[ends.size // 2]], ends[[0, 7, -1]]):
            radial._shoot(s, 0.0, 1.0, 1e4, -1, stop, picked)
        for new, old in pairs:
            _assert_bit_for_bit(new, old)
            assert set(ends) & set(new.t)

    def test_step_size_failure(self, monkeypatch):
        pairs = _stock_pairs(monkeypatch)
        with pytest.raises(radial.IntegrationFailureError,
                           match="^Required step size is less than spacing "
                           "between numbers.$"):
            integrate_radial(-2.0, tau=1e-300)
        (new, old), = pairs
        _assert_bit_for_bit(new, old)
        assert new.status == -1


class TestBetaCurve:
    def test_monotone_on_negative_axis(self):
        curve = compute_beta_curve(1.0, [-4.0, -2.0, -1.0, -0.5])
        assert curve.monotone_violations == 0
        assert not curve.failures
        betas = [b for _, b, _ in curve.samples]
        assert betas == sorted(betas)

    def test_rejects_zero_and_unsorted(self):
        with pytest.raises(ValueError):
            compute_beta_curve(1.0, [-1.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            compute_beta_curve(1.0, [-1.0, -2.0])

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_samples_are_integrate_radial_bit_for_bit(self, tau):
        # the acceptance battery's two branches
        s_values = list(np.linspace(-8.0, -0.25, 16)) + \
            list(np.linspace(0.25, 8.0, 16))
        curve = compute_beta_curve(tau, s_values)
        assert not curve.failures
        for s, beta, bc_type in curve.samples:
            sol = integrate_radial(s, 0.0, tau)
            assert (beta, bc_type) == (sol.beta, sol.bc_type)

    @pytest.mark.parametrize("s", [-8.0, -1.0, 0.25])
    def test_sampled_rows_are_the_full_grid_rows(self, s):
        shot = (s, 0.0, 1.0, radial.R_MAX, -1, radial.DIVERGENCE_STOP)
        radii = radial._radii(radial.R_MAX, radial._POINTS_PER_DECADE)
        full, _, _ = radial._shoot(*shot, radii)
        idx = [0, *np.searchsorted(radii, [1e4, 1e5]), radii.size - 1]
        rows, _, _ = radial._shoot(*shot, radii[idx])
        assert np.array(rows).tobytes() == np.array(full)[:, idx].tobytes()

    def test_undetermined_sample_takes_the_full_grid_shot(self, monkeypatch):
        # four rows cannot run the hysteresis test: the sample is shot
        # again by integrate_radial, which retries out to 100 r_max
        want = integrate_radial(-1e-3, r_max=10.0)
        assert want.diagnostics["retried"] is True
        shots = []

        def recording(*args, **kwargs):
            shots.append(real_integrate(*args, **kwargs))
            return shots[-1]

        real_integrate = radial.integrate_radial
        monkeypatch.setattr(radial, "integrate_radial", recording)
        curve = compute_beta_curve(1.0, [-1e-3], r_max=10.0)
        assert curve.samples == [(-1e-3, want.beta, want.bc_type)]
        assert shots and {sol.s for sol in shots} == {-1e-3}
        # a sample its last row decides is not shot again
        del shots[:]
        curve = compute_beta_curve(1.0, [-1.0])
        assert curve.samples[0][2] is BCType.NONTOPOLOGICAL_I
        assert shots == []


class TestCsvExports:
    def test_profile_roundtrip(self, tmp_path):
        sol = integrate_radial(-1.0, tau=1.0)
        path = tmp_path / "prof.csv"
        export_profile_csv(sol, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == sol.grid.shape
        assert np.array_equal(data, sol.grid)  # 17 digits round-trip

    def test_curve_header_and_types(self, tmp_path):
        curve = compute_beta_curve(1.0, [-2.0, -1.0])
        path = tmp_path / "curve.csv"
        export_curve_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "s,beta,bc_type"
        assert lines[1].endswith("NonTopologicalI")


class TestProperties:
    @settings(max_examples=10, deadline=None)
    @given(s=st.floats(-5.0, -0.3), tau=st.floats(0.4, 2.5))
    def test_first_integral_and_sign(self, s, tau):
        sol = integrate_radial(s, tau=tau, r_max=1e4)
        assert sol.diagnostics["first_integral_residual"] < 1e-5
        # negative starts stay negative and end on the type-I branch
        assert np.all(sol.u <= 0.0)
        assert sol.bc_type is BCType.NONTOPOLOGICAL_I
        assert sol.beta > 2.0

    @settings(max_examples=6, deadline=None)
    @given(s=st.floats(0.3, 5.0))
    def test_positive_starts_mirror(self, s):
        sol = integrate_radial(s, tau=1.0, r_max=1e4)
        assert sol.bc_type is BCType.NONTOPOLOGICAL_II
        assert sol.beta < -2.0
