"""Radial shooting tests.

Golden beta values were frozen from tests/oracles/radial_oracle.py
(dual-precision mpmath Taylor marcher, 30 vs 40 digit agreement)
before the production integrator was written.
"""

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
    return find_topological(1.0, 1.0, (-8.0, 8.0))


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
        sol = find_topological(1.0, 1.0, (-8.0, 8.0), points_per_decade=100)
        assert sol.diagnostics["truncated"] is True
        assert np.allclose(1.0 / np.diff(np.log10(sol.r)), 100.0, rtol=1e-2)

    def test_same_side_bracket_raises(self):
        with pytest.raises(BracketError):
            find_topological(1.0, 1.0, (-8.0, -7.0))

    @pytest.mark.parametrize("ppd", [9, 0, -3])
    def test_points_per_decade_below_ten_rejected_before_a_shot(
            self, ppd, monkeypatch):
        def no_shot(*args):
            raise AssertionError("shot taken")
        monkeypatch.setattr(radial, "_shoot", no_shot)
        with pytest.raises(ValueError, match="points_per_decade"):
            integrate_radial(-1.0, r_max=1e3, points_per_decade=ppd)
        with pytest.raises(ValueError, match="points_per_decade"):
            find_topological(1.0, 1.0, (-8.0, 8.0), points_per_decade=ppd)

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
        (lambda: find_topological(np.inf, 1.0, (-8.0, 8.0)), "nu"),
        (lambda: find_topological(np.nan, 1.0, (-8.0, 8.0)), "nu"),
    ], ids=["r_max-inf", "r_max-nan", "r_max-5", "nu-nan", "nu-inf",
            "nu-negative", "s-nan", "s-inf", "s-minus-inf",
            "bisection-nu-inf", "bisection-nu-nan"])
    def test_bad_input_is_named_before_integrating(self, shot, name,
                                                   monkeypatch):
        def no_integration(*args, **kwargs):
            raise AssertionError("integration started")
        monkeypatch.setattr(radial, "solve_ivp", no_integration)
        with pytest.raises(ValueError, match="^%s must be " % name):
            shot()

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
    return sign, sol.diagnostics["nfev"], False


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
        real_signs = []
        calls = []

        def recording(*args):
            probe = real_tail_sign(*args)
            real_signs.append(probe[0])
            return probe

        real_tail_sign = radial._tail_sign

        def reference(*args):
            calls.append(_full_grid_tail_sign(*args))
            return calls[-1]

        monkeypatch.setattr(radial, "_tail_sign", recording)
        real = find_topological(nu, tau, bracket, vortex_sign=vortex_sign)
        monkeypatch.setattr(radial, "_tail_sign", reference)
        ref = find_topological(nu, tau, bracket, vortex_sign=vortex_sign)
        assert real.s == ref.s
        assert real.beta == ref.beta
        assert real.grid.tobytes() == ref.grid.tobytes()
        # the same bisection path, probe for probe
        assert ref.diagnostics["bisect_probes"] == len(calls)
        assert real.diagnostics["bisect_probes"] == len(calls)
        assert ref.diagnostics["bisect_reshots"] == 0
        assert ref.diagnostics["bisect_nfev"] == sum(c[1] for c in calls)
        assert real_signs == [c[0] for c in calls]
        # every probe stops at its certificate, short of r_end
        assert real.diagnostics["bisect_reshots"] == 0
        assert real.diagnostics["bisect_nfev"] < \
            0.6 * ref.diagnostics["bisect_nfev"]

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
        sign, nfev, reshot = radial._tail_sign(*args)
        assert sign == want
        assert len(calls) == shots
        assert reshot is (shots == 2)
        assert calls[0] == 1
        assert nfev > 0

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
        sol = find_topological(0.0, 1.0, (-1.0, 2.0))
        assert abs(sol.s) < 1e-13  # the vacuum u = 0
        for args, (sign, nfev, reshot) in probes:
            assert not reshot
            assert (nfev == 0) is (abs(args[0]) > radial.TOPOLOGICAL_TOL_U)
            assert sign == _full_grid_tail_sign(*args)[0]

        calls = []

        def counting(*a, **kw):
            calls.append(kw["t_eval"].size)
            return real_solve_ivp(*a, **kw)

        real_solve_ivp = radial.solve_ivp
        monkeypatch.setattr(radial, "solve_ivp", counting)
        for s, sign in ((2.0, 1), (-1.0, -1)):
            args = (s, 0.0, 1.0, 200.0, -1)
            assert real_tail_sign(*args) == (sign, 0, False)
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
