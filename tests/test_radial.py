"""Radial shooting tests.

Golden beta values were frozen from tests/oracles/radial_oracle.py
(dual-precision mpmath Taylor marcher, 30 vs 40 digit agreement)
before the production integrator was written.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexlab import (
    BCType,
    BracketError,
    MassKind,
    Nonlinearity,
    UnsupportedKernelError,
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


class TestSingularTopological:
    def test_find_topological_connects(self):
        sol = find_topological(1.0, 1.0, (-8.0, 8.0))
        assert sol.bc_type is BCType.TOPOLOGICAL
        # connecting shooting value, frozen from a converged bisection
        assert sol.s == pytest.approx(3.2781023384423236, abs=1e-7)
        assert sol.c_log == -2.0
        # tail actually reached the connecting branch
        assert abs(sol.u[-1]) < 1e-3

    def test_topological_quantization_integral(self):
        # int q_tau(u) over the plane is 4 pi (tau + 1) nu^2
        sol = find_topological(1.0, 1.0, (-8.0, 8.0))
        q = mass_integral(sol, MassKind.QUANTIZATION)
        assert q == pytest.approx(8.0 * np.pi, rel=1e-6)

    def test_topological_flux_is_two_pi_clog(self):
        sol = find_topological(1.0, 1.0, (-8.0, 8.0))
        flux = mass_integral(sol, MassKind.FLUX)
        assert flux == pytest.approx(2.0 * np.pi * sol.c_log, rel=1e-4)

    def test_find_topological_reports_no_retry(self):
        # bisection and the final run never retry further out
        sol = find_topological(1.0, 1.0, (-8.0, 8.0))
        assert sol.diagnostics["retried"] is False

    def test_undetermined_run_retries_once(self):
        sol = integrate_radial(-1e-3, r_max=10.0)
        assert sol.diagnostics["retried"] is True
        assert sol.diagnostics["r_end"] == 1000.0

    def test_same_side_bracket_raises(self):
        with pytest.raises(BracketError):
            find_topological(1.0, 1.0, (-8.0, -7.0))

    def test_type_one_f2_mass_approaches_half_pi_beta_sq(self):
        # Pohozaev limit: 2 pi int 2 F2 r dr -> pi beta^2 on type-I
        sol = integrate_radial(-1.0, tau=1.0)
        f2 = mass_integral(sol, MassKind.F2_MASS)
        assert 2.0 * f2 == pytest.approx(np.pi * sol.beta ** 2, rel=1e-4)


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


class TestCshKernel:
    def test_regular_profile_runs(self):
        sol = integrate_radial(-1.0, nonlinearity=Nonlinearity.CSH)
        assert sol.bc_type is BCType.NONTOPOLOGICAL_I
        assert sol.diagnostics["first_integral_residual"] < 1e-6

    def test_tau_specific_masses_rejected(self):
        sol = integrate_radial(-1.0, nonlinearity=Nonlinearity.CSH)
        with pytest.raises(UnsupportedKernelError):
            mass_integral(sol, MassKind.F2_MASS)
        with pytest.raises(UnsupportedKernelError):
            mass_integral(sol, MassKind.QUANTIZATION)

    def test_singular_mode_rejected(self):
        with pytest.raises(UnsupportedKernelError):
            integrate_radial(-1.0, nu=1.0, nonlinearity=Nonlinearity.CSH)
        with pytest.raises(UnsupportedKernelError):
            find_topological(1.0, 1.0, (-8.0, 8.0),
                             nonlinearity=Nonlinearity.CSH)


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
