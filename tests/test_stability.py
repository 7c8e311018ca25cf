"""Principal-eigenvalue tests.

The torus solver is checked against the constant-coefficient oracle
(where the ground state is the constant mode and the eigenvalue is
known in closed form), Rayleigh minimality and an independent LOBPCG
at a slower preconditioner shift; the radial solver
against frozen values whose residuals were verified when they were
recorded, and its half-radius sensitivity probe.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import lobpcg

from vortexlab import (
    EigenConvergenceError,
    EigenResult,
    ModelParams,
    StabilityClass,
    TorusDomain,
    TorusField,
    TorusGeometry,
    VortexSet,
    WeightIndefiniteError,
    classify_stability,
    default_torus_margin,
    find_topological,
    integrate_radial,
    principal_eigen_torus,
    solve_newton,
    weighted_eigen_radial,
)
from vortexlab.kernels import df_tau, sup_abs_df_tau
from vortexlab.stability import _lopcg, _ritz
from vortexlab.torus import _apply_shifted

pytestmark = pytest.mark.filterwarnings(
    "ignore::vortexlab.torus.ResolutionWarning")

# frozen radial eigenvalues (defaults: r_max 1e6, 200 points/decade)
FROZEN_RADIAL = {
    -1.0: -0.012767050113463,
    -3.0: -0.0116454397453987,
}
FROZEN_TOPOLOGICAL = 0.149139393567633


def rayleigh_quotient_torus(fld, phi):
    """Quotient (int |grad phi|^2 - eps^-2 f' phi^2) / int phi^2."""
    Lphi = _apply_shifted(fld.domain, fld.potential, phi)
    num = float(np.sum(phi * Lphi))
    den = float(np.sum(phi * phi))
    return num / den


@pytest.fixture(scope="module")
def dom64():
    return TorusDomain(periods=(4.0, 4.0), grid_shape=(64, 64))


@pytest.fixture(scope="module")
def vortex_field(dom64):
    vs = VortexSet(positive_vortices=(((2.0, 2.0), 1),))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve_newton(TorusGeometry(dom64, vs), ModelParams(1.0, 0.15),
                            continuation=[0.25, 0.2, 0.15])


def _constant_field(dom, c, eps=0.5, tau=1.0):
    # with no vortices u0 = 0 and u = v exactly
    return TorusField(geometry=TorusGeometry(dom, VortexSet()),
                      params=ModelParams(tau, eps),
                      v=np.full(dom.grid_shape, float(c)))


class TestTorusOracle:
    @pytest.mark.parametrize("c", [0.0, 1.0, -1.0])
    def test_constant_potential_closed_form(self, dom64, c):
        # for u = const the ground state is the constant mode and
        # mu = -eps^-2 f'(c) exactly
        fld = _constant_field(dom64, c)
        res = principal_eigen_torus(fld)
        want = -0.5 ** -2 * df_tau(c, 1.0)
        assert res.eigenvalue == pytest.approx(want, rel=1e-13)
        assert res.residual_norm < 1e-9
        # ground state has a sign; the solver orients it positive
        assert np.min(res.eigenvector) > 0.0

    def test_vacuum_eigenvalue_is_mass_gap(self, dom64):
        # f'(0) = -1/(tau+1)^3, so the vacuum gap is eps^-2/8 at tau = 1
        fld = _constant_field(dom64, 0.0, eps=0.5)
        res = principal_eigen_torus(fld)
        assert res.eigenvalue == pytest.approx(0.5 ** -2 / 8.0, rel=1e-13)


class TestTorusVortexField:
    def test_strictly_stable(self, vortex_field):
        res = principal_eigen_torus(vortex_field)
        assert res.eigenvalue > 0.0
        assert res.residual_norm < 1e-8
        cls = classify_stability(res, default_torus_margin(
            vortex_field.params))
        assert cls is StabilityClass.STRICTLY_STABLE

    def test_unconverged_solve_raises_with_its_rayleigh_quotient(
            self, vortex_field):
        # one LOPCG step cannot meet the residual gate on a vortex field
        with pytest.raises(EigenConvergenceError) as info:
            principal_eigen_torus(vortex_field, max_iter=1)
        assert np.isfinite(info.value.rayleigh)

    def test_rayleigh_minimality(self, vortex_field):
        res = principal_eigen_torus(vortex_field)
        rng = np.random.default_rng(7)
        X1, X2 = vortex_field.domain.mesh
        L1, L2 = vortex_field.domain.periods
        for _ in range(20):
            phi = np.zeros(vortex_field.domain.grid_shape)
            for _ in range(4):
                kx, ky = rng.integers(-4, 5, size=2)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                phi += rng.normal() * np.cos(
                    2 * np.pi * (kx * X1 / L1 + ky * X2 / L2) + phase)
            q = rayleigh_quotient_torus(vortex_field, phi)
            assert q >= res.eigenvalue - 1e-9 * abs(res.eigenvalue)

    def test_operator_is_symmetric(self, vortex_field):
        def apply_L(g):
            return _apply_shifted(vortex_field.domain, vortex_field.potential,
                                  g)

        rng = np.random.default_rng(11)
        phi = rng.normal(size=vortex_field.domain.grid_shape)
        psi = rng.normal(size=vortex_field.domain.grid_shape)
        a = float(np.sum(apply_L(phi) * psi))
        b = float(np.sum(phi * apply_L(psi)))
        assert a == pytest.approx(b, rel=1e-12)

    def test_scaled_eigenvalue_lower_bound(self, vortex_field):
        # eps^2 mu >= -sup|f'| since -Lap is nonnegative
        res = principal_eigen_torus(vortex_field)
        eps = vortex_field.params.epsilon
        assert eps ** 2 * res.eigenvalue >= -sup_abs_df_tau(1.0)

    def test_preconditioner_iteration_guard(self, vortex_field):
        # 9 steps at the sqrt(range) shift; the range shift itself took 16
        assert principal_eigen_torus(vortex_field).iterations <= 10


class TestTorusLopcg:
    def test_one_multiply_per_step(self, vortex_field, monkeypatch):
        # the start, one preconditioner round trip per step (it also
        # gives the operator image) and the residual gate's recompute
        vortex_field.potential  # cached before counting
        count = [0]
        multiply = TorusDomain._multiply

        def counted(self, symbol, g):
            count[0] += 1
            return multiply(self, symbol, g)

        monkeypatch.setattr(TorusDomain, "_multiply", counted)
        res = principal_eigen_torus(vortex_field)
        assert count[0] == res.iterations + 2

    def test_matches_scipy_lobpcg(self, vortex_field):
        # scipy's block LOBPCG on the same operator, preconditioner and
        # start takes the same steps to the same eigenvalue
        dom = vortex_field.domain
        shape = dom.grid_shape
        pot = vortex_field.potential
        pre = 1.0 / (np.sqrt(float(pot.max()) - float(pot.min()) + 1.0)
                     + dom._k2)
        steps = [0]

        def precondition(R):
            steps[0] += 1
            return dom._multiply(pre, R.reshape(shape)).reshape(-1, 1)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            _, X = lobpcg(
                lambda X: _apply_shifted(dom, pot,
                                         X.reshape(shape)).reshape(-1, 1),
                np.ones((pot.size, 1)), M=precondition, tol=1e-9,
                maxiter=60, largest=False)
        res = principal_eigen_torus(vortex_field)
        assert res.iterations == steps[0]
        assert rayleigh_quotient_torus(
            vortex_field, X[:, 0].reshape(shape)) == pytest.approx(
                res.eigenvalue, rel=1e-12)

    def test_dependent_update_is_dropped(self):
        A = np.diag([1.0, 3.0, 7.0])
        x, w = np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0])
        # p in the span of x and w: Rayleigh-Ritz on [x, w] alone
        lam, c = _ritz([x, w, x + w], [A @ x, A @ w, A @ (x + w)])
        assert len(c) == 2
        v = c[0] * x + c[1] * w
        assert lam == pytest.approx(v @ A @ v / (v @ v), rel=1e-14)
        # at this scale the step-2 basis of R^3 degenerates at round-off
        A = A * 1e12
        x, steps = _lopcg(lambda g: A @ g, lambda r: (r, A @ r),
                          np.ones(3), 5)
        assert np.max(np.abs(x[1:])) < 1e-15 * abs(x[0])


def _lobpcg_range_shift(fld, max_iter):
    """mu from LOBPCG preconditioned by (R - Lap)^-1, R the potential's
    range plus one: an independent solve at a slower shift."""
    dom = fld.domain
    shape = dom.grid_shape
    pot = fld.potential
    pre = 1.0 / (float(pot.max()) - float(pot.min()) + 1.0 + dom._k2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, X = lobpcg(
            lambda X: _apply_shifted(dom, pot, X.reshape(shape)).reshape(-1, 1),
            np.ones((pot.size, 1)),
            M=lambda R: dom._multiply(pre, R.reshape(shape)).reshape(-1, 1),
            tol=1e-9, maxiter=max_iter, largest=False)
    return rayleigh_quotient_torus(fld, X[:, 0].reshape(shape))


class TestTorusResolvedField:
    """tau 0.3, eps 0.07 at 256^2 (h/eps 0.22): the range shift
    (R - Lap)^-1 stalled at residual 8.5e-7 in 60 steps here."""

    @pytest.fixture(scope="class")
    def field(self):
        dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(256, 256))
        vs = VortexSet(positive_vortices=(((2.0, 2.0), 1),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return solve_newton(TorusGeometry(dom, vs), ModelParams(0.3, 0.07),
                                continuation=[0.2, 0.15, 0.12, 0.1, 0.08,
                                              0.07])

    def test_converges(self, field):
        res = principal_eigen_torus(field)
        assert res.eigenvalue == pytest.approx(93.08224037437563, rel=1e-12)
        assert res.iterations <= 30
        assert res.residual_norm <= 1e-9 * res.eigenvalue
        assert np.min(res.eigenvector) > 0.0

    def test_matches_range_shift_given_more_steps(self, field):
        mu = principal_eigen_torus(field).eigenvalue
        assert _lobpcg_range_shift(field, 200) == pytest.approx(mu, rel=1e-12)


class TestTorusNontopological:
    """The second branch: Newton from the constant v = ln(4 pi eps^2 /
    int e^u0) (small-eps mass identity with f ~ e^u / tau^3) lands on a
    field whose potential is negative everywhere."""

    @pytest.mark.parametrize("eps, mu", [(0.04, -0.8517428327),
                                         (0.02, -0.8574831198)])
    def test_unstable(self, dom64, eps, mu):
        geo = TorusGeometry(dom64, VortexSet(
            positive_vortices=(((2.0, 2.0), 1),)))
        h1, h2 = dom64.spacings
        c = np.log(4.0 * np.pi * eps ** 2
                   / (h1 * h2 * float(np.sum(np.exp(geo.u0)))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fld = solve_newton(geo, ModelParams(1.0, eps),
                               v_init=np.full(dom64.grid_shape, c))
        assert float(fld.potential.max()) < 0.0
        res = principal_eigen_torus(fld)
        assert res.eigenvalue == pytest.approx(mu, abs=1e-10)
        assert np.min(res.eigenvector) > 0.0
        assert classify_stability(res, default_torus_margin(fld.params)) is \
            StabilityClass.UNSTABLE


class TestRadialTypeOne:
    @pytest.mark.parametrize("s", sorted(FROZEN_RADIAL))
    def test_frozen_unstable_eigenvalues(self, s):
        sol = integrate_radial(s, tau=1.0)
        res = weighted_eigen_radial(sol)
        assert res.eigenvalue == pytest.approx(FROZEN_RADIAL[s], rel=1e-6)
        assert res.eigenvalue < 0.0
        assert res.residual_norm < 1e-8
        # the bound state is localized, so halving r_max barely moves mu
        assert res.diagnostics["reliable"] is True
        assert res.diagnostics["sensitivity"] < 0.05

    @pytest.mark.parametrize("settings", [{"points_per_decade": 50}])
    def test_probe_solves_on_the_half_radius_grid(self, settings):
        # the probe is the same solve on the stored grid cut at r_max/2,
        # so it reads no grid change, whatever the profile's settings
        sol = integrate_radial(-1.0, tau=1.0, **settings)
        res = weighted_eigen_radial(sol)
        k = int(np.count_nonzero(sol.r <= 0.5 * sol.r[-1]))
        half = replace(sol, grid=sol.grid[:k])
        mu2 = weighted_eigen_radial(half, _sensitivity=False).eigenvalue
        mu = res.eigenvalue
        assert res.diagnostics["mu_half_rmax"] == mu2
        assert res.diagnostics["sensitivity"] == abs(mu2 - mu) / abs(mu)
        assert res.diagnostics["sensitivity"] < 1e-5

    def test_probe_on_a_grid_too_short_to_halve(self):
        # eight nodes can be solved, the seven below r_max/2 cannot
        sol = integrate_radial(-1.0, tau=1.0)
        short = replace(sol, grid=sol.grid[np.r_[0:2100:300, -1]])
        res = weighted_eigen_radial(short)
        assert np.isfinite(res.eigenvalue)
        assert res.diagnostics["reliable"] is False
        assert res.diagnostics["sensitivity"] is None
        assert "too short" in res.diagnostics["sensitivity_error"]

    def test_classified_unstable(self):
        sol = integrate_radial(-1.0, tau=1.0)
        res = weighted_eigen_radial(sol)
        assert classify_stability(res, 1e-8) is StabilityClass.UNSTABLE

    def test_eigenvalue_above_certified_lower_bound(self):
        # mu >= -max over the grid of f'(u)_+ / (1 - e^u), the shift
        # certificate used by the solver
        sol = integrate_radial(-1.0, tau=1.0)
        res = weighted_eigen_radial(sol)
        w = -np.expm1(sol.u)
        bound = -np.max(np.maximum(df_tau(sol.u, 1.0), 0.0) / w)
        assert res.eigenvalue >= bound


class TestRadialTopological:
    def test_positive_eigenvalue(self):
        sol = find_topological((-8.0, 8.0), nu=1.0, tau=1.0, vortex_sign=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = weighted_eigen_radial(sol)
        assert not [w for w in caught if "unreliable" in str(w.message)]
        assert res.eigenvalue == pytest.approx(FROZEN_TOPOLOGICAL, rel=1e-6)
        assert res.eigenvalue > 0.0
        assert res.residual_norm < 1e-8
        assert classify_stability(res, 1e-8) is StabilityClass.STRICTLY_STABLE
        # the half-radius probe stays inside the corridor, so the stable
        # solution's mu* is vouched for
        assert res.diagnostics["reliable"] is True
        assert res.diagnostics["sensitivity"] < 1e-6


class TestWeightGuard:
    def test_type_two_profile_rejected(self):
        sol = integrate_radial(1.0, tau=1.0)
        with pytest.raises(WeightIndefiniteError):
            weighted_eigen_radial(sol)

    def test_negative_sign_topological_rejected(self):
        # u -> +inf at the origin for the negative-sign singular profile
        sol = find_topological((-8.0, 8.0), nu=1.0, tau=1.0, vortex_sign=-1)
        with pytest.raises(WeightIndefiniteError):
            weighted_eigen_radial(sol)


class TestClassification:
    def _result(self, mu):
        return EigenResult(eigenvalue=mu, eigenvector=np.ones(4),
                           residual_norm=0.0, iterations=1)

    def test_trichotomy(self):
        assert classify_stability(self._result(1.0), 1e-8) is \
            StabilityClass.STRICTLY_STABLE
        assert classify_stability(self._result(-1.0), 1e-8) is \
            StabilityClass.UNSTABLE
        assert classify_stability(self._result(1e-12), 1e-8) is \
            StabilityClass.MARGINAL
        assert classify_stability(self._result(-1e-12), 1e-8) is \
            StabilityClass.MARGINAL

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            classify_stability(self._result(1.0), 0.0)

    def test_default_margin_scales_with_eps(self):
        assert default_torus_margin(ModelParams(1.0, 0.1)) == \
            pytest.approx(1e-6, rel=1e-12)
