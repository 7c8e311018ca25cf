"""Periodic solver tests.

Ewald golden values were frozen from tests/oracles/green_oracle.py
(mpmath theta-function route, 25 digits) before ewald.py was written.
All solves here run on the 4 x 4 torus; epsilon schedules respect the
solvability capacity bound eps^2 < |O| sup f / (4 pi (N1 - N2)), which
for tau = 1 and N1 - N2 = 2 already excludes eps = 0.3.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexlab import (
    ConvergenceError,
    ModelParams,
    MonotonicityError,
    NewtonDivergenceError,
    Nonlinearity,
    ResolutionWarning,
    TorusDomain,
    TorusField,
    UnsupportedKernelError,
    VortexSet,
    build_u0,
    cell_integral,
    gradient,
    green_function,
    identity_check,
    laplacian,
    mass_bound_report,
    poisson_solve,
    snap_to_grid,
    snapped_vortices,
    solve_monotone,
    solve_newton,
    total_mass,
)
from vortexlab import ewald, torus
from vortexlab.torus import _solve_shifted, _u0_at, _u0_gradient, _u0_regular

pytestmark = [
    pytest.mark.filterwarnings("ignore::vortexlab.torus.ResolutionWarning"),
    pytest.mark.filterwarnings("ignore:.*snapped to the grid"),
]

# unit-torus Green function, 25-digit oracle values
GOLDEN_G = {
    (0.5, 0.5): -0.05515890003816289834911,
    (0.25, 0.25): -0.01378972500954072458728,
    (0.32, 0.17): -0.0150137690761707204998,
    (0.15, 0.45): -0.03203631206482667689105,
}
GOLDEN_GAMMA = -0.2085777932435013836842
GOLDEN_GRAD = (-0.3185740206801011567092, -0.122360311995998631299)


@pytest.fixture(scope="module")
def dom64():
    return TorusDomain(periods=(4.0, 4.0), grid_shape=(64, 64))


@pytest.fixture(scope="module")
def one_plus():
    return VortexSet(positive_vortices=(((2.0, 2.0), 1),))


@pytest.fixture(scope="module")
def fld128(one_plus):
    dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(128, 128))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        return solve_newton(dom, one_plus, ModelParams(1.0, 0.15),
                            continuation=[0.25, 0.2, 0.15])


class TestEwaldGoldens:
    def test_point_values(self):
        for (x, y), want in GOLDEN_G.items():
            assert ewald.green_value(x, y) == pytest.approx(want, rel=1e-13)

    def test_zero_crossing(self):
        # G changes sign along the diagonal band; (0.3, 0.1) sits on the
        # nodal line to oracle precision
        assert abs(ewald.green_value(0.3, 0.1)) < 1e-14

    def test_regular_part(self):
        assert ewald.regular_part(1.0, 1.0) == pytest.approx(
            GOLDEN_GAMMA, rel=1e-13)

    def test_gradient_point(self):
        gx, gy = ewald.green_gradient(0.3, 0.1)
        assert gx == pytest.approx(GOLDEN_GRAD[0], rel=1e-12)
        assert gy == pytest.approx(GOLDEN_GRAD[1], rel=1e-12)

    def test_infinite_at_source(self):
        assert ewald.green_value(0.0, 0.0) == np.inf


class TestEwaldStructure:
    @settings(max_examples=30, deadline=None)
    @given(x=st.floats(0.05, 0.95), y=st.floats(0.05, 0.95))
    def test_lattice_symmetries(self, x, y):
        g = ewald.green_value(x, y)
        assert ewald.green_value(-x, -y) == pytest.approx(g, abs=1e-12)
        assert ewald.green_value(x + 1.0, y) == pytest.approx(g, abs=1e-12)
        assert ewald.green_value(y, x) == pytest.approx(g, abs=1e-12)

    def test_ring_average_recovers_regular_part(self):
        # mean over a ring of G + ln r / (2 pi) -> gamma with O(r^2) error
        gamma = ewald.regular_part(1.0, 1.0)
        errs = []
        for r in (0.05, 0.025):
            th = (np.arange(512) + 0.5) * 2.0 * np.pi / 512
            vals = ewald.green_value(r * np.cos(th), r * np.sin(th))
            errs.append(abs(np.mean(vals) + np.log(r) / (2 * np.pi) - gamma))
        assert errs[0] < 1e-3
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_gradient_matches_finite_difference(self):
        h = 1e-6
        gx, gy = ewald.green_gradient(0.32, 0.17)
        fx = (ewald.green_value(0.32 + h, 0.17)
              - ewald.green_value(0.32 - h, 0.17)) / (2 * h)
        fy = (ewald.green_value(0.32, 0.17 + h)
              - ewald.green_value(0.32, 0.17 - h)) / (2 * h)
        assert gx == pytest.approx(fx, rel=1e-8)
        assert gy == pytest.approx(fy, rel=1e-8)


# the square grid plus a rectangular one whose half spectrum is not
# square, so a swapped axis or a misplaced Nyquist slot shows
SPECTRAL_DOMAINS = pytest.mark.parametrize(
    "periods,shape", [((4.0, 4.0), (64, 64)), ((4.0, 2.0), (64, 128))],
    ids=["square", "rect"])


class TestSpectralCore:
    @SPECTRAL_DOMAINS
    def test_poisson_inverts_laplacian(self, periods, shape):
        dom = TorusDomain(periods=periods, grid_shape=shape)
        L1, L2 = dom.periods
        X1, X2 = dom.mesh
        rhs = np.cos(2 * np.pi * X1 / L1) * np.sin(4 * np.pi * X2 / L2)
        phi = poisson_solve(dom, rhs)
        assert abs(np.mean(phi)) < 1e-14
        back = laplacian(dom, phi)
        assert np.max(np.abs(back - (rhs - np.mean(rhs)))) < 1e-12

    @SPECTRAL_DOMAINS
    def test_gradient_of_plane_wave(self, periods, shape):
        dom = TorusDomain(periods=periods, grid_shape=shape)
        L1, L2 = dom.periods
        X1, X2 = dom.mesh
        k1, k2 = 2 * np.pi * 3 / L1, 2 * np.pi * 2 / L2
        g = np.cos(k1 * X1 + k2 * X2)
        gx, gy = gradient(dom, g)
        assert np.max(np.abs(gx + k1 * np.sin(k1 * X1 + k2 * X2))) < 1e-11
        assert np.max(np.abs(gy + k2 * np.sin(k1 * X1 + k2 * X2))) < 1e-11

    @SPECTRAL_DOMAINS
    def test_gradient_drops_nyquist_modes(self, periods, shape):
        # a real field cannot carry the odd derivative of a Nyquist mode,
        # so its derivative along that axis is exactly zero
        dom = TorusDomain(periods=periods, grid_shape=shape)
        L1, L2 = dom.periods
        X1, X2 = dom.mesh
        alt1 = (-1.0) ** np.arange(shape[0])[:, None]
        alt2 = (-1.0) ** np.arange(shape[1])[None, :]
        gx, _ = gradient(dom, alt1 * np.cos(2 * np.pi * X2 / L2))
        _, gy = gradient(dom, np.cos(2 * np.pi * X1 / L1) * alt2)
        assert np.all(gx == 0.0)
        assert np.all(gy == 0.0)

    def test_cell_integral_of_ones(self, dom64):
        assert cell_integral(dom64, np.ones(dom64.grid_shape)) == \
            pytest.approx(16.0, rel=1e-15)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            TorusDomain(periods=(1.0, 1.0), grid_shape=(100, 64))
        with pytest.raises(ValueError):
            TorusDomain(periods=(-1.0, 1.0), grid_shape=(64, 64))

    def test_snap_collision_names_both_points(self, dom64):
        # two distinct vortices within h/2 of one grid point (h = 1/16)
        vs = VortexSet(positive_vortices=(((1.0, 1.0), 1),),
                       negative_vortices=(((1.02, 0.99), 1),))
        with pytest.raises(ValueError, match="refine the grid") as err:
            snapped_vortices(dom64, vs)
        msg = str(err.value)
        assert "(1, 1)" in msg and "(1.02, 0.99)" in msg
        assert "pairwise distinct" not in msg

    def test_snap_to_grid(self, dom64):
        (i, j), p = snap_to_grid(dom64, (1.02, 2.31))
        h1, h2 = dom64.spacings
        assert abs(p[0] - 1.02) <= h1 / 2 and abs(p[1] - 2.31) <= h2 / 2
        assert p == (i * h1, j * h2)


class TestShiftedSolve:
    def test_solves_and_reports_info(self, dom64):
        X1, X2 = dom64.mesh
        W = 2.0 + np.cos(np.pi * X1 / 2.0) * np.sin(np.pi * X2 / 2.0)
        b = np.exp(np.sin(np.pi * X1 / 2.0))
        x, info = _solve_shifted(dom64, W, 2.0, b, 1e-12, 500)
        assert info == 0
        assert np.max(np.abs(-laplacian(dom64, x) + W * x - b)) < 1e-9
        _, info = _solve_shifted(dom64, W, 2.0, b, 1e-12, 1)
        assert info != 0


class TestGreenGrid:
    def test_u0_matches_ewald_superposition(self):
        # spectral u0 and the Ewald sum agree up to the zero-mean shift
        dom = TorusDomain(periods=(1.0, 1.0), grid_shape=(128, 128))
        vs = VortexSet(positive_vortices=(((0.5, 0.5), 1),))
        u0 = build_u0(dom, vs)
        X1, X2 = dom.mesh
        ref = -4.0 * np.pi * ewald.green_value(X1 - 0.5, X2 - 0.5)
        dx = (X1 - 0.5) - np.round(X1 - 0.5)
        dy = (X2 - 0.5) - np.round(X2 - 0.5)
        far = np.hypot(dx, dy) >= 0.2
        diff = (u0 - ref)[far]
        assert np.max(np.abs(diff - np.mean(diff))) < 1e-3

    def test_u0_zero_mean(self, dom64, one_plus):
        u0 = build_u0(dom64, one_plus)
        assert abs(np.mean(u0)) < 1e-12

    def test_grid_regular_part_near_ewald(self):
        dom = TorusDomain(periods=(1.0, 1.0), grid_shape=(128, 128))
        gf = green_function(dom, (0.5, 0.5))
        assert gf.regular_part_at_source == pytest.approx(
            ewald.regular_part(1.0, 1.0), abs=5e-4)


class TestNewton:
    def test_zero_vortex_vacuum(self, dom64):
        fld = solve_newton(dom64, VortexSet(), ModelParams(1.0, 0.3))
        assert np.max(np.abs(fld.v)) == 0.0
        assert fld.residual_norm() == 0.0

    def test_residual_below_tolerance(self, fld128):
        eps = fld128.params.epsilon
        assert fld128.residual_norm() <= 1e-10 * eps ** -2

    @pytest.mark.parametrize("pos,neg", [
        ((((2.0, 2.0), 1),), ()),
        ((((1.3, 1.2), 1), ((2.8, 2.9), 1)), ()),
        ((((2.0, 2.0), 2),), ()),
        ((((1.2, 1.2), 1),), (((2.9, 2.9), 1),)),
    ])
    def test_total_mass_quantized(self, dom64, pos, neg):
        vs = VortexSet(positive_vortices=pos, negative_vortices=neg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # snapping + resolution notes
            fld = solve_newton(dom64, vs, ModelParams(1.0, 0.15),
                               continuation=[0.2, 0.17, 0.15])
        target = 4.0 * np.pi * (vs.N1 - vs.N2)
        scale = 4.0 * np.pi * max(1, vs.N1 + vs.N2)
        assert abs(total_mass(fld) - target) / scale < 1e-9
        # on the all-positive branch u <= 0 and the absolute mass agrees
        if not neg:
            assert np.max(fld.u) <= 0.0
            assert mass_bound_report(fld) == pytest.approx(target, rel=1e-9)

    def test_sign_flip_duality(self, dom64):
        # u -> -u swaps vortex signs and tau -> 1/tau with eps scaled by
        # tau^(3/2); the discrete solutions mirror to machine precision
        sched = [0.2, 0.17, 0.15]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            a = solve_newton(
                dom64, VortexSet(negative_vortices=(((2.0, 2.0), 1),)),
                ModelParams(2.0, 0.15), continuation=sched)
            b = solve_newton(
                dom64, VortexSet(positive_vortices=(((2.0, 2.0), 1),)),
                ModelParams(0.5, 0.15 * 2.0 ** 1.5),
                continuation=[e * 2.0 ** 1.5 for e in sched])
        assert np.max(np.abs(a.u + b.u)) < 1e-12

    def test_grid_refinement_shrinks_error(self, one_plus):
        p = ModelParams(1.0, 0.25)
        grids = [(64, 64), (128, 128), (256, 256)]
        sols = [solve_newton(TorusDomain(periods=(4.0, 4.0), grid_shape=g),
                             one_plus, p) for g in grids]
        d12 = np.max(np.abs(sols[1].v[::2, ::2] - sols[0].v))
        d23 = np.max(np.abs(sols[2].v[::2, ::2] - sols[1].v))
        assert d23 < d12 / 3.0

    def test_continuation_diagnostics(self, fld128):
        stages = fld128.diagnostics["stages"]
        assert len(stages) == 3

    def test_inner_solve_failures_counted(self, fld128):
        # Newton steps whose MINRES solve missed its tolerance
        assert fld128.diagnostics["minres_failed"] == 0
        assert "linear_solves" not in fld128.diagnostics

    def test_bad_continuation_rejected(self, dom64, one_plus):
        with pytest.raises(ValueError):
            solve_newton(dom64, one_plus, ModelParams(1.0, 0.15),
                         continuation=[0.15, 0.2])
        with pytest.raises(ValueError):
            solve_newton(dom64, one_plus, ModelParams(1.0, 0.15),
                         continuation=[0.2, -0.1])

    def test_empty_continuation_rejected(self, dom64, one_plus):
        with pytest.raises(ValueError):
            solve_newton(dom64, one_plus, ModelParams(1.0, 0.15),
                         continuation=[])

    def test_bad_v_init_rejected(self, dom64, one_plus):
        with pytest.raises(ValueError):
            solve_newton(dom64, one_plus, ModelParams(1.0, 0.25),
                         v_init=np.zeros((32, 32)))

    def test_iteration_cap_raises(self, dom64, one_plus):
        with pytest.raises((NewtonDivergenceError, ConvergenceError)):
            solve_newton(dom64, one_plus, ModelParams(1.0, 0.15), max_iter=1)

    def test_over_capacity_diverges(self, dom64):
        # N1 - N2 = 2 needs eps < 0.248 on this domain; 0.3 is unsolvable
        vs = VortexSet(positive_vortices=(((1.3, 1.2), 1), ((2.8, 2.9), 1)))
        with pytest.raises(NewtonDivergenceError):
            solve_newton(dom64, vs, ModelParams(1.0, 0.3))


class TestCshNewton:
    def test_converges_with_exact_mass(self, dom64, one_plus):
        fld = solve_newton(dom64, one_plus,
                           ModelParams(1.0, 0.3, nonlinearity=Nonlinearity.CSH))
        assert fld.residual_norm() <= 1e-10 * 0.3 ** -2
        assert total_mass(fld) == pytest.approx(4.0 * np.pi, rel=1e-10)


class TestMonotone:
    def test_agrees_with_newton(self, dom64, one_plus):
        p = ModelParams(1.0, 0.3)
        u0 = build_u0(dom64, snapped_vortices(dom64, one_plus))
        mono = solve_monotone(dom64, one_plus, p, sub=-u0 - 25.0, super_=-u0)
        newt = solve_newton(dom64, one_plus, p)
        assert np.max(np.abs(mono.v - newt.v)) < 1e-8
        # the vacuum shift -u0 is an exact discrete supersolution
        assert mono.diagnostics["super_residual_max"] < 1e-9
        assert mono.diagnostics["resolved"] is True
        assert mono.diagnostics["h_over_eps"] == pytest.approx(0.0625 / 0.3)

    def test_ordering_violation_rejected(self, dom64, one_plus):
        p = ModelParams(1.0, 0.3)
        zeros = np.zeros(dom64.grid_shape)
        with pytest.raises(ValueError):
            solve_monotone(dom64, one_plus, p, sub=zeros + 1.0, super_=zeros)

    def test_sub_above_solution_detected(self, dom64, one_plus):
        p = ModelParams(1.0, 0.3)
        u0 = build_u0(dom64, snapped_vortices(dom64, one_plus))
        with pytest.raises(MonotonicityError):
            solve_monotone(dom64, one_plus, p, sub=-u0 - 1e-3, super_=-u0)

    def test_csh_rejected(self, dom64, one_plus):
        p = ModelParams(1.0, 0.3, nonlinearity=Nonlinearity.CSH)
        zeros = np.zeros(dom64.grid_shape)
        with pytest.raises(UnsupportedKernelError):
            solve_monotone(dom64, one_plus, p, sub=zeros - 25.0,
                           super_=zeros)


class TestIdentity:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_battery_at_128(self, fld128, a):
        lhs, rhs, rel = identity_check(fld128, a)
        assert rhs == pytest.approx(
            4.0 * np.pi * (fld128.vortices.N1 / a + fld128.vortices.N2),
            rel=1e-15)
        assert rel < 2e-3

    def test_bad_a_rejected(self, fld128):
        with pytest.raises(ValueError):
            identity_check(fld128, 0.0)
        with pytest.raises(ValueError):
            identity_check(fld128, -1.0)

    def test_csh_rejected(self, dom64, one_plus):
        fld = TorusField(domain=dom64, vortices=one_plus,
                         params=ModelParams(1.0, 0.3,
                                            nonlinearity=Nonlinearity.CSH),
                         u0=np.zeros(dom64.grid_shape),
                         v=np.zeros(dom64.grid_shape))
        with pytest.raises(UnsupportedKernelError):
            identity_check(fld, 1.0)


def _pointwise_u0_gradient(domain, vortices):
    """Reference grad u0: one Ewald point evaluation per vortex."""
    X1, X2 = domain.mesh
    L1, L2 = domain.periods
    gx = np.zeros(domain.grid_shape)
    gy = np.zeros(domain.grid_shape)
    for (p, m, sgn) in vortices.signed():
        ex, ey = ewald.green_gradient(X1 - p[0], X2 - p[1], L1, L2)
        coef = -4.0 * np.pi * m * sgn
        gx += coef * ex
        gy += coef * ey
    return gx, gy


def _mixed_vortices(domain):
    L1, L2 = domain.periods
    return snapped_vortices(domain, VortexSet(
        positive_vortices=(((0.3 * L1, 0.2 * L2), 1),
                           ((0.71 * L1, 0.64 * L2), 2)),
        negative_vortices=(((0.1 * L1, 0.85 * L2), 1),
                           ((0.55 * L1, 0.05 * L2), 2))))


class TestGridEwald:
    @pytest.mark.parametrize("periods, grid_shape", [
        ((4.0, 4.0), (32, 32)),      # the real-space stencil wraps
        ((4.0, 2.0), (64, 128)),     # anisotropic spacing
        ((4.0, 4.0), (256, 256)),
    ], ids=["wrap32", "rect", "256"])
    def test_matches_pointwise_sum(self, periods, grid_shape):
        dom = TorusDomain(periods=periods, grid_shape=grid_shape)
        vs = _mixed_vortices(dom)
        gx, gy = _u0_gradient(dom, vs)
        rx, ry = _pointwise_u0_gradient(dom, vs)
        finite = np.isfinite(rx) & np.isfinite(ry)
        assert np.array_equal(finite, np.isfinite(gx) & np.isfinite(gy))
        assert np.count_nonzero(~finite) == 4
        scale = max(np.abs(rx[finite]).max(), np.abs(ry[finite]).max())
        err = max(np.abs(gx - rx)[finite].max(), np.abs(gy - ry)[finite].max())
        assert err <= 1e-13 * scale

    @pytest.mark.parametrize("which", ["solved", "mixed"])
    def test_identity_matches_pointwise_assembly(self, fld128, dom64,
                                                 monkeypatch, which):
        if which == "solved":
            fld = fld128
        else:
            vs = _mixed_vortices(dom64)
            X1, _ = dom64.mesh
            fld = TorusField(domain=dom64, vortices=vs,
                             params=ModelParams(1.0, 0.3),
                             u0=build_u0(dom64, vs),
                             v=0.1 * np.cos(2.0 * np.pi * X1 / 4.0))
        grid = [identity_check(fld, a)[2] for a in (0.5, 1.0, 2.0)]
        monkeypatch.setattr(torus, "_u0_gradient", _pointwise_u0_gradient)
        ref = [identity_check(fld, a)[2] for a in (0.5, 1.0, 2.0)]
        assert grid == pytest.approx(ref, rel=0, abs=1e-14)


def _pointwise_u0_at(domain, vortices, px, py):
    """Reference u0 and grad u0 at points: one Ewald call per vortex."""
    L1, L2 = domain.periods
    val = np.zeros(px.shape)
    gx = np.zeros(px.shape)
    gy = np.zeros(px.shape)
    for (p, m, sgn) in vortices.signed():
        coef = -4.0 * np.pi * m * sgn
        val += coef * ewald.green_value(px - p[0], py - p[1], L1, L2)
        ex, ey = ewald.green_gradient(px - p[0], py - p[1], L1, L2)
        gx += coef * ex
        gy += coef * ey
    return val, gx, gy


def _assert_rel_close(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= \
        rel * np.abs(want).max(initial=0.0)


class TestOffGridU0:
    @pytest.mark.parametrize("which", ["mixed", "none"])
    @pytest.mark.parametrize("points", ["ring", "plane"])
    def test_u0_at_matches_pointwise_sum(self, dom64, which, points):
        vs = _mixed_vortices(dom64) if which == "mixed" else VortexSet()
        if points == "ring":
            # a Pohozaev ring around the first positive vortex
            theta = (np.arange(256) + 0.5) * (2.0 * np.pi / 256)
            px = 1.1875 + 0.3 * np.cos(theta)
            py = 0.8125 + 0.3 * np.sin(theta)
        else:
            # off-grid 2-D point set, flattened as rescale_blowup does
            X, Y = np.meshgrid(np.linspace(0.03, 3.97, 17),
                               np.linspace(0.01, 3.93, 13), indexing="ij")
            px, py = X.ravel(), Y.ravel()
        got = _u0_at(dom64, vs, px, py, want_grad=True)
        want = _pointwise_u0_at(dom64, vs, px, py)
        for g, w in zip(got, want):
            _assert_rel_close(g, w)
        val, gx, gy = _u0_at(dom64, vs, px, py, want_grad=False)
        assert np.array_equal(val, got[0])
        assert gx is None and gy is None

    @pytest.mark.parametrize("which", ["mixed", "none"])
    def test_u0_regular_matches_pointwise_sum(self, dom64, which):
        vs = _mixed_vortices(dom64) if which == "mixed" else VortexSet()
        L1, L2 = dom64.periods
        entries = vs.signed()
        want = []
        for k, (p, m, sgn) in enumerate(entries):
            val = -4.0 * np.pi * m * sgn * ewald.regular_part(L1, L2)
            for j, (q, mq, sq) in enumerate(entries):
                if j != k:
                    val += -4.0 * np.pi * mq * sq * float(
                        ewald.green_value(p[0] - q[0], p[1] - q[1], L1, L2))
            want.append(val)
        _assert_rel_close(_u0_regular(dom64, vs), np.array(want))


class TestResolutionGuard:
    def test_warns_when_grid_too_coarse(self, one_plus):
        dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(32, 32))
        with pytest.warns(ResolutionWarning):
            fld = solve_newton(dom, one_plus, ModelParams(1.0, 0.25))
        assert fld.diagnostics["stages"][-1]["resolved"] is False

    def test_coarser_axis_decides_and_is_recorded(self):
        # h2 = 0.03125 resolves eps/4 = 0.05, h1 = 0.0625 does not
        dom = TorusDomain(periods=(4.0, 2.0), grid_shape=(64, 64))
        vs = VortexSet(positive_vortices=(((2.0, 1.0), 1),))
        with pytest.warns(ResolutionWarning):
            fld = solve_newton(dom, vs, ModelParams(1.0, 0.2))
        stage = fld.diagnostics["stages"][-1]
        assert stage["resolved"] is False
        assert stage["h_over_eps"] == pytest.approx(0.3125, rel=1e-15)

    def test_resolved_grid_recorded(self, fld128):
        for stage in fld128.diagnostics["stages"]:
            assert stage["resolved"] is True
            assert stage["h_over_eps"] == pytest.approx(
                0.03125 / stage["epsilon"], rel=1e-15)
