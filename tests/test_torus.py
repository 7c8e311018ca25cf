"""Periodic solver tests.

Green-function golden values were frozen from tests/oracles/green_oracle.py
(mpmath theta-function route, 25 digits) before ewald.py was written;
tests/ewald_lattice.py is the float Ewald lattice sum that ewald.py's
theta-row series is checked against.
All solves here run on the 4 x 4 torus; epsilon schedules respect the
solvability capacity bound eps^2 < |O| sup f / (4 pi (N1 - N2)), which
for tau = 1 and N1 - N2 = 2 already excludes eps = 0.3.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, minres

import ewald_lattice
from vortexlab import (
    CapacityError,
    ConvergenceError,
    ModelParams,
    MonotonicityError,
    NewtonDivergenceError,
    ResolutionWarning,
    TorusDomain,
    TorusField,
    TorusGeometry,
    VortexSet,
    cell_integral,
    gradient,
    identity_check,
    laplacian,
    mass_bound_report,
    pohozaev_value,
    poisson_solve,
    snap_to_grid,
    solve_monotone,
    solve_newton,
    total_mass,
)
from vortexlab import ewald, kernels, torus
from vortexlab.torus import (
    _apply_shifted,
    _solve_shifted,
    _u0_at,
    _u0_gradient,
)

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
# rectangular tori (L1, L2): G at points, gamma, and grad G at one point
GOLDEN_RECT = {
    (1.0, 3.0): {
        "G": {(0.5, 1.5): -0.1250256864179933539085,
              (0.2, 0.7): -0.01773823651101925015891,
              (0.45, -1.3): -0.1183797234976333898256},
        "gamma": -0.04250721784131373915549,
        "grad": ((0.2, 0.7),
                 (-0.01178543433975628382502, -0.2703432560577777716544)),
    },
    (4.0, 1.5): {
        "G": {(2.0, 0.75): -0.1111843030538913382993,
              (0.6, 0.3): 0.05576149981762953560033,
              (-1.7, 0.5): -0.10368064454223230904},
        "gamma": -0.005753204651780853991477,
        "grad": ((0.6, 0.3),
                 (-0.2462063662531255581497, -0.05369487104717587895169)),
    },
}


def _growing_step(domain, W, c, b, rtol, maxiter):
    """A _solve_shifted stand-in whose step only raises the residual: a
    Nyquist checkerboard, whose Laplacian dwarfs any residual."""
    i, j = np.indices(domain.grid_shape)
    return 1e3 * (-1.0) ** (i + j), 0, 1


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
        return solve_newton(TorusGeometry(dom, one_plus),
                            ModelParams(1.0, 0.15),
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

    @pytest.mark.parametrize("periods", [(1.0, 1.0), (4.0, 2.0), (1.0, 3.0)])
    def test_source_and_its_images(self, periods):
        # G is +inf and grad G nan (0/0, as on _u0_gradient's vortex
        # cells) at the source and at its periodic image (L1, 0)
        L1, L2 = periods
        for x, y in [(0.0, 0.0), (L1, 0.0)]:
            assert ewald.green_value(x, y, L1, L2) == np.inf
            assert np.isnan(ewald.green_gradient(x, y, L1, L2)).all()

    @pytest.mark.parametrize("periods", sorted(GOLDEN_RECT))
    def test_rectangular_torus(self, periods):
        gold = GOLDEN_RECT[periods]
        for (x, y), want in gold["G"].items():
            assert ewald.green_value(x, y, *periods) == pytest.approx(
                want, rel=1e-13)
        assert ewald.regular_part(*periods) == pytest.approx(
            gold["gamma"], rel=1e-13)
        (x, y), (wx, wy) = gold["grad"]
        gx, gy = ewald.green_gradient(x, y, *periods)
        assert gx == pytest.approx(wx, rel=1e-12)
        assert gy == pytest.approx(wy, rel=1e-12)

    @pytest.mark.parametrize("periods", [(np.inf, 1.0), (1.0, -np.inf),
                                         (np.nan, 1.0), (0.0, 1.0)])
    def test_periods_must_be_positive_and_finite(self, periods):
        with pytest.raises(ValueError, match="positive and finite"):
            ewald.green_value(0.1, 0.2, *periods)
        with pytest.raises(ValueError, match="positive and finite"):
            TorusDomain(periods=periods, grid_shape=(32, 32))


class TestEwaldWindows:
    """The reference's _setup keeps exactly the terms that reach
    e^-_Z_CUT somewhere."""

    @pytest.mark.parametrize("periods", [(4.0, 4.0), (1.0, 3.0), (3.0, 1.0)])
    def test_windows_are_closed(self, periods):
        L1, L2 = periods
        _, eta2, images, duals = ewald_lattice._setup(L1, L2)
        kept_n, kept_m = set(images), set(duals)
        assert len(kept_n) == len(images) and len(kept_m) == len(duals)
        for i in range(-12, 13):
            for j in range(-12, 13):
                # minimum-image displacements fill the box
                # [-L1/2, L1/2] x [-L2/2, L2/2]; the point of the box
                # nearest the image is its closest approach
                n1, n2 = i * L1, j * L2
                near = (np.clip(n1, -L1 / 2, L1 / 2) - n1) ** 2 \
                    + (np.clip(n2, -L2 / 2, L2 / 2) - n2) ** 2
                assert ((i, j) in kept_n) == (eta2 * near <= ewald._Z_CUT), \
                    (i, j)
        for i in range(-48, 49):
            for j in range(-48, 49):
                if (i, j) == (0, 0):
                    assert (i, j) not in kept_m
                    continue
                damped = np.pi ** 2 * ((i / L1) ** 2 + (j / L2) ** 2) / eta2
                assert ((i, j) in kept_m) == (damped <= ewald._Z_CUT), (i, j)

    def test_square_term_counts(self):
        _, eta2, images, duals = ewald_lattice._setup(4.0, 4.0)
        assert eta2 == 2.0 * np.pi / 16.0
        assert (len(images), len(duals)) == (25, 68)


# the tori of the row series' checks: square, both orientations of a
# rectangle, and a long one that keeps only the rows 0 and +-1
ROW_TORI = [(4.0, 4.0), (1.0, 1.0), (2.0, 3.0), (3.0, 1.5), (1.0, 5.0),
            (5.0, 1.0)]


def _row_points(L1, L2, n=4000, seed=5):
    """Displacements over two periods per axis, 100 of them within 1e-3
    of the source and 20 on the line y = 0 within 1e-8 of it."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-L1, L1, n)
    y = rng.uniform(-L2, L2, n)
    x[:100] = rng.uniform(-1e-3, 1e-3, 100)
    y[:100] = rng.uniform(-1e-3, 1e-3, 100)
    x[100:120] = rng.uniform(-1e-8, 1e-8, 20)
    y[100:120] = 0.0
    return x, y


class TestRowSeries:
    """ewald's theta rows against the Ewald lattice sum, in floats."""

    @pytest.mark.parametrize("periods", ROW_TORI)
    def test_value_matches_lattice_sum(self, periods):
        x, y = _row_points(*periods)
        want = ewald_lattice.green_value(x, y, *periods)
        assert np.max(np.abs(ewald.green_value(x, y, *periods) - want)) \
            <= 1e-14

    @pytest.mark.parametrize("periods", ROW_TORI)
    def test_gradient_matches_lattice_sum(self, periods):
        x, y = _row_points(*periods)
        wx, wy = ewald_lattice.green_gradient(x, y, *periods)
        gx, gy = ewald.green_gradient(x, y, *periods)
        scale = 1e-14 * np.maximum(1.0, np.hypot(wx, wy))
        assert np.all(np.abs(gx - wx) <= scale)
        assert np.all(np.abs(gy - wy) <= scale)

    @pytest.mark.parametrize("periods", ROW_TORI)
    def test_regular_part_matches_lattice_sum(self, periods):
        assert abs(ewald.regular_part(*periods)
                   - ewald_lattice.regular_part(*periods)) <= 1e-14

    @pytest.mark.parametrize("periods", ROW_TORI + [(1.0, 13.0)])
    def test_rows_are_closed(self, periods):
        # every kept row j != 0 exceeds e^-_Z_CUT at some minimum-image
        # point (|y| = L_long/2), and the first dropped one does not
        short, long_ = sorted(periods)
        _, _, swapped, q = ewald._rows(*periods)
        assert swapped == (periods[0] > periods[1])
        reach = 2.0 * np.pi / short * (np.arange(1, q.size + 2) - 0.5) \
            * long_
        assert np.all(reach[:-1] <= ewald._Z_CUT) \
            and reach[-1] > ewald._Z_CUT


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

    @pytest.mark.parametrize("symbol", ["_k2", "_ik"])
    def test_multiply_returns_fresh_arrays(self, dom64, symbol):
        # _multiply transforms into one reused half-spectrum buffer; its
        # outputs must never alias that buffer or one another
        sym = getattr(dom64, symbol)
        sym = sym[0] if symbol == "_ik" else sym
        rng = np.random.default_rng(3)
        g1, g2 = rng.normal(size=(2, *dom64.grid_shape))
        a = dom64._multiply(sym, g1)
        a_copy = a.copy()
        b = dom64._multiply(sym, g2)
        assert not np.shares_memory(a, b)
        for out in (a, b):
            assert not np.shares_memory(out, dom64._spectrum)
        assert np.array_equal(a, a_copy)
        assert np.array_equal(a, np.fft.irfft2(sym * np.fft.rfft2(g1),
                                               s=dom64.grid_shape))

    def test_cell_integral_of_ones(self, dom64):
        assert cell_integral(dom64, np.ones(dom64.grid_shape)) == \
            pytest.approx(16.0, rel=1e-15)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            TorusDomain(periods=(1.0, 1.0), grid_shape=(100, 64))
        with pytest.raises(ValueError):
            TorusDomain(periods=(-1.0, 1.0), grid_shape=(64, 64))
        with pytest.raises(ValueError, match="integer powers of two"):
            TorusDomain(periods=(4.0, 4.0), grid_shape=(256.0, 256.0))
        with pytest.raises(ValueError, match="integer powers of two"):
            TorusDomain(periods=(4.0, 4.0), grid_shape=(True, 64))
        with pytest.raises(ValueError, match="two grid sizes"):
            TorusDomain(periods=(4.0, 4.0), grid_shape=(64, 64, 64))
        with pytest.raises(ValueError, match="two periods"):
            TorusDomain(periods=(4.0,), grid_shape=(64, 64))
        with pytest.raises(ValueError, match="periods must be positive"):
            TorusDomain(periods=(True, 4.0), grid_shape=(64, 64))

    def test_snap_collision_names_both_points(self, dom64):
        # two distinct vortices within h/2 of one grid point (h = 1/16)
        vs = VortexSet(positive_vortices=(((1.0, 1.0), 1),),
                       negative_vortices=(((1.02, 0.99), 1),))
        with pytest.raises(ValueError, match="refine the grid") as err:
            TorusGeometry(dom64, vs)
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
        rtol = 1e-12
        x, info, k = _solve_shifted(dom64, W, 2.0, b, rtol, 500)
        assert info == 0 and 0 < k < 500
        assert np.max(np.abs(-laplacian(dom64, x) + W * x - b)) < 1e-9
        # MINRES stops on the backward error |r|_M <= rtol |A| |x|, not
        # on |r| <= rtol |b|; on this system the plain relative residual
        # is 4.8 rtol
        r = _apply_shifted(dom64, W, x) - b
        assert np.linalg.norm(r) <= 10.0 * rtol * np.linalg.norm(b)
        _, info, k = _solve_shifted(dom64, W, 2.0, b, 1e-12, 1)
        assert (info, k) == (1, 1)

    def test_one_multiply_per_iteration(self, dom64, monkeypatch):
        # the preconditioner's round trip also gives the operator image,
        # so k iterations make k + 1 multiplies and no operator call
        count = {"apply": 0, "multiply": 0}
        apply, multiply = torus._apply_shifted, TorusDomain._multiply

        def counted_apply(*args):
            count["apply"] += 1
            return apply(*args)

        def counted_multiply(self, symbol, g):
            count["multiply"] += 1
            return multiply(self, symbol, g)

        monkeypatch.setattr(torus, "_apply_shifted", counted_apply)
        monkeypatch.setattr(TorusDomain, "_multiply", counted_multiply)
        X1, X2 = dom64.mesh
        W = 2.0 + np.cos(np.pi * X1 / 2.0) * np.sin(np.pi * X2 / 2.0)
        b = np.exp(np.sin(np.pi * X1 / 2.0))
        _, info, k = _solve_shifted(dom64, W, 2.0, b, 1e-10, 500)
        assert info == 0 and k > 0
        assert count == {"apply": 0, "multiply": k + 1}

    def test_preconditioner_returns_the_operator_image(self, dom64):
        # A w = r + (W - c) w for w = (c - Lap)^-1 r, A = -Lap + W
        X1, X2 = dom64.mesh
        W = 2.0 + np.cos(np.pi * X1 / 2.0) * np.sin(np.pi * X2 / 2.0)
        r = np.exp(np.sin(np.pi * X1 / 2.0)) * np.cos(np.pi * X2 / 2.0)
        w, Aw = torus._preconditioner(dom64, W, 3.0)(r)
        assert np.max(np.abs(3.0 * w - laplacian(dom64, w) - r)) < 1e-12
        assert np.max(np.abs(Aw - _apply_shifted(dom64, W, w))) < 1e-12

    def test_matches_scipy_minres(self, dom64):
        # the same recurrences as scipy's minres: the same iteration count
        # and the same iterate up to round-off
        X1, X2 = dom64.mesh
        W = 2.0 + np.cos(np.pi * X1 / 2.0) * np.sin(np.pi * X2 / 2.0)
        b = np.exp(np.sin(np.pi * X1 / 2.0))
        shape, n = dom64.grid_shape, b.size
        pre = 1.0 / (2.0 + dom64._k2)
        op = LinearOperator((n, n), dtype=float, matvec=lambda g: (
            _apply_shifted(dom64, W, g.reshape(shape)).ravel()))
        M = LinearOperator((n, n), dtype=float, matvec=lambda g: (
            dom64._multiply(pre, g.reshape(shape)).ravel()))
        steps = []
        ref, _ = minres(op, b.ravel(), M=M, rtol=1e-10, maxiter=500,
                        callback=steps.append)
        x, info, k = _solve_shifted(dom64, W, 2.0, b, 1e-10, 500)
        assert k == len(steps)
        assert np.max(np.abs(x.ravel() - ref)) < 1e-12 * np.max(np.abs(ref))


class TestGreenGrid:
    def test_u0_matches_ewald_superposition(self):
        # spectral u0 and the Ewald sum agree up to the zero-mean shift
        dom = TorusDomain(periods=(1.0, 1.0), grid_shape=(128, 128))
        vs = VortexSet(positive_vortices=(((0.5, 0.5), 1),))
        u0 = TorusGeometry(dom, vs).u0
        X1, X2 = dom.mesh
        ref = -4.0 * np.pi * ewald.green_value(X1 - 0.5, X2 - 0.5)
        dx = (X1 - 0.5) - np.round(X1 - 0.5)
        dy = (X2 - 0.5) - np.round(X2 - 0.5)
        far = np.hypot(dx, dy) >= 0.2
        diff = (u0 - ref)[far]
        assert np.max(np.abs(diff - np.mean(diff))) < 1e-3

    def test_u0_zero_mean(self, dom64, one_plus):
        u0 = TorusGeometry(dom64, one_plus).u0
        assert abs(np.mean(u0)) < 1e-12


class TestNewton:
    def test_zero_vortex_vacuum(self, dom64):
        fld = solve_newton(TorusGeometry(dom64, VortexSet()),
                           ModelParams(1.0, 0.3))
        assert np.max(np.abs(fld.v)) == 0.0
        assert fld.residual_norm() == 0.0

    def test_residual_below_tolerance(self, fld128):
        eps = fld128.params.epsilon
        assert fld128.residual_norm() <= 1e-10 * eps ** -2
        # the CLI summary reads the stored value instead of recomputing it
        assert fld128.residual_norm() == fld128.diagnostics["residual"]

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
            fld = solve_newton(TorusGeometry(dom64, vs),
                               ModelParams(1.0, 0.15),
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
                TorusGeometry(
                    dom64, VortexSet(negative_vortices=(((2.0, 2.0), 1),))),
                ModelParams(2.0, 0.15), continuation=sched)
            b = solve_newton(
                TorusGeometry(
                    dom64, VortexSet(positive_vortices=(((2.0, 2.0), 1),))),
                ModelParams(0.5, 0.15 * 2.0 ** 1.5),
                continuation=[e * 2.0 ** 1.5 for e in sched])
        assert np.max(np.abs(a.u + b.u)) < 1e-12

    def test_grid_refinement_shrinks_error(self, one_plus):
        p = ModelParams(1.0, 0.25)
        grids = [(64, 64), (128, 128), (256, 256)]
        doms = [TorusDomain(periods=(4.0, 4.0), grid_shape=g) for g in grids]
        sols = [solve_newton(TorusGeometry(dom, one_plus), p) for dom in doms]
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
            solve_newton(TorusGeometry(dom64, one_plus),
                         ModelParams(1.0, 0.15),
                         continuation=[0.15, 0.2])
        with pytest.raises(ValueError):
            solve_newton(TorusGeometry(dom64, one_plus),
                         ModelParams(1.0, 0.15),
                         continuation=[0.2, -0.1])

    def test_continuation_must_end_at_epsilon(self, dom64, one_plus,
                                              monkeypatch):
        # refused before any stage is solved, not solved at eps = 0.2
        monkeypatch.setattr(torus, "_newton_core", None)
        with pytest.raises(ValueError, match="ends at 0.2, not at epsilon"):
            solve_newton(TorusGeometry(dom64, one_plus),
                         ModelParams(1.0, 0.1), continuation=[0.3, 0.2])

    def test_empty_continuation_rejected(self, dom64, one_plus):
        with pytest.raises(ValueError):
            solve_newton(TorusGeometry(dom64, one_plus),
                         ModelParams(1.0, 0.15),
                         continuation=[])

    def test_bad_v_init_rejected(self, dom64, one_plus):
        with pytest.raises(ValueError):
            solve_newton(TorusGeometry(dom64, one_plus),
                         ModelParams(1.0, 0.25),
                         v_init=np.zeros((32, 32)))

    def test_growing_residual_is_divergence(self, dom64, one_plus,
                                            monkeypatch):
        # a step that only raises the residual stops Newton after five
        # damped steps, whatever round-off does to a real solve
        monkeypatch.setattr(torus, "_solve_shifted", _growing_step)
        with pytest.raises(NewtonDivergenceError,
                           match="residual grew for 5 consecutive damped "
                                 "steps") as info:
            torus._newton_core(TorusGeometry(dom64, one_plus),
                               ModelParams(1.0, 0.25),
                               np.zeros(dom64.grid_shape), 60, 1.0)
        assert info.value.field.diagnostics["iterations"] == 5

    def test_non_finite_trial_is_divergence(self, dom64, one_plus,
                                            monkeypatch):
        # Newton stops at its last finite iterate instead of handing the
        # kernels a non-finite one
        def overflowing_step(domain, W, c, b, rtol, maxiter):
            return np.full(domain.grid_shape, np.inf), 0, 1

        monkeypatch.setattr(torus, "_solve_shifted", overflowing_step)
        v = np.zeros(dom64.grid_shape)
        with pytest.raises(NewtonDivergenceError,
                           match="trial iterate is not finite at step 1") \
                as info:
            torus._newton_core(TorusGeometry(dom64, one_plus),
                               ModelParams(1.0, 0.25), v, 60, 1.0)
        fld = info.value.field
        assert np.array_equal(fld.v, v)
        assert fld.diagnostics["iterations"] == 0
        assert fld.diagnostics["minres_iters"] == 1

    def test_minres_iterations_are_counted(self, dom64, one_plus,
                                           monkeypatch):
        seen = []
        solve = torus._solve_shifted

        def counted(*args):
            x, info, k = solve(*args)
            seen.append(k)
            return x, info, k

        monkeypatch.setattr(torus, "_solve_shifted", counted)
        fld = solve_newton(TorusGeometry(dom64, one_plus),
                           ModelParams(1.0, 0.2), continuation=[0.25, 0.2])
        stages = fld.diagnostics["stages"]
        assert len(seen) == sum(st["iterations"] for st in stages)
        assert fld.diagnostics["minres_iters"] == sum(seen) \
            == sum(st["minres_iters"] for st in stages)
        # every Newton step runs at least one MINRES iteration
        assert all(st["minres_iters"] >= st["iterations"] > 0
                   for st in stages)

    def test_iteration_cap_raises(self, dom64, one_plus):
        with pytest.raises((NewtonDivergenceError, ConvergenceError)):
            solve_newton(TorusGeometry(dom64, one_plus),
                         ModelParams(1.0, 0.15), max_iter=1)

    def test_over_capacity_diverges(self, dom64):
        # N1 - N2 = 2 needs eps < 0.248 on this domain; 0.3 is unsolvable,
        # and the pre-check says so before any Newton step
        vs = VortexSet(positive_vortices=(((1.3, 1.2), 1), ((2.8, 2.9), 1)))
        with pytest.raises(CapacityError, match=r"epsilon <= 0\.2475"):
            solve_newton(TorusGeometry(dom64, vs), ModelParams(1.0, 0.3))

    def test_capacity_reads_the_largest_stage(self, dom64, monkeypatch):
        vs = VortexSet(positive_vortices=(((1.3, 1.2), 1), ((2.8, 2.9), 1)))
        monkeypatch.setattr(torus, "_newton_core", None)
        with pytest.raises(CapacityError):
            solve_newton(TorusGeometry(dom64, vs), ModelParams(1.0, 0.2),
                         continuation=[0.3, 0.2])

    def test_capacity_bound_is_sharp(self, dom64):
        # N2 > N1 reads min f: eps^2 <= |O| |min f| / (4 pi (N2 - N1))
        f_min = kernels.f_extrema_tau(1.0)[0]
        bound = np.sqrt(dom64.area * -f_min / (8.0 * np.pi))
        vs = VortexSet(negative_vortices=(((1.25, 1.25), 1),
                                          ((2.75, 2.75), 1)))
        torus._check_capacity(dom64, vs, ModelParams(1.0, bound),
                              0.9999 * bound)
        with pytest.raises(CapacityError):
            torus._check_capacity(dom64, vs, ModelParams(1.0, 1.0001 * bound),
                                  1.0001 * bound)


# Monotone iterations of one +1 vortex on the 4 x 4 torus, keyed by
# (grid, tau, eps), where (c - Lap)^-1 has no negative entry; the other
# cases of the 3 x 3 x 3 table have a negative one
_MONOTONE_ITERATIONS = {
    **{(n, 1.0, 0.125): 33 for n in (32, 64, 128)},
    (64, 1.0, 0.1): 33, (128, 1.0, 0.1): 33,
    **{(n, 2.0, 0.125): 89 for n in (32, 64, 128)},
    **{(n, 2.0, 0.1): 63 for n in (32, 64, 128)},
    (128, 2.0, 0.05): 60,
}
_MONOTONE_TABLE = [(n, tau, eps) for n in (32, 64, 128)
                   for tau in (0.5, 1.0, 2.0) for eps in (0.125, 0.1, 0.05)]


class TestMonotone:
    @pytest.mark.parametrize("n, tau, eps", _MONOTONE_TABLE,
                             ids=["%d-%g-%g" % case
                                  for case in _MONOTONE_TABLE])
    def test_kernel_sign_decides(self, one_plus, n, tau, eps, monkeypatch):
        # the step preserves order iff (c - Lap)^-1 has no negative entry:
        # a negative kernel is refused before any f_tau call, and a
        # positive one converges
        f_tau = kernels.f_tau
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return f_tau(*args, **kwargs)

        monkeypatch.setattr(kernels, "f_tau", counting)
        geo = TorusGeometry(TorusDomain(periods=(4.0, 4.0),
                                        grid_shape=(n, n)), one_plus)
        want = _MONOTONE_ITERATIONS.get((n, tau, eps))
        if want is None:
            with pytest.raises(MonotonicityError, match=(
                    r"negative kernel on the %d x %d grid \(min/max -"
                    % (n, n))):
                solve_monotone(geo, ModelParams(tau, eps))
            assert calls == []
        else:
            fld = solve_monotone(geo, ModelParams(tau, eps))
            assert fld.diagnostics["iterations"] == want
            assert fld.diagnostics["kernel_ratio"] > 0.0

    def test_agrees_with_newton(self, dom64, one_plus):
        p = ModelParams(1.0, 0.3)
        geo = TorusGeometry(dom64, one_plus)
        mono = solve_monotone(geo, p)
        newt = solve_newton(geo, p)
        assert np.max(np.abs(mono.v - newt.v)) < 1e-8
        # the vacuum shift -u0 is an exact discrete supersolution
        assert mono.diagnostics["super_residual_max"] < 1e-9
        assert mono.diagnostics["resolved"] is True
        assert mono.diagnostics["h_over_eps"] == pytest.approx(0.0625 / 0.3)

    def test_one_f_evaluation_per_iterate(self, dom64, one_plus, monkeypatch):
        p = ModelParams(1.0, 0.3)
        geo = TorusGeometry(dom64, one_plus)
        f_tau = kernels.f_tau
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return f_tau(*args, **kwargs)

        monkeypatch.setattr(kernels, "f_tau", counting)
        mono = solve_monotone(geo, p)
        monkeypatch.undo()
        # the sub bracket's residual, then one f per iterate; the first
        # iterate's residual is the super bracket's
        assert len(calls) == mono.diagnostics["iterations"] + 2
        assert mono.residual_norm() == mono.diagnostics["residual"]

    def test_matches_explicit_map(self, dom64, one_plus):
        # reference: iterate (Lap - c)^-1 (-c v - eps^-2 f(u) + K), the
        # same map written without the residual
        p = ModelParams(1.0, 0.3)
        geo = TorusGeometry(dom64, one_plus)
        u0 = geo.u0
        mono = solve_monotone(geo, p)
        c = mono.diagnostics["shift"]
        K = 4.0 * np.pi * (geo.vortices.N1 - geo.vortices.N2) / dom64.area
        mult = 1.0 / (-dom64._k2 - c)
        fld = TorusField(geometry=geo, params=p, v=-u0)
        it = 0
        while fld.residual_norm() >= 1e-10 * p.epsilon ** -2:
            rhs = -c * fld.v - p.epsilon ** -2 * fld.f + K
            fld = replace(fld, v=dom64._multiply(mult, rhs))
            it += 1
        assert mono.diagnostics["iterations"] == it
        assert np.max(np.abs(mono.v - fld.v)) <= 1e-13

    def test_sub_above_solution_detected(self, dom64, one_plus, monkeypatch):
        # a subsolution 1e-3 below -u0 lies above the solution
        monkeypatch.setattr(torus, "_MONOTONE_OFFSET", 1e-3)
        p = ModelParams(1.0, 0.3)
        geo = TorusGeometry(dom64, one_plus)
        with pytest.raises(MonotonicityError, match="below the subsolution"):
            solve_monotone(geo, p)

    @pytest.mark.parametrize("vortices, named", [
        (VortexSet(negative_vortices=(((2.0, 2.0), 1),)), "(2, 2) m=1"),
        (VortexSet(positive_vortices=(((1.0, 1.0), 2),),
                   negative_vortices=(((3.0, 3.0), 1),)), "(3, 3) m=1"),
        (VortexSet(positive_vortices=(((2.0, 2.0), 1),),
                   negative_vortices=(((2.0625, 2.0), 1),)),
         "(2.0625, 2) m=1"),
    ], ids=["minus", "plus2-minus", "adjacent"])
    def test_negative_vortex_refused_before_iterating(self, dom64, vortices,
                                                      named, monkeypatch):
        # F(-u0) = +4 pi m / (h1 h2) on a negative vortex's cell, so -u0
        # is no supersolution whatever the shift
        monkeypatch.setattr(kernels, "f_tau",
                            lambda *args, **kwargs: pytest.fail("iterated"))
        geo = TorusGeometry(dom64, vortices)
        with pytest.raises(MonotonicityError) as err:
            solve_monotone(geo, ModelParams(1.0, 0.3))
        assert str(err.value) == (
            "the monotone bracket (-u0 - 25, -u0) needs N2 = 0: -u0 is no "
            "supersolution at the negative vortices " + named)

    def test_over_capacity_rejected(self, dom64, one_plus):
        # tau = 1000 caps max f near 2.5e-10: one vortex needs eps <= 1.8e-5
        p = ModelParams(1000.0, 0.3)
        geo = TorusGeometry(dom64, one_plus)
        with pytest.raises(CapacityError, match=r"epsilon <= 1\.78"):
            solve_monotone(geo, p)


class TestIdentity:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_battery_at_128(self, fld128, a):
        lhs, rhs, rel = identity_check(fld128, a)
        assert rhs == pytest.approx(
            4.0 * np.pi * (fld128.vortices.N1 / a + fld128.vortices.N2),
            rel=1e-15)
        assert rel < 2e-3

    @pytest.mark.parametrize("which", ["solved", "wide"])
    def test_weights_match_explicit_forms(self, fld128, dom64, monkeypatch,
                                          which):
        # reference: the two weights written out branch by branch
        def w1(u, a):
            t = np.exp(-np.abs(u))
            return np.where(u > 0, t / (a * t + 1.0) ** 2, t / (a + t) ** 2)

        def w2(u, tau, a):
            t = np.exp(-np.abs(u))
            m = -np.expm1(-np.abs(u))
            return np.where(u > 0,
                            t * m * m / ((tau * t + 1.0) ** 3 * (a * t + 1.0)),
                            t * m * m / ((tau + t) ** 3 * (a + t)))

        if which == "solved":
            fld = fld128
        else:
            # u over [-700, 700], both branches and both overflow tails;
            # with no vortices u0 = 0 and u = v exactly
            u = np.linspace(-700.0, 700.0, dom64.grid_shape[0] ** 2)
            fld = TorusField(geometry=TorusGeometry(dom64, VortexSet()),
                             params=ModelParams(0.7, 0.3),
                             v=u.reshape(dom64.grid_shape))
            assert np.array_equal(fld.u, fld.v)
        two_sided = kernels._two_sided
        got = []

        def recording(u, neg, pos):
            got.append(two_sided(u, neg, pos))
            return got[-1]

        monkeypatch.setattr(kernels, "_two_sided", recording)
        a = 1.7
        identity_check(fld, a)
        monkeypatch.undo()
        tau = fld.params.tau
        assert len(got) == 2
        for have, want in zip(got, (w1(fld.u, a), w2(fld.u, tau, a))):
            assert np.array_equal(have.view(np.int64), want.view(np.int64))

    def test_a_vortex_of_multiplicity_zero_changes_nothing(self, dom64,
                                                            one_plus):
        # an m = 0 entry has c_p = 0: no term of grad u0, no nan cell and
        # no vortex-cell limit, so the rows are those of the field without it
        with_zero = replace(one_plus, positive_vortices=(
            *one_plus.positive_vortices, ((0.5, 0.5), 0)))
        p = ModelParams(1.0, 0.3)
        fld = solve_newton(TorusGeometry(dom64, one_plus), p)
        fld0 = solve_newton(TorusGeometry(dom64, with_zero), p)
        assert np.array_equal(fld0.v, fld.v)
        assert np.array_equal(fld0.grad_u_sq, fld.grad_u_sq, equal_nan=True)
        assert np.count_nonzero(np.isnan(fld0.grad_u_sq)) == 1
        for a in (0.5, 1.0, 2.0):
            assert identity_check(fld0, a) == identity_check(fld, a)

    def test_bad_a_rejected(self, fld128):
        with pytest.raises(ValueError):
            identity_check(fld128, 0.0)
        with pytest.raises(ValueError):
            identity_check(fld128, -1.0)

    @pytest.mark.parametrize("a", [float("nan"), float("inf")])
    def test_non_finite_a_rejected(self, fld128, a):
        with pytest.raises(ValueError, match="a must be finite and positive"):
            identity_check(fld128, a)


def _pointwise_u0_gradient(geometry):
    """Reference grad u0: one row-series evaluation per vortex on the
    whole grid, with no unfolding and no roll."""
    domain = geometry.domain
    X1, X2 = domain.mesh
    L1, L2 = domain.periods
    gx = np.zeros(domain.grid_shape)
    gy = np.zeros(domain.grid_shape)
    for (p, m, sgn) in geometry.vortices.signed():
        ex, ey = ewald.green_gradient(X1 - p[0], X2 - p[1], L1, L2)
        coef = -4.0 * np.pi * m * sgn
        gx += coef * ex
        gy += coef * ey
    return gx, gy


def _mixed_geometry(domain):
    L1, L2 = domain.periods
    return TorusGeometry(domain, VortexSet(
        positive_vortices=(((0.3 * L1, 0.2 * L2), 1),
                           ((0.71 * L1, 0.64 * L2), 2)),
        negative_vortices=(((0.1 * L1, 0.85 * L2), 1),
                           ((0.55 * L1, 0.05 * L2), 2))))


class TestWrapAroundVortex:
    # x = 3.98 lies within h/2 of the period L1 = 4 (h = 1/16), so the
    # vortex snaps to cell index 0, not 64
    def test_snaps_to_cell_zero(self, dom64):
        vs = VortexSet(positive_vortices=(((3.98, 2.0), 1),))
        p = ModelParams(1.0, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            fld = solve_newton(TorusGeometry(dom64, vs), p)
            # the same vortex moved by exactly 32 cells in x
            ref = solve_newton(TorusGeometry(
                dom64, VortexSet(positive_vortices=(((2.0, 2.0), 1),))), p)
        cell = (0, 32)
        assert fld.geometry.cells == (cell,)
        assert fld.vortices.positive_vortices == (((0.0, 2.0), 1),)
        # Lap u0 = 4pi delta - K: the charge sits on cell (0, 32) alone
        h1, h2 = dom64.spacings
        K = 4.0 * np.pi / dom64.area
        lap = laplacian(dom64, TorusGeometry(dom64, vs).u0) + K
        want = np.zeros(dom64.grid_shape)
        want[cell] = 4.0 * np.pi / (h1 * h2)
        assert np.max(np.abs(lap - want)) <= 1e-9 * abs(want[cell])
        nan = np.isnan(fld.grad_u_sq)
        assert nan[cell] and np.count_nonzero(nan) == 1
        # the identity's vortex-cell limit is read at (0, 32): the rows
        # are finite, pass, and equal those of the translated field
        for a in (0.5, 1.0, 2.0):
            _, _, rel = identity_check(fld, a)
            _, _, rel_ref = identity_check(ref, a)
            assert rel < 1e-3
            assert rel == pytest.approx(rel_ref, rel=1e-9)
        assert np.max(np.abs(fld.v - np.roll(ref.v, -32, axis=0))) < 1e-12


class TestGeometry:
    def test_snaps_and_records_the_moves(self, dom64):
        # (2.012, 2.0) is 0.012 from the grid point (2, 2) (h = 1/16)
        vs = VortexSet(positive_vortices=(((2.012, 2.0), 1),),
                       negative_vortices=(((1.0, 3.0), 1),))
        with pytest.warns(UserWarning, match="1 vortex position.s. snapped"):
            geo = TorusGeometry(dom64, vs)
        assert geo.vortices.signed() == [((2.0, 2.0), 1, 1),
                                         ((1.0, 3.0), 1, -1)]
        assert geo.cells == ((32, 32), (16, 48))
        assert geo.snap_moves == (((2.012, 2.0), (2.0, 2.0)),)
        # re-snapping a snapped set moves nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = TorusGeometry(dom64, geo.vortices)
        assert again.snap_moves == () and again.vortices == geo.vortices

    @pytest.mark.parametrize("point, cell", [((4.0, 2.0), (0, 32)),
                                             ((-1.0, 1.0), (48, 16))])
    def test_a_whole_period_away_is_no_move(self, dom64, point, cell):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            geo = TorusGeometry(dom64, VortexSet(
                positive_vortices=((point, 1),)))
        assert geo.snap_moves == () and geo.cells == (cell,)

    def test_a_move_across_the_seam_is_recorded(self, dom64):
        # 3.99 is 0.01 short of the period: it snaps to x = 0
        with pytest.warns(UserWarning, match="1 vortex position.s. snapped"):
            geo = TorusGeometry(dom64, VortexSet(
                positive_vortices=(((3.99, 2.0), 1),)))
        assert geo.snap_moves == (((3.99, 2.0), (0.0, 2.0)),)

    def test_snap_moves_reach_both_solvers(self, dom64):
        vs = VortexSet(positive_vortices=(((2.012, 2.0), 1),))
        with pytest.warns(UserWarning, match="snapped to the grid"):
            geo = TorusGeometry(dom64, vs)
        p = ModelParams(1.0, 0.3)
        newt = solve_newton(geo, p)
        mono = solve_monotone(geo, p)
        for fld in (newt, mono):
            assert fld.diagnostics["snap_moves"] == [[[2.012, 2.0],
                                                      [2.0, 2.0]]]
            assert fld.geometry is geo
        on_grid = solve_newton(TorusGeometry(dom64, geo.vortices), p)
        assert on_grid.diagnostics["snap_moves"] == []
        assert np.array_equal(on_grid.v, newt.v)

    def test_cached_members_are_read_only(self, fld128):
        geo = replace(fld128).geometry
        assert geo is fld128.geometry
        pohozaev_value(fld128, vortex_id=0, r=1.0)  # a ball and a ring
        assert {key[0] for key in geo._memo} == {"ball", "ring"}
        arrays = [geo.u0, geo.u0_regular, *geo._sources]
        for value in geo._memo.values():
            arrays += value
        for a in arrays:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0.0
        with pytest.raises(TypeError):
            geo.cells[0] = (0, 0)
        with pytest.raises(AttributeError):
            geo.u0 = np.zeros(geo.domain.grid_shape)
        assert np.array_equal(fld128.u, geo.u0 + fld128.v)

    def test_balls_and_rings_are_built_once(self, fld128, monkeypatch):
        geo = TorusGeometry(fld128.domain, fld128.vortices)
        fld = replace(fld128, geometry=geo)
        first = pohozaev_value(fld, vortex_id=0, r=0.75)
        calls = []
        green_value = ewald.green_value

        def counting(*args, **kwargs):
            calls.append(1)
            return green_value(*args, **kwargs)

        monkeypatch.setattr(ewald, "green_value", counting)
        assert pohozaev_value(replace(fld), vortex_id=0, r=0.75) == first
        assert calls == []
        # an audit on a fresh geometry reads nothing cached
        fresh = replace(fld, geometry=TorusGeometry(fld.domain, fld.vortices))
        assert pohozaev_value(fresh, vortex_id=0, r=0.75) == first
        assert calls == [1]


class TestGridEwald:
    @pytest.mark.parametrize("periods, grid_shape", [
        ((4.0, 4.0), (32, 32)),      # the real-space stencil wraps
        ((4.0, 2.0), (64, 128)),     # anisotropic spacing
        ((4.0, 4.0), (256, 256)),
    ], ids=["wrap32", "rect", "256"])
    def test_matches_pointwise_sum(self, periods, grid_shape):
        dom = TorusDomain(periods=periods, grid_shape=grid_shape)
        geo = _mixed_geometry(dom)
        gx, gy = _u0_gradient(geo)
        rx, ry = _pointwise_u0_gradient(geo)
        finite = np.isfinite(rx) & np.isfinite(ry)
        assert np.array_equal(finite, np.isfinite(gx) & np.isfinite(gy))
        assert np.count_nonzero(~finite) == 4
        scale = max(np.abs(rx[finite]).max(), np.abs(ry[finite]).max())
        err = max(np.abs(gx - rx)[finite].max(), np.abs(gy - ry)[finite].max())
        assert err <= 1e-13 * scale

    @pytest.mark.parametrize("periods, grid_shape", [
        ((4.0, 4.0), (32, 32)),
        ((4.0, 2.0), (64, 128)),     # L1 > L2: the rows swap the axes
        ((4.0, 4.0), (256, 256)),
    ], ids=["wrap32", "rect", "256"])
    def test_matches_lattice_sum(self, periods, grid_shape):
        # the Ewald lattice sum is an algorithm independent of the rows;
        # the m = 0 vortex adds no term and leaves its cell finite
        dom = TorusDomain(periods=periods, grid_shape=grid_shape)
        L1, L2 = periods
        geo = _mixed_geometry(dom)
        geo = TorusGeometry(dom, replace(geo.vortices, positive_vortices=(
            *geo.vortices.positive_vortices, ((0.5 * L1, 0.5 * L2), 0))))
        gx, gy = _u0_gradient(geo)
        X1, X2 = dom.mesh
        rx = np.zeros(grid_shape)
        ry = np.zeros(grid_shape)
        for (p, m, sgn) in geo.vortices.signed():
            if m:
                ex, ey = ewald_lattice.green_gradient(X1 - p[0], X2 - p[1],
                                                      L1, L2)
                rx += -4.0 * np.pi * m * sgn * ex
                ry += -4.0 * np.pi * m * sgn * ey
        nan = np.zeros(grid_shape, dtype=bool)
        for cell, (p, m, sgn) in zip(geo.cells, geo.vortices.signed()):
            nan[cell] = m >= 1
        assert np.count_nonzero(nan) == 4
        assert np.array_equal(np.isnan(gx), nan)
        assert np.array_equal(np.isnan(gy), nan)
        assert np.isfinite(gx[~nan]).all() and np.isfinite(gy[~nan]).all()
        scale = max(np.abs(rx[~nan]).max(), np.abs(ry[~nan]).max())
        err = max(np.abs(gx - rx)[~nan].max(), np.abs(gy - ry)[~nan].max())
        assert err <= 1e-13 * scale

    @pytest.mark.parametrize("which", ["solved", "mixed"])
    def test_identity_matches_pointwise_assembly(self, fld128, dom64,
                                                 monkeypatch, which):
        if which == "solved":
            fld = fld128
        else:
            X1, _ = dom64.mesh
            fld = TorusField(geometry=_mixed_geometry(dom64),
                             params=ModelParams(1.0, 0.3),
                             v=0.1 * np.cos(2.0 * np.pi * X1 / 4.0))
        grid = [identity_check(fld, a)[2] for a in (0.5, 1.0, 2.0)]
        monkeypatch.setattr(torus, "_u0_gradient", _pointwise_u0_gradient)
        # grad_u_sq is cached on fld: the reference is a field on a
        # freshly built geometry, so nothing it reads was cached before
        fresh = TorusField(geometry=TorusGeometry(fld.domain, fld.vortices),
                           params=fld.params, v=fld.v)
        ref = [identity_check(fresh, a)[2] for a in (0.5, 1.0, 2.0)]
        assert grid == pytest.approx(ref, rel=0, abs=1e-14)


def _pointwise_u0_at(geometry, px, py):
    """Reference u0 and grad u0 at points: one Ewald call per vortex."""
    L1, L2 = geometry.domain.periods
    val = np.zeros(px.shape)
    gx = np.zeros(px.shape)
    gy = np.zeros(px.shape)
    for (p, m, sgn) in geometry.vortices.signed():
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
        geo = _mixed_geometry(dom64) if which == "mixed" \
            else TorusGeometry(dom64, VortexSet())
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
        got = _u0_at(geo, px, py, want_grad=True)
        want = _pointwise_u0_at(geo, px, py)
        for g, w in zip(got, want):
            _assert_rel_close(g, w)
        val, gx, gy = _u0_at(geo, px, py, want_grad=False)
        assert np.array_equal(val, got[0])
        assert gx is None and gy is None

    @pytest.mark.parametrize("which", ["mixed", "none"])
    def test_u0_regular_matches_pointwise_sum(self, dom64, which):
        geo = _mixed_geometry(dom64) if which == "mixed" \
            else TorusGeometry(dom64, VortexSet())
        L1, L2 = dom64.periods
        entries = geo.vortices.signed()
        want = []
        for k, (p, m, sgn) in enumerate(entries):
            val = -4.0 * np.pi * m * sgn * ewald.regular_part(L1, L2)
            for j, (q, mq, sq) in enumerate(entries):
                if j != k:
                    val += -4.0 * np.pi * mq * sq * float(
                        ewald.green_value(p[0] - q[0], p[1] - q[1], L1, L2))
            want.append(val)
        _assert_rel_close(geo.u0_regular, np.array(want))


class TestAuditGrids:
    def test_audits_transform_each_grid_once(self, dom64, monkeypatch):
        vs = VortexSet(positive_vortices=(((1.0, 1.0), 1), ((3.0, 1.0), 1)),
                       negative_vortices=(((2.0, 3.0), 1),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            fld = solve_newton(TorusGeometry(dom64, vs), ModelParams(1.0, 0.2))
        n = len(fld.vortices.signed())

        def audits(f):
            return ([identity_check(f, a) for a in (0.5, 1.0, 2.0)]
                    + [pohozaev_value(f, vortex_id=k, r=0.5)
                       for k in range(n)])

        rfft2 = np.fft.rfft2
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return rfft2(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft2", counting)
        got = audits(fld)
        monkeypatch.undo()
        # grad v, one transform per component, for all three a-values
        # and every Pohozaev ring; grad u0 takes none
        assert len(calls) == 2
        fresh = TorusField(geometry=fld.geometry, params=fld.params, v=fld.v)
        assert got == audits(fresh)

    def test_cached_grids_are_read_only(self, fld128):
        fld = replace(fld128)
        assert fld.u is fld.u
        for grid in (fld.u, fld.f, fld.q, fld.F2, fld.residual, fld.potential,
                     *fld.grad_v, fld.grad_u_sq):
            with pytest.raises(ValueError):
                grid[(0,) * grid.ndim] = 0.0
        assert np.array_equal(fld.u, fld128.u0 + fld128.v)


class TestResolutionGuard:
    def test_warns_when_grid_too_coarse(self, one_plus):
        dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(32, 32))
        with pytest.warns(ResolutionWarning):
            fld = solve_newton(TorusGeometry(dom, one_plus),
                               ModelParams(1.0, 0.25))
        assert fld.diagnostics["stages"][-1]["resolved"] is False

    def test_coarser_axis_decides_and_is_recorded(self):
        # h2 = 0.03125 resolves eps/4 = 0.05, h1 = 0.0625 does not
        dom = TorusDomain(periods=(4.0, 2.0), grid_shape=(64, 64))
        vs = VortexSet(positive_vortices=(((2.0, 1.0), 1),))
        with pytest.warns(ResolutionWarning):
            fld = solve_newton(TorusGeometry(dom, vs), ModelParams(1.0, 0.2))
        stage = fld.diagnostics["stages"][-1]
        assert stage["resolved"] is False
        assert stage["h_over_eps"] == pytest.approx(0.3125, rel=1e-15)

    def test_resolved_grid_recorded(self, fld128):
        # each stage reports the spacing of the grid it ran on
        for stage in fld128.diagnostics["stages"]:
            h = max(4.0 / n for n in stage["grid_shape"])
            assert stage["resolved"] is True
            assert stage["h_over_eps"] == pytest.approx(
                h / stage["epsilon"], rel=1e-15)


def _trig(domain):
    # band-limited: every mode lies below the 64^2 Nyquist wavenumbers
    x, y = domain.mesh
    k1, k2 = (2.0 * np.pi / L for L in domain.periods)
    return (1.3 + np.cos(3 * k1 * x + 0.2) * np.sin(31 * k2 * y)
            + np.sin(31 * k1 * x) * np.cos(5 * k2 * y - 1.0)
            + 0.5 * np.cos(7 * k1 * x - 12 * k2 * y))


def _warm_chain(dom, vs, sched, gate=1.0):
    # one Newton solve per stage on dom, each warm-started from the last,
    # so nothing leaves the target grid; every link but the last stops at
    # gate times the solver gate, the last at the solver gate
    geo = TorusGeometry(dom, vs)
    v = np.zeros(dom.grid_shape)
    for k, eps in enumerate(sched):
        fld = torus._newton_core(geo, ModelParams(1.0, eps), v, 60,
                                 1.0 if k == len(sched) - 1 else gate)
        v = fld.v
    return fld


def _four_vortices():
    q = 4.0 / 64  # every vortex is a point of the 64^2 grid
    return VortexSet(
        positive_vortices=(((8 * q, 12 * q), 1), ((40 * q, 20 * q), 1)),
        negative_vortices=(((20 * q, 44 * q), 1), ((52 * q, 52 * q), 1)))


class TestCoarseStages:
    """A cold start runs every epsilon, the last included, on the
    coarsest resolving grid that holds every vortex, then polishes the
    last epsilon once on the target grid when that grid is finer; every
    stage but the last stops at _STAGE_GATE times the solver gate."""

    def test_resample_is_exact_for_band_limited_data(self):
        coarse = TorusDomain(periods=(4.0, 2.0), grid_shape=(64, 64))
        fine = TorusDomain(periods=(4.0, 2.0), grid_shape=(256, 256))
        err = np.max(np.abs(fine._resample(_trig(coarse)) - _trig(fine)))
        assert err <= 1e-13

    def test_stage_grids(self, fld128):
        # eps = 0.25 is resolved by 64^2 (h = eps/4), the later stages not
        shapes = [st["grid_shape"] for st in fld128.diagnostics["stages"]]
        assert shapes == [(64, 64), (128, 128), (128, 128)]
        assert fld128.domain.grid_shape == (128, 128)
        assert fld128.v.shape == fld128.u0.shape == (128, 128)

    def test_odd_vortex_cell_keeps_target_grid(self):
        dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(128, 128))
        vs = VortexSet(positive_vortices=(((65 * 4.0 / 128, 2.0), 1),))
        sched = [0.25, 0.2, 0.15]
        fld = solve_newton(TorusGeometry(dom, vs), ModelParams(1.0, 0.15),
                           continuation=sched)
        for stage in fld.diagnostics["stages"]:
            assert stage["grid_shape"] == (128, 128)
        # the same path as a stage-by-stage warm-started chain whose
        # intermediate links stop at the same looser gate
        oracle = _warm_chain(dom, vs, sched, torus._STAGE_GATE)
        assert np.array_equal(fld.v, oracle.v)

    def test_matches_target_grid_chain(self):
        # the last epsilon needs the target grid itself: no polish
        dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(256, 256))
        vs = _four_vortices()
        sched = [0.25, 0.2, 0.15, 0.12]
        fld = solve_newton(TorusGeometry(dom, vs), ModelParams(1.0, 0.12),
                           continuation=sched)
        stages = fld.diagnostics["stages"]
        assert [st["grid_shape"] for st in stages] == [
            (64, 64), (128, 128), (128, 128), (256, 256)]
        assert all(st["resolved"] for st in stages)
        # oracle: every stage on the target grid, warm-started by hand
        oracle = _warm_chain(dom, vs, sched)
        assert np.max(np.abs(fld.v - oracle.v)) <= 1e-10
        assert fld.residual_norm() <= 1e-10 * 0.12 ** -2

    def test_last_epsilon_polished_on_target_grid(self):
        dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(256, 256))
        vs = _four_vortices()
        sched = [0.25, 0.2, 0.15]
        fld = solve_newton(TorusGeometry(dom, vs), ModelParams(1.0, 0.15),
                           continuation=sched)
        stages = fld.diagnostics["stages"]
        assert [(st["epsilon"], st["grid_shape"]) for st in stages] == [
            (0.25, (64, 64)), (0.2, (128, 128)), (0.15, (128, 128)),
            (0.15, (256, 256))]
        for st in stages[:-1]:
            assert st["residual"] <= torus._STAGE_GATE * 1e-10 \
                * st["epsilon"] ** -2
        # oracle: every stage on the target grid at the solver gate
        oracle = _warm_chain(dom, vs, sched)
        assert np.max(np.abs(fld.v - oracle.v)) <= 1e-10
        assert fld.residual_norm() <= 1e-10 * 0.15 ** -2

    def test_single_epsilon_plan(self, one_plus):
        dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(128, 128))
        geo = TorusGeometry(dom, one_plus)
        p = ModelParams(1.0, 0.25)
        cold = solve_newton(geo, p)
        assert [st["grid_shape"] for st in cold.diagnostics["stages"]] == [
            (64, 64), (128, 128)]
        assert cold.residual_norm() <= 1e-10 * 0.25 ** -2
        # a warm start never leaves the target grid
        warm = solve_newton(geo, p, v_init=cold.v)
        assert [st["grid_shape"] for st in warm.diagnostics["stages"]] == [
            (128, 128)]
