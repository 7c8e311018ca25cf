"""Small-epsilon diagnostics tests.

The exact circle-cell overlap is checked against adaptive quadrature,
the ball integrals against their closed-form limits, and the sweep
machinery against one 128^2 family plus synthetic record lists that
exercise every verdict branch.  Discretization floors (sup_K and the
blow-up deviation stop improving once the solver's h^2 error
dominates) are asserted where they are known to appear.
"""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from vortexlab import (
    Alternative,
    GeometryError,
    ModelParams,
    ResolutionError,
    SweepRecord,
    TorusDomain,
    TorusGeometry,
    VortexSet,
    classify_alternative,
    export_sweep_csv,
    find_topological,
    integrate_radial,
    mass_partition,
    pohozaev_value,
    quantization_value,
    rescale_blowup,
    run_sweep,
    solve_newton,
    squared_ratio_test,
    total_mass,
    vortex_mass,
)
from vortexlab import ewald
from vortexlab import torus as torus_mod
from vortexlab.asymptotics import _ball_coverage, _disk_corner_area

pytestmark = [
    pytest.mark.filterwarnings("ignore::vortexlab.torus.ResolutionWarning"),
    pytest.mark.filterwarnings("ignore:.*snapped to the grid"),
]

EPSILONS = np.geomspace(0.25, 0.05, 8)


@pytest.fixture(scope="module")
def dom128():
    return TorusDomain(periods=(4.0, 4.0), grid_shape=(128, 128))


@pytest.fixture(scope="module")
def one_plus():
    return VortexSet(positive_vortices=(((2.0, 2.0), 1),))


@pytest.fixture(scope="module")
def sweep128(dom128, one_plus):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_sweep(TorusGeometry(dom128, one_plus),
                         1.0, EPSILONS, keep_fields=True)


@pytest.fixture(scope="module")
def type_one():
    return integrate_radial(-1.0, tau=1.0)


@pytest.fixture(scope="module")
def limit_profile():
    return find_topological((-8.0, 8.0), nu=1.0, tau=1.0, vortex_sign=1)


def _corner_area_brute(X, Y):
    # measure of {x <= X, y <= Y} inside the unit disk
    if X <= -1.0 or Y <= -1.0:
        return 0.0

    def height(x):
        top = min(Y, np.sqrt(1.0 - x * x))
        return max(top + np.sqrt(1.0 - x * x), 0.0)

    val, _ = quad(height, -1.0, min(X, 1.0), limit=200)
    return val


class TestCornerArea:
    CASES = [(1.0, 1.0), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (-1.0, 0.3),
             (0.3, -1.0), (0.95, 0.2), (0.2, 0.95), (-0.4, -0.3),
             (0.7, -0.6), (-0.8, 0.9), (0.5, 0.5)]

    def test_special_values(self):
        assert _disk_corner_area(1.0, 1.0) == pytest.approx(np.pi, rel=1e-14)
        assert _disk_corner_area(0.0, 0.0) == pytest.approx(np.pi / 4,
                                                            rel=1e-14)
        assert _disk_corner_area(0.0, 1.0) == pytest.approx(np.pi / 2,
                                                            rel=1e-14)
        assert float(_disk_corner_area(-1.0, 0.5)) == 0.0

    @pytest.mark.parametrize("X,Y", CASES)
    def test_matches_quadrature(self, X, Y):
        assert float(_disk_corner_area(X, Y)) == pytest.approx(
            _corner_area_brute(X, Y), abs=1e-8)

    def test_clamped_outside_inputs(self):
        # arguments beyond the disk bounding box behave like +-1
        assert float(_disk_corner_area(3.0, 3.0)) == pytest.approx(
            np.pi, rel=1e-14)
        assert float(_disk_corner_area(-3.0, 0.0)) == 0.0


class TestBallCoverage:
    def test_total_area_is_pi_r_squared(self, dom128):
        h1, h2 = dom128.spacings
        for r in (0.3, 0.8, 1.3):
            w = _ball_coverage(dom128, (2.0, 2.0), r)
            area = float(np.sum(w)) * h1 * h2
            assert area == pytest.approx(np.pi * r * r, rel=1e-12)

    def test_off_center_and_wrapped(self, dom128):
        h1, h2 = dom128.spacings
        w = _ball_coverage(dom128, (0.1, 3.9), 0.7)
        assert float(np.sum(w)) * h1 * h2 == pytest.approx(
            np.pi * 0.49, rel=1e-12)
        assert np.all((w >= 0.0) & (w <= 1.0))


class TestLocalMass:
    def test_report_matches_direct_call(self, sweep128):
        rec = sweep128[-1]
        rep = rec.per_vortex[0]
        direct = vortex_mass(rec.field, 0, rec.K_radius)
        assert rep.mass == direct
        assert rep.quantization == quantization_value(rec.field, 0,
                                                      rec.K_radius)
        assert rep.pohozaev == pohozaev_value(rec.field, vortex_id=0,
                                              r=rec.K_radius)

    def test_mass_concentrates_to_full_flux(self, sweep128):
        masses = [rec.per_vortex[0].mass for rec in sweep128]
        assert all(b > a for a, b in zip(masses, masses[1:]))
        assert masses[-1] == pytest.approx(4.0 * np.pi, rel=5e-3)
        # the Yukawa tail outside the ball keeps the first step well short
        assert masses[0] < 0.6 * 4.0 * np.pi

    def test_beta_proxy_tends_to_minus_two(self, sweep128):
        gaps = [abs(rec.per_vortex[0].beta_proxy + 2.0) for rec in sweep128]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-2

    def test_partition_is_additive(self, sweep128):
        fld = sweep128[-1].field
        parts = mass_partition(fld, 1.25)
        recon = sum(parts["masses"]) + parts["exterior"]
        assert recon == pytest.approx(parts["total"], rel=1e-12)
        assert parts["total"] == pytest.approx(total_mass(fld), rel=1e-12)


class TestQuantization:
    def test_single_vortex_limit(self, sweep128):
        # int q_tau -> 4 pi (tau + 1) m^2 = 8 pi at tau = 1, m = 1
        q = [rec.per_vortex[0].quantization for rec in sweep128]
        assert q[-1] == pytest.approx(8.0 * np.pi, rel=5e-2)
        assert abs(q[-1] - 8.0 * np.pi) < abs(q[0] - 8.0 * np.pi)

    def test_double_vortex_limit(self):
        # m = 2 quadruples the quantization constant
        dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(256, 256))
        vs = VortexSet(positive_vortices=(((2.0, 2.0), 2),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fld = solve_newton(TorusGeometry(dom, vs), ModelParams(1.0, 0.08),
                               continuation=list(np.geomspace(0.2, 0.08, 5)))
        q = quantization_value(fld, 0, 1.25)
        assert q == pytest.approx(32.0 * np.pi, rel=5e-2)


class TestPohozaevTorus:
    def test_vacuum_field_balances(self, dom128):
        fld = solve_newton(TorusGeometry(dom128, VortexSet()),
                           ModelParams(1.0, 0.2))
        _, _, resid = pohozaev_value(fld, center=(1.0, 1.0), r=0.8)
        assert resid < 1e-6

    def test_vortex_ball_balances(self, sweep128):
        for rec in sweep128:
            assert rec.per_vortex[0].pohozaev[2] < 1e-4

    def test_residual_shrinks_under_refinement(self, one_plus):
        vals = []
        for n in (128, 256):
            dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(n, n))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fld = solve_newton(TorusGeometry(dom, one_plus),
                                   ModelParams(1.0, 0.15),
                                   continuation=[0.25, 0.2, 0.15])
            vals.append(pohozaev_value(fld, vortex_id=0, r=1.0)[2])
        assert vals[1] < vals[0] / 2.0


class TestPohozaevRadial:
    def test_type_one_balances(self):
        sol = integrate_radial(-1.0, tau=1.0)
        _, _, resid = pohozaev_value(sol, r=10.0)
        # trapezoid floor at the default 200 points/decade
        assert resid < 5e-5

    def test_residual_quarters_with_grid_density(self):
        resids = []
        for ppd in (200, 400):
            sol = integrate_radial(-1.0, tau=1.0, points_per_decade=ppd)
            resids.append(pohozaev_value(sol, r=10.0)[2])
        assert resids[1] < resids[0] / 2.0

    @pytest.mark.parametrize("torus_only", [{"vortex_id": 7},
                                            {"center": (9.0, 9.0)}])
    def test_torus_only_arguments_rejected(self, type_one, torus_only):
        with pytest.raises(ValueError, match="only on the torus"):
            pohozaev_value(type_one, r=10.0, n_theta=3, **torus_only)

    def test_truncated_volume_tends_to_pi_beta_sq(self):
        # the full-plane balance: 2 pi int 2 F2 r dr -> pi beta^2
        sol = integrate_radial(-1.0, tau=1.0)
        vol, _, _ = pohozaev_value(sol)
        assert vol == pytest.approx(np.pi * sol.beta ** 2, rel=1e-4)


class TestGeometryGuards:
    def test_ball_beyond_half_period(self, sweep128):
        with pytest.raises(GeometryError):
            vortex_mass(sweep128[-1].field, 0, 2.5)

    @pytest.mark.parametrize("vortex_id", [1, 5, -1, True, 0.0, "0"])
    @pytest.mark.parametrize("audit", [
        lambda fld, k: vortex_mass(fld, k, 0.5),
        lambda fld, k: quantization_value(fld, k, 0.5),
        lambda fld, k: pohozaev_value(fld, vortex_id=k, r=0.5)],
        ids=["mass", "quantization", "pohozaev"])
    def test_vortex_id_outside_the_vortices(self, sweep128, audit, vortex_id):
        # one vortex: only 0 names it; -1 is not read from the end
        with pytest.raises(ValueError, match=r"vortex_id must be an "
                           r"integer in range\(1\), one per vortex"):
            audit(sweep128[-1].field, vortex_id)

    def test_numpy_integer_vortex_id_accepted(self, sweep128):
        fld = sweep128[-1].field
        assert vortex_mass(fld, np.int64(0), 0.5) == vortex_mass(fld, 0, 0.5)

    def test_overlapping_vortex_balls(self, dom128):
        vs = VortexSet(positive_vortices=(((1.3, 1.2), 1), ((2.8, 2.9), 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fld = solve_newton(TorusGeometry(dom128, vs),
                               ModelParams(1.0, 0.15),
                               continuation=[0.2, 0.17, 0.15])
        # neighbor at min-image distance 2.27; radius 1.2 overlaps it
        with pytest.raises(GeometryError):
            vortex_mass(fld, 0, 1.2)
        assert vortex_mass(fld, 0, 1.0) > 0.0

    def test_free_center_too_close_to_vortex(self, sweep128):
        with pytest.raises(GeometryError):
            pohozaev_value(sweep128[-1].field, center=(2.3, 2.0), r=0.5)

    def test_blowup_scale_below_grid(self, sweep128):
        with pytest.raises(ResolutionError):
            rescale_blowup(sweep128[-1].field, (2.0, 2.0), scale=1e-3)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0, 0.0])
    def test_blowup_scale_must_be_finite_positive(self, sweep128, scale):
        with pytest.raises(ValueError,
                           match="scale must be finite and positive"):
            rescale_blowup(sweep128[-1].field, (2.0, 2.0), scale=scale)

    @pytest.mark.parametrize("n_theta", [0, -3, 2.5, True, None])
    def test_n_theta_must_be_positive_integer(self, sweep128, type_one,
                                              n_theta):
        fld = sweep128[-1].field
        with pytest.raises(ValueError, match="n_theta"):
            pohozaev_value(fld, vortex_id=0, r=1.0, n_theta=n_theta)
        with pytest.raises(ValueError, match="n_theta"):
            pohozaev_value(type_one, r=10.0, n_theta=n_theta)
        with pytest.raises(ValueError, match="n_theta"):
            rescale_blowup(fld, (2.0, 2.0), n_theta=n_theta)

    def test_numpy_integer_n_theta_accepted(self, sweep128):
        fld = sweep128[-1].field
        assert pohozaev_value(fld, vortex_id=0, r=1.0, n_theta=np.int64(64)) \
            == pohozaev_value(fld, vortex_id=0, r=1.0, n_theta=64)
        bp = rescale_blowup(fld, (2.0, 2.0), n_theta=np.int64(16))
        assert bp.n_theta == 16 and type(bp.n_theta) is int


class TestBlowup:
    def test_profile_converges_then_floors(self, sweep128, limit_profile):
        # deviation from the entire-plane profile drops until the h^2
        # solver error (~2e-6/eps^2) takes over on the late records
        devs = []
        for rec in sweep128:
            bp = rescale_blowup(rec.field, (2.0, 2.0))
            sel = bp.y <= 3.0
            ref = np.interp(np.log(bp.y[sel]), np.log(limit_profile.r),
                            limit_profile.u)
            devs.append(float(np.max(np.abs(bp.angular_mean[sel] - ref))))
        early = devs[:4]
        assert all(b < a for a, b in zip(early, early[1:]))
        assert early[-1] < 2e-2 * early[0]

    def test_profile_is_radially_symmetric(self, sweep128):
        bp = rescale_blowup(sweep128[-1].field, (2.0, 2.0))
        assert float(np.max(bp.angular_variance)) < 1e-4

    def test_shifted_grid_carries_log_normalization(self, sweep128):
        rec = sweep128[-1]
        bp = rescale_blowup(rec.field, (2.0, 2.0))
        want = rec.field.u - 2.0 * np.log(rec.epsilon)
        assert np.array_equal(bp.w, want)


class TestSweepFamily:
    def test_verdict_is_uniform_zero(self, sweep128):
        verdict = classify_alternative(sweep128)
        assert verdict.kind is Alternative.A_UNIFORM_ZERO
        assert verdict.evidence["n_failed"] == 0

    def test_sup_shrinks_strictly_early(self, sweep128):
        sups = [abs(r.sup_K) for r in sweep128[:5]]
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_total_abs_mass_is_flux_on_vacuum_branch(self, sweep128):
        # u <= 0 pointwise makes |f| integrate to exactly 4 pi; the
        # under-resolved tail records (h > eps/4) overshoot zero by
        # ~1e-4 in a few cells, which inflates |f| at the same scale
        clean = [r for r in sweep128 if float(r.field.u.max()) <= 0.0]
        assert len(clean) >= 5
        for rec in clean:
            assert rec.total_abs_mass == pytest.approx(4 * np.pi, rel=1e-9)
        for rec in sweep128:
            assert rec.total_abs_mass == pytest.approx(4 * np.pi, rel=1e-4)

    def test_ratio_test_reports_pairs(self, sweep128):
        vals = [max(abs(r.sup_K), abs(r.inf_K)) for r in sweep128]
        passed, detail = squared_ratio_test([r.epsilon for r in sweep128],
                                            vals)
        assert passed is not None
        assert len(detail["pairs"]) == 5
        # on 128^2 the last pair sits on the discretization floor, so a
        # clean pass is only expected at finer resolution
        assert detail["margins"][0] > 0.0

    def test_schedule_guards(self, dom128, one_plus):
        with pytest.raises(ValueError):
            run_sweep(TorusGeometry(dom128, one_plus), 1.0, [0.1, 0.2])
        with pytest.raises(ValueError):
            run_sweep(TorusGeometry(dom128, one_plus),
                      1.0, [0.2, 0.1], K_radius=2.5)
        with pytest.raises(ValueError):
            run_sweep(TorusGeometry(dom128, one_plus), 1.0, [0.2, 0.1],
                      first_continuation=[0.3, 0.25])


def _rec(eps, sup, inf, error=None):
    return SweepRecord(epsilon=eps, sup_K=sup, inf_K=inf,
                       total_abs_mass=4 * np.pi, error=error)


class TestSweepGeometry:
    @pytest.mark.parametrize("K_radius", [-1.0, 0.0, float("nan"),
                                          float("inf")])
    def test_K_radius_refused_before_solving(self, dom128, one_plus,
                                             monkeypatch, K_radius):
        def solve(*args, **kwargs):
            raise AssertionError("solved before K_radius was checked")

        monkeypatch.setattr(torus_mod, "solve_newton", solve)
        with pytest.raises(ValueError,
                           match="K_radius must be finite and positive"):
            run_sweep(TorusGeometry(dom128, one_plus), 1.0, [0.2, 0.1],
                      K_radius=K_radius)

    def test_K_sits_on_the_snapped_vortices(self, dom128, one_plus):
        # (2.012, 2.0) snaps to (2, 2) (h = 1/32): K, the balls and the
        # solution's singularity all sit on the snapped point
        off = VortexSet(positive_vortices=(((2.012, 2.0), 1),))
        eps = [0.3, 0.25]
        got = run_sweep(TorusGeometry(dom128, off), 1.0, eps, K_radius=1.0)
        want = run_sweep(TorusGeometry(dom128, one_plus), 1.0, eps,
                         K_radius=1.0)
        for a, b in zip(got, want):
            assert (a.sup_K, a.inf_K) == (b.sup_K, b.inf_K)
            assert a.per_vortex == b.per_vortex

    def test_one_ring_sample_per_sweep(self, one_plus, monkeypatch):
        # every record reads the same Pohozaev ring: one u0 and one
        # grad u0 lattice sum for the whole sweep
        dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(64, 64))
        calls = []
        for name in ("green_value", "green_gradient"):
            fn = getattr(ewald, name)

            def counting(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(ewald, name, counting)
        records = run_sweep(TorusGeometry(dom, one_plus), 1.0,
                            [0.3, 0.25, 0.2], K_radius=1.0)
        assert all(rec.ok for rec in records)
        assert sorted(calls) == ["green_gradient", "green_value"]
        assert len({id(rec.field.geometry) for rec in records}) == 1


class TestVerdictBranches:
    def test_alternative_b(self):
        recs = [_rec(e, -0.5, -1.0) for e in (0.2, 0.1, 0.05)]
        assert classify_alternative(recs).kind is Alternative.B_SUP_NEGATIVE

    def test_alternative_c(self):
        recs = [_rec(e, 1.0, 0.5) for e in (0.2, 0.1, 0.05)]
        assert classify_alternative(recs).kind is Alternative.C_INF_POSITIVE

    def test_mixed_when_inf_stays_away(self):
        recs = [_rec(0.2, -0.05, -0.5), _rec(0.1, -0.02, -0.5),
                _rec(0.05, -0.005, -0.5)]
        assert classify_alternative(recs).kind is Alternative.MIXED

    def test_alternative_a_monotone(self):
        recs = [_rec(0.2, -0.05, -0.06), _rec(0.1, -0.02, -0.03),
                _rec(0.05, -0.005, -0.008)]
        assert classify_alternative(recs).kind is Alternative.A_UNIFORM_ZERO

    def test_alternative_a_floor_jitter(self):
        # values at the discretization floor need not stay ordered
        recs = [_rec(0.4, -0.05, -0.05), _rec(0.2, -5e-4, -5e-4),
                _rec(0.1, 1e-4, -1e-4), _rec(0.05, -2e-4, -2e-4)]
        assert classify_alternative(recs).kind is Alternative.A_UNIFORM_ZERO

    def test_failed_records_are_skipped(self):
        recs = [_rec(0.4, -0.05, -0.06), _rec(0.3, -0.02, -0.03),
                _rec(0.2, float("nan"), float("nan"), error="diverged"),
                _rec(0.1, -0.005, -0.008)]
        verdict = classify_alternative(recs)
        assert verdict.kind is Alternative.A_UNIFORM_ZERO
        assert verdict.evidence["n_failed"] == 1
        # resolution is unknown on failed and synthetic records
        assert recs[2].resolved is None and recs[2].minres_failed is None
        assert verdict.evidence["n_underresolved"] == 0

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            classify_alternative([_rec(0.2, -0.1, -0.1),
                                  _rec(0.1, -0.05, -0.05)])


class TestSquaredRatioHelper:
    def test_exponential_decay_passes(self):
        eps = [0.4 / 2 ** k for k in range(6)]
        vals = [np.exp(-1.0 / e) for e in eps]
        passed, detail = squared_ratio_test(eps, vals)
        assert passed is True
        assert all(m >= 0.0 for m in detail["margins"])

    def test_power_law_fails(self):
        eps = [0.4 / 2 ** k for k in range(8)]
        vals = [e ** 2 for e in eps]
        passed, _ = squared_ratio_test(eps, vals)
        assert passed is False

    def test_no_halving_pairs_is_inconclusive(self):
        eps = [0.4, 0.39, 0.38, 0.37]
        vals = [1.0, 0.9, 0.8, 0.7]
        passed, _ = squared_ratio_test(eps, vals)
        assert passed is None


class TestResolutionFlags:
    def test_underresolved_steps_are_reported(self, sweep128):
        # h = 4/128 resolves eps/4 down to eps = 0.125: four steps do not
        h = 4.0 / 128
        for rec in sweep128:
            assert rec.resolved is (h <= rec.epsilon / 4.0)
            assert rec.h_over_eps == pytest.approx(h / rec.epsilon,
                                                   rel=1e-15)
            assert rec.minres_failed == 0
        assert sum(rec.resolved is False for rec in sweep128) == 4
        verdict = classify_alternative(sweep128)
        assert verdict.evidence["n_underresolved"] == 4


class TestExport:
    def test_csv_roundtrip(self, sweep128, tmp_path):
        path = tmp_path / "sweep.csv"
        export_sweep_csv(sweep128, path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["epsilon", "sup_K", "inf_K", "total_abs_mass",
                              "error"]
        assert "v0_mass" in header and "v0_quantization" in header
        assert len(lines) == 1 + len(sweep128)
        first = lines[1].split(",")
        assert float(first[0]) == sweep128[0].epsilon  # 17 digits round-trip
        assert header[5:8] == ["resolved", "h_over_eps", "minres_failed"]
        rows = [line.split(",") for line in lines[1:]]
        assert [row[5] for row in rows] == [
            "true" if rec.resolved else "false" for rec in sweep128]
        assert [float(row[6]) for row in rows] == [
            rec.h_over_eps for rec in sweep128]
        assert [row[7] for row in rows] == ["0"] * len(sweep128)
