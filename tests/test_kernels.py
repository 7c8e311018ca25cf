"""Kernel and parameter-type tests.

Golden values were frozen from tests/oracles/kernel_oracle.py (mpmath,
50 digits) before the kernels were written.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexlab import (
    TorusDomain,
    TorusField,
    TorusGeometry,
    identity_check,
    kernels,
)
from vortexlab.model import (EPS_MIN, ModelParams, VortexSet,
                             check_hypotheses, eps_schedule)

# mpmath golden values, 25 digits
GOLDEN = {
    ("f", -1.0, 1.0): 0.09085774767294840944247961,
    ("f", 2.0, 0.5): -0.09615027534705156400135206,
    ("f", -3.0, 2.0): 0.005493020805759294978732428,
    ("df", 2.0, 0.5): 0.06281935378422365796853158,
    ("df", -1.0, 1.0): -0.03532558051623564755410456,
    ("F1", 1.0, 1.0): -0.05338806675851814746257527,
    ("F2", 0.5, 2.0): 0.03639820713002972276860064,
    ("F2", -1.0, 1.0): 0.1966119332414818525374247,
}

FUNCS = {"f": kernels.f_tau, "df": kernels.df_tau, "F1": kernels.F1_tau, "F2": kernels.F2_tau}

TAUS = [0.25, 0.5, 1.0, 2.0, 4.0]


def centered_diff(fn, u, tau, h=1e-6):
    return (fn(u + h, tau) - fn(u - h, tau)) / (2.0 * h)


class TestGoldenValues:
    def test_frozen_oracle_values(self):
        for (name, u, tau), want in GOLDEN.items():
            got = FUNCS[name](u, tau)
            assert got == pytest.approx(want, rel=1e-14), (name, u, tau)


class TestPointValues:
    def test_f_zero_at_origin(self):
        for tau in TAUS:
            assert kernels.f_tau(0.0, tau) == 0.0

    def test_f_tail_positive_and_tiny(self):
        # e^u factor forces 0+ as u -> -inf
        val = kernels.f_tau(-40.0, 1.0)
        assert 0.0 < val < 1e-15

    def test_df_at_zero_closed_form(self):
        for tau in TAUS:
            assert kernels.df_tau(0.0, tau) == pytest.approx(
                -1.0 / (tau + 1.0) ** 3, rel=1e-15
            )
        assert kernels.df_tau(0.0, 1.0) == pytest.approx(-0.125, rel=1e-15)

    def test_F1_zero_at_origin(self):
        assert kernels.F1_tau(0.0, 3.0) == 0.0

    def test_F1_lower_limit(self):
        for tau in TAUS:
            want = -1.0 / (2.0 * (tau + 1.0) * tau * tau)
            assert kernels.F1_tau(-40.0, tau) == pytest.approx(want, abs=1e-12)

    def test_F2_at_zero(self):
        for tau in TAUS:
            want = 1.0 / (2.0 * (tau + 1.0) * tau * tau)
            assert kernels.F2_tau(0.0, tau) == pytest.approx(want, rel=1e-15)

    def test_F2_vanishes_at_minus_inf(self):
        assert abs(kernels.F2_tau(-40.0, 1.0)) < 1e-15

    def test_F2_upper_limit(self):
        for tau in TAUS:
            want = (1.0 - tau) / (2.0 * tau * tau)
            assert kernels.F2_tau(40.0, tau) == pytest.approx(want, abs=1e-12)


class TestFiniteDifferenceConsistency:
    def test_df_matches_f(self):
        assert kernels.df_tau(2.0, 0.5) == pytest.approx(
            centered_diff(kernels.f_tau, 2.0, 0.5), rel=1e-6
        )

    def test_F1_matches_f(self):
        assert centered_diff(kernels.F1_tau, 1.0, 1.0) == pytest.approx(
            kernels.f_tau(1.0, 1.0), rel=1e-6
        )

    def test_F2_matches_f(self):
        assert centered_diff(kernels.F2_tau, 0.5, 2.0) == pytest.approx(
            kernels.f_tau(0.5, 2.0), rel=1e-6
        )

    def test_antiderivatives_over_grid(self):
        us = np.linspace(-20.0, 20.0, 81)
        for tau in TAUS:
            f = kernels.f_tau(us, tau)
            d1 = (kernels.F1_tau(us + 1e-6, tau) - kernels.F1_tau(us - 1e-6, tau)) / 2e-6
            d2 = (kernels.F2_tau(us + 1e-6, tau) - kernels.F2_tau(us - 1e-6, tau)) / 2e-6
            # rel 1e-6 where f is not microscopically small
            mask = np.abs(f) > 1e-12
            assert np.allclose(d1[mask], f[mask], rtol=1e-5)
            assert np.allclose(d2[mask], f[mask], rtol=1e-5)


class TestStructure:
    def test_sign_structure(self):
        us = np.linspace(-30.0, 30.0, 601)
        for tau in TAUS:
            f = kernels.f_tau(us, tau)
            assert np.all(f[us < 0] > 0.0)
            assert np.all(f[us > 0] < 0.0)
            assert f[us == 0.0][0] == 0.0

    def test_boundedness_at_tails(self):
        us = np.array([-700.0, -400.0, 400.0, 700.0])
        for tau in TAUS:
            for fn in (kernels.f_tau, kernels.df_tau, kernels.F1_tau, kernels.F2_tau):
                vals = fn(us, tau)
                assert np.all(np.isfinite(vals))

    def test_no_overflow_up_to_700(self):
        # underflow to 0 at the tails is fine; overflow/invalid are not
        us = np.linspace(-700.0, 700.0, 2801)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for tau in TAUS:
                for fn in (kernels.f_tau, kernels.df_tau, kernels.F1_tau, kernels.F2_tau):
                    assert np.all(np.isfinite(fn(us, tau)))

    def test_duality_identity(self):
        # f_tau(u) = -f_{1/tau}(-u) / tau^3 on [-30, 30]
        us = np.linspace(-30.0, 30.0, 1201)
        for tau in TAUS:
            lhs = kernels.f_tau(us, tau)
            rhs = -kernels.f_tau(-us, 1.0 / tau) / tau**3
            scale = np.maximum(np.abs(lhs), 1e-300)
            assert np.max(np.abs(lhs - rhs) / scale) < 1e-12

    def test_nonfinite_input_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            for fn in (kernels.f_tau, kernels.df_tau, kernels.F1_tau, kernels.F2_tau):
                with pytest.raises(ValueError):
                    fn(bad, 1.0)
        with pytest.raises(ValueError):
            kernels.f_tau(np.array([0.0, np.nan]), 1.0)

    def test_bad_tau_rejected(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                kernels.f_tau(0.0, bad)

    def test_df_critical_point_exists(self):
        # sup_abs_df_tau has no fallback for a cubic without a positive root
        for tau in np.geomspace(1e-4, 1e4, 400):
            assert kernels._df_critical_points(tau).size > 0

    def test_sup_abs_df_matches_scan(self):
        us = np.linspace(-40.0, 40.0, 400001)
        for tau in TAUS:
            scan = np.max(np.abs(kernels.df_tau(us, tau)))
            assert kernels.sup_abs_df_tau(tau) == pytest.approx(scan, rel=1e-6)
            assert kernels.sup_abs_df_tau(tau) >= scan - 1e-12


@given(
    u=st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
    tau=st.sampled_from(TAUS),
)
@settings(max_examples=200, deadline=None)
def test_duality_property(u, tau):
    lhs = kernels.f_tau(u, tau)
    rhs = -kernels.f_tau(-u, 1.0 / tau) / tau**3
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@given(
    u=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    tau=st.sampled_from(TAUS),
)
@settings(max_examples=200, deadline=None)
def test_sign_property(u, tau):
    # sign(f) = sign(-u); at subnormal |u| the quotient may round to 0,
    # but it never inverts sign
    val = kernels.f_tau(u, tau)
    if u > 0:
        assert val <= 0.0
        if u > 1e-300:
            assert val < 0.0
    elif u < 0:
        assert val >= 0.0
        if u < -1e-300:
            assert val > 0.0
    else:
        assert val == 0.0


@given(u=st.floats(min_value=-15.0, max_value=15.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_F1_nonpositive_property(u):
    for tau in TAUS:
        assert kernels.F1_tau(u, tau) <= 0.0


@pytest.mark.parametrize("tau", [0.01, 0.5, 1.0, 2.0, 100.0])
def test_u_f_nonpositive(tau):
    """u f_tau(u) <= 0 and f_tau(0) = 0.

    This is the certificate of radial._tail_sign: (r u')' = -r f(u), so a
    profile past u = TOPOLOGICAL_TOL_U with u' > 0 rises for good (and
    its mirror falls), and a bisection probe stops there.  A kernel that
    breaks this sign rule must restrict that early stop.
    """
    mag = np.logspace(-300.0, np.log10(700.0), 2001)
    u = np.concatenate([-mag[::-1], mag])
    assert np.all(u * kernels.f_tau(u, tau) <= 0.0)
    assert kernels.f_tau(0.0, tau) == 0.0


def _bits(x):
    return np.float64(x).view(np.int64)


def _same(a, b):
    # bit for bit, so the sign of zero counts; NaN equals NaN
    return (np.isnan(a) and np.isnan(b)) or _bits(a) == _bits(b)


SIGMA_KERNELS = ["f_tau", "df_tau", "F1_tau", "F2_tau", "q_tau"]


class TestScalarPath:
    # a float takes _two_sided's scalar path and a 0-d array the np.where
    # path; they must agree bit for bit, over- and underflow included
    US = np.concatenate([
        np.random.default_rng(5).uniform(-700.0, 700.0, 400),
        np.random.default_rng(6).normal(0.0, 2.0, 200),
        np.random.default_rng(7).uniform(-30.0, 30.0, 200),
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300,
         1e-17, -1e-17, 700.0, -700.0, 745.0, -745.0]])

    @pytest.mark.parametrize("name", SIGMA_KERNELS)
    @pytest.mark.parametrize("tau", [1e-300, 1e-8, 0.5, 1.0, 3.0, 1000.0,
                                     1e103, 1e308])
    def test_sigma_float_matches_0d(self, name, tau):
        k = getattr(kernels, name)
        with np.errstate(all="ignore"):
            for x in self.US:
                want = k(np.array(x), tau)
                for got in (k(float(x), tau), k(np.float64(x), tau)):
                    assert type(got) is float
                    assert _same(got, want), (x, got, want)

    @pytest.mark.parametrize("name", SIGMA_KERNELS)
    def test_sigma_float_rejects_nonfinite(self, name):
        k = getattr(kernels, name)
        for bad in (np.nan, np.inf, -np.inf):
            for u in (bad, np.float64(bad)):
                with pytest.raises(ValueError):
                    k(u, 1.0)
        for tau in (np.nan, np.inf, -np.inf, 0.0, -1.0):
            with pytest.raises(ValueError):
                k(0.5, tau)


def _one_pass(u, pos, neg):
    # _two_sided's array path as one np.where over the whole array
    e = np.exp(-np.abs(u))
    m = -np.expm1(-np.abs(u))
    return np.where(u > 0.0, pos(e, m), neg(e, m))


def _forms(monkeypatch, evaluate):
    """The (pos, neg) pairs that evaluate() hands to _two_sided."""
    seen, two_sided = [], kernels._two_sided

    def spy(u, neg, pos):
        seen.append((pos, neg))
        return two_sided(u, neg, pos)

    monkeypatch.setattr(kernels, "_two_sided", spy)
    with np.errstate(all="ignore"):
        evaluate()
    monkeypatch.undo()
    return seen


class TestBlockedArrays:
    # array kernels run in blocks of kernels._BLOCK elements; the blocks
    # must reproduce one pass over the whole array bit for bit, at every
    # block boundary and in a short last block
    SHAPES = [(1,), (7,), (8191,), (8192,), (8193,), (3 * 8192 + 5,),
              (96, 257)]

    @staticmethod
    def _data(shape):
        rng = np.random.default_rng(int(np.prod(shape)))
        u = np.where(rng.random(shape) < 0.5,
                     rng.normal(0.0, 3.0, shape),
                     rng.uniform(-745.0, 745.0, shape))
        u.flat[:14] = TestScalarPath.US[-14:][:u.size]
        return u

    def _check(self, pos, neg):
        for shape in self.SHAPES:
            u = self._data(shape)
            with np.errstate(all="ignore"):
                got = kernels._two_sided(u, neg, pos)
                want = _one_pass(u, pos, neg)
            assert got.shape == want.shape == shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("name", SIGMA_KERNELS)
    @pytest.mark.parametrize("tau", [1e-300, 0.5, 1.0, 1e103])
    def test_kernel_forms(self, name, tau, monkeypatch):
        [(pos, neg)] = _forms(
            monkeypatch, lambda: getattr(kernels, name)(np.zeros(2), tau))
        self._check(pos, neg)

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_identity_weights(self, a, monkeypatch):
        geometry = TorusGeometry(
            TorusDomain(periods=(4.0, 4.0), grid_shape=(32, 32)),
            VortexSet(positive_vortices=(((2.0, 2.0), 1),)))
        fld = TorusField(geometry, ModelParams(1.0, 0.5), np.zeros((32, 32)))
        forms = _forms(monkeypatch, lambda: identity_check(fld, a))
        assert len(forms) == 2
        for pos, neg in forms:
            self._check(pos, neg)


def _both_forms(u, neg, pos):
    # _two_sided's array path with both forms in every block and np.where
    # picking each element's, as the kernels ran before single-signed
    # blocks ran one form alone
    u = np.asarray(u, dtype=float)
    if u.ndim == 0:
        return float(_one_pass(u, pos, neg))
    flat, out = u.reshape(-1), np.empty(u.size)
    for start in range(0, u.size, kernels._BLOCK):
        block = slice(start, start + kernels._BLOCK)
        out[block] = _one_pass(flat[block], pos, neg)
    return out.reshape(u.shape)


def _kernel_forms(name, tau):
    """The (neg, pos) pair that kernels.<name> hands to _two_sided."""
    seen, two_sided = [], kernels._two_sided

    def spy(u, neg, pos):
        seen.append((neg, pos))
        return two_sided(u, neg, pos)

    kernels._two_sided = spy
    try:
        getattr(kernels, name)(np.zeros(2), tau)
    finally:
        kernels._two_sided = two_sided
    [forms] = seen
    return forms


def _assert_same_bits(name, tau, u):
    neg, pos = _kernel_forms(name, tau)
    with np.errstate(all="ignore"):
        got = getattr(kernels, name)(u, tau)
        want = _both_forms(u, neg, pos)
    if np.ndim(u) == 0:
        assert type(got) is float and _same(got, want), (u, got, want)
    else:
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


ONE_SIDED_TAUS = [0.5, 1.0, 2.0]


def _signed_blocks(pattern, rng, last):
    """One run of elements per letter of pattern ('-' all negative, '+'
    all positive, 'x' mixed, '0' signed zeros): _BLOCK elements for each
    letter but the last, which gets `last` elements."""
    sizes = [kernels._BLOCK] * (len(pattern) - 1) + [last]
    parts = []
    for kind, n in zip(pattern, sizes):
        mag = np.where(rng.random(n) < 0.5, rng.uniform(1e-17, 30.0, n),
                       rng.uniform(30.0, 745.0, n))
        if kind == "-":
            parts.append(-mag)
        elif kind == "+":
            parts.append(mag)
        elif kind == "0":
            parts.append(np.where(rng.random(n) < 0.5, 0.0, -0.0))
        else:
            parts.append(np.where(rng.random(n) < 0.5, mag, -mag))
    return np.concatenate(parts)


class TestOneSidedBlocks:
    # a block of one sign runs only its side's form; every element must
    # keep the value np.where over both forms gives it, bit for bit

    @pytest.mark.parametrize("name", SIGMA_KERNELS)
    @pytest.mark.parametrize("tau", ONE_SIDED_TAUS)
    @pytest.mark.parametrize("pattern", ["-+-+", "+-+-", "----", "++++",
                                         "0+0-", "x-x+"])
    def test_sign_changes_at_block_boundaries(self, name, tau, pattern):
        u = _signed_blocks(pattern, np.random.default_rng(3), last=5)
        assert u.size == 3 * kernels._BLOCK + 5
        _assert_same_bits(name, tau, u)
        # one element across a boundary makes both blocks mixed
        for k in (kernels._BLOCK - 1, kernels._BLOCK):
            w = u.copy()
            w[k] = -w[k] if w[k] != 0.0 else 1.0
            _assert_same_bits(name, tau, w)

    @pytest.mark.parametrize("name", SIGMA_KERNELS)
    @pytest.mark.parametrize("tau", ONE_SIDED_TAUS)
    def test_signed_zeros(self, name, tau):
        n = kernels._BLOCK + 3
        for u in (np.zeros(n), -np.zeros(n), np.array([0.0, -0.0] * 9),
                  np.concatenate([[0.0], np.full(n, 2.5)]),
                  np.concatenate([np.full(n, 2.5), [-0.0]]),
                  np.concatenate([[-0.0], np.full(n, -2.5)])):
            _assert_same_bits(name, tau, u)

    @pytest.mark.parametrize("name", SIGMA_KERNELS)
    @pytest.mark.parametrize("tau", ONE_SIDED_TAUS)
    def test_all_negative_all_positive_and_mixed(self, name, tau):
        rng = np.random.default_rng(11)
        mag = rng.uniform(1e-300, 745.0, (96, 257))
        for u in (-mag, mag, np.where(rng.random(mag.shape) < 0.3,
                                      mag, -mag)):
            _assert_same_bits(name, tau, u)

    @pytest.mark.parametrize("name", SIGMA_KERNELS)
    @pytest.mark.parametrize("tau", ONE_SIDED_TAUS)
    def test_0d_arrays(self, name, tau):
        for x in TestScalarPath.US[-14:]:
            _assert_same_bits(name, tau, np.array(x))

    @given(pattern=st.text(alphabet="-+x0", min_size=1, max_size=4),
           last=st.integers(min_value=1, max_value=2 * kernels._BLOCK),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           name=st.sampled_from(SIGMA_KERNELS),
           tau=st.sampled_from(ONE_SIDED_TAUS))
    @settings(max_examples=60, deadline=None)
    def test_random_block_patterns(self, pattern, last, seed, name, tau):
        u = _signed_blocks(pattern, np.random.default_rng(seed), last=last)
        _assert_same_bits(name, tau, u)

    @given(u=st.lists(st.floats(min_value=-745.0, max_value=745.0,
                                allow_nan=False), min_size=0, max_size=40),
           name=st.sampled_from(SIGMA_KERNELS),
           tau=st.sampled_from(ONE_SIDED_TAUS))
    @settings(max_examples=200, deadline=None)
    def test_short_arrays(self, u, name, tau):
        _assert_same_bits(name, tau, np.array(u, dtype=float))
        if u:
            _assert_same_bits(name, tau, np.array(u[0]))


class TestExtrema:
    def test_f_extrema_match_scan(self):
        for tau in TAUS + [1000.0]:
            f_min, f_max = kernels.f_extrema_tau(tau)
            us = np.linspace(-30.0, 30.0, 600001) + np.log(tau)
            f = kernels.f_tau(us, tau)
            # the scan's spacing of 1e-4 misses the peak by O(1e-8)
            assert f_min == pytest.approx(f.min(), rel=1e-7)
            assert f_max == pytest.approx(f.max(), rel=1e-7)
            assert f_min <= f.min() and f_max >= f.max()


class TestModelParams:
    def test_validation(self):
        ModelParams(tau=1.0, epsilon=0.1)
        with pytest.raises(ValueError):
            ModelParams(tau=0.0, epsilon=0.1)
        with pytest.raises(ValueError):
            ModelParams(tau=1.0, epsilon=-1.0)

    @pytest.mark.parametrize("tau, epsilon, match", [
        (float("inf"), 0.1, "tau must be finite"),
        (float("nan"), 0.1, "tau must be finite"),
        (1.0, float("inf"), "epsilon must be finite"),
        (True, 0.1, "tau: expected a number"),
        (1.0, False, "epsilon: expected a number"),
        (np.bool_(True), 0.1, "tau: expected a number"),
        ("1.0", 0.1, "tau: expected a number"),
    ])
    def test_rejects_bool_and_non_finite(self, tau, epsilon, match):
        with pytest.raises(ValueError, match=match):
            ModelParams(tau=tau, epsilon=epsilon)

    def test_numpy_real_scalars_accepted(self):
        p = ModelParams(tau=np.float32(2.0), epsilon=np.int64(1))
        assert (p.tau, p.epsilon) == (2.0, 1.0)
        assert type(p.tau) is float and type(p.epsilon) is float

    def test_epsilon_floor_is_where_its_inverse_square_overflows(self):
        # the equation's factor epsilon^-2 is finite at EPS_MIN and
        # overflows one ulp below, so every solver can form it
        assert np.isfinite(EPS_MIN ** -2)
        below = np.nextafter(EPS_MIN, 0.0)
        with pytest.raises(OverflowError):
            float(below) ** -2
        assert ModelParams(1.0, EPS_MIN).epsilon == EPS_MIN
        assert eps_schedule([0.1, EPS_MIN], "schedule")[-1] == EPS_MIN
        for eps in (below, 1e-160, 5e-324):
            with pytest.raises(ValueError, match="epsilon must be >= .*got "
                               + repr(float(eps))):
                ModelParams(1.0, eps)
            with pytest.raises(ValueError, match="continuation entry must "
                               "be >= .*got " + repr(float(eps))):
                eps_schedule([0.1, eps], "continuation")


class TestVortexSet:
    def test_totals(self):
        vs = VortexSet(
            positive_vortices=(((0.5, 0.5), 2), ((0.25, 0.25), 1)),
            negative_vortices=(((0.75, 0.75), 1),),
        )
        assert vs.N1 == 3
        assert vs.N2 == 1
        assert len(vs) == 3

    def test_distinctness_enforced(self):
        with pytest.raises(ValueError):
            VortexSet(
                positive_vortices=(((0.5, 0.5), 1),),
                negative_vortices=(((0.5, 0.5), 1),),
            )

    def test_negative_multiplicity_rejected(self):
        # and every multiplicity that is not an integer, and every point
        # that is not two finite reals
        for entry, match in [
                (((0.1, 0.1), -1), "multiplicity must be >= 0"),
                (((0.1, 0.1), 1.5), "multiplicity must be an integer"),
                (((0.1, 0.1), True), "multiplicity must be an integer"),
                (((0.1, 0.1), "2"), "multiplicity must be an integer"),
                (((0.1, 0.1), float("nan")),
                 "multiplicity must be an integer"),
                (((float("nan"), 0.1), 1), "finite reals"),
                (((0.1, float("inf")), 1), "finite reals"),
                (((0.1, "0.2"), 1), "finite reals"),
                (((0.1, 0.2, 0.3), 1), "planar"),
                ((0.1, 1), "planar")]:
            with pytest.raises(ValueError, match=match):
                VortexSet(positive_vortices=(entry,))
            with pytest.raises(ValueError, match=match):
                VortexSet(negative_vortices=(entry,))

    def test_integral_multiplicities_kept(self):
        vs = VortexSet(positive_vortices=(((0.1, 0.1), np.int64(2)),),
                       negative_vortices=(((0.5, 0.5), 3.0),))
        assert (vs.N1, vs.N2) == (2, 3)
        assert all(type(m) is int for _, m in vs.positive_vortices
                   + vs.negative_vortices)


class TestHypotheses:
    def test_tau_one_branch(self):
        vs = VortexSet(
            positive_vortices=(((0.2, 0.2), 2),),
            negative_vortices=(((0.7, 0.7), 1),),
        )
        rep = check_hypotheses(vs, ModelParams(tau=1.0, epsilon=0.1))
        assert rep.h1_holds and rep.h2_holds

    def test_multiplicity_violation(self):
        # N1=3 via m={2,1}, N2=1, tau=2: heavier side has m=2 > 1
        vs = VortexSet(
            positive_vortices=(((0.2, 0.2), 2), ((0.4, 0.4), 1)),
            negative_vortices=(((0.7, 0.7), 1),),
        )
        rep = check_hypotheses(vs, ModelParams(tau=2.0, epsilon=0.1))
        assert rep.h1_holds and not rep.h2_holds

    def test_balanced_configuration(self):
        vs = VortexSet(
            positive_vortices=(((0.2, 0.2), 1),),
            negative_vortices=(((0.7, 0.7), 1),),
        )
        rep = check_hypotheses(vs, ModelParams(tau=2.0, epsilon=0.1))
        assert not rep.h1_holds
        assert rep.h2_holds
