"""Every solver site that evaluates a kernel reads its own tau.

Each test builds its object at tau != 1 and compares the site with the
kernel evaluated directly at that tau, so a site that passed another
tau (the default 1.0, say) fails here.  The bench workloads run tau = 1
almost everywhere and would not show it.
"""

import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from vortexlab import (
    CapacityError,
    MassKind,
    ModelParams,
    TorusDomain,
    TorusGeometry,
    VortexSet,
    integrate_radial,
    mass_integral,
    pohozaev_value,
    weighted_eigen_radial,
)
from vortexlab import kernels
from vortexlab.torus import TorusField, _check_capacity, solve_monotone

TAUS = [2.0, 0.5]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.fixture(scope="module", params=TAUS)
def tau(request):
    return request.param


@pytest.fixture(scope="module")
def geometry():
    domain = TorusDomain(periods=(4.0, 4.0), grid_shape=(32, 32))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return TorusGeometry(
            domain, VortexSet(positive_vortices=(((2.0, 2.0), 1),)))


@pytest.fixture(scope="module")
def profile(tau):
    # a type-I profile: u < 0 throughout, so the eigen weight is positive
    return integrate_radial(-1.0, tau=tau)


class TestTorusField:
    @pytest.mark.parametrize("name, kernel", [
        ("f", kernels.f_tau), ("q", kernels.q_tau), ("F2", kernels.F2_tau)])
    def test_grids(self, geometry, tau, name, kernel):
        X, Y = geometry.domain.mesh
        fld = TorusField(geometry, ModelParams(tau, 0.3),
                         v=0.4 * np.cos(X) * np.sin(Y))
        assert np.array_equal(_bits(getattr(fld, name)),
                              _bits(kernel(fld.u, tau)))

    def test_potential(self, geometry, tau):
        X, _ = geometry.domain.mesh
        fld = TorusField(geometry, ModelParams(tau, 0.3), v=0.4 * np.cos(X))
        want = -0.3 ** -2 * kernels.df_tau(fld.u, tau)
        assert np.array_equal(_bits(fld.potential), _bits(want))


class TestCapacity:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_limit(self, geometry, tau, sign):
        one = (((1.0, 1.0), 1),)
        vs = VortexSet(one, ()) if sign > 0 else VortexSet((), one)
        f_min, f_max = kernels.f_extrema_tau(tau)
        room = geometry.domain.area * (f_max if sign > 0 else -f_min)
        limit = np.sqrt(room / (4.0 * np.pi))
        params = ModelParams(tau, 1.0)
        _check_capacity(geometry.domain, vs, params, limit * (1 - 1e-9))
        with pytest.raises(CapacityError):
            _check_capacity(geometry.domain, vs, params, limit * (1 + 1e-9))

    def test_monotone_shift(self, geometry, tau):
        # no vortex: u = 0 solves it, so the first iterate returns
        empty = TorusGeometry(geometry.domain, VortexSet())
        fld = solve_monotone(empty, ModelParams(tau, 0.5))
        assert fld.diagnostics["shift"] \
            == 1.05 * 0.5 ** -2 * kernels.sup_abs_df_tau(tau)


class TestRadial:
    @pytest.mark.parametrize("kind, kernel", [
        (MassKind.FLUX, kernels.f_tau), (MassKind.F1_MASS, kernels.F1_tau),
        (MassKind.F2_MASS, kernels.F2_tau),
        (MassKind.QUANTIZATION, kernels.q_tau)])
    def test_mass_integral(self, profile, tau, kind, kernel):
        r, u = profile.r, profile.u
        want = 2.0 * np.pi * (simpson(y=kernel(u, tau) * r, x=r)
                              + 0.5 * float(kernel(u[0], tau)) * r[0] ** 2)
        assert mass_integral(profile, kind) == want

    def test_pohozaev_volume(self, profile, tau):
        r, u = profile.r, profile.u
        F2 = kernels.F2_tau(u, tau)
        want = 2.0 * np.pi * (np.trapezoid(2.0 * F2 * r, r) + F2[0] * r[0] ** 2)
        assert pohozaev_value(profile)[0] == want

    def test_weighted_eigen(self, profile, tau):
        # the eigenpair solves the problem reassembled at tau
        res = weighted_eigen_radial(profile, _sensitivity=False)
        r, u = profile.r, profile.u
        h = np.diff(r)
        rmid = 0.5 * (r[:-1] + r[1:])
        k = rmid / h
        lump = np.zeros_like(r)
        lump[:-1] += 0.5 * rmid * h
        lump[1:] += 0.5 * rmid * h
        diag = np.concatenate([[k[0]], k[:-1] + k[1:]]) \
            - kernels.df_tau(u, tau)[:-1] * lump[:-1]
        psi, mu = res.eigenvector, res.eigenvalue
        Ap = diag * psi
        Ap[:-1] -= k[:-1] * psi[1:]
        Ap[1:] -= k[:-1] * psi[:-1]
        Bp = -np.expm1(u[:-1]) * lump[:-1] * psi
        resid = np.linalg.norm(Ap - mu * Bp) \
            / (np.linalg.norm(Ap) + abs(mu) * np.linalg.norm(Bp))
        assert resid < 1e-8
