"""The benchmark's per-layer tracer still finds every target it reads.

bench/layertrace.py reads each per-layer metric from named functions of
the package (solve_newton, laplacian, _pohozaev_torus, load_field,
save_field, run_sweep, ...), and reports a metric whose target is gone
as missing instead of failing.  This test installs the tracer over the
imported package, requires that nothing is missing, and uninstalls it
again; a second one requires that the kernel counters see the radial
shooter's scalar calls and Newton's array calls.  They only read bench/.
"""

import importlib.util
import os
import warnings

import numpy as np

import vortexlab.cli  # noqa: F401  (the cli layer is not imported by vortexlab)
from vortexlab import ModelParams, TorusDomain, TorusGeometry, VortexSet
from vortexlab import radial, torus

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def _layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", os.path.join(BENCH, "layertrace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_metric_target():
    layertrace = _layertrace()
    solve_newton, rfft2 = torus.solve_newton, np.fft.rfft2
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert torus.solve_newton is not solve_newton
        missing = tracer.missing()
    finally:
        tracer.uninstall()
    assert missing == []
    assert torus.solve_newton is solve_newton and np.fft.rfft2 is rfft2


def test_tracer_counts_kernel_calls_of_both_paths():
    # the kernel bundle is built per call, so it binds the wrapped f_tau
    tracer = _layertrace().Tracer()
    tracer.install()
    try:
        radial.integrate_radial(-1.0, r_max=1e3)
        scalar = tracer.counters["kernels.scalar_calls"]
        geometry = TorusGeometry(
            TorusDomain(periods=(4.0, 4.0), grid_shape=(32, 32)),
            VortexSet(positive_vortices=(((2.0, 2.0), 1),)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a coarse grid is under-resolved
            torus.solve_newton(geometry, ModelParams(1.0, 0.3))
        counters = dict(tracer.counters)
    finally:
        tracer.uninstall()
    assert scalar > 0
    assert counters["kernels.array_points"] > 0
