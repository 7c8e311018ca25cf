"""The benchmark's per-layer tracer still finds every target it reads.

bench/layertrace.py reads each per-layer metric from named functions of
the package (solve_newton, laplacian, _pohozaev_torus, load_field,
save_field, run_sweep, ...), and reports a metric whose target is gone
as missing instead of failing.  This test installs the tracer over the
imported package, requires that nothing is missing, and uninstalls it
again.  It only reads bench/.
"""

import importlib.util
import os

import numpy as np

import vortexlab.cli  # noqa: F401  (the cli layer is not imported by vortexlab)
from vortexlab import torus

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
