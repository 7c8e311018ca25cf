"""The demo scripts run as documented.

torus_solve.py and stability_scan.py run end to end (a few seconds
together); epsilon_sweep.py and radial_profiles.py cost about 11 s to
run, so they are only imported.  Each demo silences warnings at import,
so every run sits inside warnings.catch_warnings() to keep that filter
out of the rest of the session.
"""

import os
import runpy
import warnings

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "demos")


@pytest.mark.parametrize("name, headers", [
    ("torus_solve.py", ["= one +1 vortex, eps = 0.1, 128^2 grid =",
                        "= integral audits =",
                        "= monotone iteration cross-check =",
                        "= sign-flip duality ="]),
    ("stability_scan.py", ["= vacuum oracle: mu = eps^-2 / (tau+1)^3 =",
                           "= one-vortex torus branch =",
                           "= radial plane profiles, weighted eigenvalue "
                           "mu* ="]),
])
def test_demo_runs(name, headers, capsys):
    with warnings.catch_warnings():
        runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    for header in headers:
        assert header in lines


@pytest.mark.parametrize("name", ["epsilon_sweep.py", "radial_profiles.py"])
def test_demo_imports(name, capsys):
    with warnings.catch_warnings():
        ns = runpy.run_path(os.path.join(DEMOS, name), run_name="demo")
    assert callable(ns["main"])
    assert capsys.readouterr().out == ""
