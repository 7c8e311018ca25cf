"""The scipy modules of the eigen solvers, on first use.

``load()`` imports scipy.linalg and scipy.sparse.linalg together, so
``import vortexlab.cli`` loads neither.  Of scipy.sparse.linalg, src/
calls only the radial ``eigsh``.  The torus commands load it too, in
the Green-function calls of ewald, which need no scipy themselves: they
are there for bench/layertrace.py, which reads its five ``minres_*``
counters on scipy.sparse.linalg and finds that target only in a loaded
module.  Once those counters are retired, ewald's calls can go.
"""

import functools


@functools.cache
def load():
    """The scipy package, with the two modules imported."""
    import scipy.linalg
    import scipy.sparse.linalg
    return scipy
