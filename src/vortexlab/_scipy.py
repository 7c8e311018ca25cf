"""The scipy modules of the Ewald sums and the eigen solvers, on first use.

``load()`` imports scipy.special, scipy.linalg and scipy.sparse.linalg
together, so ``import vortexlab.cli`` loads none of them.  Of
scipy.sparse.linalg, src/ calls only the radial ``eigsh``; the torus
commands load it too because bench/layertrace.py reads its five
``minres_*`` counters there and finds that target only in a loaded
module.  Once those counters are retired, the set can narrow.
"""

import functools


@functools.cache
def load():
    """The scipy package, with the three modules imported."""
    import scipy.linalg
    import scipy.sparse.linalg
    import scipy.special
    return scipy
