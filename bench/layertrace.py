"""Per-layer tracing of vortexlab from outside the package.

``Tracer.install()`` wraps the entry points of each layer (one layer per
module of the package) and the numpy/scipy FFT, MINRES and ``solve_ivp``
entry points; ``uninstall()`` puts every original back.  A target is
replaced by object identity in every loaded ``vortexlab.*`` namespace and
in module-level dicts there, so ``from .torus import ...`` copies, calls
within a module and kernel tables are all caught.

Each call of a layer target is a span (id, name, start, end, parent id,
operation id), kept in memory and written out by the caller.  A layer's
self time is a span's duration minus that of its child layer spans;
numpy/scipy calls are not layers, so their time stays in the self time of
the layer that made them, while their counts go to the layer whose span
encloses them.  Kernel calls are leaves called ~10^5 times per pass, so
they are folded into one aggregate span per (kernel, caller) pair.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("kernels", "radial", "ewald", "torus", "stability", "asymptotics",
          "config", "cli")
# private functions that are the only place a counter can be read
PRIVATE_TARGETS = {"radial": ("_tail_sign",),
                   "asymptotics": ("_pohozaev_torus", "_pohozaev_radial")}
FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
FFT_MODULES = ("numpy.fft", "scipy.fft")

# per-layer metric -> targets it is read from; a metric whose target no
# longer exists is reported missing rather than 0
METRIC_TARGETS = {
    "kernels.calls": ("kernels.f_tau",),
    "kernels.scalar_calls": ("kernels.f_tau",),
    "kernels.array_points": ("kernels.f_tau",),
    "kernels.self_s": ("kernels.f_tau",),
    "radial.integrate_calls": ("radial.integrate_radial",),
    "radial.retries": ("radial.integrate_radial",),
    "radial.bisect_steps": ("radial._tail_sign",),
    "radial.nfev": ("radial.solve_ivp",),
    "radial.self_s": ("radial.integrate_radial",),
    "ewald.calls": ("ewald.green_value", "ewald.green_gradient"),
    "ewald.points": ("ewald.green_value", "ewald.green_gradient"),
    "ewald.self_s": ("ewald.green_value", "ewald.green_gradient"),
    "torus.newton_steps": ("torus.solve_newton",),
    "torus.laplacian_calls": ("torus.laplacian",),
    "torus.minres_calls": ("scipy.sparse.linalg.minres", "torus.solve_newton"),
    "torus.minres_iters": ("scipy.sparse.linalg.minres", "torus.solve_newton"),
    "torus.minres_failed": ("scipy.sparse.linalg.minres",
                            "torus.solve_newton"),
    "torus.fft_calls": ("numpy.fft.fft2", "torus.laplacian"),
    "torus.fft_s": ("numpy.fft.fft2", "torus.laplacian"),
    "torus.solve_s": ("torus.solve_newton",),
    "torus.self_s": ("torus.solve_newton",),
    "stability.eigen_calls": ("stability.principal_eigen_torus",
                              "stability.weighted_eigen_radial"),
    "stability.eigen_iters": ("stability.principal_eigen_torus",
                              "stability.weighted_eigen_radial"),
    "stability.minres_calls": ("scipy.sparse.linalg.minres",
                               "stability.principal_eigen_torus"),
    "stability.minres_iters": ("scipy.sparse.linalg.minres",
                               "stability.principal_eigen_torus"),
    "stability.fft_calls": ("numpy.fft.fft2",
                            "stability.principal_eigen_torus"),
    "stability.self_s": ("stability.principal_eigen_torus",),
    "asymptotics.records": ("asymptotics.run_sweep",),
    "asymptotics.pohozaev_calls": ("asymptotics._pohozaev_torus",),
    "asymptotics.self_s": ("asymptotics.run_sweep",),
    "config.artifact_bytes": ("config.write_json",),
    "config.write_s": ("config.write_json", "config.save_field"),
    "config.load_field_s": ("config.load_field",),
    "cli.self_s": ("cli.main",),
}
_WRITERS = ("config.write_json", "config.write_text", "config.save_field")
_SOLVERS = ("torus.solve_newton", "torus.solve_monotone")

# counters read off a target's call, arguments or result
_CALL_COUNTS = {
    "radial.integrate_radial": "radial.integrate_calls",
    "radial._tail_sign": "radial.bisect_steps",
    "ewald.green_value": "ewald.calls",
    "ewald.green_gradient": "ewald.calls",
    "ewald.regular_part": "ewald.calls",
    "torus.laplacian": "torus.laplacian_calls",
    "stability.principal_eigen_torus": "stability.eigen_calls",
    "stability.weighted_eigen_radial": "stability.eigen_calls",
    "asymptotics._pohozaev_torus": "asymptotics.pohozaev_calls",
    "asymptotics._pohozaev_radial": "asymptotics.pohozaev_calls",
}


def _points(args):
    return np.broadcast(args[0], args[1]).size


_ARG_COUNTS = {"ewald.green_value": ("ewald.points", _points),
               "ewald.green_gradient": ("ewald.points", _points)}


def _newton_steps(fld):
    return sum(st["iterations"] for st in fld.diagnostics.get("stages", ()))


_RESULT_COUNTS = {
    "torus.solve_newton": ("torus.newton_steps", _newton_steps),
    "stability.principal_eigen_torus": ("stability.eigen_iters",
                                        lambda res: res.iterations),
    "stability.weighted_eigen_radial": ("stability.eigen_iters",
                                        lambda res: res.iterations),
    "asymptotics.run_sweep": ("asymptotics.records", len),
}


def _outermost_s(spans, names):
    """Summed duration of spans in names that have no ancestor in names."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for _sid, name, start, end, parent, _op in spans:
        if name not in names:
            continue
        while parent is not None and by_id[parent][1] not in names:
            parent = by_id[parent][4]
        if parent is None:
            total += end - start
    return total


class Tracer:
    """Wraps layer entry points while installed; see the module docstring."""

    def __init__(self):
        self.patches = []  # (owner, key, original), restored in reverse
        self.found = set()
        self.spans = []  # (spans, kernel aggregates) of every traced pass
        self.op = None
        self.reset()

    def reset(self):
        """Start a new pass: clear counters and the pass's spans."""
        self.stack = []  # (id, name) of the open spans
        self.pass_spans = []  # (id, name, start, end, parent id, op id)
        self.kernel_agg = defaultdict(lambda: [0, 0.0])
        self.counters = defaultdict(float)
        self.next_id = 0

    # -- wrappers ------------------------------------------------------------

    def _layer_wrapper(self, name, fn):
        perf = time.perf_counter
        tracer = self
        call_key = _CALL_COUNTS.get(name)
        arg_count = _ARG_COUNTS.get(name)
        result_count = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c = tracer.counters
            if call_key is not None:
                c[call_key] += 1
            if arg_count is not None:
                c[arg_count[0]] += arg_count[1](args)
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            sid = tracer.next_id
            tracer.next_id = sid + 1
            stack.append((sid, name))
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer.pass_spans.append((sid, name, start, end, parent,
                                          tracer.op))
            if result_count is not None:
                c[result_count[0]] += result_count[1](result)
            return result

        return wrapper

    def _kernel_wrapper(self, name, fn):
        perf = time.perf_counter
        tracer = self
        kernel = (None, name)  # kernel calls are folded, not spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            top = stack[-1] if stack else (None, "")
            if top[0] is None and top[1].startswith("kernels."):
                return fn(*args, **kwargs)  # nested: the caller is counted
            parent = top[0]
            u = args[0] if args else kwargs.get("u")
            stack.append(kernel)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                c = tracer.counters
                c["kernels.calls"] += 1
                if isinstance(u, float) or np.ndim(u) == 0:
                    c["kernels.scalar_calls"] += 1
                else:
                    c["kernels.array_points"] += np.size(u)
                agg = tracer.kernel_agg[(name, parent)]
                agg[0] += 1
                agg[1] += dur

        return wrapper

    def _caller_layer(self):
        """Layer of the innermost open span (kernels never call out)."""
        if not self.stack:
            return "none"
        return self.stack[-1][1].partition(".")[0]

    def _fft_wrapper(self, fn):
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                layer = tracer._caller_layer()
                tracer.counters[layer + ".fft_calls"] += 1
                tracer.counters[layer + ".fft_s"] += perf() - start

        return wrapper

    def _minres_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(A, b, *args, callback=None, **kwargs):
            layer = tracer._caller_layer()
            c = tracer.counters

            def counting(xk):
                c[layer + ".minres_iters"] += 1
                if callback is not None:
                    callback(xk)

            c[layer + ".minres_calls"] += 1
            x, info = fn(A, b, *args, callback=counting, **kwargs)
            if info != 0:
                c[layer + ".minres_failed"] += 1
            return x, info

        return wrapper

    def _solve_ivp_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            tracer.counters[tracer._caller_layer() + ".nfev"] += sol.nfev
            return sol

        return wrapper

    # -- installing ----------------------------------------------------------

    def _targets(self):
        """Map id(original) -> (original, wrapper) for every target."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules.get("vortexlab." + layer)
            if mod is None:
                continue
            wanted = PRIVATE_TARGETS.get(layer, ())
            for name, obj in list(vars(mod).items()):
                public = not name.startswith("_")
                if not (public or name in wanted):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    full = "%s.%s" % (layer, name)
                    self.found.add(full)
                    if layer == "kernels":
                        wrapper = self._kernel_wrapper(full, obj)
                    else:
                        wrapper = self._layer_wrapper(full, obj)
                    targets[id(obj)] = (obj, wrapper)
                elif public and inspect.isclass(obj) \
                        and obj.__module__ == mod.__name__:
                    for attr, meth in list(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(meth):
                            continue
                        full = "%s.%s.%s" % (layer, name, attr)
                        self.found.add(full)
                        self._patch(obj, attr, self._layer_wrapper(full, meth))
        foreign = [("scipy.sparse.linalg", "minres", self._minres_wrapper),
                   ("scipy.integrate", "solve_ivp", self._solve_ivp_wrapper)]
        foreign += [(m, f, self._fft_wrapper) for m in FFT_MODULES
                    for f in FFT_FUNCS]
        for modname, fname, make in foreign:
            fn = getattr(sys.modules.get(modname), fname, None)
            if fn is None:
                continue
            self.found.add("%s.%s" % (modname, fname))
            if id(fn) not in targets:
                targets[id(fn)] = (fn, make(fn))
            self._patch(sys.modules[modname], fname, targets[id(fn)][1])
        return targets

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self.patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self.patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self):
        """Wrap every target in every loaded vortexlab namespace."""
        targets = self._targets()
        for modname, mod in list(sys.modules.items()):
            if modname != "vortexlab" and not modname.startswith("vortexlab."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._patch(mod, name, targets[id(obj)][1])
                    self.found.add("%s.%s" % (modname.rpartition(".")[2],
                                              name))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in targets and targets[id(val)][0] is val:
                            self._patch(obj, key, targets[id(val)][1])

    def uninstall(self):
        while self.patches:
            owner, key, original = self.patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def end_pass(self):
        """Close the pass: keep its spans and return its per-layer metrics.

        Self times come from the spans: a span's duration minus those of
        its child spans and of the kernel calls it made.  The caller sets
        config.artifact_bytes from the files the pass wrote.
        """
        spans = self.pass_spans
        child_s = defaultdict(float)
        for _sid, _name, start, end, parent, _op in spans:
            child_s[parent] += end - start
        aggregates = [(name, parent, count, total) for (name, parent),
                      (count, total) in self.kernel_agg.items()]
        for _name, parent, _count, total in aggregates:
            child_s[parent] += total
        m = {key: self.counters.get(key, 0.0) for key in METRIC_TARGETS}
        for layer in LAYERS:
            m[layer + ".self_s"] = 0.0
        m["kernels.self_s"] = sum(a[3] for a in aggregates)
        names = {}
        for sid, name, start, end, parent, _op in spans:
            names[sid] = name
            layer = name.partition(".")[0]
            m[layer + ".self_s"] += end - start - child_s[sid]
        m["radial.retries"] = sum(
            1 for _sid, name, _s, _e, parent, _op in spans
            if name == "radial.integrate_radial" and parent is not None
            and names[parent] == name)
        m["torus.solve_s"] = _outermost_s(spans, _SOLVERS)
        m["config.write_s"] = _outermost_s(spans, _WRITERS)
        m["config.load_field_s"] = _outermost_s(spans, ("config.load_field",))
        self.spans.append((spans, aggregates))
        return m

    def missing(self):
        """Per-layer metrics whose targets are gone from the package."""
        return sorted(key for key, needs in METRIC_TARGETS.items()
                      if not all(t in self.found for t in needs))
