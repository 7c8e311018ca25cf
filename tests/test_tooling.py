"""Tooling guards: the benchmark's tracer and the CLI exit-code map.

bench/layertrace.py reads each per-layer metric from named functions of
the package (solve_newton, laplacian, _pohozaev_torus, load_field,
save_field, run_sweep, ...), and reports a metric whose target is gone
as missing instead of failing.  One test installs the tracer over the
imported package, requires that nothing is missing, and uninstalls it
again.  The package imports scipy on first use, so two more run the
sweep and torus-verify commands in a fresh interpreter, untraced and
then traced as bench/run.py does, and require that nothing is missing
there either; a third requires that start-up and a torus solve load no
scipy module.  Two more require that the allocator policy is set by
cli.main alone, and that with it a second torus run in one CLI process
faults few fresh pages.  Another one requires that the kernel counters
see the radial shooter's scalar calls and Newton's array calls.  They
only read bench/.

The exit-code tests raise every exception class the package defines
from a stubbed command and require cli.main to map it to exit 1 or 2
with one line on stderr, so a new failure type cannot escape as a
traceback.  The next test requires that every defaulted parameter of a
public function is set by some call in the repository: an option no
caller sets is a module constant.  radial._shoot must stay the one
caller of the forwarder radial.solve_ivp, whose own call is the only
other solve_ivp call in src/, src/ imports none of scipy's minres,
lobpcg or LinearOperator, and config.py is the one module of src/ that
writes a file.  The default test's twin requires the same of the
config schema: every key is set by some config in tests/, demos/ or
bench/.  The README's config table must list exactly the keys of the
config schema.  The last two keep the radial-profile keys of the
stability section in step with the shoot flags, and require the torus
target to refuse each of them at its pointer.
"""

import argparse
import ast
import ctypes
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import vortexlab
import vortexlab.cli as cli
from vortexlab import ModelParams, TorusDomain, TorusGeometry, VortexSet
from vortexlab import config, radial, torus

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def _layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", os.path.join(BENCH, "layertrace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_metric_target():
    # the scipy module a torus command loads on its first Green-function
    # call; run alone, this module imports no scipy module by itself
    import scipy.sparse.linalg
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


def _package_exceptions():
    """Every Exception subclass defined in a vortexlab module; warnings
    are issued, never raised, so they are left out."""
    found = []
    for info in pkgutil.iter_modules(vortexlab.__path__):
        module = importlib.import_module("vortexlab." + info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__
                    and issubclass(cls, Exception)
                    and not issubclass(cls, Warning)):
                found.append(cls)
    return sorted(found, key=lambda cls: cls.__module__ + cls.__name__)


_EXCEPTIONS = _package_exceptions()


def test_exception_classes_are_collected():
    names = {cls.__name__ for cls in _EXCEPTIONS}
    assert {"ConfigError", "BracketError", "IntegrationFailureError",
            "SweepError", "_UsageError"} <= names


@pytest.mark.parametrize("cls", _EXCEPTIONS,
                         ids=[cls.__name__ for cls in _EXCEPTIONS])
def test_every_package_exception_maps_to_an_exit_code(cls, monkeypatch,
                                                      capsys):
    # ConfigError and IntegrationFailureError take two arguments
    init = cls.__init__
    n_args = (len(inspect.signature(init).parameters) - 1
              if inspect.isfunction(init) else 1)

    def command(args):
        raise cls(*["stubbed failure"] * n_args)

    monkeypatch.setattr(cli, "cmd_shoot", command)
    rc = cli.main(["shoot", "--tau", "1", "--s", "-1"])
    err = capsys.readouterr().err
    assert rc in (cli.EXIT_USAGE, cli.EXIT_NUMERICAL)
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "stubbed failure" in err
    if issubclass(cls, RuntimeError):
        assert rc == cli.EXIT_NUMERICAL


ROOT = os.path.dirname(BENCH)


def _public_functions():
    """(name, positional parameters, defaulted parameters) of every public
    function and public method of a public class in vortexlab; a
    method's self is dropped from its positional parameters."""
    package = os.path.join(ROOT, "src", "vortexlab")
    for module in sorted(os.listdir(package)):
        if not module.endswith(".py"):
            continue
        with open(os.path.join(package, module)) as fh:
            body = ast.parse(fh.read()).body
        defs = [(fn, 0) for fn in body if isinstance(fn, ast.FunctionDef)]
        for cls in body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                defs += [(fn, 1) for fn in cls.body
                         if isinstance(fn, ast.FunctionDef)]
        for fn, skip in defs:
            if not fn.name.startswith("_"):
                a = fn.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [p.arg for p, d in zip(a.kwonlyargs,
                                                    a.kw_defaults)
                              if d is not None]
                yield fn.name, positional[skip:], defaulted


def _calls_by_name():
    """Every call in src/, tests/, demos/ and bench/, keyed by the called
    name (the attribute for a method call)."""
    calls = {}
    for top in ("src", "tests", "demos", "bench"):
        for directory, _, files in os.walk(os.path.join(ROOT, top)):
            for name in (n for n in files if n.endswith(".py")):
                with open(os.path.join(directory, name)) as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Call):
                        key = getattr(node.func, "id",
                                      getattr(node.func, "attr", None))
                        calls.setdefault(key, []).append(node)
    return calls


def _sets(call, param, positional):
    """call sets param by keyword, by position, or by a * or ** expansion."""
    return (any(kw.arg in (None, param) for kw in call.keywords)
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or (param in positional
                and positional.index(param) < len(call.args)))


def _fresh_python(code, *args):
    """Run code in a new interpreter on this checkout's src/, where no
    test module has imported scipy yet; the last stdout line as JSON."""
    src = os.path.join(os.path.dirname(BENCH), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# each operation untraced and then traced, as bench/run.py runs a pass
_TRACED_OPS = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("layertrace", sys.argv[1])
layertrace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layertrace)
import vortexlab.cli as cli
tracer = layertrace.Tracer()
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[2]):
        untraced = cli.main(argv)
        tracer.install()
        try:
            codes.append((untraced, cli.main(argv)))
        finally:
            tracer.uninstall()
print(json.dumps({"codes": codes, "missing": tracer.missing(),
                  "radial_nfev": tracer.counters["radial.nfev"]}))
"""


@pytest.mark.parametrize("workload", ["sweep", "torus-verify", "radial"])
def test_fresh_traced_workload_finds_every_metric_target(workload, tmp_path):
    # the in-process test above loads the scipy set by hand; a benchmark
    # process has only what the commands import, and the five minres_*
    # metrics need scipy.sparse.linalg among it
    tree = {"domain": {"periods": [4.0, 4.0], "grid_shape": [64, 64]},
            "model": {"tau": 1.0, "epsilon": 0.2},
            "vortices": {"positive": [{"point": [2.0, 2.0]}]},
            "solver": {"continuation": [0.25, 0.2]},
            "sweep": {"epsilons": [0.3, 0.25, 0.2]},
            "verify": {"field": str(tmp_path / "tv_field.npz")},
            "output": {"dir": str(tmp_path), "prefix": "tv"}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tree))
    argvs = {
        "sweep": [["sweep", "--config", str(cfg)]],
        "torus-verify": [[c, "--config", str(cfg)]
                         for c in ("torus", "verify")],
        "radial": [["shoot", "--find-topological", "--nu", "1", "--tau", "1",
                    "--bracket", "-8", "8", "--out", str(tmp_path / "sh")],
                   ["beta-curve", "--tau", "1", "--n", "2", "--s-min", "-1",
                    "--s-max", "1", "--out", str(tmp_path / "bc")]],
    }[workload]
    result = _fresh_python(_TRACED_OPS, os.path.join(BENCH, "layertrace.py"),
                           json.dumps(argvs))
    assert result["missing"] == []
    # verify exits 3 on 64^2 (the identity rows); traced or not alike
    assert [tuple(c) for c in result["codes"]] == {
        "sweep": [(0, 0)], "torus-verify": [(0, 0), (3, 3)],
        "radial": [(0, 0), (0, 0)]}[workload]
    if workload == "radial":
        # the tracer still sees every shot through radial.solve_ivp
        shoot = json.loads((tmp_path / "sh.json").read_text())
        curve = json.loads((tmp_path / "bc.json").read_text())
        assert curve["nfev"] > 0
        assert result["radial_nfev"] == shoot["diagnostics"]["nfev"] + \
            shoot["diagnostics"]["bisect_nfev"] + curve["nfev"]


_SCIPY_AT_START_UP = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
import vortexlab.cli
loaded = [scipy_modules()]
from vortexlab import ModelParams, TorusDomain, TorusGeometry, VortexSet
from vortexlab.torus import solve_newton
dom = TorusDomain(periods=(4.0, 4.0), grid_shape=(64, 64))
solve_newton(TorusGeometry(dom, VortexSet(positive_vortices=(((2.0, 2.0),
             1),))), ModelParams(1.0, 0.25))
loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


def test_start_up_and_a_torus_solve_load_no_scipy():
    # each scipy name is imported in the function that calls it, so a
    # command pays for the modules it uses, not for all
    assert _fresh_python(_SCIPY_AT_START_UP) == [[], []]


_TORUS_TWICE = """
import contextlib, io, json, resource, sys
import vortexlab.cli as cli
runs = []
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        code = cli.main(["torus", "--config", sys.argv[1]])
        runs.append((code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                     - before))
print(json.dumps(runs))
"""


def _libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_cli_keeps_freed_grids_mapped(tmp_path):
    # cli.main keeps freed memory with the process, so a second solve
    # reuses the first one's pages: the second 128^2 torus run faulted
    # 1,323-1,614 pages under glibc's default policy and 7-9 under the
    # CLI's; the bound sits between the two
    tree = {"domain": {"periods": [4.0, 4.0], "grid_shape": [128, 128]},
            "model": {"tau": 1.0, "epsilon": 0.2},
            "vortices": {"positive": [{"point": [2.0, 2.0]}]},
            "solver": {"continuation": [0.25, 0.2]},
            "output": {"dir": str(tmp_path), "prefix": "f"}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tree))
    [(first, _), (second, faults)] = _fresh_python(_TORUS_TWICE, str(cfg))
    assert (first, second) == (0, 0)
    assert faults < 200


def test_only_the_cli_sets_the_allocator_policy():
    # a library must not change its host process's allocator: mallopt is
    # named in cli.py alone, inside a function that main calls, never at
    # import
    found = []
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in sorted(n for n in files if n.endswith(".py")):
            path = os.path.join(directory, name)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            for node in tree.body:
                found += [(name, getattr(node, "name", None))
                          for ref in ast.walk(node)
                          if "mallopt" in (getattr(ref, "id", None),
                                           getattr(ref, "attr", None))]
    assert found and set(found) == {("cli.py", "_keep_freed_memory")}
    main = next(node for node in ast.parse(inspect.getsource(cli)).body
                if getattr(node, "name", None) == "main")
    assert any(isinstance(call, ast.Call)
               and getattr(call.func, "id", None) == "_keep_freed_memory"
               for call in ast.walk(main))


def test_every_default_is_set_by_some_caller():
    calls = _calls_by_name()
    unset = ["%s(%s=)" % (name, param)
             for name, positional, defaulted in _public_functions()
             for param in defaulted
             if not any(_sets(call, param, positional)
                        for call in calls.get(name, []))]
    assert unset == []


def test_radial_shoot_is_the_one_solve_ivp_call():
    # one DOP853 call: every radial shot, the beta curve's sampled rows
    # included, goes through radial._shoot.  It calls the module-level
    # forwarder radial.solve_ivp, which calls scipy's, imported there on
    # the first shot; tests and the tracer patch the forwarder
    found, forwarder_imports = [], []
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in sorted(n for n in files if n.endswith(".py")):
            path = os.path.join(directory, name)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            for node in tree.body:
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and getattr(
                            call.func, "id",
                            getattr(call.func, "attr", None)) == "solve_ivp":
                        found.append((os.path.relpath(path, ROOT),
                                      getattr(node, "name", None)))
                if getattr(node, "name", None) == "solve_ivp":
                    forwarder_imports += [
                        (imp.module, [a.name for a in imp.names])
                        for imp in ast.walk(node)
                        if isinstance(imp, ast.ImportFrom)]
    radial_py = os.path.join("src", "vortexlab", "radial.py")
    assert found == [(radial_py, "solve_ivp"), (radial_py, "_shoot")]
    assert forwarder_imports == [("scipy.integrate", ["solve_ivp"])]


def test_only_config_writes_files():
    # config is the one writer of artifacts: open() with a write mode,
    # np.savez and atomic_path appear in config.py alone
    found = set()
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in sorted(n for n in files if n.endswith(".py")):
            with open(os.path.join(directory, name)) as fh:
                tree = ast.parse(fh.read())
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                called = getattr(call.func, "id",
                                 getattr(call.func, "attr", None))
                if called == "open":
                    modes = call.args[1:2] + [kw.value for kw in call.keywords
                                              if kw.arg == "mode"]
                    if any(not isinstance(m, ast.Constant)
                           or set(m.value) & set("wax+") for m in modes):
                        found.add((name, called))
                elif called in ("savez", "savez_compressed", "atomic_path"):
                    found.add((name, called))
    assert found == {("config.py", "open"), ("config.py", "savez"),
                     ("config.py", "atomic_path")}


def test_src_uses_no_scipy_krylov_solver():
    # torus._solve_shifted (MINRES) and stability._lopcg are the one
    # implementation of each solver: both read the operator image off
    # torus._preconditioner, which scipy's minres and lobpcg cannot
    banned = {"minres", "lobpcg", "LinearOperator"}
    found = []
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in sorted(n for n in files if n.endswith(".py")):
            path = os.path.join(directory, name)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = {a.name.rpartition(".")[2] for a in node.names}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                else:
                    continue
                found += ["%s:%d %s" % (name, node.lineno, hit)
                          for hit in sorted(names & banned)]
    assert found == []


def _schema_keys():
    """(section, key) of every config key; ("seed", "") for the one
    top-level key that is not a section."""
    pairs = set()
    for section, (checker, _, _) in config._SCHEMA.items():
        fields = inspect.getclosurevars(checker).nonlocals.get("fields")
        pairs.update((section, key) for key in fields or [""])
    return pairs


def _text(node):
    """The string of a str constant node, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _config_settings(node):
    """(section, key) pairs an AST node sets in a config: a key of a dict
    literal nested under a section key (a top-level key with any other
    value gives (key, "")), a tree["section"]["key"] = ... assignment,
    or a "section.key=..." override string."""
    if isinstance(node, ast.Dict):
        for k, v in zip(node.keys, node.values):
            section = _text(k)
            if section is None:
                continue
            if isinstance(v, ast.Dict):
                yield from ((section, key) for key in map(_text, v.keys)
                            if key is not None)
            else:
                yield section, ""
    elif isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Subscript) and \
                    isinstance(target.value, ast.Subscript):
                section, key = _text(target.value.slice), _text(target.slice)
                if section is not None and key is not None:
                    yield section, key
    else:
        match = re.match(r"(\w+)\.(\w+)=", _text(node) or "")
        if match:
            yield match.groups()


def test_every_config_key_is_set_by_some_config():
    # a JSON config parses as a Python dict literal; this file holds no
    # config, only the guards
    found = set()
    for top in ("tests", "demos", "bench"):
        for directory, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name == "test_tooling.py" or \
                        not name.endswith((".py", ".json")):
                    continue
                with open(os.path.join(directory, name)) as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    found.update(_config_settings(node))
    assert sorted(_schema_keys() - found) == []


def _readme_table_keys():
    """(section, key) of every row of the README's config table; a row
    with an empty section cell continues the one above."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    table = text.split("\n## Config schema\n", 1)[1].split("\n## ", 1)[0]
    pairs, section = set(), None
    for line in table.splitlines():
        if not line.startswith("|"):
            continue
        cells = line.strip("|").split("|")
        names = re.findall(r"`(\w+)`", cells[0])
        if names:
            (section,) = names
        elif cells[0].strip():
            continue  # the header and the rule under it
        pairs.update((section, key)
                     for key in re.findall(r"`(\w+)`", cells[1]) or [""])
    return pairs


def test_readme_config_table_matches_the_schema():
    assert _readme_table_keys() == _schema_keys()


def _stability_radial_keys():
    """The stability section's radial-profile keys: all but the target
    and the torus target's field archive."""
    return sorted(key for section, key in _schema_keys()
                  if section == "stability" and key not in ("target", "field"))


def test_radial_keys_match_the_shoot_flags():
    parser = cli.build_parser()
    (subparsers,) = [action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)]
    flags = {action.dest for action in subparsers.choices["shoot"]._actions}
    flags -= {"help", "out", "json"}
    assert sorted("r_max" if flag == "rmax" else flag for flag in flags) \
        == _stability_radial_keys()


# a schema-valid setting of each radial key
_RADIAL_SETTINGS = {"tau": 1.0, "nu": 1.0, "s": -1.0,
                    "find_topological": True, "bracket": [-8.0, 8.0],
                    "vortex_sign": 1, "r_max": 1e6, "points_per_decade": 50}


@pytest.mark.parametrize("key", _stability_radial_keys())
def test_torus_target_refuses_every_radial_key(key, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "stability": {"target": "torus", key: _RADIAL_SETTINGS[key]},
        "output": {"dir": str(tmp_path)}}))
    assert cli.main(["stability", "--config", str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "config error: does not apply to " \
        "the torus target (at /stability/%s)\n" % key
