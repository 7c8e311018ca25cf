"""Experiment configuration, artifact I/O, and the field archive.

JSON configs drive the config-driven CLI commands.  The tree is
schema-validated before any numerical work starts: unknown keys are
rejected, every violation reports the JSON pointer of the offending
node, and defaults are filled in so downstream code reads a canonical
tree.  This module is also home to the atomic file writers (temp file
plus os.replace, so readers never observe a partial artifact), the
deterministic JSON emitter (sorted keys, floats at 17 significant
digits), and the torus field archive (one .npz holding the grids plus
a JSON metadata entry).
"""

import json
import math
import os
import tempfile
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, VortexSet, check_epsilon, eps_schedule
from .torus import TorusDomain, TorusField, TorusGeometry

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "validate_config",
    "apply_overrides",
    "atomic_path",
    "write_text",
    "write_json",
    "dumps_json",
    "save_field",
    "load_field",
]


class ConfigError(ValueError):
    """Schema violation; pointer is the JSON pointer of the bad node."""

    def __init__(self, pointer, message):
        self.pointer = pointer if pointer else "/"
        self.reason = message
        super().__init__("%s (at %s)" % (message, self.pointer))


# ---------------------------------------------------------------------------
# schema checkers
#
# Every checker takes (value, pointer) and returns the canonical value
# or raises ConfigError.  The schema itself is a nested dict of
# (checker, required, default) triples.  A section absent from the file
# is filled from its {} default so accessors never need fallbacks;
# sweep and stability, whose required keys have no defaults, stay None.


def _optional(check):
    """check, with null accepted as None."""
    def optional(v, ptr):
        return None if v is None else check(v, ptr)
    return optional


def _num(positive=False, nonneg=False):
    def check(v, ptr):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(ptr, "expected a number, got %r" % (v,))
        v = float(v)
        if not math.isfinite(v):
            raise ConfigError(ptr, "must be finite, got %r" % v)
        if positive and not v > 0:
            raise ConfigError(ptr, "must be > 0, got %r" % v)
        if nonneg and v < 0:
            raise ConfigError(ptr, "must be >= 0, got %r" % v)
        return v
    return check


def _int(min_value=None, choices=None):
    def check(v, ptr):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(ptr, "expected an integer, got %r" % (v,))
        if min_value is not None and v < min_value:
            raise ConfigError(ptr, "must be >= %d, got %d" % (min_value, v))
        if choices is not None and v not in choices:
            raise ConfigError(ptr, "must be one of %s, got %d"
                              % (sorted(choices), v))
        return v
    return check


def _bool():
    def check(v, ptr):
        if not isinstance(v, bool):
            raise ConfigError(ptr, "expected true/false, got %r" % (v,))
        return v
    return check


def _str(choices=None):
    def check(v, ptr):
        if not isinstance(v, str):
            raise ConfigError(ptr, "expected a string, got %r" % (v,))
        if choices is not None and v not in choices:
            raise ConfigError(ptr, "must be one of %s, got %r"
                              % (sorted(choices), v))
        return v
    return check


def _list(item, min_len=0, exact_len=None):
    def check(v, ptr):
        if not isinstance(v, list):
            raise ConfigError(ptr, "expected a list, got %r" % (v,))
        if exact_len is not None and len(v) != exact_len:
            raise ConfigError(ptr, "expected exactly %d entries, got %d"
                              % (exact_len, len(v)))
        if len(v) < min_len:
            raise ConfigError(ptr, "expected at least %d entries, got %d"
                              % (min_len, len(v)))
        return [item(x, "%s/%d" % (ptr, i)) for i, x in enumerate(v)]
    return check


def _object(fields):
    """fields: name -> (checker, required, default); an absent key's
    default, unless None, goes through its checker too."""
    def check(v, ptr):
        if not isinstance(v, dict):
            raise ConfigError(ptr, "expected an object, got %r" % (v,))
        for key in sorted(v):
            if key not in fields:
                raise ConfigError("%s/%s" % (ptr, key), "unknown key")
        out = {}
        for key in fields:
            checker, required, default = fields[key]
            kptr = "%s/%s" % (ptr, key)
            if key in v:
                out[key] = checker(v[key], kptr)
            elif required:
                raise ConfigError(kptr, "required key is missing")
            else:
                out[key] = None if default is None else checker(default, kptr)
        return out
    return check


def _epsilon(v, ptr):
    v = _num(positive=True)(v, ptr)
    try:
        check_epsilon(v, "epsilon")
    except ValueError as e:
        raise ConfigError(ptr, str(e)) from None
    return v


def _decreasing_positive(v, ptr):
    # entries are checked one by one first, so only the order can fail
    v = _list(_epsilon, min_len=1)(v, ptr)
    try:
        return eps_schedule(v, "schedule")
    except ValueError:
        raise ConfigError(ptr, "must be strictly decreasing") from None


_VORTEX = _object({
    "point": (_list(_num(), exact_len=2), True, None),
    "multiplicity": (_int(min_value=0), False, 1),
})

_SCHEMA = {
    "seed": (_int(min_value=0), False, 0),
    "domain": (_object({
        "periods": (_list(_num(positive=True), exact_len=2), False, [1.0, 1.0]),
        "grid_shape": (_list(_int(min_value=2), exact_len=2), False, [256, 256]),
    }), False, {}),
    "model": (_object({
        "tau": (_num(positive=True), False, 1.0),
        "epsilon": (_optional(_epsilon), False, None),
    }), False, {}),
    "vortices": (_object({
        "positive": (_list(_VORTEX), False, []),
        "negative": (_list(_VORTEX), False, []),
    }), False, {}),
    "solver": (_object({
        "method": (_str(choices=("newton", "monotone")), False, "newton"),
        "continuation": (_optional(_decreasing_positive), False, None),
    }), False, {}),
    "sweep": (_object({
        "epsilons": (_decreasing_positive, True, None),
        "compute_eigen": (_bool(), False, False),
    }), False, None),
    "stability": (_object({
        "target": (_str(choices=("torus", "radial")), True, None),
        "field": (_optional(_str()), False, None),
        "tau": (_optional(_num(positive=True)), False, None),
        "nu": (_optional(_num(nonneg=True)), False, None),
        "s": (_optional(_num()), False, None),
        "find_topological": (_bool(), False, False),
        "bracket": (_optional(_list(_num(), exact_len=2)), False, None),
        "vortex_sign": (_optional(_int(choices=(-1, 1))), False, None),
        "r_max": (_optional(_num(positive=True)), False, None),
        "points_per_decade": (_optional(_int(min_value=10)), False, None),
    }), False, None),
    "verify": (_object({
        "field": (_optional(_str()), False, None),
    }), False, {}),
    "output": (_object({
        "dir": (_str(), False, "."),
        "prefix": (_str(), False, "run"),
    }), False, {}),
}


def validate_config(raw):
    """Canonicalize a raw config tree, raising ConfigError on violation."""
    return _object(_SCHEMA)(raw, "")


def apply_overrides(raw, overrides):
    """Apply key=value overrides (dot paths, JSON-parsed values) to raw.

    Values that fail to parse as JSON are taken as literal strings, so
    --override output.prefix=run7 works without inner quoting.
    """
    raw = json.loads(json.dumps(raw))  # deep copy, keeps plain types
    for text in overrides:
        if "=" not in text:
            raise ConfigError("/", "override %r is not of the form key=value"
                              % text)
        key, _, value_text = text.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("/", "override %r has an empty key" % text)
        try:
            value = json.loads(value_text)
        except ValueError:
            value = value_text
        parts = key.split(".")
        node = raw
        for i, part in enumerate(parts[:-1]):
            ptr = "/" + "/".join(parts[:i + 1])
            if isinstance(node, list):
                node = node[_list_index(node, part, ptr)]
            elif isinstance(node, dict):
                node = node.setdefault(part, {})
            else:
                raise ConfigError(ptr, "cannot descend into %r" % (node,))
        last = parts[-1]
        ptr = "/" + "/".join(parts)
        if isinstance(node, list):
            node[_list_index(node, last, ptr)] = value
        elif isinstance(node, dict):
            node[last] = value
        else:
            raise ConfigError(ptr, "cannot assign into %r" % (node,))
    return raw


def _list_index(node, part, ptr):
    try:
        idx = int(part)
    except ValueError:
        raise ConfigError(ptr, "list index expected, got %r" % part)
    if not -len(node) <= idx < len(node):
        raise ConfigError(ptr, "index %d out of range (length %d)"
                          % (idx, len(node)))
    return idx


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated config tree with typed accessors for the solver objects."""

    tree: dict

    @property
    def seed(self):
        return self.tree["seed"]

    def section(self, name):
        """An optional section the command needs: ConfigError if absent."""
        if self.tree[name] is None:
            raise ConfigError("/%s" % name,
                              "section required by this command")
        return self.tree[name]

    def geometry(self):
        """The torus and its vortices, snapped: a command's one geometry."""
        d, v = self.tree["domain"], self.tree["vortices"]
        try:
            domain = TorusDomain(periods=tuple(d["periods"]),
                                 grid_shape=tuple(d["grid_shape"]))
        except ValueError as e:
            raise ConfigError("/domain", str(e))
        try:
            return TorusGeometry(domain, VortexSet(
                positive_vortices=tuple((tuple(e["point"]), e["multiplicity"])
                                        for e in v["positive"]),
                negative_vortices=tuple((tuple(e["point"]), e["multiplicity"])
                                        for e in v["negative"])))
        except ValueError as e:
            raise ConfigError("/vortices", str(e))

    def params(self):
        """ModelParams at the last continuation stage, else model.epsilon;
        when both are set they must agree."""
        m = self.tree["model"]
        continuation = self.tree["solver"]["continuation"]
        eps = m["epsilon"] if continuation is None else continuation[-1]
        if eps is None:
            raise ConfigError("/model/epsilon", "required by this command")
        if m["epsilon"] not in (None, eps):
            raise ConfigError("/model/epsilon", "%r differs from the last "
                              "solver.continuation stage %r"
                              % (m["epsilon"], eps))
        try:
            return ModelParams(tau=m["tau"], epsilon=eps)
        except ValueError as e:
            raise ConfigError("/model", str(e))


def load_config(path, overrides=()):
    """Read, override, validate; returns an ExperimentConfig."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError("/", "cannot read config: %s" % e)
    except ValueError as e:
        raise ConfigError("/", "config is not valid JSON: %s" % e)
    if overrides:
        raw = apply_overrides(raw, overrides)
    return ExperimentConfig(tree=validate_config(raw))


# ---------------------------------------------------------------------------
# atomic artifact writers and deterministic JSON


@contextmanager
def atomic_path(path):
    """Yield a temp path in the target directory; rename over on success."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix="-" + os.path.basename(path))
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _json_scalar(v):
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return "%d" % int(v)
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isnan(v):
            return "NaN"
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return "%.17g" % v
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError("not JSON-serializable: %r" % (v,))


def _small(v):
    return not (isinstance(v, np.ndarray) and v.size > 64)


def dumps_json(obj, _indent=0):
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    numpy scalars are written as numbers and arrays as lists; a dict or
    list leaves out an array of more than 64 entries (with its key).  Any
    other type raises TypeError.
    """
    pad = "  " * _indent
    inner = "  " * (_indent + 1)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        parts = ["%s%s: %s" % (inner, json.dumps(str(k)),
                               dumps_json(obj[k], _indent + 1))
                 for k in sorted(obj, key=str) if _small(obj[k])]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}" if parts else "{}"
    if isinstance(obj, (list, tuple)):
        parts = ["%s%s" % (inner, dumps_json(x, _indent + 1))
                 for x in obj if _small(x)]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]" if parts else "[]"
    return _json_scalar(obj)


def write_text(path, text):
    with atomic_path(path) as tmp:
        with open(tmp, "w") as fh:
            fh.write(text)


def write_json(path, obj):
    write_text(path, dumps_json(obj) + "\n")


# ---------------------------------------------------------------------------
# field archive: one .npz with v and a JSON metadata entry; u0 is rebuilt
# from the geometry the metadata names


def save_field(fld, path):
    """Archive a TorusField as .npz: v plus JSON metadata."""
    meta = {
        "periods": list(fld.domain.periods),
        "grid_shape": list(fld.domain.grid_shape),
        "tau": fld.params.tau,
        "epsilon": fld.params.epsilon,
        "positive": [[list(p), m] for p, m in fld.vortices.positive_vortices],
        "negative": [[list(p), m] for p, m in fld.vortices.negative_vortices],
        "diagnostics": fld.diagnostics,
    }
    with atomic_path(path) as tmp:
        with open(tmp, "wb") as fh:
            np.savez(fh, v=fld.v,
                     meta=np.bytes_(dumps_json(meta).encode()))


def load_field(path):
    """Rebuild a TorusField from an archive written by save_field; its u0
    is the rebuilt geometry's (older archives' u0 entry is not read).  A
    bad zip, a missing entry, a missing or mistyped meta key, or an older
    archive's "nonlinearity" entry other than "SigmaO3" raises one
    ValueError that names the archive."""
    try:
        with np.load(path) as npz:
            v = np.array(npz["v"], dtype=float)
            meta = json.loads(bytes(npz["meta"].tolist()).decode())
        if "nonlinearity" in meta and meta["nonlinearity"] != "SigmaO3":
            raise ValueError("nonlinearity %r is not this model's SigmaO3"
                             % (meta["nonlinearity"],))
        domain = TorusDomain(periods=tuple(meta["periods"]),
                             grid_shape=tuple(meta["grid_shape"]))
        pos, neg = (tuple((tuple(p), m) for p, m in meta[key])
                    for key in ("positive", "negative"))
        vortices = VortexSet(positive_vortices=pos, negative_vortices=neg)
        params = ModelParams(tau=meta["tau"], epsilon=meta["epsilon"])
        if v.shape != domain.grid_shape:
            raise ValueError("grids do not match the stored grid_shape")
        return TorusField(geometry=TorusGeometry(domain, vortices),
                          params=params, v=v,
                          diagnostics=meta.get("diagnostics", {}))
    except (KeyError, TypeError, ValueError, zipfile.BadZipFile) as e:
        raise ValueError("malformed field archive %s (%s: %s)"
                         % (path, type(e).__name__, e)) from e
