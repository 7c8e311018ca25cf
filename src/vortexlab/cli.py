"""Command line interface.

Subcommands: shoot (one radial profile), beta-curve (flux against the
shooting parameter), torus (periodic solve plus field archive),
stability (principal eigenvalue and classification), sweep
(small-epsilon family with trend verdict), verify (identity battery on
a solved or stored field).

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
failure, 3 verification failure.  shoot and beta-curve are flag
driven; the rest read a JSON config (--config, with --override
key=value patches applied before validation).  Every command accepts
--json and then prints exactly one machine-readable document on
stdout.  Floating-point output carries 17 significant digits and file
artifacts are written atomically, so reruns with the same config are
byte-identical.
"""

import argparse
import ctypes
import functools
import math
import os
import re
import sys
import warnings

import numpy as np

from . import asymptotics, torus
from .asymptotics import (SweepError, classify_alternative, pohozaev_value,
                          run_sweep, squared_ratio_test)
from .config import (ConfigError, dumps_json, export_curve_csv,
                     export_profile_csv, export_sweep_csv, load_config,
                     load_field, save_field, write_json)
from .model import check_hypotheses
from .radial import (R_MAX, BracketError, IntegrationFailureError,
                     compute_beta_curve, find_topological, integrate_radial)
from .stability import (EigenConvergenceError, WeightIndefiniteError,
                        classify_stability, default_torus_margin,
                        principal_eigen_torus, weighted_eigen_radial)
from .torus import (CapacityError, ConvergenceError, MonotonicityError,
                    NewtonDivergenceError, identity_check,
                    mass_bound_report, solve_monotone, solve_newton,
                    total_mass)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

_NUMERICAL = (IntegrationFailureError, BracketError, NewtonDivergenceError,
              ConvergenceError, MonotonicityError, CapacityError,
              EigenConvergenceError, WeightIndefiniteError, SweepError)

# glibc mallopt parameters: never trim the heap top back to the system,
# and serve every block under 32 MiB (the 64-bit maximum) from the heap
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_NO_TRIM = 2 ** 31 - 1
_MMAP_MAX = 32 * 1024 * 1024

_RADIAL_MARGIN = 1e-8
# the shot settings of a radial profile request: shoot's flags and the
# stability section's keys; None leaves the shooter's default
_SHOT_KEYS = ("tau", "nu", "vortex_sign", "r_max", "points_per_decade")
# verify's gates: residual_sup at _RESIDUAL_FACTOR times the solvers'
# residual gate, the mass identity relative to 4 pi max(1, N1 + N2), the
# a-identities at each of _A_VALUES, and every Pohozaev balance
_RESIDUAL_FACTOR = 50.0
_MASS_TOL = 1e-6
_A_VALUES = (0.5, 1.0, 2.0)
_IDENTITY_TOL = 1e-3
_POHOZAEV_TOL = 1e-3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse alone reads -1e-3 and -inf as options; no option here
        # is numeric, and float() takes inf, infinity and nan in any case
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$",
            re.IGNORECASE)

    def error(self, message):
        raise _UsageError("%s: %s" % (self.prog, message))


def _fmt(x):
    return "%.17g" % float(x)


def _finish(args, summary, lines, out_json, wrote=(), code=EXIT_OK):
    """Every command's end: write summary to out_json, print it (--json)
    or the text lines and the files written, and return the exit code."""
    write_json(out_json, summary)
    if args.json:
        print(dumps_json(summary))
    else:
        for line in lines:
            print(line)
        print("wrote %s" % ", ".join((*wrote, out_json)))
    return code


def _outpath(cfg, suffix):
    out = cfg.tree["output"]
    os.makedirs(out["dir"], exist_ok=True)
    return os.path.join(out["dir"], out["prefix"] + suffix)


# ---------------------------------------------------------------------------
# shoot


def _profile(req, refuse):
    """The radial profile of shoot and of the radial stability target:
    the topological one bisected in req["bracket"], or shot from req["s"];
    only the _SHOT_KEYS the request sets are passed on.  Bisection sets
    its own radius.  refuse(key, text) raises the caller's error for a
    request that breaks a rule."""
    if req["find_topological"]:
        if req["bracket"] is None:
            refuse("bracket", "required with find_topological")
        for key in ("s", "r_max"):
            if req[key] is not None:
                refuse(key, "does not apply with find_topological")
    elif req["s"] is None:
        refuse("s", "required unless find_topological is set")
    elif req["bracket"] is not None:
        refuse("bracket", "only applies with find_topological")
    shot = {key: req[key] for key in _SHOT_KEYS if req[key] is not None}
    if req["find_topological"]:
        return find_topological(tuple(req["bracket"]), **shot)
    return integrate_radial(req["s"], **shot)


def _refuse_flag(key, text):
    raise _UsageError("shoot: --%s %s" % (
        key.replace("_", ""),
        text.replace("find_topological", "--find-topological")))


def cmd_shoot(args):
    sol = _profile(dict(vars(args), r_max=args.rmax), _refuse_flag)
    out_csv = args.out + ".csv"
    export_profile_csv(sol, out_csv)
    summary = {
        "s": sol.s, "nu": sol.nu, "tau": sol.tau,
        "vortex_sign": sol.vortex_sign,
        "beta": sol.beta, "bc_type": sol.bc_type.value,
        "c_log": sol.c_log, "grid_points": int(sol.grid.shape[0]),
        "diagnostics": sol.diagnostics,
        "profile_csv": out_csv,
    }
    return _finish(args, summary, [
        "s = %s" % _fmt(sol.s),
        "beta = %s" % _fmt(sol.beta),
        "bc_type = %s" % sol.bc_type.value,
        "first_integral_residual = %s"
        % _fmt(sol.diagnostics.get("first_integral_residual", float("nan"))),
    ], args.out + ".json", wrote=(out_csv,))


# ---------------------------------------------------------------------------
# beta-curve


def cmd_beta_curve(args):
    for flag, value in (("s-min", args.s_min), ("s-max", args.s_max)):
        if not math.isfinite(value):
            raise _UsageError("beta-curve: --%s must be finite, got %r"
                              % (flag, value))
    if not args.s_min < args.s_max:
        raise _UsageError("beta-curve: need --s-min < --s-max")
    if args.n < 2:
        raise _UsageError("beta-curve: need --n >= 2")
    s_values = [s for s in np.linspace(args.s_min, args.s_max, args.n)
                if s != 0.0]
    curve = compute_beta_curve(args.tau, s_values, r_max=args.rmax)
    out_csv = args.out + ".csv"
    export_curve_csv(curve, out_csv)
    summary = {
        "tau": curve.tau,
        "n_requested": args.n,
        "n_sampled": len(curve.samples),
        "monotone_violations": curve.monotone_violations,
        "failures": [{"s": s, "message": msg} for s, msg in curve.failures],
        "nfev": curve.nfev,
        "curve_csv": out_csv,
    }
    failed = args.strict and (curve.monotone_violations or curve.failures)
    return _finish(args, summary, [
        "samples = %d" % len(curve.samples),
        "monotone_violations = %d" % curve.monotone_violations,
        "failures = %d" % len(curve.failures),
    ], args.out + ".json", wrote=(out_csv,),
        code=EXIT_NUMERICAL if failed else EXIT_OK)


# ---------------------------------------------------------------------------
# torus


def _field(cfg, path=None):
    """The field archive at path, else the config's own solve."""
    if path is not None:
        return load_field(path)
    geometry = cfg.geometry()
    solver = cfg.tree["solver"]
    params = cfg.params()
    if solver["method"] == "monotone":
        return solve_monotone(geometry, params)
    return solve_newton(geometry, params, continuation=solver["continuation"])


def _field_summary(cfg, fld):
    rep = check_hypotheses(fld.vortices, fld.params)
    return {
        "seed": cfg.seed,
        "tau": fld.params.tau,
        "epsilon": fld.params.epsilon,
        "periods": list(fld.domain.periods),
        "grid_shape": list(fld.domain.grid_shape),
        "N1": fld.vortices.N1,
        "N2": fld.vortices.N2,
        "residual_sup": fld.diagnostics["residual"],
        "total_mass": total_mass(fld),
        "mass_bound": mass_bound_report(fld),
        "u_min": float(np.min(fld.u)),
        "u_max": float(np.max(fld.u)),
        "hypotheses": {"h1": rep.h1_holds, "h2": rep.h2_holds},
        "diagnostics": fld.diagnostics,
    }


def cmd_torus(args):
    cfg = load_config(args.config, args.override)
    fld = _field(cfg)
    out_npz = _outpath(cfg, "_field.npz")
    save_field(fld, out_npz)
    summary = _field_summary(cfg, fld)
    summary["field_archive"] = out_npz
    return _finish(args, summary, [
        "epsilon = %s" % _fmt(fld.params.epsilon),
        "residual_sup = %s" % _fmt(summary["residual_sup"]),
        "total_mass = %s" % _fmt(summary["total_mass"]),
        "u_min = %s" % _fmt(summary["u_min"]),
        "u_max = %s" % _fmt(summary["u_max"]),
    ], _outpath(cfg, "_summary.json"), wrote=(out_npz,))


# ---------------------------------------------------------------------------
# stability


def cmd_stability(args):
    cfg = load_config(args.config, args.override)
    block = cfg.section("stability")

    def refuse(key, text):
        raise ConfigError("/stability/" + key, text)

    if block["target"] == "torus":
        for key in ("s", "find_topological", "bracket") + _SHOT_KEYS:
            if block[key] is not None and block[key] is not False:
                refuse(key, "does not apply to the torus target")
        fld = _field(cfg, block["field"])
        result = principal_eigen_torus(fld)
        margin = default_torus_margin(fld.params)
        extra = {"epsilon": fld.params.epsilon, "tau": fld.params.tau}
    else:
        if block["field"] is not None:
            refuse("field", "does not apply to the radial target")
        model = cfg.tree["model"]
        tau = model["tau"] if block["tau"] is None else block["tau"]
        sol = _profile(dict(block, tau=tau), refuse)
        result = weighted_eigen_radial(sol)
        margin = _RADIAL_MARGIN
        extra = {"s": sol.s, "nu": sol.nu, "tau": sol.tau,
                 "bc_type": sol.bc_type.value}

    cls = classify_stability(result, margin)
    summary = dict(extra)
    summary.update({
        "seed": cfg.seed,
        "target": block["target"],
        "eigenvalue": result.eigenvalue,
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "margin": margin,
        "classification": cls.value,
        "diagnostics": result.diagnostics,
    })
    return _finish(args, summary, [
        "eigenvalue = %s" % _fmt(result.eigenvalue),
        "residual_norm = %s" % _fmt(result.residual_norm),
        "margin = %s" % _fmt(margin),
        "classification = %s" % cls.value,
    ], _outpath(cfg, "_stability.json"))


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args):
    cfg = load_config(args.config, args.override)
    block = cfg.section("sweep")
    if len(block["epsilons"]) < 3:
        raise ConfigError("/sweep/epsilons",
                          "need at least 3 steps to classify a trend")
    model = cfg.tree["model"]
    records = run_sweep(cfg.geometry(), model["tau"], block["epsilons"],
                        compute_eigen=block["compute_eigen"],
                        keep_fields=False)
    out_csv = _outpath(cfg, "_sweep.csv")
    export_sweep_csv(records, out_csv)
    ok = [rec for rec in records if rec.ok]
    if len(ok) < 3:
        raise SweepError("%d of %d steps solved, need 3 for a verdict; see %s"
                         % (len(ok), len(records), out_csv))
    no_eigen = ["eps = %s: %s" % (_fmt(rec.epsilon), rec.eigen_error)
                for rec in ok if rec.eigen_error]
    if no_eigen:
        raise SweepError("eigen solve failed at %s; see %s"
                         % ("; ".join(no_eigen), out_csv))
    verdict = classify_alternative(records)

    ratio = None
    if verdict.kind is asymptotics.Alternative.A_UNIFORM_ZERO:
        eps = [rec.epsilon for rec in ok]
        vals = [max(abs(rec.sup_K), abs(rec.inf_K)) for rec in ok]
        passed, detail = squared_ratio_test(eps, vals)
        ratio = {"passed": passed, "detail": detail}

    summary = {
        "seed": cfg.seed,
        "tau": model["tau"],
        "n_steps": len(records),
        "n_failed": len(records) - len(ok),
        "verdict": verdict.kind.value,
        "evidence": verdict.evidence,
        "squared_ratio": ratio,
        "sweep_csv": out_csv,
    }
    lines = []
    for rec in records:
        if not rec.ok:
            lines.append("eps = %s  FAILED: %s" % (_fmt(rec.epsilon),
                                                   rec.error))
            continue
        line = "eps = %s  sup_K = %s  inf_K = %s  mass = %s" % (
            _fmt(rec.epsilon), _fmt(rec.sup_K), _fmt(rec.inf_K),
            _fmt(rec.total_abs_mass))
        if rec.eigen is not None:
            line += "  mu = %s" % _fmt(rec.eigen.eigenvalue)
        lines.append(line)
    lines.append("verdict = %s" % verdict.kind.value)
    lines.append("n_underresolved = %d" % verdict.evidence["n_underresolved"])
    if ratio is not None:
        state = {True: "pass", False: "fail", None: "inconclusive"}
        lines.append("squared_ratio = %s" % state[ratio["passed"]])
    return _finish(args, summary, lines, _outpath(cfg, "_verdict.json"),
                   wrote=(out_csv,))


# ---------------------------------------------------------------------------
# verify


def _solver_block(fld):
    """What the solve says of its own validity, from the field's
    diagnostics: the last Newton stage's grid_shape, resolved and
    h_over_eps (a monotone field's own), minres_failed and snap_moves;
    None where the diagnostics lack a key.  Reported beside the rows,
    not gated."""
    diag = fld.diagnostics
    last = (diag.get("stages") or [diag])[-1]
    block = {key: last.get(key)
             for key in ("grid_shape", "resolved", "h_over_eps")}
    block.update((key, diag.get(key)) for key in ("minres_failed",
                                                  "snap_moves"))
    return block


def cmd_verify(args):
    cfg = load_config(args.config, args.override)
    block = cfg.tree["verify"]
    fld = _field(cfg, block["field"])

    rows = []

    def add(name, value, tol):
        rows.append({"name": name, "value": float(value), "tol": float(tol),
                     "passed": bool(value <= tol)})

    add("residual_sup", fld.residual_norm(),
        torus._solver_tol(fld.params, _RESIDUAL_FACTOR))

    target = 4.0 * np.pi * (fld.vortices.N1 - fld.vortices.N2)
    scale = 4.0 * np.pi * max(1, fld.vortices.N1 + fld.vortices.N2)
    add("mass_identity", abs(total_mass(fld) - target) / scale, _MASS_TOL)

    for a in _A_VALUES:
        _, _, rel = identity_check(fld, a)
        add("identity_a=%g" % a, rel, _IDENTITY_TOL)

    # 0.45 of the minimal vortex separation, self-images included
    r = 0.45 * asymptotics._min_separation(fld.geometry)
    for k in range(len(fld.vortices.signed())):
        _, _, resid = pohozaev_value(fld, vortex_id=k, r=r)
        add("pohozaev_v%d" % k, resid, _POHOZAEV_TOL)
    if not len(fld.vortices):
        _, _, resid = pohozaev_value(fld, r=r)
        add("pohozaev_center", resid, _POHOZAEV_TOL)

    all_passed = all(row["passed"] for row in rows)
    summary = {
        "seed": cfg.seed,
        "field": ("solved from config" if block["field"] is None
                  else block["field"]),
        "epsilon": fld.params.epsilon,
        "tau": fld.params.tau,
        "rows": rows,
        "all_passed": all_passed,
        "solver": _solver_block(fld),
    }
    width = max((len(row["name"]) for row in rows), default=4)
    lines = []
    for row in rows:
        lines.append("%s  %-*s  value = %s  tol = %s"
                     % ("PASS" if row["passed"] else "FAIL", width,
                        row["name"], _fmt(row["value"]), _fmt(row["tol"])))
    lines.append("all_passed = %s" % ("true" if all_passed else "false"))
    return _finish(args, summary, lines, _outpath(cfg, "_verify.json"),
                   code=EXIT_OK if all_passed else EXIT_VERIFY)


# ---------------------------------------------------------------------------
# parser


def _add_config_flags(p):
    p.add_argument("--config", required=True, help="path to the JSON config")
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="dot-path config patch, JSON-parsed value")
    p.add_argument("--json", action="store_true",
                   help="print one machine-readable JSON document")


def build_parser():
    parser = _Parser(prog="vortexlab",
                     description="gauged O(3) vortex equation laboratory")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("shoot", help="integrate one radial profile")
    p.add_argument("--tau", type=float, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--s", type=float, help="initial value u(0), or the "
                   "series coefficient in singular mode")
    g.add_argument("--find-topological", action="store_true",
                   help="bisect --bracket for the connecting profile")
    p.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--nu", type=float)
    p.add_argument("--rmax", type=float,
                   help="outer radius of an --s shot (default %g)" % R_MAX)
    p.add_argument("--vortex-sign", type=int, choices=(-1, 1))
    p.add_argument("--points-per-decade", type=int)
    p.add_argument("--out", default="shoot", help="output prefix")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_shoot)

    p = sub.add_parser("beta-curve", help="sample beta(s) over a range")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--s-min", type=float, required=True)
    p.add_argument("--s-max", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rmax", type=float, default=R_MAX)
    p.add_argument("--out", default="beta", help="output prefix")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 on monotonicity violations or failures")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_beta_curve)

    p = sub.add_parser("torus", help="solve the periodic vortex equation")
    _add_config_flags(p)
    p.set_defaults(func=cmd_torus)

    p = sub.add_parser("stability", help="principal eigenvalue and class")
    _add_config_flags(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("sweep", help="epsilon sweep with trend verdict")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="identity battery on a field")
    _add_config_flags(p)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _keep_freed_memory():
    """Keep freed grids mapped for the rest of the process.

    Under glibc's default policy the grids a solver frees go back to
    the system, as unmapped blocks or as a trimmed heap top, and the
    pages of the next grid fault in again.  Setting both thresholds
    freezes glibc's dynamic ones (either alone faults more than the
    default).  A no-op where libc has no mallopt.  Only the CLI sets
    it: importing the library leaves the host process's allocator
    alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _NO_TRIM)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_MAX)


def main(argv=None):
    _keep_freed_memory()
    # a warning the filters let through is shown as one line; a caller
    # that records warnings still receives them
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: "warning: %s\n" % message
    # ConfigError and BracketError are ValueErrors, so the order matters
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except _NUMERICAL as e:
        print("numerical failure: %s" % e, file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
