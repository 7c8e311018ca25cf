"""Seeded inputs, CLI operations and output checks of the benchmark workloads.

A workload is one pass: a fixed list of ``vortexlab`` CLI invocations run
in one process, in a working directory that holds the generated config
files.  ``build(name, seed, workdir)`` writes those configs and returns the
operations; the program under test sees only the configs and argv.

Each operation carries a check that reads the artifacts the command wrote
and returns ``(ok, reason, fingerprints)``.  Checks gate only on what the
CLI's exit code, the classification it prints, or the acceptance battery
already decides; every other number is a fingerprint, recorded but not
gated, so that a speed-up that moves an answer shows up beside its timing.
"""

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field

PERIOD = 4.0
# vortex points sit on multiples of PERIOD / 64, so they lie on every
# power-of-two grid from 64^2 up and never snap
LATTICE = 64
MIN_SEPARATION = 1.2
TAU = 1.0
DEMO_EPSILONS = [0.25, 0.19858, 0.15774, 0.12531, 0.09953, 0.07906, 0.0628,
                 0.05]
TORUS_CONTINUATION = [0.25, 0.2, 0.15, 0.12, 0.1]
# (nu, tau, half-width) of the acceptance battery's radial quantization
# cases; the seed scales each bracket end by a factor in [0.9, 1.1]
SHOOT_CASES = ((1.0, 1.0, 8.0), (2.0, 1.0, 16.0), (1.0, 0.5, 8.0))

WORKLOADS = ("radial", "sweep", "torus-verify")


@dataclass
class Op:
    """One CLI invocation and the check of what it wrote."""

    command: str
    argv: list
    check: object  # (exit code, stdout text) -> (ok, reason, fingerprints)
    artifacts: list = field(default_factory=list)  # must repeat byte for byte


def periodic_distance(p, q):
    dx = abs(p[0] - q[0]) % PERIOD
    dy = abs(p[1] - q[1]) % PERIOD
    return math.hypot(min(dx, PERIOD - dx), min(dy, PERIOD - dy))


def vortex_points(rng, count):
    """Grid-aligned points with pairwise periodic separation >= 1.2."""
    step = PERIOD / LATTICE
    while True:
        pts = [(rng.randrange(LATTICE) * step, rng.randrange(LATTICE) * step)
               for _ in range(count)]
        if all(periodic_distance(p, q) >= MIN_SEPARATION
               for i, p in enumerate(pts) for q in pts[i + 1:]):
            return pts


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _fmt(x):
    return repr(float(x))


def _write_config(workdir, name, seed, tree):
    # the config's own seed field (non-negative) names the inputs in
    # every summary the CLI writes
    tree = dict(tree, seed=seed % 2 ** 31)
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(tree, fh, indent=1, sort_keys=True)
    return name


def _exit_ok(rc):
    return (True, "") if rc == 0 else (False, "exit code %r" % (rc,))


# ---------------------------------------------------------------------------
# radial: DOP853 shooting on scalar kernel calls


def _check_shoot(prefix):
    def check(rc, _out):
        ok, why = _exit_ok(rc)
        if not ok:
            return ok, why, {}
        doc = _read_json(prefix + ".json")
        fp = {"beta": doc["beta"], "s": doc["s"],
              "first_integral_residual":
                  doc["diagnostics"]["first_integral_residual"]}
        if doc["bc_type"] != "Topological":
            return False, "bc_type %s" % doc["bc_type"], fp
        return True, "", fp
    return check


def _check_beta_curve(prefix, n, negative_branch):
    # the structure acceptance criterion 1 checks on both branches
    def check(rc, _out):
        ok, why = _exit_ok(rc)
        if not ok:
            return ok, why, {}
        doc = _read_json(prefix + ".json")
        with open(prefix + ".csv") as fh:
            betas = [float(row["beta"]) for row in csv.DictReader(fh)]
        fp = {"beta_first": betas[0] if betas else None,
              "beta_last": betas[-1] if betas else None}
        if doc["failures"] or doc["n_sampled"] != n:
            return False, "%d failures, %d of %d sampled" % (
                len(doc["failures"]), doc["n_sampled"], n), fp
        if doc["monotone_violations"]:
            return False, "%d monotone violations" % (
                doc["monotone_violations"]), fp
        if negative_branch and not all(b > 4.0 for b in betas):
            return False, "beta <= 4 on the s < 0 branch", fp
        if not negative_branch and not all(b < -4.0 for b in betas):
            return False, "beta >= -4 on the s > 0 branch", fp
        return True, "", fp
    return check


def _check_stability(path, expected):
    def check(rc, _out):
        ok, why = _exit_ok(rc)
        if not ok:
            return ok, why, {}
        doc = _read_json(path)
        fp = {"mu": doc["eigenvalue"], "residual_norm": doc["residual_norm"]}
        if doc["classification"] != expected:
            return False, "classification %s" % doc["classification"], fp
        return True, "", fp
    return check


def _radial(rng, seed, workdir):
    ops = []
    for k, (nu, tau, half) in enumerate(SHOOT_CASES):
        lo = -half * rng.uniform(0.9, 1.1)
        hi = half * rng.uniform(0.9, 1.1)
        prefix = "out/shoot%d" % k
        ops.append(Op("shoot",
                      ["shoot", "--find-topological", "--nu", _fmt(nu),
                       "--tau", _fmt(tau), "--bracket", _fmt(lo), _fmt(hi),
                       "--out", prefix],
                      _check_shoot(prefix),
                      [prefix + ".csv", prefix + ".json"]))
    # ranges stay inside the acceptance battery's [-8, -0.25] and
    # [0.25, 8], where beta is monotone and both branch bounds hold
    branches = (("out/beta_neg", -8.0 + 0.5 * rng.random(),
                 -0.25 - 0.1 * rng.random(), True),
                ("out/beta_pos", 0.25 + 0.1 * rng.random(),
                 8.0 - 0.5 * rng.random(), False))
    for prefix, s_min, s_max, negative in branches:
        ops.append(Op("beta-curve",
                      ["beta-curve", "--tau", _fmt(TAU), "--n", "16",
                       "--s-min", _fmt(s_min), "--s-max", _fmt(s_max),
                       "--out", prefix],
                      _check_beta_curve(prefix, 16, negative),
                      [prefix + ".csv", prefix + ".json"]))
    cfg = _write_config(workdir, "stability.json", seed, {
        "stability": {"target": "radial", "s": -1.0, "tau": TAU},
        "output": {"dir": "out", "prefix": "radial"},
    })
    ops.append(Op("stability", ["stability", "--config", cfg],
                  _check_stability("out/radial_stability.json", "Unstable"),
                  ["out/radial_stability.json"]))
    return ops


# ---------------------------------------------------------------------------
# sweep: warm-started Newton plus a principal eigenvalue per step


def _check_sweep(grid_n):
    h = PERIOD / grid_n

    def check(rc, out):
        ok, why = _exit_ok(rc)
        if not ok:
            return ok, why, {}
        doc = _read_json("out/sweep_verdict.json")
        with open("out/sweep_sweep.csv") as fh:
            eps = [float(row["epsilon"]) for row in csv.DictReader(fh)]
        mus = [float(line.rsplit("mu = ", 1)[1]) for line in out.splitlines()
               if " mu = " in line]
        fp = {"mu_first": mus[0] if mus else None,
              "mu_last": mus[-1] if mus else None,
              "sup_K_last": doc["evidence"].get("sup_last"),
              "squared_ratio": (doc["squared_ratio"] or {}).get("passed"),
              "underresolved_steps": sum(1 for e in eps if h > e / 4.0)}
        if doc["n_failed"] != 0:
            return False, "%d failed steps" % doc["n_failed"], fp
        if doc["verdict"] != "A_uniform_zero":
            return False, "verdict %s" % doc["verdict"], fp
        if len(mus) != doc["n_steps"]:
            return False, "%d eigenvalues for %d steps" % (
                len(mus), doc["n_steps"]), fp
        return True, "", fp
    return check


def _sweep(rng, seed, workdir):
    grid_n = 256
    (p,) = vortex_points(rng, 1)
    cfg = _write_config(workdir, "sweep.json", seed, {
        "domain": {"periods": [PERIOD, PERIOD], "grid_shape": [grid_n, grid_n]},
        "model": {"tau": TAU},
        "vortices": {"positive": [{"point": list(p), "multiplicity": 1}]},
        "sweep": {"epsilons": DEMO_EPSILONS, "compute_eigen": True},
        "output": {"dir": "out", "prefix": "sweep"},
    })
    return [Op("sweep", ["sweep", "--config", cfg], _check_sweep(grid_n),
               ["out/sweep_sweep.csv", "out/sweep_verdict.json"])]


# ---------------------------------------------------------------------------
# torus-verify: cold continuation solve at 512^2, then the audit battery


def _check_torus(rc, _out):
    ok, why = _exit_ok(rc)
    if not ok:
        return ok, why, {}
    doc = _read_json("out/tv_summary.json")
    stages = doc["diagnostics"]["stages"]
    return True, "", {"residual_sup": doc["residual_sup"],
                      "total_mass": doc["total_mass"],
                      "newton_steps": sum(st["iterations"] for st in stages)}


def _check_verify(rc, _out):
    # verify exits 3 when a row fails its tolerance; require 0 and every row
    doc = _read_json("out/tv_verify.json")
    fp = {row["name"]: row["value"] for row in doc["rows"]}
    if rc != 0 or not doc["all_passed"]:
        failed = [row["name"] for row in doc["rows"] if not row["passed"]]
        return False, "exit code %r, failed rows %s" % (rc, failed), fp
    return True, "", fp


def _torus_verify(rng, seed, workdir):
    pts = vortex_points(rng, 4)
    cfg = _write_config(workdir, "torus_verify.json", seed, {
        "domain": {"periods": [PERIOD, PERIOD], "grid_shape": [512, 512]},
        "model": {"tau": TAU, "epsilon": TORUS_CONTINUATION[-1]},
        "vortices": {
            "positive": [{"point": list(q), "multiplicity": 1}
                         for q in pts[:2]],
            "negative": [{"point": list(q), "multiplicity": 1}
                         for q in pts[2:]]},
        "solver": {"method": "newton", "continuation": TORUS_CONTINUATION},
        "verify": {"field": "out/tv_field.npz"},
        "output": {"dir": "out", "prefix": "tv"},
    })
    # the .npz archive is not compared: np.savez stamps zip entries with
    # the wall-clock time
    return [Op("torus", ["torus", "--config", cfg], _check_torus,
               ["out/tv_summary.json"]),
            Op("verify", ["verify", "--config", cfg], _check_verify,
               ["out/tv_verify.json"])]


_OPS_FOR = {"radial": _radial, "sweep": _sweep,
             "torus-verify": _torus_verify}


def build(name, seed, workdir):
    """Write the workload's configs into workdir and return its operations."""
    rng = random.Random("%s:%d" % (name, seed))
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    return _OPS_FOR[name](rng, seed, workdir)
