"""vortexlab benchmark: end-to-end CLI workloads with a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload radial --seed 1 --seconds 20 --trace 0

Each pass of a workload calls ``vortexlab.cli.main(argv)`` in this process
for every command of the workload (see ``workloads.py``), so a command is
timed end to end without interpreter start-up; ``setup_s`` measures that
start-up separately.  Passes repeat until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` runs each operation untraced and then traced, and reports
the per-layer metrics of the traced runs (``layertrace.py``), plus the
tracing overhead: traced minus untraced time, per operation, summed.

Every operation's exit code and outputs are checked, and its CSV/JSON
artifacts must repeat byte for byte across passes.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The
lines before it name every metric with its unit, the per-command times,
the fingerprints of the answers and the machine.  Full results and the
spans of traced runs go to ``.bench_work/results/``.

BLAS and OpenMP pools are pinned to one thread, so the numbers are a
single-threaded baseline; threading has to come from explicit code.
Later performance claims must also hold on the held-out seed 7919,
which is never used while tuning a change.
"""

import os

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_PINS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402
from layertrace import METRIC_TARGETS, Tracer  # noqa: E402

HELD_OUT_SEED = 7919
SETUP_SAMPLES = 5
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# per-layer metric units; every other per-layer metric is a count
_UNITS = {"config.artifact_bytes": "bytes"}


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def import_cli():
    """Import vortexlab.cli from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "vortexlab", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError("no vortexlab sources at %s" % SRC)
    sys.path.insert(0, SRC)
    import vortexlab.cli as cli
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.dirname(init):
        raise BenchError("imported vortexlab from %s" % cli.__file__)
    return cli


def _read_text(path):
    with open(path) as fh:
        return fh.read().strip()


def machine_block():
    import numpy
    import scipy
    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": "unknown", "caches": {},
            "thread_pins": {v: os.environ[v] for v in THREAD_PINS}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            parts = [_read_text(os.path.join(index, f))
                     for f in ("level", "type", "size")]
        except OSError:
            continue
        kind = {"Data": "d", "Instruction": "i"}.get(parts[1], "")
        info["caches"]["L%s%s" % (parts[0], kind)] = parts[2]
    return info


def timing_line(name, samples, unit="s"):
    """Median, sample count, and the highest percentile that has at least
    10 samples beyond it, when one exists."""
    n = len(samples)
    line = "%-22s median %.4f %s  n=%d" % (name, statistics.median(samples),
                                          unit, n)
    if n <= 10:
        return line + "  (no percentile has 10 samples beyond it)"
    k = n - 10
    return line + "  p%.0f %.4f %s" % (100.0 * k / n, sorted(samples)[k - 1],
                                       unit)


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_op(cli, op):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception:  # an unexpected crash is one failed operation
        rc = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - t0
    try:
        ok, reason, fingerprints = op.check(rc, out.getvalue())
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        ok, reason, fingerprints = False, "check failed: %r" % (e,), {}
    if not ok and rc is None:
        reason += "; " + err.getvalue().strip().splitlines()[-1]
    digests = {}
    for path in op.artifacts:
        digests[path] = file_digest(path) if os.path.exists(path) else None
    return {"command": op.command, "argv": op.argv, "seconds": elapsed,
            "exit_code": rc, "ok": ok, "reason": reason,
            "fingerprints": fingerprints, "digests": digests,
            "stderr": err.getvalue()[-2000:]}


def artifact_bytes(outdir):
    """Size of the pass's artifacts: every pass rewrites all of out/."""
    return sum(os.path.getsize(os.path.join(outdir, name))
               for name in os.listdir(outdir))


def run_pass(cli, ops, tracer, index):
    """One pass over the workload's operations.

    With a tracer, each operation runs untraced and then at once traced,
    so the tracing overhead is a difference of two times taken close
    together, not of two passes far apart on a host whose speed drifts.
    """
    results, traced = [], []
    if tracer is not None:
        tracer.reset()
    t0 = time.perf_counter()
    for k, op in enumerate(ops):
        results.append(run_op(cli, op))
        if tracer is not None:
            tracer.op = "%d.%d" % (index, k)
            tracer.install()
            try:
                traced.append(run_op(cli, op))
            finally:
                tracer.uninstall()
    p = {"index": index, "wall_s": time.perf_counter() - t0, "ops": results}
    if tracer is not None:
        p["traced_ops"] = traced
        p["layers"] = tracer.end_pass()
        p["layers"]["config.artifact_bytes"] = artifact_bytes("out")
    return p


def setup_sample(workload, seed):
    """Time a fresh interpreter that imports vortexlab and makes the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError("set-up probe failed: %s"
                         % proc.stderr.strip()[-500:])
    return elapsed


def pass_time(passes, command=None):
    """One pass as the sum over its operations of each one's median time.

    The host's speed drifts over seconds, so a slow stretch inflates a
    few operations; the per-operation median drops them where the median
    of whole passes would not.
    """
    per_op = zip(*[p["ops"] for p in passes])
    return sum(statistics.median(r["seconds"] for r in runs)
               for runs in per_op
               if command is None or runs[0]["command"] == command)


def tracing_overhead(passes):
    """Summed per-operation median of traced minus untraced time."""
    per_op = zip(*[zip(p["ops"], p["traced_ops"]) for p in passes])
    return sum(statistics.median(t["seconds"] - u["seconds"] for u, t in runs)
               for runs in per_op)


def check_repeats(passes):
    """Artifacts must repeat byte for byte: fail an op whose files moved."""
    first = passes[0]["ops"]
    for p in passes:
        for base, res in zip(first * 2, p["ops"] + p.get("traced_ops", [])):
            for path, digest in res["digests"].items():
                if digest != base["digests"].get(path) and res["ok"]:
                    res["ok"] = False
                    res["reason"] = "%s differs from pass %d" % (
                        path, passes[0]["index"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    try:
        if args.setup_probe:
            import_cli()
            workloads.build(args.workload, args.seed,
                            os.path.join(WORK, args.workload + "-setup"))
            return 0
        workdir = os.path.join(WORK, args.workload)
        shutil.rmtree(workdir, ignore_errors=True)
        setup = [setup_sample(args.workload, args.seed)]
        cli = import_cli()
        ops = workloads.build(args.workload, args.seed, workdir)
        os.chdir(workdir)
        tracer = Tracer() if args.trace else None
        passes = []
        start = time.perf_counter()
        while True:
            # set-up samples are spread over the run, one per pass, so a
            # slow stretch of the host cannot cover all of them
            if passes:
                setup.append(setup_sample(args.workload, args.seed))
            passes.append(run_pass(cli, ops, tracer, len(passes)))
            if time.perf_counter() - start >= args.seconds:
                break
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(args.workload, args.seed))
    except BenchError as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 2
    check_repeats(passes)
    return report(args, setup, passes, tracer)


def report(args, setup, passes, tracer):
    wall = pass_time(passes)
    all_ops = [r for p in passes for r in p["ops"] + p.get("traced_ops", [])]
    failed = [r for r in all_ops if not r["ok"]]
    lines = []
    result = {"workload": args.workload, "seed": args.seed,
              "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_block(),
              "setup_s_samples": setup,
              "passes": passes}

    lines.append("workload %s  seed %d  held-out seed %d  passes %d%s" % (
        args.workload, args.seed, HELD_OUT_SEED, len(passes),
        ", each operation untraced then traced" if tracer else ""))
    lines.append("machine %s" % json.dumps(result["machine"], sort_keys=True))
    lines.append("%-22s %.4f s  sum of per-operation medians over %d passes"
                 % ("wall_s", wall, len(passes)))
    if tracer is None:
        lines.append(timing_line("pass_total_s",
                                 [p["wall_s"] for p in passes]))
    lines.append(timing_line("setup_s", setup))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.append("%-22s %.1f MB" % ("peak_rss_mb", peak_mb))
    lines.append("%-22s %d of %d" % ("ops_failed", len(failed),
                                     len(all_ops)))
    for cmd in sorted({r["command"] for r in passes[0]["ops"]}):
        lines.append("%-22s %.4f s  sum of per-operation medians" % (
            "cmd.%s_s" % cmd, pass_time(passes, cmd)))
    for k, r in enumerate(passes[0]["ops"]):
        lines.append(timing_line("op%d.%s_s" % (k, r["command"]),
                                 [p["ops"][k]["seconds"] for p in passes]))
        lines.append("  fingerprint %s" % json.dumps(r["fingerprints"],
                                                     sort_keys=True))
    for r in failed[:10]:
        lines.append("FAILED %s: %s" % (" ".join(r["argv"]), r["reason"]))

    if tracer is None:
        metrics = {"wall_s": (wall, "s"),
                   "setup_s": (statistics.median(setup), "s"),
                   "peak_rss_mb": (peak_mb, "MB")}
    else:
        missing = set(tracer.missing())
        metrics = {}
        for key in METRIC_TARGETS:
            if key in missing:
                lines.append("%-28s missing (target gone)" % key)
                continue
            value = statistics.median(p["layers"][key] for p in passes)
            unit = "s" if key.endswith("_s") else _UNITS.get(key, "count")
            metrics[key] = (value, unit)
        overhead = tracing_overhead(passes)
        metrics["trace.overhead_s"] = (overhead, "s")
        lines.append("tracing overhead %.4f s on a %.4f s untraced pass "
                     "(%+.1f%%)" % (overhead, wall, 100.0 * overhead / wall))
        for key in sorted(metrics):
            lines.append("%-28s %.6g %s" % (key, metrics[key][0],
                                            metrics[key][1]))

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = os.path.join(WORK, "results", "%s_seed%d_trace%d"
                        % (args.workload, args.seed, args.trace))
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=str)
    if tracer is not None:
        write_spans(stem + "_spans.jsonl", tracer)
        lines.append("spans written to %s" % os.path.relpath(
            stem + "_spans.jsonl", ROOT))

    for line in lines:
        print(line)
    print(json.dumps({
        "correct": not failed, "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def write_spans(path, tracer):
    with open(path, "w") as fh:
        for n, (spans, aggregates) in enumerate(tracer.spans):
            for sid, name, start, end, parent, op in spans:
                fh.write(json.dumps({"pass": n, "id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            for name, parent, count, total in aggregates:
                fh.write(json.dumps({"pass": n, "aggregate": name,
                                     "parent": parent, "calls": count,
                                     "total_s": total}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
