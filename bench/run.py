"""curveflow benchmark: one workload of CLI invocations in one process.

Run from the repository root:

    python3 bench/run.py --workload conserve-pc224 --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all       # every workload, one report

Load shape: a closed loop with one client on one thread.  Each invocation
of `curveflow.cli.main(argv)` starts after the previous one returns, and
CURVEFLOW_THREADS is cleared so every workload runs the default path.

--trace 0 reports the end-to-end metrics: after a warm-up invocation at
reduced size, full-size invocations repeat until --seconds have passed (at
least MIN_INVOCATIONS), and times are medians over them.  The shared host
this runs on changes speed by up to 1.8x within seconds, so wall_s and
cpu_s are given in seconds at a reference host speed, measured by
bench/hostspeed.py while the program runs; the raw times are printed too.
setup_s is the raw median of SETUP_REPEATS fresh-interpreter imports: a
probe in the parent tracks the child's speed too loosely to correct it.
--trace 1 makes untraced and traced invocations in turn, two of each, and
reports the per-layer metrics of bench/tracer.py.

Every invocation must exit 0 and pass its workload's gates
(bench/workloads.py).  A gated failure is counted, never timed, and makes
the run exit 1.  For a single workload the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed
from tracer import LAYERS, Tracer
from workloads import NAMES, GateError, make_workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_INVOCATIONS = 2
SETUP_REPEATS = 5

# call counts measured at the commit that introduced this benchmark; a
# difference is reported, not failed, since cutting calls is an optimisation
BASELINE_CALLS = {
    "conserve-pc224": {"flows.velocity": 4000,
                       "functionals.energy_report": 201,
                       "curves.parallel_normal_frame": 402},
    "angle-scan-circle256": {"frames.integrate_frame": 160},
}


def log(text):
    print(text, flush=True)


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def environment(threads_was):
    import numpy
    import scipy
    return {"git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0],
            "CURVEFLOW_THREADS": "cleared (was %s)" % (
                "unset" if threads_was is None else repr(threads_was))}


def import_cli():
    """curveflow.cli from this checkout's src/, or None."""
    sys.path.insert(0, SRC)
    try:
        import curveflow
        from curveflow import cli
    except ImportError as e:
        print("cannot import curveflow from %s: %s" % (SRC, e),
              file=sys.stderr)
        return None
    if not os.path.abspath(curveflow.__file__).startswith(SRC + os.sep):
        print("imported curveflow from %s, not from %s"
              % (curveflow.__file__, SRC), file=sys.stderr)
        return None
    return cli


def measure_setup():
    """Median wall time for a fresh interpreter to import curveflow.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import curveflow.cli"]

    def once():
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                       timeout=120)
        return time.perf_counter() - t0

    # this process has imported curveflow already, so the bytecode cache,
    # which users pay for once, is written before the first timed import
    return statistics.median(once() for _ in range(SETUP_REPEATS))


def tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def tree_digest(path):
    h = hashlib.sha256()
    for d, dirs, files in os.walk(path):
        dirs.sort()
        for f in sorted(files):
            full = os.path.join(d, f)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


@dataclasses.dataclass
class Invocation:
    wall: float
    cpu: float
    failure: str | None     # why the invocation failed
    residual: float | None
    io_bytes: int
    wall_ref: float | None = None   # at reference host speed, if probed
    cpu_ref: float | None = None


def invoke(cli, wl, outdir, warm=False, probed=False):
    """Run the workload's commands once; gate the outputs unless warm.  If
    probed, measure host speed meanwhile; the probes' time is taken out of
    wall and cpu."""
    shutil.rmtree(outdir, ignore_errors=True)
    failure = None
    sink = io.StringIO()
    probe = hostspeed.Probe() if probed else contextlib.nullcontext()
    with (probe, contextlib.redirect_stdout(sink),
          contextlib.redirect_stderr(sink)):
        t0 = time.perf_counter()
        c0 = time.process_time()
        for argv in wl.argvs(outdir, warm=warm):
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code
            except Exception:
                failure = "traceback in %s:\n%s" % (argv[0],
                                                    traceback.format_exc())
                break
            if rc != 0:
                failure = "%s exited %r: %s" % (argv[0], rc,
                                                sink.getvalue().strip())
                break
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    inv = Invocation(wall, cpu, failure, None, tree_bytes(outdir))
    if probed:
        inv.wall -= probe.wall_s
        inv.cpu -= probe.cpu_s
        slow_wall, slow_cpu = probe.slowdown()
        inv.wall_ref = inv.wall / slow_wall
        inv.cpu_ref = inv.cpu / slow_cpu
    if failure is None and not warm:
        try:
            inv.residual = wl.check(outdir)
        except (GateError, OSError, KeyError, ValueError) as e:
            inv.failure = "gate: %s" % e
    return inv


def timed_run(cli, wl, seconds, outdir):
    try:
        setup = measure_setup()
    except (subprocess.SubprocessError, OSError) as e:
        log("setup: fresh import failed: %s" % e)
        return [], {}
    warm = invoke(cli, wl, os.path.join(outdir, "warmup"), warm=True)
    if warm.failure:
        log("warm-up failed: %s" % warm.failure)
        return [warm], {}
    invs = []
    start = time.perf_counter()
    while (len(invs) < MIN_INVOCATIONS
           or time.perf_counter() - start < seconds):
        inv = invoke(cli, wl, os.path.join(outdir, "run"), probed=True)
        invs.append(inv)
        log("invocation %d: wall %.4f s (ref %.4f), cpu %.4f s (ref %.4f), %s"
            % (len(invs), inv.wall, inv.wall_ref, inv.cpu, inv.cpu_ref,
               inv.failure or "residual %.6g" % inv.residual))
    ok = [i for i in invs if i.failure is None]
    if not ok:
        return invs, {}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log("raw times: wall_s %.6g s, cpu_s %.6g s"
        % (statistics.median(i.wall for i in ok),
           statistics.median(i.cpu for i in ok)))
    metrics = {
        "wall_s": (statistics.median(i.wall_ref for i in ok), "s"),
        "cpu_s": (statistics.median(i.cpu_ref for i in ok), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "residual": (statistics.median(i.residual for i in ok), "1"),
    }
    return invs, metrics


def layer_metrics(traces):
    """Per-layer metrics from the summaries of the traced invocations."""
    out = {}
    for modname, func, stats in LAYERS:
        name = "%s.%s" % (modname, func)
        rows = [s.get(name, {}) for _, s in traces]
        if "calls" in stats:
            out[name + ".calls"] = (rows[0].get("calls", 0), "count")
        for stat in ("self_s", "total_s"):
            if stat in stats:
                out["%s.%s" % (name, stat)] = (statistics.median(
                    r.get(stat, 0.0) for r in rows), "s")
    first = traces[0][1]

    def calls(name):
        return first.get(name, {}).get("calls", 0)

    reports = calls("functionals.energy_report")
    out["curves.parallel_normal_frame.per_report"] = (
        calls("curves.parallel_normal_frame") / reports if reports else 0.0,
        "ratio")
    lams = len(first.get("frames.integrate_frame", {}).get("distinct", ()))
    out["frames.integrate_frame.per_lambda"] = (
        calls("frames.integrate_frame") / lams if lams else 0.0, "ratio")
    return out


def traced_run(cli, wl, outdir):
    """Untraced and traced invocations in turn, two of each, checked against
    each other."""
    run_dir = os.path.join(outdir, "run")
    warm = invoke(cli, wl, os.path.join(outdir, "warmup"), warm=True)
    if warm.failure:
        log("warm-up failed: %s" % warm.failure)
        return [warm], {}
    invs = []
    plain = []
    traces = []
    missing = set()
    digest = None
    for _ in range(2):
        inv = invoke(cli, wl, run_dir)
        invs.append(inv)
        plain.append(inv)
        digest = digest or tree_digest(run_dir)
        tracer = Tracer()
        tracer.install()
        try:
            inv = invoke(cli, wl, run_dir)
        finally:
            tracer.restore()
        missing.update(tracer.missing)
        summary = tracer.summary()
        invs.append(inv)
        traces.append((inv, summary))
        if inv.failure is None and tree_digest(run_dir) != digest:
            inv.failure = "traced artifacts differ from the untraced run"
        self_sum = sum(s["self_s"] for s in summary.values())
        if inv.failure is None and self_sum > inv.wall:
            inv.failure = ("summed self time %.4f s exceeds wall %.4f s"
                           % (self_sum, inv.wall))
    for inv in invs:
        log("invocation: wall %.4f s, %s" % (inv.wall, inv.failure or "ok"))
    if any(i.failure for i in invs):
        return invs, {}
    (_, sum_a), (inv_b, sum_b) = traces
    counts_a = {n: (s["calls"], len(s["distinct"])) for n, s in sum_a.items()}
    counts_b = {n: (s["calls"], len(s["distinct"])) for n, s in sum_b.items()}
    if counts_a != counts_b:
        inv_b.failure = "call counts differ between the two traced runs"
        log("%s: %s vs %s" % (inv_b.failure, counts_a, counts_b))
        return invs, {}

    missing.update(n for n in wl.uses if sum_a.get(n, {}).get("calls", 0) == 0)
    for name in sorted(missing):
        log("missing layer: %s" % name)
    for name, want in BASELINE_CALLS.get(wl.name, {}).items():
        got = sum_a.get(name, {}).get("calls", 0)
        log("calls %s: %d (baseline %d%s)"
            % (name, got, want, "" if got == want else ", differs"))

    metrics = layer_metrics(traces)
    traced_wall = statistics.median(i.wall for i, _ in traces)
    plain_wall = statistics.median(i.wall for i in plain)
    metrics["cli.io_bytes"] = (plain[0].io_bytes, "bytes")
    metrics["trace.overhead_frac"] = (
        (traced_wall - plain_wall) / plain_wall, "ratio")
    metrics["trace.unattributed_s"] = (statistics.median(
        i.wall - sum(s["self_s"] for s in summ.values())
        for i, summ in traces), "s")
    return invs, metrics


def report(invs, metrics):
    """Print every metric by name and unit, then the JSON result line."""
    failed = sum(1 for i in invs if i.failure is not None)
    attempted = max(len(invs), 1)
    correct = failed == 0 and bool(metrics)
    for i in invs:
        if i.failure is not None:
            log("FAILED: %s" % i.failure)
    for name, (value, unit) in metrics.items():
        log("%-44s %.6g %s" % (name, value, unit))
    log("%-44s %.6g (%d of %d invocations)"
        % ("failed_frac", failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed if correct else max(failed, 1),
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def run_all(args):
    """Every workload in turn, each in its own process so that peak RSS is
    per workload; exits with the worst exit code."""
    worst = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        for line in proc.stdout.splitlines()[:-1]:
            log(line)
        log("")
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    threads_was = os.environ.pop("CURVEFLOW_THREADS", None)
    cli = import_cli()
    if cli is None:
        return 2
    wl = make_workloads(args.seed)[args.workload]
    log("workload %s, seed %d, trace %d: %s"
        % (wl.name, args.seed, args.trace, wl.why))
    log("env: %s" % json.dumps(environment(threads_was), sort_keys=True))
    outdir = os.path.join(OUT, wl.name)
    if args.trace:
        return report(*traced_run(cli, wl, outdir))
    return report(*timed_run(cli, wl, args.seconds, outdir))


if __name__ == "__main__":
    sys.exit(main())
