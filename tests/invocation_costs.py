"""Per-invocation costs of the flow-write-pc512 workload in one process:
what bench/run.py's end-to-end metrics leave out.  Its cpu_s counts only
its own process, not the CPU of the children a command forks; its
peak_rss_mb is read after however many invocations fit in the run.

    python3 tests/invocation_costs.py TREE [--invocations 50]

TREE is a checkout.  Its bench/run.py drives the workload as the benchmark
does, on TREE/src: one warm-up invocation at reduced size, then full ones,
without the host-speed probe.  The output is one JSON object: the medians
per invocation of the wall time, this process's CPU time, its reaped
children's CPU time (getrusage RUSAGE_SELF and RUSAGE_CHILDREN, user +
sys) and this process's minor page faults, and ru_maxrss in MB after each
of a few invocation counts, so that two trees can be compared at equal
counts.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time

MARKS = (1, 2, 5, 10, 20, 30, 40, 50, 100)


def usage(who):
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime, r.ru_minflt, r.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree")
    parser.add_argument("--invocations", type=int, default=50)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.path.abspath(args.tree), "bench"))
    import run
    run.environment(None)      # imports scipy, as the benchmark does
    cli = run.import_cli()
    if cli is None:
        raise SystemExit(2)
    wl = run.make_workloads(0)["flow-write-pc512"]
    rows = []
    maxrss = {}
    with tempfile.TemporaryDirectory() as out:
        run.invoke(cli, wl, os.path.join(out, "warmup"), warm=True)
        for i in range(1, args.invocations + 1):
            cpu0, faults0, _ = usage(resource.RUSAGE_SELF)
            child0, _, _ = usage(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            inv = run.invoke(cli, wl, os.path.join(out, "run"))
            wall = time.perf_counter() - t0
            cpu, faults, rss = usage(resource.RUSAGE_SELF)
            child, _, _ = usage(resource.RUSAGE_CHILDREN)
            if inv.failure:
                raise SystemExit(inv.failure)
            rows.append((wall, cpu - cpu0, child - child0, faults - faults0))
            if i in MARKS:
                maxrss[i] = rss
    wall, cpu, child, faults = (statistics.median(c) for c in zip(*rows))
    print(json.dumps({"tree": args.tree, "invocations": args.invocations,
                      "wall_s": round(wall, 4), "cpu_s": round(cpu, 4),
                      "children_cpu_s": round(child, 4),
                      "minor_faults": faults, "maxrss_mb": maxrss}))


if __name__ == "__main__":
    main()
