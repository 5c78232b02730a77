"""Time CLI commands of two checkouts in one process, alternating, so that
a difference between processes (memory layout, allocator state, the host's
speed at the time) cannot read as a difference between the trees.

    python3 tests/alternate_trees.py PARENT/src CHANGE/src [--rounds 37]
        [--commands angle-scan conserve darboux flow spectral-scan]

Both trees' curveflow are imported into this process: the first tree's
modules are taken out of sys.modules before the second is imported, and
keep working through their own references.  Each round runs every command
once per tree, the tree that goes first alternating from round to round,
each with --out in a temporary directory, after one warm-up run of each.
The output is one JSON object per command: the median wall time in ms of
each tree, and the median, the quartiles and the count below 1 of the
per-round ratios change / parent.
"""

import argparse
import importlib
import json
import os
import sys
import tempfile
import time

import numpy as np

COMMANDS = {
    "angle-scan": ["angle-scan", "--curve", "circle:r=1,n=256", "--fit", "5"],
    "conserve": ["conserve", "--curve",
                 "perturbed-circle:n=224,amplitude=0.05,modes=2,seed=1",
                 "--flow", "1", "--dt", "1e-3", "--steps", "1000",
                 "--axis", "0,0,1"],
    "spectral-scan": ["spectral-scan", "--curve", "helix:n=256", "--re",
                      "0.5:2:16", "--im", "0.1:1:16"],
    "darboux": ["darboux", "--curve", "helix:a=1,b=1,n=256", "--lam", "1+1i"],
    "flow": ["flow", "--curve",
             "perturbed-circle:n=512,amplitude=0.05,modes=2+3,seed=0",
             "--flow", "1", "--dt", "1e-4", "--steps", "200",
             "--resample-every", "1", "--axis", "0,0,1"],
}


def load(src):
    """curveflow.cli imported from the directory src."""
    for name in [m for m in sys.modules
                 if m == "curveflow" or m.startswith("curveflow.")]:
        del sys.modules[name]
    sys.path.insert(0, os.path.abspath(src))
    try:
        cli = importlib.import_module("curveflow.cli")
    finally:
        sys.path.pop(0)
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        raise SystemExit("imported %s, not from %s" % (cli.__file__, src))
    return cli


def timed(cli, argv, out):
    start = time.perf_counter()
    code = cli.main(argv + ["--out", out])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit("%s exited %d" % (" ".join(argv), code))
    return elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rounds", type=int, default=37)
    parser.add_argument("--commands", nargs="+", choices=sorted(COMMANDS),
                        default=sorted(COMMANDS))
    args = parser.parse_args()
    trees = [load(args.parent), load(args.change)]
    commands = {name: COMMANDS[name] for name in args.commands}
    times = {name: ([], []) for name in commands}
    with tempfile.TemporaryDirectory() as out:
        for cli in trees:
            for argv in commands.values():
                timed(cli, argv, out)
        for r in range(args.rounds):
            for name, argv in commands.items():
                for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                    times[name][side].append(timed(trees[side], argv, out))
    for name, (parent, change) in times.items():
        ratios = np.array(change) / np.array(parent)
        print(json.dumps({
            "command": name, "rounds": args.rounds,
            "parent_ms": round(1e3 * float(np.median(parent)), 3),
            "change_ms": round(1e3 * float(np.median(change)), 3),
            "ratio_median": round(float(np.median(ratios)), 4),
            "ratio_quartiles": [round(float(q), 4)
                                for q in np.percentile(ratios, [25, 75])],
            "change_faster": int(np.count_nonzero(ratios < 1.0))}))


if __name__ == "__main__":
    main()
