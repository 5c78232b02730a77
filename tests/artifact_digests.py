"""One sha256 per artifact of the CLI's subcommands, to show that a change
keeps every output's bytes.

Run from the repository root, on two checkouts, and compare the outputs:

    python3 tests/artifact_digests.py > digests.txt

Each case runs `curveflow.cli.main` in this process, on the curveflow of
this checkout's src/, with --out in a new temporary directory.  A line is
the digest, the case and the artifact's path in --out; a case's exit code
is printed too.  manifest.json is hashed without its config's `out`, the
temporary directory, as JSON with sorted keys.

The cases are the benchmark's four workloads (bench/workloads.py, seed 0),
which run flow, conserve, angle-scan, spectral-scan and darboux, the other
four subcommands, and angle-scan, spectral-scan and darboux on further
curves, grids and lambdas: a repeated-re grid, a real row, a grid through
the circle's +-identity monodromies, a grid whose rows mix 7 substep
counts, and a darboux that exits 3.  energies, flow and conserve also run
on a screw helix, whose E_2 is chained on torsion branch 1, and criticality
fits its dependent fields; energies and criticality also run on that helix
scaled by 2^-100.
"""

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from curveflow import cli  # noqa: E402
from workloads import make_workloads  # noqa: E402

PC128 = "perturbed-circle:n=128,modes=2+3,seed=1"
SCREW = "helix:a=1,b=0.5,turns=1.3,n=128"
TINY_SCREW = ("helix:a=7.888609052210118e-31,b=3.944304526105059e-31,"
              "turns=1.3,n=128")

CASES = [
    ("energies-pc224", ["energies", "--curve", "perturbed-circle:n=224,"
                        "amplitude=0.05,modes=2,seed=0", "--axis", "0,0,1"]),
    ("energies-helix", ["energies", "--curve", "helix:a=1,b=1,n=128"]),
    ("commute-circle", ["commute", "--curve", "circle:r=1,n=64"]),
    ("lax", ["lax", "--degree", "3", "--steps", "200"]),
    ("criticality-circle", ["criticality", "--curve", "circle:r=1,n=256",
                            "--k", "2"]),
    ("angle-scan-pc128", ["angle-scan", "--curve", PC128, "--fit", "5"]),
    ("angle-scan-helix", ["angle-scan", "--curve", "helix:n=256",
                          "--fit", "5"]),
    ("spectral-scan-repeated-re", ["spectral-scan", "--curve",
                                   "circle:r=1,n=64", "--re", "1:1:3",
                                   "--im", "0.5:0.5:2"]),
    ("spectral-scan-real-row", ["spectral-scan", "--curve", "helix:n=64",
                                "--re", "-1:1:5", "--im", "0:0:1"]),
    ("spectral-scan-circle-i", ["spectral-scan", "--curve",
                                "circle:r=1,n=64", "--re", "-1:1:5",
                                "--im", "0:2:5"]),
    # rows of 8 lambdas with 7 substep counts, 2 to 63 at Im 0.3: Omega's
    # vectors formed once per lambda, then once per count and gathered
    ("spectral-scan-mixed-counts", ["spectral-scan", "--curve",
                                    "helix:n=64", "--re", "-3:18:8",
                                    "--im", "0.3:0.5:2"]),
    ("darboux-helix", ["darboux", "--curve", "helix:a=1,b=1,n=256",
                       "--lam", "0.5+2i"]),
    ("darboux-pc128", ["darboux", "--curve", PC128, "--lam", "1+1i"]),
    # the frame at 0.7 + 4.4i is lost: exit 3 and diagnostics.json
    ("darboux-circle-lost", ["darboux", "--curve", "circle:r=1,n=64",
                             "--lam", "0.7+4.4i"]),
    # E_2 chained along a flow on a screw monodromy, torsion branch 1
    ("energies-screw", ["energies", "--curve", SCREW, "--axis", "0,0,1"]),
    ("flow-screw", ["flow", "--curve", SCREW, "--flow", "1", "--dt", "1e-3",
                    "--steps", "20", "--resample-every", "1",
                    "--axis", "0,0,1"]),
    ("conserve-screw", ["conserve", "--curve", SCREW, "--flow", "1,2=0.5",
                        "--dt", "1e-4", "--steps", "20", "--axis", "0,0,1"]),
    # a fit whose fields are dependent: the minimum-norm multipliers
    ("criticality-screw", ["criticality", "--curve", SCREW, "--k", "3"]),
    # the screw helix scaled by 2^-100, read off its copy scaled by 2^99
    ("energies-tiny-screw", ["energies", "--curve", TINY_SCREW,
                             "--axis", "0,0,1"]),
    ("criticality-tiny-screw", ["criticality", "--curve", TINY_SCREW,
                                "--k", "3"]),
]


def benchmark_cases():
    return [("%s/%s" % (wl.name, sub), argv)
            for wl in make_workloads(0).values()
            for sub, argv in wl.commands]


def digest(path):
    with open(path, "rb") as f:
        data = f.read()
    if os.path.basename(path) == "manifest.json":
        manifest = json.loads(data)
        del manifest["config"]["out"]
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main():
    for case, argv in benchmark_cases() + CASES:
        with tempfile.TemporaryDirectory() as out:
            code = cli.main(argv + ["--out", out])
            print("exit %d  %s" % (code, case))
            for dirpath, _, files in sorted(os.walk(out)):
                for name in sorted(files):
                    path = os.path.join(dirpath, name)
                    print("%s  %s/%s" % (digest(path), case,
                                         os.path.relpath(path, out)))


if __name__ == "__main__":
    main()
