#!/usr/bin/env python3
"""Build and run the O2 end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/o2bench.exe with dune from
the sources in this checkout, then runs one workload. The last line of
standard output is the result object; progress and human-readable
metrics go to standard error. Exits non-zero, without a result, when the
build or the run fails. See perfbench/README.md.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

WORKLOADS = ["corpus", "bigapp", "eventstorm", "bigapp-jobs2"]
EXE = os.path.join("_build", "default", "perfbench", "o2bench.exe")
RUN_TIMEOUT_S = 170


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefixes = [os.environ.get("OPAM_SWITCH_PREFIX", "")]
    prefixes += sorted(glob.glob(os.path.expanduser("~/.opam/*")))
    for prefix in prefixes:
        candidate = os.path.join(prefix, "bin", "dune")
        if prefix and os.access(candidate, os.X_OK):
            return candidate
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile("dune-project"):
        sys.exit("run.py: no dune-project here; run from the repository root")
    dune = find_dune()
    if dune is None:
        sys.exit("run.py: dune not found")
    # the shared dune cache lives outside the checkout: keep it out
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet",
         "./perfbench/o2bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("run.py: build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    if run.returncode != 0:
        sys.exit("run.py: benchmark exited with %d" % run.returncode)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
