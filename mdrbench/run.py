#!/usr/bin/env python3
"""Build the benchmark from source with dune, then run one workload.

    python3 mdrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to `_build/`; the
benchmark writes its scratch state and span files under `_mdrbench/`.
Every argument is passed on to the benchmark executable, whose last
line of standard output is the JSON result. The exit code is the
build's when the build fails, else the benchmark's (1 when a
correctness check failed). MDR_JOBS is removed from the environment so
that all work runs on one domain.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./mdrbench/mdrbench.exe"


def main():
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("run.py: dune not found on PATH\n")
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ROOT, TARGET],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return build.returncode
    env = dict(os.environ)
    env.pop("MDR_JOBS", None)
    exe = os.path.join(ROOT, "_build", "default", "mdrbench", "mdrbench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
