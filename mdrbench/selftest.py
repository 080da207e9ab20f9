#!/usr/bin/env python3
"""Self-test of the benchmark, on its short preset (`--quick`).

    python3 mdrbench/selftest.py

Run it from the root of a checkout; it builds with dune like run.py.
For every workload in BENCHMARK.json it runs the benchmark untraced
once and traced twice with the same seed, and asserts that:

- each run passes its correctness checks and prints a digest;
- the untraced run prints every end-to-end metric and the traced runs
  every per-layer metric named in BENCHMARK.json, each with its unit;
- the two traced runs print equal digests and equal counts.

Exits 0 when every assertion holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "mdrbench", "run.py")]
SEED = "7"


def run(workload, trace):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", SEED, "--seconds", "0.1",
               "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = out.stdout.strip().splitlines()
    digest = next((l.split()[2] for l in lines if l.startswith("digest ")), None)
    result = json.loads(lines[-1]) if lines else None
    return out.returncode, digest, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        if not ok:
            print("FAIL " + what)
            failures.append(what)

    def has_metrics(result, wanted, what):
        metrics = result["metrics"] if result else {}
        for m in wanted:
            got = metrics.get(m["name"])
            expect(got is not None and got.get("unit") == m["unit"]
                   and isinstance(got.get("value"), (int, float)),
                   f"{what}: {m['name']} printed in {m['unit']}")

    for w in spec["workloads"]:
        name = w["name"]
        code, digest, e2e = run(name, 0)
        expect(code == 0 and e2e is not None and e2e["correct"]
               and e2e["failed"] == 0 and digest is not None,
               f"{name}: untraced run passes its checks")
        has_metrics(e2e, spec["end_to_end"], f"{name} untraced")
        runs = [run(name, 1) for _ in range(2)]
        for code, _, result in runs:
            expect(code == 0 and result is not None and result["correct"],
                   f"{name}: traced run passes its checks")
            has_metrics(result, spec["per_layer"], f"{name} traced")
        (_, d1, r1), (_, d2, r2) = runs
        expect(d1 is not None and d1 == d2 == digest,
               f"{name}: same seed gives the same digest")
        counts = [m["name"] for m in spec["per_layer"]
                  if m["unit"] == "count" and not m["name"].startswith("gc.")]
        if r1 and r2:
            differ = [c for c in counts
                      if r1["metrics"].get(c) != r2["metrics"].get(c)]
            expect(not differ,
                   f"{name}: same seed gives the same counts {differ or ''}")
        print(f"{name}: done")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
