"""Reference figures quoted in README.md, taken with the benchmark's tracer.

    python3 perfbench/reference.py

Prints three things: the layer timings of the three cyclic matrices of
the ROADMAP baseline table, `bergpoly verify` at --jobs 1 and --jobs 2 on
the n = 4 explicit-window operations of the `verify` workload (seed 1),
and the wall time of the Tier-1 suite.  The 5x5 verify at the default
radius fills a 37^5-point hull: 0.55 GB for that int64 array alone.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace

from run import ROOT, _use_checkout_source

REPEATS = 5
BASELINE = ((3, 5, 2), (4, 3, 1), (5, 2, 1))


def main() -> int:
    _use_checkout_source()
    import independent as ind
    import workloads
    from spans import Tracer

    print("| matrix | det | box volume | terms | numerator | canonicity | verify (default radius) |")
    print("|---|---|---|---|---|---|---|")
    for n, a, b in BASELINE:
        rows = workloads._cyclic(n, a, b)
        op = workloads.Op("kernel", rows, argv=("kernel", "--matrix", workloads.matrix_text(rows)))
        tracer = Tracer()
        layers = []
        for _ in range(REPEATS):
            with tracer:
                workloads.run_op(op)
            layers.append(tracer.take_round())
        verify = workloads.Op("verify", rows, ind.default_verify_radius(rows),
                              argv=("verify", "--matrix", workloads.matrix_text(rows)))
        start = time.perf_counter()
        rc, _ = workloads.run_op(verify)
        verify_s = time.perf_counter() - start

        def med(key):
            return statistics.median(r[key] for r in layers)

        print(f"| {n}x{n} cyclic ({a},-{b}) | {ind.det(rows)} | {med('kernel.box_points'):.0f} "
              f"| {med('kernel.numerator_terms'):.0f} | {med('kernel.numerator_ms'):.1f} ms "
              f"| {med('kernel.canonicity_ms'):.0f} ms | {verify_s:.2f} s "
              f"(R={verify.radius}, exit {rc}) |")

    print("\nverify --jobs 1 vs --jobs 2, median of", REPEATS, "calls")
    wide = [op for op in workloads.make_ops("verify", 1) if len(op.rows) == 4]
    for op in wide:
        times = {}
        for jobs in (1, 2):
            samples = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                rc, _ = workloads.run_op(replace(op, argv=op.argv + ("--jobs", str(jobs))))
                samples.append(time.perf_counter() - start)
                if rc:
                    raise SystemExit(f"verify exited {rc}")
            times[jobs] = statistics.median(samples)
        print(f"  {workloads.matrix_text(op.rows)}  R={op.radius}: jobs 1 {times[1]:.3f} s, "
              f"jobs 2 {times[2]:.3f} s, ratio {times[2] / times[1]:.2f}")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    print(f"\nTier-1: {time.perf_counter() - start:.1f} s wall, "
          f"{proc.stdout.strip().splitlines()[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
