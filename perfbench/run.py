"""bergpoly benchmark: one workload, closed loop, one thread.

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 25 --trace 0

Builds the workload's operations from the seed, runs one untimed warm-up
round, then repeats whole rounds until --seconds have passed (and at
least MIN_OPS operations are timed).  Every timed output must equal the
warm-up's, and every warm-up output is checked against an independent
computation at the end.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics of the traced ones,
plus their extra wall time as trace.overhead_s.  Results and spans are
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# p95 needs ten timed operations beyond it.
MIN_OPS = 200
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "wall_s": "s", "op_p50_ms": "ms", "op_p95_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("kernel", "verify", "crosscheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time importing bergpoly and building the inputs, print it, exit")
    return p.parse_args(argv)


def _use_checkout_source():
    """Put this checkout's src/ first on sys.path and refuse to run on any
    other copy of bergpoly."""
    if not (SRC / "bergpoly" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bergpoly sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]


def _probe_setup(workload, seed) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _run_round(ops, run_op, times, outputs):
    """Run every operation once; returns (round wall time, failures)."""
    failed = 0
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = run_op(op)
        except Exception as exc:  # an operation that raises counts as failed
            out = exc
            failed += 1
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - start, failed


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return a == b


def measure(workload, seed, seconds, trace, scale=1.0, min_ops=MIN_OPS):
    """Run one benchmark; returns the result object (without setup_s)."""
    import workloads
    from spans import Tracer

    ops = workloads.make_ops(workload, seed, scale)
    correct = True
    problems = []

    # Warm-up; its outputs are checked after the timed rounds, so that the
    # checker's own memory stays out of peak_rss_mb.
    reference = []
    _run_round(ops, workloads.run_op, [], reference)

    tracer = Tracer()
    walls = {False: [], True: []}
    layer_rounds = []
    times = []
    attempted = failed = 0
    start = time.perf_counter()
    traced = False
    while True:
        outputs = []
        if traced:
            with tracer:
                wall, bad = _run_round(ops, workloads.run_op, [], outputs)
            layer_rounds.append(tracer.take_round())
        else:
            wall, bad = _run_round(ops, workloads.run_op, times, outputs)
        walls[traced].append(wall)
        attempted += len(ops)
        failed += bad
        if not all(_same(a, b) for a, b in zip(outputs, reference)):
            correct = False
            problems.append("an output differs from the warm-up round's")
        done = time.perf_counter() - start >= seconds
        if trace:
            traced = not traced
            if done and walls[True] and walls[False]:
                break
        elif done and len(times) >= min_ops:
            break

    if trace:
        metrics = {
            name: {"value": statistics.median(r[name] for r in layer_rounds),
                   "unit": _layer_unit(name)}
            for name in layer_rounds[0]
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median(walls[True]) - statistics.median(walls[False]),
            "unit": "s",
        }
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_p95_ms": statistics.quantiles(times, n=20)[18] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    # Every timed output equals its warm-up output; check those against the
    # independent computation.
    for op, out in zip(ops, reference):
        if isinstance(out, Exception):
            problems.append(f"{op.kind} {op.rows}: {type(out).__name__}: {out}")
            continue
        try:
            workloads.check_op(op, out)
        # A malformed output (bad JSON, a missing key) is as wrong as a
        # wrong number.
        except (workloads.CheckFailed, LookupError, TypeError, ValueError) as exc:
            correct = False
            problems.append(f"{op.kind} {op.rows}: {exc}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, problems, tracer.spans


def _layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name == "kernel.support_fill":
        return "ratio"
    if name == "render.json_bytes":
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = _parse(argv)
    _use_checkout_source()
    if args.setup_probe:
        start = time.perf_counter()
        import workloads

        workloads.make_ops(args.workload, args.seed)
        print(repr(time.perf_counter() - start))
        return 0

    import bergpoly

    if Path(bergpoly.__file__).resolve().parent != SRC / "bergpoly":
        raise SystemExit(f"perfbench: imported bergpoly from {bergpoly.__file__}, not {SRC}")
    probes = [] if args.trace else [
        _probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
    ]
    result, problems, spans = measure(args.workload, args.seed, args.seconds, args.trace)
    if probes:
        result["metrics"]["setup_s"] = {"value": statistics.median(probes), "unit": "s"}

    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["round", "id", "parent", "name", "start_ns", "end_ns"],
             "spans": spans}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
