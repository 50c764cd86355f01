"""Wall time of large CLI calls, and of two in-process calls.

    python3 benchmarks/large.py --parent ../parent-checkout --pairs 10

Runs each call of CALLS as a `python -m bergpoly.cli` subprocess, once
on the parent checkout's `src/` and once on this one's per pair,
alternating which side goes first as benchmarks/pairs.py does, and
times each call's wall time, interpreter start included.  Both sides
must print the same stdout with the same exit code, or the script stops
with exit code 1.

Two library calls that no CLI command makes are timed in process, each
side's in a subprocess of its own that imports that side's bergpoly,
makes the call once untimed and then reports the best of REPEATS timed
calls, so that a change of a few ms is not lost in one cold call:

- fallback_6x6_window5: `compare_with_closed_form` of the 6x6 cyclic
  (2, -1) form with one numerator coefficient raised by 1, on the window
  of radius 5 (`oracle._compare_window`, the window fill and passes, in
  checkouts that have it).  Both sides must report the same mismatches.
- spot_3x3_terms128: `numeric_spot_check` at terms 128 of the det-6
  sweep matrix SPOT_MATRIX at the interior point SPOT_POINT, whose walk
  stops at radius 108 of 128.  Both sides' relative errors must be below
  1e-8 and within 1e-12 of each other: the order of summation moves
  their last bits.

The subprocess also reports its peak resident set size (ru_maxrss,
imports included).

It prints each pair's times, both sides' medians and quartiles and the
number of pairs the change wins, and writes the same, with both
checkouts' git revisions and the in-process calls' peak RSS, under the
key "fixed" (the calls take no seed) of benchmarks/BENCH_large.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from pairs import alternate, record, summary

ROOT = Path(__file__).resolve().parent.parent


def _cyclic(n: int, a: int, b: int) -> str:
    """The n x n cyclic matrix with a on the diagonal and b right of it."""
    return " / ".join(
        " ".join(str(a if j == i else b if j == (i + 1) % n else 0) for j in range(n))
        for i in range(n)
    )


CALLS = {
    "verify_6x6_window5": ("verify", "--matrix", _cyclic(6, 2, -1), "--window", "5"),
    "verify_5x5_default": ("verify", "--matrix", _cyclic(5, 2, -1)),
    "kernel_3x3_40": ("kernel", "--matrix", _cyclic(3, 40, -39)),
}
FALLBACK = "fallback_6x6_window5"
# the corrupted coefficient of the fallback form
FALLBACK_TERM = (2, 3, 1, 4, 0, 2)
SPOT = "spot_3x3_terms128"
SPOT_MATRIX = "1 -1 1 / 1 1 -2 / -1 1 2"
# |w_i| = 0.85 pushed through the covering map, z_j = prod_i w_i^(adj B)_ji
SPOT_POINT = (0.2725, 0.3771, 0.522)
IN_PROCESS = (FALLBACK, SPOT)
# timed calls per in-process subprocess, of which the best counts
REPEATS = 5


def worker(src: Path, name: str) -> None:
    """Time the in-process call `name` on the bergpoly under src; print one
    JSON line of its best seconds, peak RSS and output (the fallback's
    mismatches, or the spot check's relative error)."""
    sys.path.insert(0, str(src))
    from bergpoly import (LaurentPolynomial, Window, assemble_kernel, numeric_spot_check, oracle,
                          parse_matrix, prepare)

    if name == FALLBACK:
        vm = prepare(parse_matrix(_cyclic(6, 2, -1)))
        form = assemble_kernel(vm)
        terms = dict(form.numerator.items())
        terms[FALLBACK_TERM] = terms.get(FALLBACK_TERM, 0) + 1
        form = dataclasses.replace(form, numerator=LaurentPolynomial(vm.n, terms))
        compare = getattr(oracle, "_compare_window", oracle.compare_with_closed_form)

        def call():
            return repr(compare(vm, Window.cube(vm.n, 5), form=form).mismatches)
    else:
        vm = prepare(parse_matrix(SPOT_MATRIX))
        form = assemble_kernel(vm)

        def call():
            return numeric_spot_check(vm, SPOT_POINT, SPOT_POINT, terms=128, form=form)

    output = call()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"seconds": min(times), "peak_rss_mb": peak, "output": output}))


def _call(checkout: Path, argv) -> tuple[float, tuple[int, str]]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "bergpoly.cli", *argv],
                         env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    return seconds, (out.returncode, hashlib.sha256(out.stdout.encode()).hexdigest())


def _in_process(checkout: Path, name: str) -> tuple[float, float, object]:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--worker", str(checkout / "src"), "--call", name],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result["seconds"], result["peak_rss_mb"], result["output"]


def _same(name: str, first, output) -> bool:
    """Whether two sides' outputs of a call agree: the spot check's errors
    both below 1e-8 and within 1e-12 of each other, anything else equal."""
    if name == SPOT:
        return max(first, output) < 1e-8 and abs(first - output) <= 1e-12
    return first == output


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, help="checkout of the parent commit")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--call", choices=IN_PROCESS, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(args.worker, args.call)
        return 0
    if args.parent is None:
        p.error("--parent is required")
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    parent = args.parent.resolve()
    if not (parent / "src" / "bergpoly" / "cli.py").is_file():
        p.error("no src/bergpoly/cli.py under --parent")
    sides = {"parent": parent, "change": ROOT}
    names = [*CALLS, *IN_PROCESS]

    values = {name: {"parent": [], "change": []} for name in names}
    peak_rss = {name: {"parent": [], "change": []} for name in IN_PROCESS}
    outputs = {}

    def run(side: str) -> None:
        for name in names:
            if name in IN_PROCESS:
                seconds, peak, output = _in_process(sides[side], name)
                peak_rss[name][side].append(peak)
            else:
                seconds, output = _call(sides[side], CALLS[name])
            if not _same(name, outputs.setdefault(name, output), output):
                raise SystemExit(f"large: {side} gave another output or exit code for {name}")
            values[name][side].append(seconds)

    def show(pair: int, first: str) -> None:
        row = "  ".join(f"{name} {values[name]['parent'][-1]:.3g}/{values[name]['change'][-1]:.3g}"
                        for name in names)
        print(f"pair {pair} ({first} first, parent/change s): {row}", flush=True)

    first = alternate(args.pairs, run, show)

    report = {}
    for name in names:
        par, chg = values[name]["parent"], values[name]["change"]
        ps, cs = summary(par), summary(chg)
        report[name] = {
            "argv": list(CALLS[name]) if name in CALLS else None,
            "unit": "s",
            "parent": par,
            "change": chg,
            "parent_summary": ps,
            "change_summary": cs,
            "wins": sum(c < b for b, c in zip(par, chg)),
        }
        if name in CALLS:
            report[name]["exit_code"] = outputs[name][0]
        print(
            f"{name}: parent {ps['median']:.3g} [{ps['q1']:.3g}, {ps['q3']:.3g}]"
            f"  change {cs['median']:.3g} [{cs['q1']:.3g}, {cs['q3']:.3g}] s"
            f"  change wins {report[name]['wins']}/{args.pairs}"
        )
    for name in IN_PROCESS:
        ps, cs = summary(peak_rss[name]["parent"]), summary(peak_rss[name]["change"])
        report[name]["peak_rss_mb"] = {
            **peak_rss[name], "parent_summary": ps, "change_summary": cs,
        }
        print(f"{name} peak RSS: parent {ps['median']:.1f}  change {cs['median']:.1f} MB")

    record(
        ROOT / "benchmarks" / "BENCH_large.json",
        "fixed",
        sides,
        {"pairs": args.pairs, "first": first, "calls": report},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
