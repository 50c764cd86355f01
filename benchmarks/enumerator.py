"""Per-call time of the tent enumerator on each workload's own calls.

    python3 benchmarks/enumerator.py --seed 1 --parent ../parent-checkout --pairs 10

Captures every `tent_product_over_box` call that one round of the
`crosscheck` workload makes, by wrapping the function's binding in
`bergpoly.special` while the round runs in this process on this
checkout's bergpoly (perfbench is imported, never changed).  The
signature-one and generalized-Hartogs witnesses are the enumerator's
only callers on a workload's path: the general numerator is built from
the lattice cone, so the `kernel` and `verify` workloads make no call.
It then times the captured calls in subprocesses, once on the parent
checkout's `src/` and once on this one's per pair, alternating
which side goes first as benchmarks/pairs.py does.  Each subprocess runs
every workload's calls once untimed and then PASSES times, the workloads
taking turns, and reports each workload's best pass in microseconds per
call.  Every side must return the same items in the same order for every
call, or the script stops with exit code 1.

It prints each workload's per-pair values, both sides' medians and
quartiles, the ratio of the medians, the median of the per-pair ratios
change/parent and the number of pairs the change wins.  It writes the
same, with both checkouts' git revisions, under the seed's key of
benchmarks/BENCH_enumerator.json; the other seeds' entries are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pairs import alternate, record, summary

ROOT = Path(__file__).resolve().parent.parent
# the workloads that run the special witnesses
WORKLOADS = ("crosscheck",)
PASSES = 25


def capture(seed: int) -> dict[str, list]:
    """Every enumerator call of one round of each workload, as JSON lists."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import bergpoly.special
    import workloads

    calls: list = []
    original = bergpoly.special.tent_product_over_box

    def recorder(lower, upper, ks, weights, offsets):
        calls.append([list(map(int, lower)), list(map(int, upper)), list(map(int, ks)),
                      [list(map(int, row)) for row in weights], list(map(int, offsets))])
        return original(lower, upper, ks, weights, offsets)

    out = {}
    bergpoly.special.tent_product_over_box = recorder
    try:
        for workload in WORKLOADS:
            calls.clear()
            for op in workloads.make_ops(workload, seed):
                workloads.run_op(op)
            out[workload] = list(calls)
    finally:
        bergpoly.special.tent_product_over_box = original
    return out


def worker(src: Path, calls_file: Path) -> None:
    """Time the captured calls on the bergpoly under src; print one JSON
    line of microseconds per call and an output digest per workload."""
    sys.path.insert(0, str(src))
    from bergpoly.tent import tent_product_over_box

    calls = json.loads(calls_file.read_text())
    report = {}
    for workload, args in calls.items():
        digest = hashlib.sha256()
        for a in args:
            digest.update(repr(list(tent_product_over_box(*a).items())).encode())
        report[workload] = {"calls": len(args), "digest": digest.hexdigest()}
    # the workloads take turns within each pass, so a drift of the host's
    # speed during the process falls on all of them alike
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(PASSES):
        for workload, args in calls.items():
            start = time.perf_counter()
            for a in args:
                tent_product_over_box(*a)
            best[workload] = min(best[workload], time.perf_counter() - start)
    for workload, args in calls.items():
        report[workload]["us_per_call"] = best[workload] / max(len(args), 1) * 1e6
    print(json.dumps(report))


def _run(checkout: Path, calls_file: Path) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout / "src"),
         "--calls", str(calls_file)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int)
    p.add_argument("--parent", type=Path, help="checkout of the parent commit")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--calls", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(args.worker, args.calls)
        return 0
    if args.seed is None or args.parent is None:
        p.error("--seed and --parent are required")
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    parent = args.parent.resolve()
    if not (parent / "src" / "bergpoly" / "tent.py").is_file():
        p.error("no src/bergpoly/tent.py under --parent")
    sides = {"parent": parent, "change": ROOT}

    values = {w: {"parent": [], "change": []} for w in WORKLOADS}
    counts, digests = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        calls_file = Path(tmp) / "calls.json"
        calls_file.write_text(json.dumps(capture(args.seed)))

        def run(side: str) -> None:
            result = _run(sides[side], calls_file)
            got = {w: result[w]["digest"] for w in WORKLOADS}
            if digests and got != digests:
                raise SystemExit(f"enumerator: {side} returned other items or order")
            digests.update(got)
            for w in WORKLOADS:
                values[w][side].append(result[w]["us_per_call"])
                counts[w] = result[w]["calls"]

        def show(pair: int, first: str) -> None:
            row = "  ".join(f"{w} {values[w]['parent'][-1]:.1f}/{values[w]['change'][-1]:.1f}"
                            for w in WORKLOADS)
            print(f"pair {pair} ({first} first, parent/change us per call): {row}", flush=True)

        first = alternate(args.pairs, run, show)

    report = {}
    for w in WORKLOADS:
        par, chg = values[w]["parent"], values[w]["change"]
        ps, cs = summary(par), summary(chg)
        report[w] = {
            "calls": counts[w],
            "unit": "us per call",
            "parent": par,
            "change": chg,
            "parent_summary": ps,
            "change_summary": cs,
            "wins": sum(c < b for b, c in zip(par, chg)),
            "change_over_parent": cs["median"] / ps["median"],
            "pair_ratio_median": statistics.median(c / b for b, c in zip(par, chg)),
        }
        print(
            f"{w} ({counts[w]} calls): parent {ps['median']:.1f} [{ps['q1']:.1f}, {ps['q3']:.1f}]"
            f"  change {cs['median']:.1f} [{cs['q1']:.1f}, {cs['q3']:.1f}] us per call"
            f"  ratio of medians {report[w]['change_over_parent']:.3f}"
            f"  median pair ratio {report[w]['pair_ratio_median']:.3f}"
            f"  change wins {report[w]['wins']}/{args.pairs}"
        )

    record(
        ROOT / "benchmarks" / "BENCH_enumerator.json",
        args.seed,
        sides,
        {"pairs": args.pairs, "passes": PASSES, "first": first, "workloads": report},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
