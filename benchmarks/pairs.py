"""Alternating parent/change pairs of one perfbench workload.

    python3 benchmarks/pairs.py --workload crosscheck --seed 1 --seconds 25 \
        --pairs 10 --parent ../parent-checkout

Runs `perfbench/run.py --trace 0` as a subprocess, once in the parent
checkout and once in this one per pair, alternating which side goes
first (pair 1 parent first, pair 2 change first, ...), so that a drift
of the host's speed falls on both sides alike.  Each side's run uses
the bergpoly of its own checkout.  Every run must report
`correct: true` and no failed operation, or the script stops with exit
code 1: a faster wrong answer proves nothing.

For every end-to-end metric of BENCHMARK.json it prints the per-pair
values, both sides' medians and quartiles, and the number of pairs the
change wins (strictly better, in the metric's direction).  The same
goes, with both checkouts' git revisions, under the seed's key of
benchmarks/BENCH_<workload>.json; the other seeds' entries are kept.
perfbench is run, never imported or changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("perfbench") / "run.py"


def revision(checkout: Path) -> str:
    """The checkout's commit, with "-dirty" when a file other than the
    benchmarks/BENCH_*.json records these scripts rewrite is modified."""
    def git(*args: str) -> str:
        out = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return out.stdout.strip()

    commit = git("describe", "--always")
    if not commit:
        return "unknown"
    dirty = git("status", "--porcelain", "--", ".", ":(exclude,glob)benchmarks/BENCH_*.json")
    return commit + "-dirty" if dirty else commit


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def alternate(pairs: int, run, show) -> list[str]:
    """Call run(side) for "parent" and "change" once per pair, alternating
    which goes first (pair 1 parent first, pair 2 change first, ...) so
    that a drift of the host's speed falls on both sides alike, and then
    show(pair number, first side).  Returns each pair's first side."""
    first = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run(side)
        first.append(order[0])
        show(i + 1, order[0])
    return first


def record(path: Path, seed: int, sides: dict[str, Path], entry: dict, **top) -> None:
    """Write entry, with both checkouts' git revisions and the machine,
    under the seed's key of the JSON file at path, and the top fields at
    its top; the other seeds' entries are kept."""
    bench_file = json.loads(path.read_text()) if path.is_file() else {}
    bench_file.update(top)
    bench_file.setdefault("seeds", {})[str(seed)] = {
        **entry,
        "revisions": {side: revision(checkout) for side, checkout in sides.items()},
        "machine": {
            "cpus": os.cpu_count(),
            "arch": platform.machine(),
            "python": platform.python_version(),
        },
    }
    path.write_text(json.dumps(bench_file, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(
            f"pairs: {checkout.name}: correct={result['correct']} "
            f"failed={result['failed']}\n{out.stderr}"
        )
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("kernel", "verify", "crosscheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    parent = args.parent.resolve()
    if not (parent / RUN).is_file():
        p.error(f"no {RUN} under --parent")
    sides = {"parent": parent, "change": ROOT}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {
        name: {"parent": [], "change": []} for name in metrics
    }

    def run(side: str) -> None:
        result = _run(sides[side], args.workload, args.seed, args.seconds)
        for name in metrics:
            values[name][side].append(result["metrics"][name]["value"])

    def show(pair: int, first: str) -> None:
        row = "  ".join(
            f"{name} {values[name]['parent'][-1]:.4g}/{values[name]['change'][-1]:.4g}"
            for name in metrics
        )
        print(f"pair {pair} ({first} first, parent/change): {row}", flush=True)

    first = alternate(args.pairs, run, show)

    report = {}
    for name, spec in metrics.items():
        sign = 1 if spec["better"] == "lower" else -1
        par, chg = values[name]["parent"], values[name]["change"]
        wins = sum(sign * (c - b) < 0 for b, c in zip(par, chg))
        report[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": par,
            "change": chg,
            "parent_summary": summary(par),
            "change_summary": summary(chg),
            "wins": wins,
        }
        ps, cs = report[name]["parent_summary"], report[name]["change_summary"]
        print(
            f"{args.workload} {name}: parent {ps['median']:.4g} [{ps['q1']:.4g}, {ps['q3']:.4g}]"
            f"  change {cs['median']:.4g} [{cs['q1']:.4g}, {cs['q3']:.4g}] {spec['unit']}"
            f"  change wins {wins}/{args.pairs}"
        )

    record(
        ROOT / "benchmarks" / f"BENCH_{args.workload}.json",
        args.seed,
        sides,
        {"seconds": args.seconds, "pairs": args.pairs, "first": first, "metrics": report},
        workload=args.workload,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
