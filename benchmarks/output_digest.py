"""One SHA-256 over the CLI's output on the benchmark's inputs.

    python3 benchmarks/output_digest.py --seeds 1 2

Builds `bergpoly` CLI calls from the inputs that `perfbench/workloads.py`
generates for the given seeds, runs each one in process against the
bergpoly in this checkout's `src/`, and prints the number of calls and
one SHA-256 over every call's (argv, exit code, stdout, stderr).  The
calls are:

- for every distinct matrix of every workload: `kernel` in json, latex
  and text, `validate`, and `eval` (at the workload's point when it has
  one, else at a fixed real point with distinct coordinates);
- every `verify` call of the `verify` workload, windows included;
- `special` det1, dim2, sig1 and pz on the `crosscheck` inputs of each
  family, dim2 also on its spot-check matrices;
- a few usage and input errors.

A change that must keep the program's output must print the same digest
as its parent commit: run this script in a checkout of each and compare.
perfbench is imported, never changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bergpoly.cli  # noqa: E402
import workloads  # noqa: E402

# distinct moduli, so that no binomial of equal degrees vanishes there
GENERIC_POINT = (0.29, 0.31, 0.37, 0.41, 0.43, 0.47)

ERROR_CALLS = (
    (),
    ("kernel", "--bogus"),
    ("kernel",),
    ("kernel", "--matrix", "1 2 / 2 4"),
    ("validate", "--matrix", "1 1 / 0 1"),
    ("special", "--family", "sig1", "--params", "2,x"),
    ("special", "--family", "det1", "--matrix", "2 -1 / 0 1"),
    ("eval", "--matrix", "1 -1 / 0 1", "--point-p", "0,nan"),
)


def _point_text(point) -> str:
    return ",".join(str(complex(z)) for z in point)


def cli_calls(seeds) -> list[tuple[str, ...]]:
    """The argv of every call, in a fixed order."""
    calls: list[tuple[str, ...]] = []
    for seed in seeds:
        matrices: dict[tuple, tuple] = {}
        for workload in workloads.WORKLOADS:
            for op in workloads.make_ops(workload, seed):
                point = op.point or matrices.get(op.rows) or GENERIC_POINT[:len(op.rows)]
                matrices[op.rows] = point
                if op.kind == "verify":
                    calls.append(op.argv)
                elif op.kind in ("det1", "dim2", "spot"):
                    family = "dim2" if op.kind == "spot" else op.kind
                    calls.append(("special", "--family", family,
                                  "--matrix", workloads.matrix_text(op.rows)))
                elif op.kind in ("sig1", "pz"):
                    calls.append(("special", "--family", op.kind,
                                  "--params", ",".join(map(str, op.spec))))
        for rows, point in matrices.items():
            matrix = ("--matrix", workloads.matrix_text(rows))
            calls += [("kernel", *matrix, "--format", fmt) for fmt in ("json", "latex", "text")]
            calls.append(("validate", *matrix))
            calls.append(("eval", *matrix, "--point-p", _point_text(point)))
    calls += ERROR_CALLS
    return calls


def run_call(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = bergpoly.cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    calls = cli_calls(args.seeds)
    digest = hashlib.sha256()
    for call in calls:
        rc, out, err = run_call(call)
        digest.update(json.dumps([list(call), rc, out, err]).encode() + b"\n")
    print(f"calls {len(calls)}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
