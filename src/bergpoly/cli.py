"""Command-line front end.

Commands: validate, kernel, eval, verify, special.  Results go to stdout
(deterministic JSON by default; latex/text on request), diagnostics to
stderr.  Exit codes: 0 success, 1 invalid input, 2 verification
mismatch, 3 internal canonicity violation, 64 usage error.

Each command takes only the options it reads; any other option is a
usage error (exit 64):
  validate  --matrix | --matrix-file
  kernel    --matrix | --matrix-file, --format
  eval      --matrix | --matrix-file, --format, --point-p, --point-q, --epsilon
  verify    --matrix | --matrix-file, --window, --jobs
  special   --family, --format, and --matrix | --matrix-file for det1 and
            dim2 or --params for sig1 and pz
`special` refuses the other family kind's input (--params for det1 or
dim2, a matrix for sig1 or pz) as invalid input: exit 1.

`verify` checks every point of the window together with the
numerator's bounding box (the report's `safeBox`), so no window is too
small.  It checks the form against the paper's tent formula on all of
Z^n, as `oracle.certify` does: at each of the form's terms and by the
mass identity, with no enumeration.  Only a refused form has its
mismatches in the box read off the tent formula's values there, so it
never fills a window (the window fill is only the tests' plain
reference); --jobs N is accepted for N >= 1 and ignored.
A window whose oracle hull (the box widened by the squared denominator's
exponent extents) has more than the oracle's cap of 2^27 points is
invalid input, whatever the form: exit 1 with one WindowTooLargeError
line naming the hull and its point count.
A numerator with more terms than the cap of 2^18 is invalid input too:
exit 1 with one NumeratorTooLargeError line naming n, det B and the
term count, before any term is built.  So is a numerator that does not
fit in memory, and a `special --family sig1` or `pz` numerator whose
enumeration does not (that line names the enumeration level and its
row count).
`eval --epsilon` is the modulus below which a denominator factor counts
as singular; one that is not finite or not > 0 would turn that guard off
and is invalid input (exit 1).  A --matrix-file that cannot be read, a
JSON matrix nested too deep to parse, a --jobs below 1 or a --window
below 0 is invalid input too.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import sys
from pathlib import Path

from . import render
from .errors import BergpolyError, CanonicityViolationError, InputError
from .int_linalg import IntMatrix, parse_matrix, prepare
from .kernel import assemble_kernel, eval_kernel
from .oracle import Window, compare_with_closed_form
from .special import (
    GeneralizedHartogsSpec,
    SignatureOneSpec,
    kernel_dim2,
    kernel_generalized_hartogs,
    kernel_signature_one,
    kernel_unimodular,
)

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process: parse_args fills a fresh Namespace,
    defaults included, on every call, so main can reuse it."""
    parser = _Parser(prog="bergpoly", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix(p):
        p.add_argument("--matrix", help='inline matrix, rows split by "/"')
        p.add_argument("--matrix-file", help="file with one row per line")
        return p

    def add_format(p):
        p.add_argument(
            "--format", choices=("json", "latex", "text"), default="json"
        )
        return p

    add_matrix(sub.add_parser("validate", help="check a defining matrix"))
    add_format(add_matrix(sub.add_parser("kernel", help="emit the canonical kernel form")))

    p_eval = add_format(add_matrix(sub.add_parser("eval", help="evaluate the kernel at points")))
    p_eval.add_argument("--point-p", required=True, help="comma-separated complex")
    p_eval.add_argument("--point-q", help="defaults to --point-p")
    p_eval.add_argument("--epsilon", type=float, default=1e-12)

    p_verify = add_matrix(sub.add_parser("verify", help="series-oracle comparison"))
    p_verify.add_argument(
        "--window",
        type=int,
        default=None,
        help="window radius (default: 6 times the largest |entry| of the "
        "normalized B)",
    )
    p_verify.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility (at least 1) and ignored; verify "
        "fills no window",
    )

    p_special = add_format(add_matrix(
        sub.add_parser("special", help="special-family kernel formulas")
    ))
    p_special.add_argument(
        "--family", choices=("det1", "dim2", "sig1", "pz"), required=True
    )
    p_special.add_argument("--params", help="comma-separated positive integers")
    return parser


def _load_matrix(args) -> IntMatrix:
    if args.matrix and args.matrix_file:
        raise InputError("give either --matrix or --matrix-file, not both")
    if args.matrix:
        return parse_matrix(args.matrix)
    if args.matrix_file:
        try:
            text = Path(args.matrix_file).read_text()
        except OSError as exc:
            raise InputError(
                f"cannot read --matrix-file {args.matrix_file!r}: {exc.strerror or exc}"
            ) from None
        return parse_matrix(text)
    raise InputError("a matrix is required (--matrix or --matrix-file)")


def _parse_point(text: str) -> list[complex]:
    out = []
    for tok in text.split(","):
        tok = tok.strip().replace("i", "j").replace(" ", "")
        z = complex(tok)
        if not cmath.isfinite(z):
            raise InputError(f"point coordinate {tok!r} is not finite")
        out.append(z)
    return out


def _parse_params(text: str) -> tuple[int, ...]:
    if not text:
        raise InputError("--params is required for this family")
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad --params: {exc}") from None


def _emit_form(form, fmt: str) -> str:
    if fmt == "json":
        return render.dumps(render.form_to_json_dict(form))
    if fmt == "latex":
        return render.form_to_latex(form) + "\n"
    return render.form_to_text(form) + "\n"


def _default_radius(vm) -> int:
    # row j's binomial t^((b_-)^j) - t^((b_+)^j) spreads |b_ji| in
    # coordinate i and its square 2|b_ji|: 3 times the largest square's
    return 6 * max(abs(x) for row in vm.matrix.rows for x in row)


def _run(args) -> int:
    if args.command == "validate":
        vm = prepare(_load_matrix(args))
        payload = {
            "valid": True,
            "n": vm.n,
            "detB": vm.det,
            "matrix": [list(r) for r in vm.matrix.rows],
            "adjugate": [list(r) for r in vm.adj.rows],
        }
        sys.stdout.write(render.dumps(payload))
        return 0

    if args.command == "kernel":
        form = assemble_kernel(_load_matrix(args))
        sys.stdout.write(_emit_form(form, args.format))
        return 0

    if args.command == "eval":
        if not (math.isfinite(args.epsilon) and args.epsilon > 0):
            raise InputError(f"--epsilon must be finite and > 0, not {args.epsilon!r}")
        form = assemble_kernel(_load_matrix(args))
        p = _parse_point(args.point_p)
        q = _parse_point(args.point_q) if args.point_q else p
        value = eval_kernel(form, p, q, epsilon=args.epsilon)
        if args.format == "json":
            sys.stdout.write(
                render.dumps({"real": value.real, "imag": value.imag})
            )
        else:
            sys.stdout.write(f"{value.real!r} + {value.imag!r}i\n")
        return 0

    if args.command == "verify":
        if args.jobs < 1:
            raise InputError(f"--jobs must be at least 1, not {args.jobs}")
        if args.window is not None and args.window < 0:
            raise InputError(f"--window must be at least 0, not {args.window}")
        vm = prepare(_load_matrix(args))
        form = assemble_kernel(vm)
        radius = args.window if args.window is not None else _default_radius(vm)
        window = Window.cube(vm.n, radius)
        report = compare_with_closed_form(vm, window, form=form)
        sys.stdout.write(render.dumps(render.report_to_json_dict(report)))
        if not report.ok:
            print(f"{len(report.mismatches)} mismatches", file=sys.stderr)
            return 2
        return 0

    if args.command == "special":
        if args.family in ("sig1", "pz"):
            if args.matrix is not None or args.matrix_file is not None:
                raise InputError(f"--family {args.family} takes --params, not a matrix")
        elif args.params is not None:
            raise InputError(f"--family {args.family} takes a matrix, not --params")
        if args.family == "det1":
            form = kernel_unimodular(prepare(_load_matrix(args)))
        elif args.family == "dim2":
            form = kernel_dim2(prepare(_load_matrix(args)))
        elif args.family == "sig1":
            form = kernel_signature_one(SignatureOneSpec(_parse_params(args.params)))
        else:
            form = kernel_generalized_hartogs(
                GeneralizedHartogsSpec(_parse_params(args.params))
            )
        sys.stdout.write(_emit_form(form.canonicalized(), args.format))
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        return _run(args)
    except CanonicityViolationError as exc:
        print(f"CanonicityViolation: {exc}", file=sys.stderr)
        return 3
    except (BergpolyError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
