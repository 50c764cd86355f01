"""Command-line front end.

Commands: validate, kernel, eval, verify, special.  Results go to stdout
(deterministic JSON by default; latex/text on request), diagnostics to
stderr.  Exit codes: 0 success, 1 invalid input, 2 verification
mismatch, 3 internal canonicity violation, 64 usage error.  A `verify`
window whose oracle hull or comparison grid cannot be allocated is
invalid input: exit 1 with one WindowTooLargeError line giving its point
count and bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import render
from .errors import (
    BergpolyError,
    CanonicityViolationError,
    EvaluationAtSingularityError,
    InputError,
    PoleAtZeroError,
    WindowTooSmallError,
)
from .int_linalg import IntMatrix, matrix_to_json, parse_matrix, prepare
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="bergpoly", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, matrix=True):
        if matrix:
            p.add_argument("--matrix", help='inline matrix, rows split by "/"')
            p.add_argument("--matrix-file", help="file with one row per line")
        p.add_argument(
            "--format", choices=("json", "latex", "text"), default="json"
        )
        p.add_argument("--jobs", type=int, default=1, help="parallel window slabs")

    p_validate = sub.add_parser("validate", help="check a defining matrix")
    add_common(p_validate)

    p_kernel = sub.add_parser("kernel", help="emit the canonical kernel form")
    add_common(p_kernel)

    p_eval = sub.add_parser("eval", help="evaluate the kernel at points")
    add_common(p_eval)
    p_eval.add_argument("--point-p", required=True, help="comma-separated complex")
    p_eval.add_argument("--point-q", help="defaults to --point-p")
    p_eval.add_argument("--epsilon", type=float, default=1e-12)

    p_verify = sub.add_parser("verify", help="series-oracle comparison")
    add_common(p_verify)
    p_verify.add_argument(
        "--window",
        type=int,
        default=None,
        help="window radius (default: 3x the denominator exponent spread)",
    )

    p_special = sub.add_parser("special", help="special-family kernel formulas")
    add_common(p_special)
    p_special.add_argument(
        "--family", choices=("det1", "dim2", "sig1", "pz"), required=True
    )
    p_special.add_argument("--params", help="comma-separated positive integers")
    return parser


def _load_matrix(args) -> IntMatrix:
    if getattr(args, "matrix", None) and getattr(args, "matrix_file", None):
        raise InputError("give either --matrix or --matrix-file, not both")
    if getattr(args, "matrix", None):
        return parse_matrix(args.matrix)
    if getattr(args, "matrix_file", None):
        return parse_matrix(Path(args.matrix_file).read_text())
    raise InputError("a matrix is required (--matrix or --matrix-file)")


def _parse_point(text: str) -> list[complex]:
    out = []
    for tok in text.split(","):
        tok = tok.strip().replace("i", "j").replace(" ", "")
        out.append(complex(tok))
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


def _default_radius(form) -> int:
    spread = 0
    for f in form.factors:
        sq = f * f
        spread = max(
            spread,
            max(h - l for l, h in zip(sq.min_exponents(), sq.max_exponents())),
        )
    return max(3 * spread, 1)


def _run(args) -> int:
    if args.command == "validate":
        vm = prepare(_load_matrix(args))
        payload = {
            "valid": True,
            "n": vm.n,
            "detB": vm.det,
            "matrix": matrix_to_json(vm.matrix),
            "adjugate": matrix_to_json(vm.adj),
        }
        sys.stdout.write(render.dumps(payload))
        return 0

    if args.command == "kernel":
        form = assemble_kernel(_load_matrix(args))
        sys.stdout.write(_emit_form(form, args.format))
        return 0

    if args.command == "eval":
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
        vm = prepare(_load_matrix(args))
        form = assemble_kernel(vm)
        radius = args.window if args.window is not None else _default_radius(form)
        window = Window.cube(vm.n, radius)
        report = compare_with_closed_form(vm, window, form=form, jobs=args.jobs)
        sys.stdout.write(render.dumps(render.report_to_json_dict(report)))
        if not report.ok:
            print(f"{len(report.mismatches)} mismatches", file=sys.stderr)
            return 2
        return 0

    if args.command == "special":
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
    except (InputError, PoleAtZeroError, EvaluationAtSingularityError,
            WindowTooSmallError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except CanonicityViolationError as exc:
        print(f"CanonicityViolation: {exc}", file=sys.stderr)
        return 3
    except BergpolyError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
