"""Serializers: canonical JSON, LaTeX and plain-text output.

LaTeX and plain text are written by one term writer, `poly_terms`, from
the templates of its syntax (LATEX or TEXT).

JSON output is deterministic byte-for-byte: keys sorted, two-space
indent, rationals as decimal strings, polynomial terms in lexicographic
exponent order.  dumps(obj) is exactly json.dumps(obj, sort_keys=True,
indent=2, default=d) plus a newline, where d maps a LaurentPolynomial to
its to_json_dict() and raises TypeError for anything else, but it is
written by a small recursive writer: with an indent, CPython's json
falls back to its pure-Python encoder, about four times slower on the
polynomial term lists that make up most of the output.  The writer
formats the shapes the payloads are made of (str-keyed dicts, plain
ints, lists of ints, LaurentPolynomial values) itself and hands every
other value to json, with the same default, so the two cannot disagree
on a value it does not know.  A polynomial keeps its terms in the
canonical order, so it is written straight from them, with no sort: its
whole term list is one `%` template, the term template built for its
indent and variable count repeated once per term, filled in one call
from a flat list of the terms' exponents and coefficients.  Only ints
are substituted, and a decimal integer needs no JSON escaping.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _str

from .kernel import BergmanKernelForm
from .laurent import LaurentPolynomial
from .oracle import OracleReport

_INT = {int}


def dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2, default=d) + "\n", byte
    for byte, where d maps a LaurentPolynomial to its to_json_dict() and
    raises TypeError for anything else.

    Dicts whose keys are all str are written in sorted key order, plain
    ints (not bools) with int.__repr__, lists of plain ints with one
    join, and a LaurentPolynomial from its terms.  Scalars, empty
    containers, dicts with other keys and anything else go to json.dumps
    itself, re-indented to their depth; json escapes every newline inside
    a string, so each newline it writes is an indent."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _default(obj):
    if isinstance(obj, LaurentPolynomial):
        return obj.to_json_dict()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write(obj, nl: str, out: list[str]) -> None:
    """Append obj's JSON to out; nl is a newline plus obj's indent."""
    t = type(obj)
    if t is str:
        out.append(_str(obj))
    elif t is int:
        out.append(int.__repr__(obj))
    elif t is LaurentPolynomial:
        out.append(_poly(obj, nl))
    elif t is dict and obj and all(type(k) is str for k in obj):
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(f"{sep}{_str(key)}: ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif t is list and obj:
        inner = nl + "  "
        if _all_ints(obj):
            out.append(_ints(obj, nl))
        else:
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                _write(item, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    else:
        out.append(json.dumps(obj, sort_keys=True, indent=2, default=_default).replace("\n", nl))


def _all_ints(xs) -> bool:
    """Whether every item is a plain int: bool is an int subclass that
    json writes as true/false."""
    return {*map(type, xs)} <= _INT


def _ints(xs: list[int], nl: str) -> str:
    inner = nl + "  "
    return f"[{inner}{(',' + inner).join(map(str, xs))}{nl}]"


def _poly(p: LaurentPolynomial, nl: str) -> str:
    """p.to_json_dict() as json writes it at indent nl.  The term list is
    one template, the term template repeated once per term, filled by one
    `%` with the flat list of every term's (*exp, coefficient), all ints,
    in the polynomial's own (canonical) order; "den" is the literal "1"."""
    n, count = p.n, len(p)
    key = nl + "  "
    if not count:
        return f'{{{key}"n": {n},{key}"terms": []{nl}}}'
    item = key + "  "
    field = item + "  "
    entry = field + "  "
    exp = f"[{entry}{(',' + entry).join(['%d'] * n)}{field}]" if n else "[]"
    template = f'{{{field}"den": "1",{field}"exp": {exp},{field}"num": "%d"{item}}}'
    # column j of the flat list holds exponent j of every term, column n
    # the coefficients
    flat = [0] * (count * (n + 1))
    exps = [*chain.from_iterable(p.keys())]
    for j in range(n):
        flat[j::n + 1] = exps[j::n]
    flat[n::n + 1] = p.values()
    body = ("," + item).join([template] * count) % tuple(flat)
    return f'{{{key}"n": {n},{key}"terms": [{item}{body}{key}]{nl}}}'


def form_to_json_dict(form: BergmanKernelForm) -> dict:
    """The kernel form's JSON payload for dumps.  Its numerator and
    denominator factors are LaurentPolynomial values, which dumps writes
    as their to_json_dict(); json.dumps needs default= for them."""
    box = form.box
    return {
        "n": form.n,
        "detB": form.det,
        "prefactor": {
            "num": str(form.prefactor.numerator),
            "den": str(form.prefactor.denominator),
        },
        "piExponent": form.pi_exponent,
        "numerator": form.numerator,
        "denominatorFactors": list(form.factors),
        "nuBox": {
            "lower": list(box.lower),
            "upper": list(box.upper),
            "xi": list(box.ceilings),
        },
    }


# (variable, power, separator) templates of a term's pieces
LATEX = ("t_{%d}", "t_{%d}^{%d}", " ")
TEXT = ("t%d", "t%d^%d", "*")


def _coeff_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_terms(p: LaurentPolynomial, syntax: tuple[str, str, str]) -> str:
    """p in variables t_1 .. t_n, terms in canonical order, written with
    the templates of syntax (LATEX or TEXT).  A coefficient of magnitude
    1 is left out before a monomial; the first term carries a bare "-"
    when it is negative, every later one "- " or "+ "; the zero
    polynomial is "0"."""
    var, power, sep = syntax
    chunks = []
    for e, c in p.items():
        parts = [var % (i + 1) if k == 1 else power % (i + 1, k) for i, k in enumerate(e) if k]
        mag = abs(c)
        if mag != 1 or not parts:
            parts.insert(0, str(mag))
        sign = ("-" if c < 0 else "") if not chunks else ("- " if c < 0 else "+ ")
        chunks.append(sign + sep.join(parts))
    return " ".join(chunks) or "0"


def form_to_text(form: BergmanKernelForm) -> str:
    den = " * ".join(f"({poly_terms(f, TEXT)})^2" for f in form.factors)
    return (
        f"K(p,q) = ({_coeff_text(form.prefactor)}/pi^{-form.pi_exponent})"
        f" * ({poly_terms(form.numerator, TEXT)}) / ({den})"
    )


def form_to_latex(form: BergmanKernelForm) -> str:
    pre = form.prefactor
    pi_part = rf"\pi^{{{-form.pi_exponent}}}"
    if pre.denominator != 1:
        pi_part = rf"{pre.denominator}\,{pi_part}"
    den = " ".join(rf"\left({poly_terms(f, LATEX)}\right)^{{2}}" for f in form.factors)
    return (
        rf"\frac{{{pre.numerator}}}{{{pi_part}}} \cdot "
        rf"\frac{{{poly_terms(form.numerator, LATEX)}}}{{{den}}}"
    )


def report_to_json_dict(report: OracleReport) -> dict:
    return {
        "checked": report.checked,
        "matched": report.matched,
        "mismatches": [
            {
                "exp": list(e),
                "closedForm": _coeff_text(closed),
                "oracle": _coeff_text(oracle),
            }
            for e, closed, oracle in report.mismatches
        ],
        "safeBox": {
            "lower": list(report.safe_lower),
            "upper": list(report.safe_upper),
        },
    }
