"""Serializers: canonical JSON, LaTeX and plain-text output.

JSON output is deterministic byte-for-byte: keys sorted, two-space
indent, rationals as decimal strings, polynomial terms in lexicographic
exponent order.  It is exactly what json.dumps(obj, sort_keys=True,
indent=2) prints, plus a newline, but written by a small recursive
writer: with an indent, CPython's json falls back to its pure-Python
encoder, about four times slower on the polynomial term lists that make
up most of the output.  The writer formats the shapes the payloads are
made of (str-keyed dicts, plain ints, lists of ints, lists of polynomial
term dicts) itself and hands every other value to json, so the two
cannot disagree on a value it does not know.  A polynomial term list is
checked as a whole list, and then every term is written with one `%`
template built for the list's indent and exponent length; the term's
den and num strings are escaped by json's own encoder and only then
substituted, so their text never reaches the template.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _str
from operator import itemgetter

from .kernel import BergmanKernelForm, exponent_box
from .laurent import LaurentPolynomial
from .oracle import OracleReport

_INT = {int}
_DEN, _EXP, _NUM = map(itemgetter, ("den", "exp", "num"))


def dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", byte for byte.

    Dicts whose keys are all str are written in sorted key order, plain
    ints (not bools) with int.__repr__, lists of plain ints with one
    join, and a list of polynomial terms ({"den": str, "exp": [int, ...],
    "num": str}, every exp of one length) with one template.  Scalars,
    empty containers, dicts with other keys and anything else go to
    json.dumps itself, re-indented to their depth; json escapes every
    newline inside a string, so each newline it writes is an indent."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj, nl: str, out: list[str]) -> None:
    """Append obj's JSON to out; nl is a newline plus obj's indent."""
    t = type(obj)
    if t is str:
        out.append(_str(obj))
    elif t is int:
        out.append(int.__repr__(obj))
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
        elif (terms := _terms(obj, inner)) is not None:
            out.append(f"[{inner}{terms}{nl}]")
        else:
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                _write(item, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    else:
        out.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl))


def _all_ints(xs) -> bool:
    """Whether every item is a plain int: bool is an int subclass that
    json writes as true/false."""
    return {*map(type, xs)} <= _INT


def _ints(xs: list[int], nl: str) -> str:
    inner = nl + "  "
    return f"[{inner}{(',' + inner).join(map(str, xs))}{nl}]"


def _terms(xs: list, nl: str) -> str | None:
    """The items of a polynomial term list, each at indent nl and joined,
    or None when xs is not one.  Every item must be a dict with exactly
    the keys den, exp and num, den and num str, exp a list of plain ints,
    and every exp of the same length; each check runs over the whole
    list at once."""
    if {*map(type, xs)} != {dict} or {*map(len, xs)} != {3}:
        return None
    try:
        dens, exps, nums = [*map(_DEN, xs)], [*map(_EXP, xs)], [*map(_NUM, xs)]
    except KeyError:
        return None
    if (
        {*map(type, dens), *map(type, nums)} != {str}
        or {*map(type, exps)} != {list}
        or len({*map(len, exps)}) != 1
    ):
        return None
    columns = [*zip(*exps)]
    if not all(map(_all_ints, columns)):
        return None
    key = nl + "  "
    if columns:
        entry = key + "  "
        exp = f"[{entry}{(',' + entry).join(['%d'] * len(columns))}{key}]"
    else:
        exp = "[]"
    template = f'{{{key}"den": %s,{key}"exp": {exp},{key}"num": %s{nl}}}'
    return ("," + nl).join(
        map(template.__mod__, zip(map(_str, dens), *columns, map(_str, nums)))
    )


def form_to_json_dict(form: BergmanKernelForm) -> dict:
    box = form.box if form.box is not None else exponent_box(form.source)
    return {
        "n": form.n,
        "detB": form.det,
        "prefactor": {
            "num": str(form.prefactor.numerator),
            "den": str(form.prefactor.denominator),
        },
        "piExponent": form.pi_exponent,
        "numerator": form.numerator.to_json_dict(),
        "denominatorFactors": [f.to_json_dict() for f in form.factors],
        "nuBox": {
            "lower": list(box.lower),
            "upper": list(box.upper),
            "xi": list(box.ceilings),
        },
    }


def _coeff_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_text(p: LaurentPolynomial, var: str = "t") -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for e, c in p.sorted_terms():
        mono = "*".join(
            f"{var}{i + 1}" if k == 1 else f"{var}{i + 1}^{k}"
            for i, k in enumerate(e)
            if k != 0
        )
        neg = c < 0
        mag = -c if neg else c
        if not mono:
            body = _coeff_text(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_coeff_text(mag)}*{mono}"
        if not chunks:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


def form_to_text(form: BergmanKernelForm) -> str:
    pre = form.prefactor
    if pre.denominator == 1:
        pre_txt = f"{pre.numerator}" if pre != 1 else "1"
    else:
        pre_txt = f"{pre.numerator}/{pre.denominator}"
    den = " * ".join(f"({poly_text(f)})^2" for f in form.factors)
    return (
        f"K(p,q) = ({pre_txt}/pi^{-form.pi_exponent})"
        f" * ({poly_text(form.numerator)}) / ({den})"
    )


def form_to_latex(form: BergmanKernelForm) -> str:
    pre = form.prefactor
    npi = -form.pi_exponent
    pi_part = rf"\pi^{{{npi}}}"
    if pre == 1:
        prefactor = rf"\frac{{1}}{{{pi_part}}}"
    elif pre.numerator == 1:
        prefactor = rf"\frac{{1}}{{{pre.denominator}\,{pi_part}}}"
    else:
        prefactor = rf"\frac{{{pre.numerator}}}{{{pre.denominator}\,{pi_part}}}"
    den = " ".join(rf"\left({f.to_latex()}\right)^{{2}}" for f in form.factors)
    return (
        prefactor
        + r" \cdot "
        + rf"\frac{{{form.numerator.to_latex()}}}{{{den}}}"
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
