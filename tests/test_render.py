"""render.dumps against json.dumps(sort_keys=True, indent=2) + newline."""

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergpoly import IntMatrix, LaurentPolynomial, assemble_kernel, render
from bergpoly.oracle import OracleReport


def polynomial_payload(obj):
    """The default= hook of the dumps contract."""
    if isinstance(obj, LaurentPolynomial):
        return obj.to_json_dict()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def reference(obj):
    """json's own output, or the type of the exception it raises."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, default=polynomial_payload) + "\n"
    except (TypeError, ValueError) as exc:
        return type(exc)


def written(obj):
    try:
        return render.dumps(obj)
    except (TypeError, ValueError) as exc:
        return type(exc)


big_ints = st.integers(-(2**64) - 5, 2**64 + 5)
int_strings = st.one_of(st.integers(-10, 10), st.integers(-(2**80), 2**80)).map(str)
exps = st.lists(st.one_of(st.integers(-3, 3), big_ints), max_size=6)
terms = st.fixed_dictionaries({"den": int_strings, "exp": exps, "num": int_strings})
near_terms = st.one_of(
    terms.map(lambda t: {**t, "extra": 1}),
    terms.map(lambda t: {**t, "den": int(t["den"])}),
    terms.map(lambda t: {**t, "num": int(t["num"])}),
    terms.map(lambda t: {**t, "exp": t["exp"] + [True]}),
    terms.map(lambda t: {k: v for k, v in t.items() if k != "num"}),
)
poly_exps = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
coefficients = st.one_of(
    st.integers(-10, 10),
    st.integers(-(2**80), 2**80),
)
polynomials = st.integers(0, 6).flatmap(
    lambda n: st.dictionaries(st.tuples(*[poly_exps] * n), coefficients, max_size=6).map(
        lambda t: LaurentPolynomial(n, t)
    )
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    big_ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    polynomials,
)
json_values = st.recursive(
    scalars | st.lists(terms, max_size=3) | st.lists(st.one_of(big_ints, st.booleans())),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(st.one_of(terms, near_terms), max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
    ),
    max_leaves=20,
)


@settings(max_examples=600, deadline=None)
@given(json_values)
def test_random_values_match_json(obj):
    assert written(obj) == reference(obj)


@settings(max_examples=200, deadline=None)
@given(st.lists(terms, max_size=5), st.lists(near_terms, min_size=1, max_size=2))
def test_term_lists_and_near_terms(good, bad):
    assert render.dumps({"terms": good}) == reference({"terms": good})
    mixed = good + bad
    assert render.dumps({"terms": mixed, "n": 2}) == reference({"terms": mixed, "n": 2})


@settings(max_examples=300, deadline=None)
@given(polynomials, polynomials)
def test_polynomials_match_json(p, q):
    # top level, a dict value, inside a list, and under an int-keyed dict,
    # which json itself writes through the default= hook
    for obj in (p, {"numerator": p, "n": p.n}, [p, q, 3], [[q]], {1: p, 0: [q, {"f": p}]}):
        assert render.dumps(obj) == reference(obj)


# strings that would change a % template if they reached one unescaped
awkward = st.one_of(
    st.sampled_from(["%", "%s", "%d", "%%", "%(den)s", '"', "\\", '\\"', "é", "☃\n", "%s\u2028"]),
    st.text(max_size=6),
)


def uniform_terms(text):
    """Term lists whose exps all have one length, as a polynomial's are."""
    return st.integers(0, 4).flatmap(
        lambda k: st.lists(
            st.fixed_dictionaries({
                "den": text,
                "exp": st.lists(big_ints, min_size=k, max_size=k),
                "num": text,
            }),
            min_size=1,
            max_size=5,
        )
    )


@settings(max_examples=300, deadline=None)
@given(uniform_terms(awkward))
def test_term_strings_never_reach_the_template(xs):
    for obj in (xs, {"numerator": {"n": 2, "terms": xs}}):
        assert render.dumps(obj) == reference(obj)


@pytest.mark.parametrize(
    "xs, uniform",
    [
        ([{"den": "1", "exp": [], "num": "2"}, {"den": "%s", "exp": [], "num": "%d"}], True),
        ([{"den": "1", "exp": [1], "num": "2"}, {"den": "1", "exp": [1, 2], "num": "3"}], False),
        ([{"den": "1", "exp": [1, 2], "num": "2"}, {"den": "1", "exp": [], "num": "3"}], False),
        ([{"den": "1", "exp": [1, True], "num": "2"}], False),
        ([{"den": "1", "exp": [1], "num": "2"}, 7, "x", None, {"den": "1", "exp": [3], "num": "4"}], False),
        ([{"den": "1", "exp": [1], "num": "2"}, {"den": "1", "exp": [1], "num": 2}], False),
        ([{"den": "1", "exp": [1], "num": "2"}, {"den": "1", "exp": (1,), "num": "2"}], False),
        ([{"den": "1", "exp": [1], "num": "2", "x": 0}], False),
        ([{"den": "1", "exp": [1], "nom": "2"}], False),
        ([{"den": "1", "exp": [1.0], "num": "2"}], False),
    ],
)
def test_term_list_shapes(xs, uniform):
    # uniform marks the lists shaped like a polynomial's terms (equal-length
    # exps of plain ints); the others have mixed lengths, a bool, a non-term,
    # or a wrong key or type.  Plain lists of term dicts of either kind go
    # through the per-item path and print what json prints
    for obj in (xs, {"terms": xs}, [xs, xs]):
        assert render.dumps(obj) == reference(obj)


@pytest.mark.parametrize("x", [2**64, -(2**64), 2**64 - 1, -(2**64) + 1, 0, True, False])
def test_int_and_bool_scalars(x):
    for obj in (x, {"n": x}, [x], [{"k": x}, [x, 1]]):
        assert render.dumps(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        [], {}, [[]], [{}], {"a": [], "b": {}},
        [1, True, 2], [False], [1, 2, 3],
        [float("nan"), float("inf"), -float("inf"), 0.1, -0.0],
        {"é\n": "☃\t\"", " ": ["ü"]},
        {"t": [{"den": "1", "exp": [], "num": "-3"}]},
        {1: [2], 0: {"a": 3}},
        {"x": (1, 2)},
        "plain", None, 2**70,
    ],
)
def test_edge_values(obj):
    assert render.dumps(obj) == reference(obj)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(-9, 9), min_size=2, max_size=2),
            st.fractions(max_denominator=50),
            st.fractions(max_denominator=50),
        ),
        max_size=4,
    ),
    st.lists(st.integers(-9, 9), min_size=2, max_size=2),
    st.lists(st.integers(0, 12), min_size=2, max_size=2),
)
def test_report_payloads(mismatches, lower, widths):
    report = OracleReport(
        mismatches=tuple((tuple(e), a, b) for e, a, b in mismatches),
        safe_lower=tuple(lower),
        safe_upper=tuple(l + w for l, w in zip(lower, widths)),
    )
    payload = render.report_to_json_dict(report)
    assert render.dumps(payload) == reference(payload)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(st.lists(big_ints, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_matrix_payloads(rows):
    payload = {"valid": True, "n": len(rows), "matrix": [list(r) for r in IntMatrix(rows).rows]}
    assert render.dumps(payload) == reference(payload)


@pytest.mark.parametrize(
    "rows",
    [
        ((1, -1), (0, 1)),
        ((2, -1), (0, 1)),
        ((1, -3, 0), (0, 3, -1), (0, 0, 1)),
        ((3, -1, 0), (0, 3, -1), (-1, 0, 3)),
    ],
)
def test_kernel_forms(rows):
    form = assemble_kernel(IntMatrix(rows))
    for f in (form, form.canonicalized()):
        payload = render.form_to_json_dict(f)
        assert render.dumps(payload) == reference(payload)


P = LaurentPolynomial
F = Fraction


@pytest.mark.parametrize(
    "p,latex,text",
    [
        (P(2), "0", "0"),
        (P(2, {(0, 0): 3}), "3", "3"),
        (P(2, {(0, 0): 1}), "1", "1"),
        (P(2, {(0, 0): -1}), "-1", "-1"),
        (P(2, {(1, 0): 1, (0, 2): -1}), "-t_{2}^{2} + t_{1}", "-t2^2 + t1"),
        (
            P(2, {(2, 0): 4, (0, 0): -3, (1, 1): 5}),
            "-3 + 5 t_{1} t_{2} + 4 t_{1}^{2}",
            "-3 + 5*t1*t2 + 4*t1^2",
        ),
        (
            P(3, {(-1, 0, 2): 2, (0, -3, 0): -1, (1, 1, 1): 1}),
            "2 t_{1}^{-1} t_{3}^{2} - t_{2}^{-3} + t_{1} t_{2} t_{3}",
            "2*t1^-1*t3^2 - t2^-3 + t1*t2*t3",
        ),
        (P(2, {(0, 0): -2, (1, 0): 7, (0, 1): -5}), "-2 - 5 t_{2} + 7 t_{1}", "-2 - 5*t2 + 7*t1"),
    ],
)
def test_poly_terms(p, latex, text):
    assert render.poly_terms(p, render.LATEX) == latex
    assert render.poly_terms(p, render.TEXT) == text


@pytest.mark.parametrize(
    "prefactor,latex,text",
    [
        (F(1), r"\frac{1}{\pi^{2}}", "(1/pi^2)"),
        (F(1, 3), r"\frac{1}{3\,\pi^{2}}", "(1/3/pi^2)"),
        (F(2, 3), r"\frac{2}{3\,\pi^{2}}", "(2/3/pi^2)"),
        (F(2), r"\frac{2}{\pi^{2}}", "(2/pi^2)"),
    ],
)
def test_prefactors(prefactor, latex, text):
    form = dataclasses.replace(assemble_kernel(IntMatrix(((1, -1), (0, 1)))), prefactor=prefactor)
    assert render.form_to_latex(form) == (
        latex + r" \cdot \frac{t_{2}}{\left(t_{2} - t_{1}\right)^{2} \left(1 - t_{2}\right)^{2}}"
    )
    assert render.form_to_text(form) == (
        f"K(p,q) = {text} * (t2) / ((t2 - t1)^2 * (1 - t2)^2)"
    )
