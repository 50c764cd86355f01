"""Tests of the benchmark itself: each workload runs at a reduced size, and
each check catches a corrupted output.

    python3 -m pytest -q -p no:cacheprovider perfbench
"""

import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bergpoly  # noqa: E402
import independent as ind  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import COUNTS, LAYERS  # noqa: E402

SMALL = 0.15


def _small_run(workload, trace):
    result, problems, _ = run.measure(workload, seed=5, seconds=0, trace=trace,
                                      scale=SMALL, min_ops=1)
    return result, problems


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_clean_at_reduced_size(workload):
    result, problems = _small_run(workload, trace=0)
    assert problems == []
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"wall_s", "op_p50_ms", "op_p95_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result, problems = _small_run(workload, trace=1)
    assert problems == [] and result["correct"] is True
    names = set(LAYERS) | set(COUNTS) | {"kernel.support_fill", "trace.overhead_s"}
    assert set(result["metrics"]) == names
    assert result["metrics"]["kernel.assemble_ms"]["value"] > 0
    # The tracer puts every function back when it is done.
    assert bergpoly.assemble_kernel.__module__ == "bergpoly.kernel"
    assert not hasattr(bergpoly.kernel.canonicity_check, "__wrapped__")


def test_seed_fixes_the_inputs():
    assert workloads.make_ops("kernel", 3) == workloads.make_ops("kernel", 3)
    assert workloads.make_ops("kernel", 3) != workloads.make_ops("kernel", 4)
    assert workloads.make_ops("verify", 3) != workloads.make_ops("verify", 4)


def test_wrong_output_marks_the_run_incorrect(monkeypatch):
    real = workloads.run_op

    def corrupt(op):
        rc, text = real(op)
        return rc, text.replace('"num": "1"', '"num": "2"', 1)

    monkeypatch.setattr(workloads, "run_op", corrupt)
    result, problems = _small_run("kernel", trace=0)
    assert result["correct"] is False and problems


def test_malformed_output_marks_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(workloads, "run_op", lambda op: (0, "{}"))
    result, problems = _small_run("verify", trace=0)
    assert result["correct"] is False and problems


def test_raising_operation_counts_as_failed(monkeypatch):
    real = workloads.run_op

    def flaky(op):
        if op.kind == "spot":
            raise bergpoly.NonConvergentError("planted")
        return real(op)

    monkeypatch.setattr(workloads, "run_op", flaky)
    result, _ = _small_run("crosscheck", trace=0)
    spots = sum(op.kind == "spot" for op in workloads.make_ops("crosscheck", 5, SMALL))
    rounds = result["attempted"] // len(workloads.make_ops("crosscheck", 5, SMALL))
    assert result["failed"] == spots * rounds
    assert result["correct"] is True


# -- the kernel check -----------------------------------------------------

ROWS = ((3, -1, 0), (0, 3, -1), (-1, 0, 3))


@pytest.fixture(scope="module")
def kernel_json():
    rc, text = workloads.run_op(workloads.Op("kernel", ROWS, argv=(
        "kernel", "--matrix", workloads.matrix_text(ROWS))))
    assert rc == 0
    workloads.check_kernel(ROWS, text)
    return json.loads(text)


def _edit(data, fn):
    data = json.loads(json.dumps(data))
    fn(data)
    return json.dumps(data)


def test_kernel_check_catches_one_altered_coefficient(kernel_json):
    def bump(d):
        term = d["numerator"]["terms"][len(d["numerator"]["terms"]) // 2]
        term["num"] = str(int(term["num"]) + 1)

    with pytest.raises(workloads.CheckFailed, match="numerator differs"):
        workloads.check_kernel(ROWS, _edit(kernel_json, bump))


def test_kernel_check_catches_a_dropped_term(kernel_json):
    with pytest.raises(workloads.CheckFailed, match="numerator differs"):
        workloads.check_kernel(ROWS, _edit(kernel_json, lambda d: d["numerator"]["terms"].pop()))


def test_kernel_check_catches_a_wrong_prefactor(kernel_json):
    def halve(d):
        d["prefactor"]["den"] = str(2 * int(d["prefactor"]["den"]))

    with pytest.raises(workloads.CheckFailed, match="numerator differs"):
        workloads.check_kernel(ROWS, _edit(kernel_json, halve))


def test_kernel_check_catches_a_flipped_factor(kernel_json):
    def flip(d):
        for t in d["denominatorFactors"][1]["terms"]:
            t["num"] = str(-int(t["num"]))

    with pytest.raises(workloads.CheckFailed, match="factor 1"):
        workloads.check_kernel(ROWS, _edit(kernel_json, flip))


def test_kernel_check_catches_a_term_outside_the_box(kernel_json):
    def add(d):
        d["numerator"]["terms"].append(
            {"exp": [d["nuBox"]["upper"][0] + 1, 0, 0], "num": "1", "den": "1"})

    with pytest.raises(workloads.CheckFailed, match="numerator differs"):
        workloads.check_kernel(ROWS, _edit(kernel_json, add))


def test_kernel_check_catches_a_wrong_box(kernel_json):
    def widen(d):
        d["nuBox"]["upper"][0] += 1

    with pytest.raises(workloads.CheckFailed, match="nuBox"):
        workloads.check_kernel(ROWS, _edit(kernel_json, widen))


def test_coset_sums_find_a_dividing_binomial(kernel_json):
    terms = {tuple(t["exp"]): int(t["num"]) for t in kernel_json["numerator"]["terms"]}
    for row in ROWS:
        assert not ind.coset_sums_vanish(terms, row)
        times_f = {}
        for e, c in terms.items():
            for fe, fc in ind.denominator_factor(row).items():
                key = tuple(a + b for a, b in zip(e, fe))
                times_f[key] = times_f.get(key, 0) + c * fc
        assert ind.coset_sums_vanish({e: c for e, c in times_f.items() if c}, row)


def test_independent_adjugate():
    for rows in (ROWS, ((2, -1), (0, 1)), workloads._cyclic(5, 2, 1)):
        adj = ind.adjugate(rows)
        n = len(rows)
        prod = [[sum(rows[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[ind.det(rows) * (i == j) for j in range(n)] for i in range(n)]


# -- the verify check -------------------------------------------------------

VROWS = ((2, -1), (0, 1))


@pytest.fixture(scope="module")
def verify_output():
    radius = ind.default_verify_radius(VROWS)
    out = workloads.run_op(workloads.Op("verify", VROWS, radius, argv=(
        "verify", "--matrix", workloads.matrix_text(VROWS))))
    workloads.check_verify(VROWS, radius, *out)
    return radius, out


def test_verify_check_catches_a_planted_mismatch(verify_output):
    radius, (rc, text) = verify_output
    data = json.loads(text)
    data["mismatches"] = [{"exp": [0, 0], "closedForm": "1", "oracle": "2"}]
    with pytest.raises(workloads.CheckFailed, match="mismatches"):
        workloads.check_verify(VROWS, radius, rc, json.dumps(data))


def test_verify_check_catches_too_few_checked_points(verify_output):
    radius, (rc, text) = verify_output
    data = json.loads(text)
    data["checked"] = data["matched"] = ind.shrunk_window_points(VROWS, radius) - 1
    with pytest.raises(workloads.CheckFailed, match="checked"):
        workloads.check_verify(VROWS, radius, rc, json.dumps(data))


def test_verify_check_catches_a_bad_exit_code(verify_output):
    radius, (_, text) = verify_output
    with pytest.raises(workloads.CheckFailed, match="exit code"):
        workloads.check_verify(VROWS, radius, 2, text)


# -- the crosscheck checks ----------------------------------------------------


@pytest.fixture(scope="module")
def signature_output():
    op = workloads.Op("sig1", workloads.signature_rows((2, 3)), spec=(2, 3))
    out = workloads.run_op(op)
    workloads.check_special(*out)
    return out


def test_special_check_catches_same_kernel_false(signature_output):
    _, special, general = signature_output
    with pytest.raises(workloads.CheckFailed, match="same_kernel"):
        workloads.check_special(False, special, general)


def test_special_check_catches_a_wrong_prefactor(signature_output):
    same, special, general = signature_output
    wrong = dataclasses.replace(special, prefactor=special.prefactor * Fraction(3, 2))
    with pytest.raises(workloads.CheckFailed, match="prefactor"):
        workloads.check_special(same, wrong, general)


def test_special_check_catches_a_wrong_factor(signature_output):
    same, special, general = signature_output
    other = bergpoly.LaurentPolynomial(2, {(0, 0): 1, (2, 0): -1})
    wrong = dataclasses.replace(special, factors=(special.factors[0], other))
    with pytest.raises(workloads.CheckFailed, match="factors"):
        workloads.check_special(same, wrong, general)


def test_special_check_accepts_a_factor_of_the_other_sign(signature_output):
    same, special, general = signature_output
    flipped = dataclasses.replace(special, factors=(-special.factors[0],) + special.factors[1:])
    workloads.check_special(same, flipped, general)


@pytest.mark.parametrize("err", [1e-6, math.nan, -1.0])
def test_spot_check_rejects_a_large_or_invalid_error(err):
    with pytest.raises(workloads.CheckFailed, match="relative error"):
        workloads.check_spot(err)
