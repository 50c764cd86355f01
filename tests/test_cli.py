import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bergpoly
from bergpoly import _backend, cli, oracle
from bergpoly.oracle import OracleReport

from families import subsample, valid_family


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_limited(limit, *argv, **env):
    """The CLI in a subprocess whose address space is capped at limit bytes,
    with env added to its environment."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(bergpoly.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **env)
    return subprocess.run(
        [sys.executable, "-m", "bergpoly.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit_memory,
    )


class TestValidate:
    def test_accept(self, capsys):
        code, out, _ = run(capsys, "validate", "--matrix", "1 -1 / 0 1")
        assert code == 0
        data = json.loads(out)
        assert data["valid"] and data["detB"] == 1
        assert data["adjugate"] == [[1, 1], [0, 1]]

    def test_unbounded(self, capsys):
        code, _, err = run(capsys, "validate", "--matrix", "1 1 / 0 1")
        assert code == 1
        assert "Unbounded" in err

    def test_singular(self, capsys):
        code, _, err = run(capsys, "validate", "--matrix", "1 1 / 2 2")
        assert code == 1
        assert "Singular" in err

    def test_matrix_file(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("1 -1\n0 1\n")
        code, out, _ = run(capsys, "validate", "--matrix-file", str(f))
        assert code == 0 and json.loads(out)["valid"]

    def test_dimension_cap_env(self, capsys, monkeypatch):
        # the cap is fixed; the environment variable that once raised it is
        # not read
        monkeypatch.setenv("BERGPOLY_MAX_N", "20")
        eye17 = " / ".join(" ".join(str(int(i == j)) for j in range(17)) for i in range(17))
        code, _, err = run(capsys, "validate", "--matrix", eye17)
        assert code == 1 and "cap" in err


class TestDimensionCap:
    """Every matrix a user supplies, in any form and to any command, meets
    the fixed cap of 16: MatrixTooLargeError, exit code 1."""

    EYE17 = [[int(i == j) for j in range(17)] for i in range(17)]

    @pytest.mark.parametrize(
        "command",
        [
            ("validate",),
            ("kernel",),
            ("verify",),
            ("eval", "--point-p", ",".join(["0.1"] * 17)),
            ("special", "--family", "det1"),
            ("special", "--family", "dim2"),
        ],
    )
    @pytest.mark.parametrize("form", ["inline", "file", "json"])
    def test_matrix_inputs(self, capsys, tmp_path, command, form):
        if form == "inline":
            source = ("--matrix", " / ".join(" ".join(map(str, r)) for r in self.EYE17))
        elif form == "json":
            source = ("--matrix", json.dumps(self.EYE17))
        else:
            f = tmp_path / "m.txt"
            f.write_text("".join(" ".join(map(str, r)) + "\n" for r in self.EYE17))
            source = ("--matrix-file", str(f))
        code, out, err = run(capsys, *command, *source)
        assert code == 1 and out == ""
        assert err == "MatrixTooLargeError: n=17 exceeds the cap 16\n"

    @pytest.mark.parametrize("family", ["sig1", "pz"])
    def test_family_params(self, capsys, family):
        code, out, err = run(capsys, "special", "--family", family, "--params", ",".join(["1"] * 17))
        assert code == 1 and out == ""
        assert err == "MatrixTooLargeError: n=17 exceeds the cap 16\n"

    def test_default_cap(self, capsys):
        eye17 = " / ".join(" ".join(str(int(i == j)) for j in range(17)) for i in range(17))
        code, _, err = run(capsys, "kernel", "--matrix", eye17)
        assert code == 1 and err.startswith("MatrixTooLargeError: n=17 exceeds the cap 16")


class TestKernel:
    def test_latex_hartogs(self, capsys):
        code, out, _ = run(capsys, "kernel", "--matrix", "1 -1 / 0 1", "--format", "latex")
        assert code == 0
        assert out.strip() == (
            r"\frac{1}{\pi^{2}} \cdot \frac{t_{2}}"
            r"{\left(t_{2} - t_{1}\right)^{2} \left(1 - t_{2}\right)^{2}}"
        )

    def test_json_deterministic(self, capsys):
        _, first, _ = run(capsys, "kernel", "--matrix", "2 -1 / 0 1")
        _, second, _ = run(capsys, "kernel", "--matrix", "2 -1 / 0 1")
        assert first == second

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "kernel", "--matrix", "2 -1 / 0 1")
        from bergpoly.render import dumps

        assert dumps(json.loads(out)) == out

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "kernel", "--matrix", "1 -1 / 0 1", "--format", "text")
        assert code == 0
        assert "t2" in out and "pi^2" in out

    def test_numerator_out_of_memory_is_input_error(self):
        # det 2,997,001 is over the numerator's cap of 2^18 terms, so the
        # matrix is refused before any array exists; the 1.5 GB address
        # space limit stays as the backstop.  Never run this matrix without
        # the cap or a memory limit.
        proc = run_limited(15 * 10**8, "kernel", "--matrix",
                           "1000 -999 0 / 0 1000 -999 / -999 0 1000",
                           OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "Traceback" not in proc.stderr
        assert lines[0] == (
            "NumeratorTooLargeError: the numerator in dimension 3 with det 2997001 "
            "has at least 2997001 terms, more than the cap of 262144")

    def test_numerator_over_the_cap_is_refused_at_once(self, capsys):
        # the same matrix with no memory limit: the cap refuses it by its
        # det alone, in far less than a second
        start = time.perf_counter()
        code, out, err = run(capsys, "kernel", "--matrix", "1000 -999 0 / 0 1000 -999 / -999 0 1000")
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "NumeratorTooLargeError: the numerator in dimension 3 with det 2997001 "
            "has at least 2997001 terms, more than the cap of 262144"]


class TestEval:
    def test_hartogs_point(self, capsys):
        import math

        code, out, _ = run(
            capsys, "eval", "--matrix", "1 -1 / 0 1", "--point-p", "0,0.5"
        )
        assert code == 0
        data = json.loads(out)
        assert data["real"] == pytest.approx(64 / (9 * math.pi**2), rel=1e-12)
        assert data["imag"] == 0

    def test_singular_point(self, capsys):
        r = 0.5**0.5
        code, _, err = run(
            capsys,
            "eval",
            "--matrix",
            "1 -1 / 0 1",
            "--point-p",
            f"{r},{r}",
        )
        assert code == 1 and "Singularity" in err

    def test_distinct_q_point(self, capsys):
        from bergpoly import IntMatrix, assemble_kernel, eval_kernel, prepare

        code, out, _ = run(
            capsys,
            "eval",
            "--matrix",
            "1 -1 / 0 1",
            "--point-p",
            "0.1,0.6",
            "--point-q",
            "0.05,0.5",
        )
        assert code == 0
        form = assemble_kernel(prepare(IntMatrix(((1, -1), (0, 1)))))
        want = eval_kernel(form, [0.1, 0.6], [0.05, 0.5])
        data = json.loads(out)
        assert data["real"] == pytest.approx(want.real, rel=1e-12)

    def test_epsilon_flag(self, capsys):
        # widening epsilon turns a fine point into a flagged singularity
        code, _, err = run(
            capsys,
            "eval",
            "--matrix",
            "1 -1 / 0 1",
            "--point-p",
            "0.1,0.6",
            "--epsilon",
            "0.9",
        )
        assert code == 1 and "Singularity" in err


class TestVerify:
    def test_worked_window(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--matrix", "2 -1 / 0 1", "--window", "12"
        )
        assert code == 0
        data = json.loads(out)
        assert data["mismatches"] == [] and data["checked"] == data["matched"]
        assert set(data) == {"checked", "matched", "mismatches", "safeBox"}

    def test_default_window(self, capsys):
        code, out, _ = run(capsys, "verify", "--matrix", "1 -1 / 0 1")
        data = json.loads(out)
        assert code == 0 and data["mismatches"] == []
        # radius 3 * 2: the squared factors (t2 - t1)^2 and (1 - t2)^2 span 2
        assert data["safeBox"] == {"lower": [-6, -6], "upper": [6, 6]}

    def test_default_radius_is_the_factor_spread_rule(self, family_2x2, family_3x3):
        # the radius read off B equals 3 times the largest spread 2 (max -
        # min exponent) of a squared factor of the assembled form
        mats = subsample(family_2x2, 40) + subsample(family_3x3, 60)
        mats += valid_family(4, 20, seed=5)
        for vm in mats:
            spread = max(
                2 * (h - l) for f in bergpoly.assemble_kernel(vm).factors
                for l, h in zip(f.min_exponents(), f.max_exponents())
            )
            assert cli._default_radius(vm) == max(3 * spread, 1), vm.matrix.rows

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        fake = OracleReport(
            mismatches=(((1, 1), 1, 2),), safe_lower=(0, 0), safe_upper=(1, 1)
        )
        monkeypatch.setattr(cli, "compare_with_closed_form", lambda *a, **k: fake)
        code, out, err = run(capsys, "verify", "--matrix", "1 -1 / 0 1")
        assert code == 2 and "1 mismatches" in err

    def test_jobs_flag_same_output(self, capsys):
        _, serial, _ = run(capsys, "verify", "--matrix", "2 -1 / 0 1", "--window", "10")
        _, parallel, _ = run(
            capsys, "verify", "--matrix", "2 -1 / 0 1", "--window", "10", "--jobs", "3"
        )
        assert serial == parallel

    def test_oversized_window_is_input_error(self):
        # Under a 3 GB address space limit, the 5x5 hull at radius 40 (about
        # 5e9 points) and at radius 19 (about 2e8 points) are both over the
        # oracle's point cap and refused before anything is filled, each
        # with one typed line.  One OpenBLAS thread keeps the address space
        # its thread pool takes out of the result.
        matrix = "2 -1 0 0 0 / 0 2 -1 0 0 / 0 0 2 -1 0 / 0 0 0 2 -1 / -1 0 0 0 2"
        for window, stage in (("40", "the oracle hull"), ("19", "the oracle hull")):
            proc = run_limited(3 * 10**9, "verify", "--matrix", matrix, "--window", window,
                               OPENBLAS_NUM_THREADS="1")
            assert proc.returncode == 1
            assert proc.stdout == ""
            lines = proc.stderr.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("WindowTooLargeError: " + stage)
            assert "Traceback" not in proc.stderr

    def test_budget_refuses_before_any_fill(self, capsys, monkeypatch):
        # the oracle's point cap is checked before the window is filled, so
        # the refusal does not depend on the host's memory; a correct form
        # within the cap is certified without a fill
        def no_fill(*args, **kwargs):
            raise AssertionError("the window was filled")

        monkeypatch.setattr(_backend, "fill_products", no_fill)
        cyclic5 = "2 -1 0 0 0 / 0 2 -1 0 0 / 0 0 2 -1 0 / 0 0 0 2 -1 / -1 0 0 0 2"
        cyclic6 = ("2 -1 0 0 0 0 / 0 2 -1 0 0 0 / 0 0 2 -1 0 0 / 0 0 0 2 -1 0 / "
                   "0 0 0 0 2 -1 / -1 0 0 0 0 2")
        # the 3x3 with large entries is refused at its own default radius, 240
        for matrix, window, stage in (
            (cyclic5, ("--window", "19"), "the oracle hull"),
            (cyclic5, ("--window", "40"), "the oracle hull"),
            ("1 0 / 0 1", ("--window", "3000000000"), "the oracle hull"),
            ("40 -39 0 / 0 40 -39 / -39 0 40", (), "the oracle hull"),
        ):
            code, out, err = run(capsys, "verify", "--matrix", matrix, *window)
            assert code == 1 and out == ""
            lines = err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("WindowTooLargeError: " + stage)
            assert lines[0].endswith(f"cap of {oracle.HULL_BUDGET_POINTS} points")
        for matrix, window, checked in ((cyclic5, (), 25**5), (cyclic6, ("--window", "5"), 11**6)):
            code, out, _ = run(capsys, "verify", "--matrix", matrix, *window)
            assert code == 0 and json.loads(out)["checked"] == checked

    def test_canonicity_exit_code(self, capsys, monkeypatch):
        from bergpoly.errors import CanonicityViolationError

        def boom(_):
            raise CanonicityViolationError("internal inconsistency")

        monkeypatch.setattr(cli, "assemble_kernel", boom)
        code, _, err = run(capsys, "kernel", "--matrix", "1 -1 / 0 1")
        assert code == 3 and "CanonicityViolation" in err


class TestSpecial:
    def test_pz_equals_kernel(self, capsys):
        _, special_out, _ = run(capsys, "special", "--family", "pz", "--params", "1,1")
        _, kernel_out, _ = run(capsys, "kernel", "--matrix", "1 -1 / 0 1")
        assert special_out == kernel_out

    def test_sig1(self, capsys):
        _, special_out, _ = run(capsys, "special", "--family", "sig1", "--params", "2,1")
        _, kernel_out, _ = run(capsys, "kernel", "--matrix", "2 -1 / 0 1")
        assert special_out == kernel_out

    def test_det1_needs_matrix(self, capsys):
        code, _, err = run(capsys, "special", "--family", "det1")
        assert code == 1 and "matrix" in err

    def test_det1(self, capsys):
        code, out, _ = run(
            capsys, "special", "--family", "det1", "--matrix", "1 -1 / 0 1"
        )
        assert code == 0
        _, kernel_out, _ = run(capsys, "kernel", "--matrix", "1 -1 / 0 1")
        assert out == kernel_out

    def test_gcd_violation(self, capsys):
        code, _, err = run(capsys, "special", "--family", "pz", "--params", "2,4")
        assert code == 1 and "gcd" in err


# latex and text output, byte for byte
FORMATTED = [
    (("kernel", "--matrix", "1 -1 / 0 1", "--format", "latex"),
     r"\frac{1}{\pi^{2}} \cdot \frac{t_{2}}{\left(t_{2} - t_{1}\right)^{2} "
     r"\left(1 - t_{2}\right)^{2}}"),
    (("kernel", "--matrix", "1 -1 / 0 1", "--format", "text"),
     "K(p,q) = (1/pi^2) * (t2) / ((t2 - t1)^2 * (1 - t2)^2)"),
    (("kernel", "--matrix", "2 -1 / 0 1", "--format", "latex"),
     r"\frac{1}{2\,\pi^{2}} \cdot \frac{t_{2} + t_{2}^{2} + 4 t_{1} t_{2} + t_{1}^{2} "
     r"+ t_{1}^{2} t_{2}}{\left(t_{2} - t_{1}^{2}\right)^{2} \left(1 - t_{2}\right)^{2}}"),
    (("kernel", "--matrix", "2 -1 / 0 1", "--format", "text"),
     "K(p,q) = (1/2/pi^2) * (t2 + t2^2 + 4*t1*t2 + t1^2 + t1^2*t2) "
     "/ ((t2 - t1^2)^2 * (1 - t2)^2)"),
    (("kernel", "--matrix", "1 -3 0 / 0 3 -1 / 0 0 1", "--format", "latex"),
     r"\frac{1}{9\,\pi^{3}} \cdot \frac{3 t_{2}^{3} t_{3} + 6 t_{2}^{3} t_{3}^{2} "
     r"+ 12 t_{2}^{4} t_{3} + 6 t_{2}^{4} t_{3}^{2} + 27 t_{2}^{5} t_{3} + 6 t_{2}^{6} "
     r"+ 12 t_{2}^{6} t_{3} + 6 t_{2}^{7} + 3 t_{2}^{7} t_{3}}{\left(t_{2}^{3} - t_{1}\right)^{2} "
     r"\left(t_{3} - t_{2}^{3}\right)^{2} \left(1 - t_{3}\right)^{2}}"),
    (("kernel", "--matrix", "1 -3 0 / 0 3 -1 / 0 0 1", "--format", "text"),
     "K(p,q) = (1/9/pi^3) * (3*t2^3*t3 + 6*t2^3*t3^2 + 12*t2^4*t3 + 6*t2^4*t3^2 "
     "+ 27*t2^5*t3 + 6*t2^6 + 12*t2^6*t3 + 6*t2^7 + 3*t2^7*t3) "
     "/ ((t2^3 - t1)^2 * (t3 - t2^3)^2 * (1 - t3)^2)"),
    (("special", "--family", "sig1", "--params", "2,3,5", "--format", "latex"),
     r"\frac{1}{4\,\pi^{3}} \cdot \frac{t_{2}^{4} t_{3}^{7} + t_{2}^{4} t_{3}^{8} "
     r"+ t_{2}^{5} t_{3}^{7} + t_{2}^{5} t_{3}^{8} + 8 t_{1} t_{2}^{3} t_{3}^{5} "
     r"+ t_{1}^{2} t_{2} t_{3}^{2} + t_{1}^{2} t_{2} t_{3}^{3} + t_{1}^{2} t_{2}^{2} t_{3}^{2} "
     r"+ t_{1}^{2} t_{2}^{2} t_{3}^{3}}{\left(t_{2}^{3} t_{3}^{5} - t_{1}^{2}\right)^{2} "
     r"\left(1 - t_{2}\right)^{2} \left(1 - t_{3}\right)^{2}}"),
    (("special", "--family", "sig1", "--params", "2,3,5", "--format", "text"),
     "K(p,q) = (1/4/pi^3) * (t2^4*t3^7 + t2^4*t3^8 + t2^5*t3^7 + t2^5*t3^8 "
     "+ 8*t1*t2^3*t3^5 + t1^2*t2*t3^2 + t1^2*t2*t3^3 + t1^2*t2^2*t3^2 + t1^2*t2^2*t3^3) "
     "/ ((t2^3*t3^5 - t1^2)^2 * (1 - t2)^2 * (1 - t3)^2)"),
    (("special", "--family", "pz", "--params", "2,3", "--format", "latex"),
     r"\frac{1}{2\,\pi^{2}} \cdot \frac{t_{2}^{4} + t_{2}^{5} + 4 t_{1} t_{2}^{3} "
     r"+ t_{1}^{2} t_{2} + t_{1}^{2} t_{2}^{2}}{\left(t_{2}^{3} - t_{1}^{2}\right)^{2} "
     r"\left(1 - t_{2}\right)^{2}}"),
    (("special", "--family", "pz", "--params", "2,3", "--format", "text"),
     "K(p,q) = (1/2/pi^2) * (t2^4 + t2^5 + 4*t1*t2^3 + t1^2*t2 + t1^2*t2^2) "
     "/ ((t2^3 - t1^2)^2 * (1 - t2)^2)"),
]


@pytest.mark.parametrize("argv,expected", FORMATTED, ids=[" ".join(a) for a, _ in FORMATTED])
def test_latex_and_text_output(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected + "\n", "")


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert run(capsys, "kernel", "--bogus")[0] == 64

    def test_missing_command(self, capsys):
        assert run(capsys)[0] == 64

    def test_bad_params(self, capsys):
        code, _, _ = run(capsys, "special", "--family", "pz", "--params", "a,b")
        assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "--matrix", "[1,2]"),
        ("kernel", "--matrix", "[[1,0],[0,1e400]]"),
        ("kernel", "--matrix", "[[1.5,0],[0,1]]"),
        ("kernel", "--matrix", "[[true,0],[0,1]]"),
        ("kernel", "--matrix", '[[1,0],[0,"2"]]'),
        ("eval", "--matrix", "1 -1 / 0 1", "--point-p", "0.1,nan"),
        ("kernel", "--matrix", "[" * 100_000),
        ("kernel", "--matrix-file", "/nonexistent/x"),
        ("kernel", "--matrix-file", "."),
        ("eval", "--matrix", "1 -1 / 0 1", "--point-p", "0.5,0.5", "--epsilon", "nan"),
        ("eval", "--matrix", "1 -1 / 0 1", "--point-p", "0.5,0.5", "--epsilon", "0"),
        ("verify", "--matrix", "2 -1 / 0 1", "--jobs", "0"),
        ("verify", "--matrix", "2 -1 / 0 1", "--window", "-1"),
        # a special family refuses the other family kind's input
        ("special", "--family", "sig1", "--params", "2,3", "--matrix", "1 0 / 0 1"),
        ("special", "--family", "pz", "--params", "1,1", "--matrix-file", "m.txt"),
        ("special", "--family", "dim2", "--matrix", "3 -2 / -1 1", "--params", "abc"),
        ("special", "--family", "det1", "--matrix", "1 -1 / 0 1", "--params", "2,3"),
    ],
)
def test_malformed_input_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("InputError: ")


@pytest.mark.parametrize(
    "argv, error",
    [
        (("special", "--family", "sig1", "--params", "99999999999999999999999,1"),
         "NumeratorTooLargeError"),
        (("special", "--family", "sig1", "--params", "999999999999999999,1"),
         "NumeratorTooLargeError"),
        (("kernel", "--matrix", "3000000000000000000 -1 / -1 1"), "NumeratorTooLargeError"),
        (("verify", "--matrix", "1 0 / 0 1", "--window", "3000000000"), "WindowTooLargeError"),
    ],
)
def test_size_no_array_can_hold_is_input_error(argv, error):
    # each numerator level or oracle hull has more bytes than numpy lets one
    # array have, so it must be refused by its size before any allocation
    proc = run_limited(15 * 10**8, *argv, OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(error + ": "), proc.stderr


@pytest.mark.parametrize("family", ["sig1", "pz"])
def test_special_over_the_dimension_cap_is_refused_at_once(family):
    # the witness prepares the matrix it builds before it enumerates, so 17
    # params meet the dimension cap, not the enumerator
    params = "2,3,5,7,11,13,17,19,23,29,31,37,41,43,47,53,59"
    proc = run_limited(15 * 10**8, "special", "--family", family, "--params", params,
                       OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["MatrixTooLargeError: n=17 exceeds the cap 16"]


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "--matrix", "2 -1 / 0 1", "--jobs", "-3"),
        ("kernel", "--matrix", "2 -1 / 0 1", "--jobs", "2"),
        ("validate", "--matrix", "2 -1 / 0 1", "--jobs", "1"),
        ("eval", "--matrix", "2 -1 / 0 1", "--point-p", "0.1,0.1", "--jobs", "2"),
        ("special", "--family", "pz", "--params", "1,1", "--jobs", "2"),
        ("validate", "--matrix", "2 -1 / 0 1", "--format", "latex"),
        ("verify", "--matrix", "2 -1 / 0 1", "--format", "json"),
    ],
)
def test_option_the_command_does_not_read_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert err.splitlines()[-1].startswith("bergpoly: error: unrecognized arguments: ")


@pytest.mark.parametrize(
    "calls, codes",
    [
        ([("verify", "--matrix", "2 -1 / 0 1", "--window", "2"),
          ("verify", "--matrix", "2 -1 / 0 1")], [0, 0]),
        ([("kernel", "--matrix", "1 -1 / 0 1", "--bogus"),
          ("kernel", "--matrix", "2 -1 / 0 1")], [64, 0]),
        ([("kernel", "--matrix", "2 -1 / 0 1", "--format", "latex"),
          ("kernel", "--matrix", "2 -1 / 0 1")], [0, 0]),
    ],
)
def test_calls_in_sequence_match_calls_alone(capsys, calls, codes):
    # main reuses one parser per process; no call may see an earlier
    # call's options or defaults
    together = [run(capsys, *argv)[:2] for argv in calls]
    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(run(capsys, *argv)[:2])
    assert together == alone
    assert [code for code, _ in together] == codes


# -- fuzzing malformed input ---------------------------------------------

# no digits, whitespace or "/": a token drawn from here is never an integer;
# without i, j and n it is never a complex number either ("j", "nan", "inf")
GARBAGE = "abcdegkmoqrstuvwxyz.;:+-*_=!?#%&()'\"{}<>"
garbage = st.text(alphabet=GARBAGE, min_size=1, max_size=6)


@st.composite
def bad_matrix_texts(draw):
    """Matrix text or JSON that must be refused: a non-integer token, ragged
    or empty rows, a singular or unbounded integer matrix, a 1x1 matrix, or
    JSON that is not an array of arrays of integers."""
    n = draw(st.integers(2, 3))
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(
        ("token", "ragged", "empty_row", "zero_row", "equal_rows", "unbounded",
         "one_by_one", "json_entry", "json_shape", "json_syntax")
    ))
    if kind == "token":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(garbage)
    elif kind == "ragged":
        rows[draw(st.integers(0, n - 1))].append(draw(st.integers(-3, 3)))
    elif kind == "empty_row":
        rows.insert(draw(st.integers(1, n - 1)), [])  # not stripped away
    elif kind == "zero_row":
        rows[draw(st.integers(0, n - 1))] = [0] * n
    elif kind == "equal_rows":
        rows[1] = list(rows[0])
    elif kind == "unbounded":
        # triangular, positive diagonal, one positive entry off it: the
        # inverse has a negative entry there, so adj B is not >= 0
        rows = [[draw(st.integers(1, 3)) if i == j else 0 for j in range(n)]
                for i in range(n)]
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i < j]))
        rows[i][j] = draw(st.integers(1, 3))
    elif kind == "one_by_one":
        rows = [[draw(st.integers(-3, 3))]]
    if kind == "json_entry":
        bad = draw(st.sampled_from(("1.5", "true", "null", '"2"', "[1]", "1e400", "{}")))
        cells = [[str(x) for x in r] for r in rows]
        cells[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = bad
        return "[" + ",".join("[" + ",".join(r) + "]" for r in cells) + "]"
    if kind == "json_shape":
        return draw(st.sampled_from(("[]", "[[]]", "[1,2]", "[[1,0],[0]]", '["1 0","0 1"]',
                                     "[[[1]],[[0]]]", "[{}]", "[" * 50)))
    if kind == "json_syntax":
        text = json.dumps(rows)
        return text[: draw(st.integers(1, len(text) - 1))]
    sep = draw(st.sampled_from((" / ", "\n")))
    return sep.join(" ".join(str(x) for x in r) for r in rows)


@st.composite
def bad_points(draw):
    """--point-p text that must be refused: a non-finite or unparsable
    coordinate, an empty one, or the wrong number of coordinates."""
    kind = draw(st.sampled_from(("garbage", "nonfinite", "empty", "count")))
    count = draw(st.sampled_from((1, 3))) if kind == "count" else 2  # the matrix is 2x2
    coords = [str(draw(st.floats(0.1, 0.6))) for _ in range(count)]
    if kind != "count":
        coords[draw(st.integers(0, 1))] = {
            "garbage": draw(garbage),
            "nonfinite": draw(st.sampled_from(("nan", "inf", "-inf", "1e999", "nanj"))),
            "empty": "",
        }[kind]
    return ",".join(coords)


bad_params = st.one_of(
    garbage,
    st.integers(1, 9).map(str),  # one exponent
    st.lists(st.integers(1, 4).map(lambda x: 2 * x), min_size=2, max_size=3).map(
        lambda xs: ",".join(map(str, xs))),  # a common factor 2
    st.lists(st.integers(-3, 0), min_size=2, max_size=3).map(
        lambda xs: ",".join(map(str, xs))),  # not positive
)
bad_epsilons = st.one_of(
    st.sampled_from(("nan", "inf", "-inf", "0", "-0.0")),
    st.floats(max_value=-1e-300, allow_nan=False).map(repr),
    garbage,
)
bad_windows = st.one_of(st.integers(-3, -1).map(str), garbage)
# below 1 for verify; any --jobs is a usage error elsewhere
bad_jobs = st.integers(-3, 0).map(str)
# not a choice; any --format is a usage error for validate and verify
bad_formats = st.one_of(st.sampled_from(("xml", "JSON")), garbage)


@st.composite
def malformed_calls(draw):
    """A CLI call with at least one malformed option and every other
    option its command needs well formed, and the exit code it must give
    when that is known; an option the command does not have is a usage
    error."""
    command = draw(st.sampled_from(("validate", "kernel", "eval", "verify", "special")))
    argv = [command]
    family = None
    own = {
        "validate": ("matrix",),
        "kernel": ("matrix",),
        "eval": ("matrix", "point", "epsilon"),
        "verify": ("matrix", "window", "jobs"),
    }.get(command)
    if command == "special":
        family = draw(st.sampled_from(("det1", "dim2", "sig1", "pz")))
        argv += ["--family", family]
        # sig1 and pz read --params and refuse a matrix, det1 and dim2 the
        # other way round: the other kind's input is a fault of its own
        own = ("params", "foreign") if family in ("sig1", "pz") else ("matrix", "foreign")
    faults = set(draw(st.lists(st.sampled_from(own), min_size=1, max_size=3)))
    if draw(st.integers(0, 4)) == 0:  # an option the command may not have
        faults.add(draw(st.sampled_from(("point", "epsilon", "window", "jobs", "format"))))
    needed = {
        "matrix": family not in ("sig1", "pz"),
        "params": family in ("sig1", "pz"),
        "point": command == "eval",
        "epsilon": False,
        "window": command == "verify",
        "jobs": command == "verify",
        "format": False,
    }
    bad = {
        "matrix": bad_matrix_texts(),
        "params": bad_params,
        "point": bad_points(),
        "epsilon": bad_epsilons,
        "window": bad_windows,
        "jobs": bad_jobs,
        "format": bad_formats,
    }
    good = {
        "matrix": st.just("2 -1 / 0 1"),
        "params": st.just("2,3"),
        "point": st.just("0.3,0.4"),
        "window": st.integers(0, 3).map(str),
        "jobs": st.integers(1, 2).map(str),
    }
    for name, flag in (("matrix", "--matrix"), ("params", "--params"),
                       ("point", "--point-p"), ("epsilon", "--epsilon"),
                       ("window", "--window"), ("jobs", "--jobs"),
                       ("format", "--format")):
        if name in faults:
            argv += [flag, draw(bad[name])]
        elif needed[name]:
            argv += [flag, draw(good[name])]
    if "foreign" in faults:
        # well formed, but the input of the other family kind
        argv += ["--matrix", "2 -1 / 0 1"] if needed["params"] else ["--params", "2,3"]
    return argv, 1 if faults == {"foreign"} else None


@settings(max_examples=300, deadline=None)
@given(malformed_calls())
def test_fuzzed_malformed_input(call):
    argv, expected = call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    assert out.getvalue() == ""
    assert expected in (None, code)
    if code == 1:
        assert len(lines) == 1 and lines[0]
    else:
        assert code == 64
        assert lines[0].startswith("usage: bergpoly")
        assert lines[-1].startswith("bergpoly") and ": error: " in lines[-1]
