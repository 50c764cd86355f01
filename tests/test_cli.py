import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import bergpoly
from bergpoly import cli
from bergpoly.oracle import OracleReport, Window


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        monkeypatch.setenv("BERGPOLY_MAX_N", "2")
        code, _, err = run(capsys, "validate", "--matrix", "1 0 0 / 0 1 0 / 0 0 1")
        assert code == 1 and "cap" in err


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
        assert code == 0 and json.loads(out)["mismatches"] == []

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        fake = OracleReport(
            checked=5,
            matched=4,
            mismatches=(((1, 1), 1, 2),),
            safe_lower=(0, 0),
            safe_upper=(1, 1),
            window=Window.cube(2, 3),
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
        # 52 GiB) cannot be allocated; at radius 16 the hull (1.5 GB) is
        # filled but the comparison's own arrays (1.7 GB more) cannot be.
        # Either must end in one typed line.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

        src = str(Path(bergpoly.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        matrix = "2 -1 0 0 0 / 0 2 -1 0 0 / 0 0 2 -1 0 / 0 0 0 2 -1 / -1 0 0 0 2"
        for window, stage in (("40", "the oracle hull"), ("16", "the oracle comparison grid")):
            proc = subprocess.run(
                [sys.executable, "-m", "bergpoly.cli", "verify", "--matrix", matrix,
                 "--window", window],
                env=env, capture_output=True, text=True, timeout=120,
                preexec_fn=limit_memory,
            )
            assert proc.returncode == 1
            assert proc.stdout == ""
            lines = proc.stderr.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("WindowTooLargeError: " + stage)
            assert "Traceback" not in proc.stderr

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


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert run(capsys, "kernel", "--bogus")[0] == 64

    def test_missing_command(self, capsys):
        assert run(capsys)[0] == 64

    def test_bad_params(self, capsys):
        code, _, _ = run(capsys, "special", "--family", "pz", "--params", "a,b")
        assert code == 1
