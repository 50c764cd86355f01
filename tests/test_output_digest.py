"""The CLI's output on the benchmark's inputs, pinned by one digest.

benchmarks/output_digest.py hashes (argv, exit code, stdout, stderr) of
every CLI call it builds from the benchmark's seeded inputs.  A change
that means to keep the program's output must keep this digest.  A change
that means to alter the output updates the pin here and records the new
digest, and why it moved, in CHANGES.md.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "output_digest.py"
SHA256 = "1251626ab8d9bbf7f220c3cd96530718fecad41c945e3eda3177d5f52fdd9cde"


def test_output_digest_of_seeds_1_2(capsys):
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--seeds", "1", "2"]) == 0
    assert capsys.readouterr().out == f"calls 3253\nsha256 {SHA256}\n"
