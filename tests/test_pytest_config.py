"""The project's pytest settings turn warnings into errors. A failing
hypothesis test must still be reported as one failure: the rest of the
session has to run, or a broken change shows one failure instead of all."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = textwrap.dedent("""
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @given(st.integers())
    @settings(max_examples=5, database=None)
    def test_fails(x):
        assert x < 0


    def test_passes():
        assert True
""")


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert proc.returncode == 1
