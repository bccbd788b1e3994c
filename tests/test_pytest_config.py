"""The project's pytest configuration reports a failing property test as a failure."""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_failing_given_test_is_reported_not_an_internal_error(tmp_path):
    # filterwarnings = error turns every warning raised while hypothesis reports a failure into
    # an error too; a warning from its reporter must not end the session in INTERNALERROR
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
                          str(tmp_path), "-p", "no:cacheprovider", "-q", "test_fails.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1 and "1 failed" in run.stdout
