"""The suite's own settings: a failing property reports its example.

`pyproject.toml` turns every warning into an error.  Hypothesis reports a
failing example through a module whose first import makes a third-party
package warn; the one filter scoped to that message keeps the report
working, and every other warning stays an error.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

FAILING = '''\
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_other_warning_is_an_error():
    warnings.warn("still an error", DeprecationWarning)
'''


def test_failing_property_reports_falsifying_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    # exit 3 and INTERNALERROR when the report hook's warning is an error
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "2 failed" in out
