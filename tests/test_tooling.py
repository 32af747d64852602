"""The suite's own settings and CI: a failing property reports its
example, and CI checks the pins of every benchmark workload.

`pyproject.toml` turns every warning into an error.  Hypothesis reports a
failing example through a module whose first import makes a third-party
package warn; the one filter scoped to that message keeps the report
working, and every other warning stays an error.
"""

import json
import re
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


def test_ci_checks_the_pins_of_every_benchmark_workload():
    """The tier-1 workflow's benchmark step loops over exactly the workloads
    BENCHMARK.json declares, so a new workload cannot skip the pin check."""
    workflow = (REPO / ".github/workflows/tier1.yml").read_text()
    [loop] = re.findall(r"^ *for workload in ([\w ]+); do$", workflow, re.M)
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    assert sorted(loop.split()) == sorted(w["name"] for w in benchmark["workloads"])
