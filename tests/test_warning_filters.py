import subprocess
import sys
from pathlib import Path

FAILING = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_falsified(n):
    assert n < 5


def test_warns():
    warnings.warn("deprecated in the test", DeprecationWarning)


def test_after():
    pass
'''


def test_failing_hypothesis_example_reports_failed_under_w_error(tmp_path):
    # writing the patch of a falsified example imports libcst, whose import
    # warns; the suite's conftest keeps that from ending the session, while a
    # warning raised in a test still fails it
    (tmp_path / "conftest.py").write_text(Path(__file__).with_name("conftest.py").read_text())
    (tmp_path / "test_config_probe.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "2 failed, 1 passed" in out
