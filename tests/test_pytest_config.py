"""The repository's pytest settings keep a failing property readable."""
import subprocess
import sys
import textwrap
from pathlib import Path

from child_env import child_env

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    # reporting a failure makes hypothesis import libcst, whose import warns;
    # under the ini's error::DeprecationWarning that crashed pytest itself
    (tmp_path / "test_falsified.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_below_ten(n):
            assert n < 10
    """))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                           "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
                           "test_falsified.py"],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1, out
    assert "Falsifying example: test_below_ten(" in out
