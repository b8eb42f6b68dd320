"""The pytest settings in ``pyproject.toml`` let a failing property fail like any other test.

Those settings turn every warning into an error.  On a failing example
hypothesis writes a patch with libcst, whose import can warn that
``mypy_extensions.TypedDict`` is deprecated; raised inside pytest's report
hook, that warning ended the session in INTERNALERROR, and the tests after
the property never ran.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

FAILING_PROPERTY_THEN_PASSING_TEST = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 10


def test_after_the_property():
    pass
"""


def checkout_files() -> set[tuple[str, int]]:
    """Every path in the checkout outside .git, with its modification time."""
    return {
        (str(path), path.stat().st_mtime_ns)
        for path in REPO.rglob("*")
        if ".git" not in path.relative_to(REPO).parts
    }


def test_failing_property_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY_THEN_PASSING_TEST)
    before = checkout_files()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert run.returncode == 1
    assert checkout_files() == before
