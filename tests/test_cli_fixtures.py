"""CLI output against the committed fixtures in ``tests/fixtures/cli``.

``cases.json`` lists each case's argv (run from that directory, so the
small coefficient and state files next to it resolve by relative path),
its exit code and, for the CLI's own errors, its last stderr line.
``out/<name>.out`` holds the expected stdout, which a run must reproduce
byte for byte.  JSON and CSV are first compared after parsing, so that a
changed number fails naming its field: keys, strings and verdicts must be
identical and numbers must agree to 1e-12.  The committed JSON must also
have the layout that ``json.dumps(value, indent=2, sort_keys=True)`` gives
its parsed value.

After a deliberate output change, or after adding a case to
``cases.json`` (its name and argv suffice), regenerate and review the
diff:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_cli_fixtures.py

That rewrites, and names, only the cases whose stdout bytes changed, and
records each case's exit code and error line.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from bnl import cli

FIXTURES = Path(__file__).parent / "fixtures" / "cli"
CASES = json.loads((FIXTURES / "cases.json").read_text())
NUMBER_ATOL = 1e-12


def run_case(argv: list[str]) -> tuple[int, str, str | None]:
    """Exit code, stdout and the last stderr line if it is a ``bnl:`` error."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    lines = err.getvalue().strip().splitlines()
    error = lines[-1] if lines and lines[-1].startswith("bnl: ") else None
    return code, out.getvalue(), error


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON number {name}")


def parse_output(text: str):
    """Parsed JSON (NaN and Infinity rejected), or CSV rows with numeric fields as floats."""
    if text.startswith("{"):
        return json.loads(text, parse_constant=_reject_constant)
    rows = []
    for line in text.splitlines():
        row = []
        for field in line.split(","):
            try:
                row.append(float(field))
            except ValueError:
                row.append(field)
        rows.append(row)
    return rows


def json_layout(text: str) -> str:
    """``text`` parsed and laid out again by ``json.dumps(indent=2, sort_keys=True)``."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def assert_same(got, want, where: str = "") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{k}]")
    elif isinstance(want, float) or (isinstance(want, int) and not isinstance(want, bool)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert abs(got - want) <= NUMBER_ATOL * max(1.0, abs(want)), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


def expected_stdout(case: dict) -> str:
    return (FIXTURES / "out" / f"{case['name']}.out").read_bytes().decode()


def assert_case(case: dict, code: int, stdout: str, error: str | None) -> None:
    """The run matches the case's exit code, error line and expected stdout, byte for byte."""
    assert code == case.get("exit")
    assert error == case.get("error")
    expected = expected_stdout(case)
    if expected:
        assert_same(parse_output(stdout), parse_output(expected))
    assert stdout == expected


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_output_matches_fixture(case):
    assert_case(case, *run_case(case["argv"].split()))


JSON_OUTPUTS = sorted(path for path in (FIXTURES / "out").glob("*.out") if path.read_text().startswith("{"))


@pytest.mark.parametrize("path", JSON_OUTPUTS, ids=[path.stem for path in JSON_OUTPUTS])
def test_committed_json_has_the_stdlib_layout(path):
    text = path.read_text()
    assert text == json_layout(text)


def regenerate() -> None:
    """Rewrite and name each case whose stdout bytes differ or that has no expected stdout."""
    lines = []
    for case in CASES:
        code, stdout, error = run_case(case["argv"].split())
        try:
            changed = stdout != expected_stdout(case)
        except FileNotFoundError:
            changed = True
        if changed:
            (FIXTURES / "out" / f"{case['name']}.out").write_text(stdout)
            print(case["name"])
        record = {"name": case["name"], "argv": case["argv"], "exit": code, "error": error}
        lines.append(json.dumps(record))
    (FIXTURES / "cases.json").write_text("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__":
    regenerate()
