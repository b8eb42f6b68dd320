"""Hypothesis fuzz of ``cli.main`` over argv drawn from the CLI's own vocabulary.

Every run must end in an exit code in {0, 1, 2, 3} without an exception
escaping ``main``; a successful run must print JSON without NaN or
Infinity, or CSV whose numbers are all finite.

States store only their support, each source checks its amplitude count
against ``BNL_MAX_DIM`` before allocating, and the verdicts evaluate
cutoff-free monomials at the stored coordinates alone, so the commands
that build a state draw cutoffs up to 20,000, far across the default cap
(``bsv`` and ``bghz-gen`` reach it at cutoff 140; ``bghz-gen`` also
refuses, before its exponential, a gain whose generator norm would make
that slow).  ``verify-algebra`` builds per-beam sparse operators and
stays in 0..6, because its cost grows with the cutoff below the cap it
checks.  ``counterexample`` draws from 0..6 and from the edge of that
cap: cutoff 139 (9,870 beam states) must run its self-check through,
and cutoff 140 (10,011) must be refused with exit 1.  The input files
include amplitudes and coefficients that are not finite or whose squared
norm leaves the doubles, which must end in one ``bnl`` line.
"""

import contextlib
import io
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli_fixtures import parse_output

from bnl import cli

FIXTURES = Path(__file__).parent / "fixtures" / "cli"

GAINS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-0.5", "0", "1e3"]),
    st.floats(-1.5, 1.5).map(repr),
)
STATE_CUTOFFS = st.integers(0, 20_000).map(str)
SMALL_CUTOFFS = st.integers(0, 6).map(str)
COUNTEREXAMPLE_CUTOFFS = st.one_of(SMALL_CUTOFFS, st.sampled_from(["139", "140"]))
INPUT_FILES = st.sampled_from(
    [str(FIXTURES / name) for name in (
        "coeffs.csv", "coeffs3.csv", "singlet.csv", "ghz.csv", "diagonal.csv",
        "bad-coeffs.csv", "bad-state.csv", "missing.csv",
        "nan-state.csv", "inf-state.csv", "huge-state.csv", "tiny-state.csv",
        "nan-coeffs.csv", "zero-coeffs.csv", "huge-coeffs.csv", "long-coeffs.csv",
    )] + [str(FIXTURES)]
)
FLAG = st.none()  # flags that take no value

VALUES = {
    "--gamma": GAINS,
    "--gamma-min": GAINS,
    "--gamma-max": GAINS,
    "--steps": st.integers(0, 3).map(str),
    "--bell-state": st.sampled_from(["singlet", "psi+", "phi+", "phi-"]),
    "--ghz": FLAG,
    "--coeffs": INPUT_FILES,
    "--state": INPUT_FILES,
    "--witness": st.sampled_from(["singlet", "phi-plus", "ghz3"]),
    "--seed": st.integers(-1, 3).map(str),
    "--degree": st.integers(-1, 4).map(str),
    "--construction": st.sampled_from(["direct", "compact"]),
    "--sign-flip": FLAG,
    "--block": st.sampled_from(["1", "2"]),
    "--json": FLAG,
    "--csv": FLAG,
    "--out": st.sampled_from(["{out}/result.txt", "{out}/no/such/dir/result.txt"]),
}

# command -> (choices for each positional, optional flags); every command takes --cutoff.
COMMANDS = {
    "verify-algebra": ((), ("--construction", "--out")),
    "contextuality": (
        (("bsv", "qubit", "state"),),
        ("--gamma", "--gamma-min", "--gamma-max", "--steps", "--bell-state", "--state",
         "--out", "--json", "--csv"),
    ),
    "entanglement": (
        (("witness", "ns-family", "gram"), ("bsv", "qubit", "bghz", "bghz-gen", "separable", "state")),
        ("--gamma", "--gamma-min", "--gamma-max", "--steps", "--bell-state", "--ghz", "--coeffs",
         "--state", "--witness", "--seed", "--degree", "--out", "--json", "--csv"),
    ),
    "bell": (
        (("bghz", "bghz-gen", "qubit", "product-state", "state"),),
        ("--gamma", "--ghz", "--coeffs", "--state", "--out"),
    ),
    "counterexample": ((), ("--sign-flip", "--block", "--out")),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, flags = COMMANDS[command]
    argv = [command] + [draw(st.sampled_from(choices)) for choices in positionals]
    cutoffs = {"verify-algebra": SMALL_CUTOFFS, "counterexample": COUNTEREXAMPLE_CUTOFFS}
    argv += ["--cutoff", draw(cutoffs.get(command, STATE_CUTOFFS))]
    for flag in draw(st.lists(st.sampled_from(flags), unique=True, max_size=5)):
        value = draw(VALUES[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-out")


# Runs that these input files once let through as a NaN row, NaN JSON or a traceback.
BAD_INPUT_RUNS = [
    "contextuality state --state {fixtures}/nan-state.csv",
    "entanglement witness state --state {fixtures}/nan-state.csv",
    "entanglement gram state --state {fixtures}/inf-state.csv",
    "contextuality state --state {fixtures}/huge-state.csv",
    "entanglement witness bghz --coeffs {fixtures}/nan-coeffs.csv",
    "bell bghz --coeffs {fixtures}/zero-coeffs.csv",
    "bell bghz --coeffs {fixtures}/long-coeffs.csv --cutoff 180",
    "entanglement witness bghz --coeffs {fixtures}/huge-coeffs.csv",
]


def with_bad_input_runs(test):
    """Add each of BAD_INPUT_RUNS to the fuzz as an explicit example."""
    for run in BAD_INPUT_RUNS:
        test = example(argv=run.format(fixtures=FIXTURES).split())(test)
    return test


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
@with_bad_input_runs
def test_cli_never_escapes_main(out_dir, argv):
    argv = [token.format(out=out_dir) for token in argv]
    target = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if target is not None and target.exists():
        target.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    if argv[0] == "counterexample":
        # The self-check holds up to the cap's edge; the first cutoff past it is refused.
        assert code != 2
        if argv[argv.index("--cutoff") + 1] == "140":
            assert code == 1 and "above the BNL_MAX_DIM cap" in stderr.getvalue()
    if code == 0:
        text = target.read_text() if target is not None else stdout.getvalue()
        assert text
        parsed = parse_output(text)
        if isinstance(parsed, list):
            assert all(math.isfinite(v) for row in parsed for v in row if isinstance(v, float))
    else:
        assert stderr.getvalue().strip().splitlines()[-1].startswith("bnl")
