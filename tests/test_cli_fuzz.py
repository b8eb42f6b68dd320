"""Hypothesis fuzz of ``cli.main`` over argv drawn from the CLI's own vocabulary.

Every run must end in an exit code in {0, 1, 2, 3} without an exception
escaping ``main``; a successful run must print JSON without NaN or
Infinity, or CSV whose numbers are all finite.

States store only their support, each source checks its amplitude count
against ``BNL_MAX_DIM`` before allocating (the ``--state`` and ``--coeffs``
readers count lines as they read them), and the verdicts evaluate
cutoff-free monomials at the stored coordinates alone, so the commands
that build a state draw cutoffs up to 20,000, far across the default cap
(``bsv`` reaches it at cutoff 140, and ``bghz-gen``, whose two ladders
hold cutoff // 2 triples each, at cutoff 200; ``bghz-gen`` also refuses,
before it forms a ladder, a gain whose bound on the ladder eigenvalues
overflows a double, such as 1e308).  The gain flags are passed as
``--gamma=VALUE``, so that argparse does not read a negative value in
scientific notation, such as -1e308, as a flag.  They also draw
cutoff 100,000,000, whose three-beam joint space has more positions than
int64 holds, as has the three-beam state file at cutoff 70,000; both
must be refused with one ``bnl`` line, not an overflow traceback.
Most draws give a state command only the flags its source reads, taken
from ``cli.SOURCES`` and ``cli.SWEEPS``, so that they reach the
state builders and readers; the others draw from every source flag.  A
second property gives a state command one source flag it does not read,
among flags it does: that flag alone must be refused, exit 1, in one
``bnl: error:`` line that names it.  Two more come from the tables of
``cli``: a state command given every flag its source reads but one it
needs (``cli.NEEDED`` in ``cli.SOURCES``) must print exactly
``<source> source needs --<flag>``, and each command with a beam count in
``cli.COMMANDS``, given a state of the other count, exactly
``<command> takes a <two|three>-beam state``.
``verify-algebra`` and ``counterexample`` solve every photon-number block
of one beam, whose cost grows with the cutoff below the cap they check,
so they draw from 0..40 and from the edge of that cap: at cutoff 139 (9,870 beam states) the algebra suite must pass and
the counterexample's self-check hold, and cutoff 140 (10,011) must be
refused with exit 1.  The input files, drawn for both ``--state`` and
``--coeffs``, include each refusal of the one reader in ``bnl.states``:
a wrong field count, mixed beam counts, a negative or duplicate
occupation, a word where a number belongs, a blank file, a zero norm,
amplitudes and coefficients that are not finite or whose squared norm
leaves the doubles, and a missing file or a directory.  Each must end in
one ``bnl`` line.
"""

import contextlib
import io
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli_fixtures import parse_output

from bnl import cli

FIXTURES = Path(__file__).parent / "fixtures" / "cli"

GAINS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-0.5", "0", "1e3", "-1e3", "1e308", "-1e308"]),
    st.floats(-1.5, 1.5).map(repr),
)
STATE_CUTOFFS = st.one_of(st.integers(0, 20_000).map(str), st.just("100000000"))
BLOCK_CUTOFFS = st.one_of(st.integers(0, 40).map(str), st.sampled_from(["139", "140"]))
INPUT_FILES = st.sampled_from(
    [str(FIXTURES / name) for name in (
        "coeffs.csv", "coeffs3.csv", "singlet.csv", "ghz.csv", "diagonal.csv",
        "bad-coeffs.csv", "bad-state.csv", "missing.csv",
        "nan-state.csv", "inf-state.csv", "huge-state.csv", "tiny-state.csv",
        "int64-state.csv", "nan-coeffs.csv", "zero-coeffs.csv", "huge-coeffs.csv",
        "long-coeffs.csv", "short-state.csv", "mixed-beams-state.csv", "negative-state.csv",
        "duplicate-state.csv", "zero-state.csv", "blank.csv", "word-coeffs.csv",
    )] + [str(FIXTURES)]
)
FLAG = st.none()  # flags that take no value

VALUES = {
    "--gamma": GAINS,
    "--gamma-min": GAINS,
    "--gamma-max": GAINS,
    "--steps": st.integers(0, 3).map(str),
    "--cutoff": STATE_CUTOFFS,
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


def flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


SOURCE_FLAGS = sorted(
    {flag(dest) for reads, _ in cli.SOURCES.values() for dest in reads}
    | {flag(dest) for sweep in cli.SWEEPS.values() for dest in sweep}
)


def pair(positionals: list[str]) -> tuple[str, str]:
    """The state command (for entanglement, the subcommand) and source that an argv's positionals name."""
    return positionals[-2 if positionals[0] == "entanglement" else 0], positionals[-1]


def reads(positionals: list[str]) -> list[str]:
    """The flags read by the state command and source that an argv's positionals name."""
    command, source = pair(positionals)
    dests = [*cli.SOURCES[source][0], *cli.SWEEPS.get((command, source), {})]
    return [flag(dest) for dest in dests] + (["--witness"] if command == "witness" else [])


# command -> (choices for each positional, the flags it takes besides the source flags).  The
# block commands, which build no state, always get --cutoff.
COMMANDS = {
    "verify-algebra": ((), ("--construction", "--out")),
    "contextuality": ((("bsv", "qubit", "state"),), ("--out", "--json", "--csv")),
    "entanglement": (
        (("witness", "ns-family", "gram"), ("bsv", "qubit", "bghz", "bghz-gen", "separable", "state")),
        ("--out", "--json", "--csv"),
    ),
    "bell": ((("bghz", "bghz-gen", "qubit", "product-state", "state"),), ("--out",)),
    "counterexample": ((), ("--sign-flip", "--block", "--out")),
}
STATE_COMMANDS = [(command, positionals) for command, (positionals, _) in COMMANDS.items() if positionals]
# Every positional argv of a state command.
STATE_ARGVS = [
    [command, *choice]
    for command, positionals in STATE_COMMANDS
    for choice in itertools.product(*positionals)
]


def add_flag(argv: list[str], name: str, value) -> None:
    if value is None:
        argv.append(name)
    elif VALUES[name] is GAINS:
        argv.append(f"{name}={value}")
    else:
        argv += [name, value]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, flags = COMMANDS[command]
    argv = [command] + [draw(st.sampled_from(choices)) for choices in positionals]
    if command in ("verify-algebra", "counterexample"):
        argv += ["--cutoff", draw(BLOCK_CUTOFFS)]
    elif draw(st.integers(0, 9)):
        # Mostly the flags the source reads, so that the draws reach the state builders and readers.
        flags += tuple(reads(argv))
    else:
        flags += tuple(SOURCE_FLAGS) + (("--witness",) if command == "entanglement" else ())
    for name in draw(st.lists(st.sampled_from(flags), unique=True, max_size=5)):
        add_flag(argv, name, draw(VALUES[name]))
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-out")


# Runs that once let a NaN row, NaN JSON, a traceback or a warning through.
BAD_INPUT_RUNS = [
    "contextuality state --state {fixtures}/nan-state.csv",
    "entanglement witness state --state {fixtures}/nan-state.csv",
    "entanglement gram state --state {fixtures}/inf-state.csv",
    "contextuality state --state {fixtures}/huge-state.csv",
    "entanglement witness bghz --coeffs {fixtures}/nan-coeffs.csv",
    "bell bghz --coeffs {fixtures}/zero-coeffs.csv",
    "bell bghz --coeffs {fixtures}/long-coeffs.csv --cutoff 180",
    "entanglement witness bghz --coeffs {fixtures}/huge-coeffs.csv",
    "bell bghz --coeffs {fixtures}/coeffs.csv --cutoff 100000000",
    "bell state --state {fixtures}/int64-state.csv",
    "entanglement witness bghz-gen --gamma 1e308 --cutoff 4",
    "entanglement witness bghz-gen --gamma-min=-1e308 --gamma-max=1e308 --steps 3 --cutoff 4",
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
    if argv[0] in ("verify-algebra", "counterexample"):
        # The suite passes and the self-check holds up to the cap's edge; the
        # first cutoff past it is refused.
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


@st.composite
def refused_argvs(draw):
    """A state command with flags its source reads, and one source flag it does not read."""
    command, positionals = draw(st.sampled_from(STATE_COMMANDS))
    argv = [command] + [draw(st.sampled_from(choices)) for choices in positionals]
    read = reads(argv)
    pool = SOURCE_FLAGS + (["--witness"] if command == "entanglement" else [])
    refused = draw(st.sampled_from([name for name in pool if name not in read]))
    names = draw(st.lists(st.sampled_from(read), unique=True, max_size=3)) if read else []
    for name in draw(st.permutations(names + [refused])):
        add_flag(argv, name, draw(VALUES[name]))
    return argv, refused


@settings(max_examples=150, deadline=None)
@given(case=refused_argvs())
def test_a_flag_the_source_does_not_read_is_refused(case):
    """Before any input file is read or any state built, whatever the other flags hold."""
    argv, refused = case
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert (code, stdout.getvalue()) == (1, "")
    assert stderr.getvalue().startswith("bnl: error: ")
    assert stderr.getvalue().endswith(f" takes no {refused}\n")
    assert stderr.getvalue().count("\n") == 1


def run(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def needed(source: str) -> list[str]:
    return [dest for dest, default in cli.SOURCES[source][0].items() if default is cli.NEEDED]


@st.composite
def argvs_missing_a_needed_flag(draw):
    """A state command given every flag its source reads, with any values, but one needed flag; on a
    sweeping pair, also at most one of the sweep bounds, and perhaps --steps."""
    argv = list(draw(st.sampled_from([argv for argv in STATE_ARGVS if needed(argv[-1])])))
    command, source = pair(argv)
    missing = draw(st.sampled_from(needed(source)))
    names = [flag(dest) for dest in cli.SOURCES[source][0] if dest != missing]
    if (command, source) in cli.SWEEPS:
        names += draw(st.sampled_from([[], ["--gamma-min"], ["--gamma-max"]]))
        names += draw(st.sampled_from([[], ["--steps"]]))
    for name in draw(st.permutations(names)):
        add_flag(argv, name, draw(VALUES[name]))
    also = " or --gamma-min/--gamma-max" if (command, source) in cli.SWEEPS else ""
    return argv, f"bnl: error: {source} source needs {flag(missing)}{also}\n"


@settings(max_examples=100, deadline=None)
@given(case=argvs_missing_a_needed_flag())
def test_a_missing_needed_flag_is_refused_by_one_rule(case):
    """Before any input file is read or any state built, whatever the other flags hold."""
    argv, message = case
    assert run(argv) == (1, "", message)


# For each source, the flags that build a small state of each beam count it can give.  separable
# gives three beams only under --witness ghz3, which only the witness command, of any count, reads.
BEAM_STATES = {
    "bsv": {2: ["--gamma", "0.3", "--cutoff", "2"]},
    "qubit": {2: ["--bell-state", "phi+"], 3: ["--ghz"]},
    "bghz": {3: ["--coeffs", str(FIXTURES / "coeffs.csv")]},
    "bghz-gen": {3: ["--gamma", "0.3", "--cutoff", "4"]},
    "separable": {2: ["--seed", "1"]},
    "product-state": {3: []},
    "state": {2: ["--state", str(FIXTURES / "singlet.csv")], 3: ["--state", str(FIXTURES / "ghz.csv")]},
}
# Each state command with a beam count, given a state of the other count from each source that builds one.
WRONG_BEAMS = [
    (argv + flags, command, beams)
    for argv in STATE_ARGVS
    for command, source in [pair(argv)]
    for beams in [cli.COMMANDS[command][0]]
    for count, flags in BEAM_STATES[source].items()
    # bell refuses the two-beam qubit state before the beam rule, as usage-bell-qubit-no-ghz records.
    if beams is not None and count != beams and (command, source) != ("bell", "qubit")
]


@pytest.mark.parametrize(
    "argv,command,beams", WRONG_BEAMS, ids=[" ".join(argv[:3]) for argv, _, _ in WRONG_BEAMS]
)
def test_a_state_of_the_wrong_beam_count_is_refused_by_one_rule(argv, command, beams):
    message = f"bnl: error: {command} takes a {'two' if beams == 2 else 'three'}-beam state\n"
    assert run(argv) == (1, "", message)
