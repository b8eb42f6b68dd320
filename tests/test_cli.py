import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli_fixtures import CASES, run_case

from bnl import cli, fock, gpauli, indicators, modes
from bnl.states import GHZ3, qubit_embed

FIXTURES = Path(__file__).parent / "fixtures" / "cli"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_coeffs(tmp_path, text="0,1.0,0.0\n1,0.5,0.0\n"):
    path = tmp_path / "coeffs.csv"
    path.write_text(text)
    return str(path)


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 1


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "contextuality", "bsv", "--nope")
    assert code == 1


def test_bsv_without_gamma_is_usage_error(capsys):
    code, _, err = run(capsys, "contextuality", "bsv")
    assert code == 1
    assert "--gamma" in err


@pytest.mark.parametrize(
    "argv",
    [
        "contextuality bsv --gamma -1 --cutoff 4",
        "contextuality bsv --gamma nan --cutoff 4",
        "contextuality bsv --gamma 0.5 --cutoff -3",
        "entanglement witness bsv --gamma 0.5 --cutoff -3",
        "entanglement witness separable --degree 9 --cutoff 2",
        "bell bghz-gen --gamma nan --cutoff 3",
        "entanglement witness bghz-gen --gamma nan --cutoff 3",
        "bell bghz-gen --gamma 1e308 --cutoff 8",
        "entanglement witness bghz-gen --gamma-min 0 --gamma-max inf --steps 2 --cutoff 3",
        # Finite ends whose span overflows, refused before np.linspace warns.
        "entanglement witness bghz-gen --gamma-min=-1e308 --gamma-max=1e308 --steps 3 --cutoff 4",
        "contextuality bsv --gamma-min=-1e308 --gamma-max=1e308 --steps 3 --cutoff 4",
        # Each grid point's source checks the cutoff, as it does for a single point.
        "contextuality bsv --gamma-min 0 --gamma-max 1 --steps 3 --cutoff -2",
        "entanglement witness bghz-gen --gamma-min 0 --gamma-max 0.3 --steps 3 --cutoff -2",
        "verify-algebra --cutoff -1",
        "counterexample --cutoff 1",
        "verify-algebra --cutoff 3000000",
        "counterexample --cutoff 3000000",
        "entanglement witness separable --degree -1 --cutoff 2",
        "entanglement witness bghz-gen --gamma-min 0.1 --gamma-max 0.2 --steps 2 --witness singlet",
        # A grid above the amplitude cap is refused before it is allocated.
        "contextuality bsv --gamma-min 0 --gamma-max 1 --steps 10000000000000000000",
        "entanglement witness bghz-gen --gamma-min 0.1 --gamma-max 0.2 --steps 10000000000000000000",
        # A single gain given with sweep bounds would drop the sweep.
        "contextuality bsv --gamma 0.5 --gamma-min 0 --gamma-max 1 --steps 3",
        "entanglement witness bghz-gen --gamma 0.3 --gamma-min 0 --gamma-max 1",
    ],
)
def test_domain_errors_are_one_line_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("bnl: error: ")
    assert "Traceback" not in err


def test_malformed_dimension_cap_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("BNL_MAX_DIM", "abc")
    code, out, err = run(capsys, "bell", "bghz-gen", "--gamma", "0.3")
    assert code == 1
    assert out == ""
    assert err == "bnl: error: BNL_MAX_DIM must be an integer, got 'abc'\n"


def test_non_positive_dimension_cap_is_refused(capsys, monkeypatch):
    monkeypatch.setenv("BNL_MAX_DIM", "-5")
    code, out, err = run(capsys, "contextuality", "bsv", "--gamma", "0.3", "--cutoff", "0")
    assert (code, out) == (1, "")
    assert err == "bnl: error: BNL_MAX_DIM must be a positive integer, got '-5'\n"


def traced_peak(capsys, *argv) -> tuple[int, int]:
    """Exit code and tracemalloc peak in bytes of one CLI call."""
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


# A source and the amplitudes its state stores, counted in closed form.
@pytest.mark.parametrize(
    "argv,count",
    [
        # (c+1)(c+2)/2 at cutoff 12.
        ("contextuality bsv --gamma 0.5 --cutoff 12", 13 * 14 // 2),
        # Three beams with support (d+1)(d+2)/2 = 10 each at degree 3.
        ("entanglement witness separable --witness ghz3 --cutoff 9 --degree 3", 10**3),
        # Orders 0, 1, 2 paired with p + m <= 3: 3 + 3 + 2 terms.
        ("bell bghz --coeffs {fixtures}/coeffs3.csv --cutoff 3", 8),
        # One amplitude per line.
        ("contextuality state --state {fixtures}/singlet.csv", 2),
        # Two ladders of 9 // 2 = 4 triples: 5^2.
        ("bell bghz-gen --gamma 0.3 --cutoff 9", 25),
    ],
)
def test_stored_amplitude_cap(capsys, monkeypatch, argv, count):
    argv = argv.format(fixtures=FIXTURES).split()
    monkeypatch.setenv("BNL_MAX_DIM", str(count))
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setenv("BNL_MAX_DIM", str(count - 1))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    # A state file's line names the file, as a coefficient file's does.
    where = f"{argv[argv.index('--state') + 1]}: " if "--state" in argv else ""
    assert err == (
        f"bnl: error: {where}state needs {count} stored amplitudes, above the BNL_MAX_DIM cap {count - 1}\n"
    )


def test_coefficient_file_above_the_cap_is_refused(capsys, monkeypatch):
    # Three orders at cutoff 1 store the three terms p + m <= 1.
    argv = ["bell", "bghz", "--coeffs", str(FIXTURES / "coeffs3.csv"), "--cutoff", "1"]
    monkeypatch.setenv("BNL_MAX_DIM", "3")
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setenv("BNL_MAX_DIM", "2")
    assert run(capsys, *argv) == (
        1, "", f"bnl: error: {FIXTURES / 'coeffs3.csv'}: more than 2 coefficient lines, the BNL_MAX_DIM cap\n"
    )


@pytest.mark.parametrize("command", ["verify-algebra", "counterexample"])
def test_beam_dimension_cap(capsys, monkeypatch, command):
    # Both commands solve dense photon-number blocks over one beam's 10 basis states at
    # cutoff 3; the cap keeps their sum_T T^3 eigensolve cost bounded.
    monkeypatch.setenv("BNL_MAX_DIM", "10")
    assert run(capsys, command, "--cutoff", "3")[0] == 0
    monkeypatch.setenv("BNL_MAX_DIM", "9")
    code, out, err = run(capsys, command, "--cutoff", "3")
    assert (code, out) == (1, "")
    assert err == "bnl: error: cutoff 3 gives a beam dimension of 10, above the BNL_MAX_DIM cap 9\n"


@pytest.mark.parametrize(
    "argv",
    [
        # 2,003,001 amplitudes, one per beam-1 ket.
        "contextuality bsv --gamma 0.5 --cutoff 2000",
        # 496 amplitudes per beam, 496^3 for three beams.
        "entanglement witness separable --witness ghz3 --degree 30 --cutoff 40",
        # Two ladders of 1,000 triples: 1,002,001 amplitudes.
        "bell bghz-gen --gamma 0.3 --cutoff 2000",
    ],
)
def test_refused_state_allocates_nothing(capsys, argv):
    code, peak = traced_peak(capsys, *argv.split())
    assert code == 1
    assert peak < 2**20


def test_separable_state_at_high_cutoff_stores_only_its_support(capsys, tmp_path):
    # Three beams of 6 amplitudes each: 216 stored amplitudes at cutoff 150.
    code, out, err = run(
        capsys, "entanglement", "witness", "separable", "--witness", "ghz3", "--cutoff", "150"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "not_detected"
    # Verdicts read only the support, whatever the cutoff: arrays over the
    # 721,801-state beam basis at cutoff 1200 peaked at 198-454 MiB.
    state = tmp_path / "state.csv"
    state.write_text("1200,0,0,1200,1,0\n")
    for argv in (
        "entanglement witness separable --witness singlet --cutoff 1200",
        "entanglement ns-family separable --cutoff 1200",
        "entanglement gram separable --cutoff 600",
        f"contextuality state --state {state}",
    ):
        code, peak = traced_peak(capsys, *argv.split())
        assert code == 0, argv
        assert peak < 2 * 2**20, argv


def test_generator_state_at_cutoff_60_stays_small(capsys):
    # Two ladders of 30 triples store 961 amplitudes.  A dense exponential of the
    # 1,891-dim generator on the cutoff-60 triangle once peaked at 273 MiB.
    code, peak = traced_peak(capsys, "bell", "bghz-gen", "--gamma", "0.3", "--cutoff", "60")
    assert code == 0
    assert peak < 5 * 2**20


def test_squeezed_vacuum_at_cutoff_120_stays_small(capsys):
    # The dense vector over the joint space would take 872 MB.
    code, peak = traced_peak(
        capsys, "contextuality", "bsv", "--gamma", "0.9", "--cutoff", "120", "--json"
    )
    assert code == 0
    assert peak < 5 * 2**20


def test_verdicts_never_load_scipy_sparse():
    # No command builds a sparse matrix or calls scipy.linalg: counterexample and
    # verify-algebra read closed-form photon-number blocks, and bghz-gen and the mode
    # rotations exponentiate tridiagonal ladders with numpy alone.  Loading scipy.sparse
    # adds ~20 MiB to the resident set of any command, and scipy.linalg ~25 MiB.  scipy
    # itself is loaded on import, and the benchmark reads its version from sys.modules.
    # Every fixture argv runs too, from the fixtures directory, whatever its exit code.
    own = [argv.split() for argv in (
        "contextuality bsv --gamma 0.9", "entanglement gram separable",
        "entanglement ns-family bsv --gamma 0.5", "bell qubit --ghz",
        "counterexample --cutoff 40", "verify-algebra --cutoff 20",
        "bell bghz-gen --gamma 0.3",
        "entanglement witness bghz-gen --gamma-min 0.05 --gamma-max 0.45 --steps 9",
    )]
    argvs = own + [case["argv"].split() for case in CASES]
    script = (
        "import contextlib, io, os, sys\nfrom bnl import cli\n"
        "print('scipy' in sys.modules)\n"
        f"os.chdir({str(FIXTURES)!r})\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(code, [m for m in ('scipy.linalg', 'scipy.sparse') if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes = [0] * len(own) + [case["exit"] for case in CASES]
    assert proc.stdout.splitlines() == ["True"] + [f"{code} []" for code in codes]


def test_benchmark_operations_load_neither_scipy_linalg_nor_scipy_sparse():
    # Every operation kind of perfbench's three workloads.  Loading scipy.linalg alone
    # adds ~27 MiB to the resident set, more than the benchmark's 5% peak-RSS bound on
    # any workload, so none of them may load it.
    coeffs = str(FIXTURES / "coeffs3.csv")
    argvs = [
        "contextuality bsv --gamma 0.9 --cutoff 40 --json".split(),
        "entanglement ns-family bsv --gamma 0.9 --cutoff 20".split(),
        "entanglement gram bsv --gamma 0.9 --cutoff 20".split(),
        "verify-algebra --cutoff 32".split(),
        *(f"entanglement witness separable --seed 3 --witness {w} --cutoff 5".split()
          for w in ("ghz3", "singlet", "phi-plus")),
        ["bell", "bghz", "--coeffs", coeffs],
        ["entanglement", "witness", "bghz", "--coeffs", coeffs],
    ]
    script = (
        "import contextlib, io, sys\nfrom bnl import cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    print([m for m in ('scipy.linalg', 'scipy.sparse') if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"] * len(argvs)


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        ("contextuality state --state {tmp}/missing.csv", 3, "bnl: parse error: "),
        ("entanglement witness bghz --coeffs {tmp}/missing.csv", 3, "bnl: parse error: "),
        ("contextuality state --state {tmp}", 3, "bnl: parse error: "),
        ("contextuality qubit --out {tmp}/no/such/dir/x.csv", 1, "bnl: error: "),
    ],
)
def test_file_errors_are_one_line_errors(capsys, tmp_path, argv, code, prefix):
    got, out, err = run(capsys, *argv.format(tmp=tmp_path).split())
    assert got == code
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(prefix)
    assert str(tmp_path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code",
    [
        ("verify-algebra --cutoff 2", 0),
        ("contextuality bsv --gamma 0.5 --cutoff -3", 1),
        ("entanglement gram state --state diagonal.csv", 2),
        ("contextuality state --state bad-state.csv", 3),
    ],
)
def test_module_process_exits_with_the_mapped_code(argv, code):
    # The console script and ``python -m bnl.cli`` both end in sys.exit(main()).
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "bnl.cli", *argv.split()],
        cwd=FIXTURES, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["passed"] is True
        assert proc.stderr == ""
    else:
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("bnl: ")


def test_hermitian_violation_in_a_verdict_is_a_verification_failure(capsys, monkeypatch):
    # g0 replaced by i times the identity: <i 1 x i 1 x i 1> = -i on the GHZ witness's first key.
    g = indicators.G_MONOMIALS
    monkeypatch.setattr(indicators, "G_MONOMIALS", (fock.Monomial(False, (1j, 1j, 1j)),) + g[1:])
    state = qubit_embed(GHZ3)
    with pytest.raises(fock.HermitianViolationError):
        indicators.witness_verdict(indicators.GHZ3_WITNESS, state)
    code, out, err = run(capsys, "entanglement", "witness", "qubit", "--ghz")
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("bnl: Hermitian expectation has imaginary part ")


def _patch_lines(monkeypatch, first_line):
    lines = (("j1", first_line, +1),) + indicators.PM_LINES[1:]
    monkeypatch.setattr(indicators, "PM_LINES", lines)
    indicators._pm_terms.cache_clear()


def _corrupt_lift_block(monkeypatch, total, corrupt):
    lift_blocks = modes.lift_blocks

    def corrupted(u, cutoff):
        blocks = lift_blocks(u, cutoff)
        blocks[total] = corrupt(blocks[total])
        return blocks

    monkeypatch.setattr(modes, "lift_blocks", corrupted)


@pytest.mark.parametrize(
    "patch, argv, prefix",
    [
        # g3 x g0, g0 x g1 and g0 x g3 in one context: the last two anticommute.
        (lambda mp: _patch_lines(mp, ((1, 1), (1, 2), (2, 1))), "contextuality bsv --gamma 0.5 --json",
         "bnl: cells within a context fail to commute "),
        # (g3 x g0)^3 = g3 x g0, which is no multiple of g0 x g0.
        (lambda mp: _patch_lines(mp, ((1, 1),) * 3), "contextuality bsv --gamma 0.5 --json",
         "bnl: line j1 multiplies to no multiple of g0 x g0 "),
        (lambda mp: mp.setattr(indicators, "prob_diagonal", lambda state: 0.9),
         "contextuality bsv --gamma 0.5 --json", "bnl: operator value "),
        (lambda mp: mp.setattr(indicators, "prob_diagonal", lambda state: 0.9),
         "entanglement gram bsv --gamma 0.5", "bnl: certificate trace "),
        (lambda mp: mp.setattr(np.linalg, "eigvalsh", lambda matrix: np.array([-1.0, 0.0, 0.0, 1.0])),
         "entanglement gram bsv --gamma 0.5", "bnl: certificate not positive semidefinite: "),
        # sigma_1 with one entry doubled makes sr^dag pr + 2 pr^dag sr, which is not Hermitian.
        (lambda mp: mp.setattr(gpauli, "PAULI", (gpauli.PAULI[0], np.array([[0, 1], [2, 0]], dtype=complex),
                                                 *gpauli.PAULI[2:])),
         "verify-algebra --construction compact", "bnl: block eigensolve expects a Hermitian operator"),
        (lambda mp: _corrupt_lift_block(mp, 0, lambda block: block * (1 + 1e-6)),
         "counterexample", "bnl: counterexample self-check failed: stokes_distance "),
        (lambda mp: mp.setattr(indicators, "prob_diagonal", lambda state: 0.9),
         "bell qubit --ghz", "bnl: Mermin value "),
    ],
    ids=["commutation-guard", "line-guard", "pm-shortcut", "gram-trace", "gram-psd",
         "hermitian-block-guard", "counterexample-self-check", "mermin-structural"],
)
def test_failed_cross_check_is_a_verification_failure(capsys, monkeypatch, patch, argv, prefix):
    patch(monkeypatch)
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith(prefix)


def test_non_utf8_state_file_is_a_parse_error_naming_the_line(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"1,0,0,1,0.7,0.0\n0,1,1,0,0.7\xe9,0.0\n")
    code, _, err = run(capsys, "contextuality", "state", "--state", str(path))
    assert code == 3
    assert ":2:" in err


def test_verify_algebra_passes(capsys):
    code, out, _ = run(capsys, "verify-algebra", "--cutoff", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["max_product_residual"] < 1e-12


def test_verify_algebra_trivial_cutoff(capsys):
    code, out, _ = run(capsys, "verify-algebra", "--cutoff", "0")
    assert code == 0
    assert json.loads(out)["max_spectrum_deviation"] == 0.0


def test_verify_algebra_detects_corrupted_table(capsys, monkeypatch):
    # tamper with the quadratic-form table so the cross-check trips
    broken = (
        gpauli.PAULI[0],
        np.array([[0, 1], [1, 0.5]], dtype=complex),
        gpauli.PAULI[2],
        gpauli.PAULI[3],
    )
    monkeypatch.setattr(gpauli, "PAULI", broken)
    code, out, _ = run(capsys, "verify-algebra", "--cutoff", "2", "--construction", "direct")
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_contextuality_single_point(capsys):
    code, out, _ = run(capsys, "contextuality", "bsv", "--gamma", "1.0", "--cutoff", "40")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma,p_diag,pm_value,margin,lo,hi,verdict"
    fields = lines[1].split(",")
    assert float(fields[0]) == 1.0
    assert float(fields[2]) == pytest.approx(6 - 6 / math.cosh(2), abs=1e-7)
    assert fields[6] == "violated"


def test_contextuality_qubit_reaches_six(capsys):
    code, out, _ = run(capsys, "contextuality", "qubit", "--bell-state", "singlet")
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    assert fields[0] == ""
    assert float(fields[2]) == pytest.approx(6.0, abs=1e-12)


def test_contextuality_sweep_brackets_the_flip(capsys):
    code, out, _ = run(
        capsys,
        "contextuality",
        "bsv",
        "--gamma-min", "0.0",
        "--gamma-max", "1.2",
        "--steps", "25",
        "--cutoff", "40",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 25
    verdicts = [r[6] for r in rows]
    gammas = [float(r[0]) for r in rows]
    flip = next(k for k in range(1, 25) if verdicts[k] == "violated")
    assert verdicts[flip - 1] == "not_violated"
    assert gammas[flip - 1] < math.acosh(3) / 2 < gammas[flip]


def test_sweeps_accept_cutoff_zero_like_single_points(capsys):
    code, out, err = run(capsys, *"contextuality bsv --gamma-min 0 --gamma-max 1 --steps 3 --cutoff 0".split())
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[6] for r in rows] == ["not_violated", "not_violated", "inconclusive"]
    # The vacuum-only state reads 0 on the square; the deficit widens the interval.
    assert float(rows[-1][3]) == -4.0 < float(rows[-1][5])
    code, out, err = run(
        capsys, *"entanglement witness bghz-gen --gamma-min 0 --gamma-max 0.3 --steps 3 --cutoff 0".split()
    )
    assert (code, err) == (0, "")
    assert [point["witness_value"] for point in json.loads(out)["curve"]] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "argv",
    [
        "entanglement witness bghz-gen --gamma 0.3 --cutoff 0",
        "entanglement witness state --state {fixtures}/diagonal.csv",
    ],
)
def test_zero_margin_prints_without_a_sign(capsys, argv):
    # The fixture comparer reads -0.0 == 0.0, so the sign is checked on the text.
    code, out, _ = run(capsys, *argv.format(fixtures=FIXTURES).split())
    assert code == 0
    assert "-0.0" not in out
    payload = json.loads(out)
    assert [math.copysign(1.0, x) for x in (payload["margin"], *payload["interval"])] == [1.0] * 3


def test_contextuality_json_format(capsys):
    code, out, _ = run(capsys, "contextuality", "bsv", "--gamma", "0.5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["verdict"] == "not_violated"


def test_outputs_are_byte_deterministic(capsys, tmp_path):
    args = ("contextuality", "bsv", "--gamma-min", "0.1", "--gamma-max", "1.1", "--steps", "7")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    _, v1, _ = run(capsys, "verify-algebra", "--cutoff", "4")
    _, v2, _ = run(capsys, "verify-algebra", "--cutoff", "4")
    assert v1 == v2


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-algebra", "--cutoff", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["passed"] is True


JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.nan, math.inf, -math.inf]),
    st.text(),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
@example(value={"\"quote\"": "caf\u00e9 \u2603 \U0001d11e", "control": "\x00\t\n\x1f\x7f", "": [[], {}, ()]})
@example(value=[np.float64(-0.0), np.float64(math.nan), 2**64, -(2**63) - 1, True, False, None])
def test_json_emitter_matches_the_stdlib_layout(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [np.int64(1), {1, 2}, {"rows": [np.int64(3)]}, {1: "one"}, {"a": 1, 2: "b"}, {None: 0}],
    ids=["int64", "set", "nested-int64", "int-key", "mixed-keys", "none-key"],
)
def test_json_emitter_refuses_unsupported_leaves_and_keys(value):
    with pytest.raises(TypeError):
        cli._json(value)


# Only exit-0 cases: an argparse usage error leaves 6 cyclic objects from
# argparse's help formatter, which bnl does not own.
@pytest.mark.parametrize(
    "case", [case for case in CASES if case["exit"] == 0], ids=lambda case: case["name"],
)
def test_successful_command_leaves_no_cyclic_garbage(case):
    argv = case["argv"].split()
    run_case(argv)  # first-call caches and lazy imports
    gc.collect()
    gc.disable()
    try:
        run_case(argv)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_entanglement_witness_bghz(capsys, tmp_path):
    code, out, _ = run(
        capsys, "entanglement", "witness", "bghz", "--coeffs", write_coeffs(tmp_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "entangled"
    assert payload["value"] < 0
    assert payload["witness"] == "ghz3"


def test_entanglement_witness_party_mismatch(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "entanglement", "witness", "bghz",
        "--coeffs", write_coeffs(tmp_path),
        "--witness", "singlet",
    )
    assert code == 1
    assert "parties" in err


def test_entanglement_witness_coeff_parse_error(capsys, tmp_path):
    path = tmp_path / "coeffs.csv"
    path.write_text("0,1.0,0.0\nbroken\n")
    code, _, err = run(capsys, "entanglement", "witness", "bghz", "--coeffs", str(path))
    assert code == 3
    assert ":2:" in err


def test_entanglement_ns_family_bsv(capsys):
    code, out, _ = run(capsys, "entanglement", "ns-family", "bsv", "--gamma", "0.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["detected"] is True
    assert len(payload["members"]) == 9


def test_ns_family_detects_within_the_derived_spread(capsys):
    argv = "entanglement ns-family bsv --gamma 0.55 --cutoff 3".split()
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["detected"] is True
    entangled = [m for m in payload["members"] if m["verdict"] == "entangled"]
    perms = [(m["perm_party1"], m["perm_party2"]) for m in entangled]
    assert perms == [([2, 3, 1], [2, 3, 1]), ([3, 1, 2], [3, 1, 2])]
    for m in entangled:
        # The margin 0.3815 clears 24 deficits (0.3779) but not 32.
        deficit = (m["margin"] - m["interval"][0]) / 24
        assert m["margin"] == pytest.approx(0.3815, abs=1e-4)
        assert 24 * deficit < m["margin"] < 32 * deficit


def test_entanglement_gram_phi_plus(capsys):
    code, out, _ = run(capsys, "entanglement", "gram", "qubit", "--bell-state", "phi+")
    assert code == 0
    payload = json.loads(out)
    want = np.zeros((4, 4))
    want[0, 0] = want[0, 3] = want[3, 0] = want[3, 3] = 0.5
    assert np.allclose(payload["normalized_real"], want, atol=1e-12)
    assert np.allclose(payload["normalized_imag"], np.zeros((4, 4)), atol=1e-12)
    assert payload["trace"] == pytest.approx(1.0, abs=1e-12)


def test_entanglement_gram_rejects_diagonal_state(capsys, tmp_path):
    path = tmp_path / "state.csv"
    path.write_text("1,1,2,0,1.0,0.0\n")
    code, _, err = run(capsys, "entanglement", "gram", "state", "--state", str(path))
    assert code == 2
    assert "diagonal" in err


@pytest.mark.parametrize(
    "argv", ["entanglement gram bsv --gamma 15 --cutoff 3", "entanglement gram bsv --gamma 1e3"]
)
def test_entanglement_gram_names_the_deficit_of_a_truncated_away_state(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err == (
        "bnl: certificate trace is 0 within the cutoff, "
        "and norm deficit 1 of the state's mass lies beyond it\n"
    )


def test_entanglement_witness_on_the_diagonal_subspace_is_not_detected(capsys):
    # Every witness term vanishes on the diagonal subspace: value exactly 0, no tail.
    code, out, _ = run(
        capsys, "entanglement", "witness", "state", "--state", str(FIXTURES / "diagonal.csv")
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["value"], payload["verdict"]) == (0.0, "not_detected")


def test_entanglement_witness_embedded_ghz(capsys):
    code, out, _ = run(capsys, "entanglement", "witness", "qubit", "--ghz")
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == "ghz3"
    assert payload["value"] == pytest.approx(-1.0, abs=1e-12)
    assert payload["verdict"] == "entangled"


def test_entanglement_separable_source_not_detected(capsys):
    code, out, _ = run(
        capsys, "entanglement", "witness", "separable", "--seed", "5", "--witness", "ghz3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "not_detected"
    assert payload["value"] >= -1e-10


def test_parser_keeps_no_state_between_calls(capsys):
    argv = ["entanglement", "witness", "separable", "--witness", "ghz3"]
    _, seed0, _ = run(capsys, *argv, "--seed", "0")
    _, seed1, _ = run(capsys, *argv, "--seed", "1")
    code, default, _ = run(capsys, *argv)
    assert code == 0
    assert seed1 != seed0
    assert default == seed0


def test_entanglement_bghz_gen_curve_is_labeled(capsys):
    code, out, _ = run(
        capsys,
        "entanglement", "witness", "bghz-gen",
        "--gamma-min", "0.05",
        "--gamma-max", "0.4",
        "--steps", "4",
        "--cutoff", "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["authoritative"] is False
    values = [point["witness_value"] for point in payload["curve"]]
    assert all(v < 0 for v in values)


def test_bell_bghz(capsys, tmp_path):
    code, out, _ = run(capsys, "bell", "bghz", "--coeffs", write_coeffs(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "violated"
    assert payload["value"] == pytest.approx(payload["structural_expected"], abs=1e-12)


@pytest.mark.parametrize("coeffs", ["coeffs.csv", "coeffs3.csv"])
def test_bghz_intervals_below_twice_the_top_order_contain_the_untruncated_margin(coeffs):
    # Both files have top order M = 2, so cutoff 2M = 4 keeps every term and its margin is
    # the untruncated one; each lower cutoff drops terms, whose mass widens the interval.
    for argv in (["bell", "bghz"], ["entanglement", "witness", "bghz", "--witness", "ghz3"]):
        outputs = [run_case(argv + ["--coeffs", coeffs, "--cutoff", str(c)])[1] for c in range(5)]
        records = [json.loads(out) for out in outputs]
        exact = records[-1]["margin"]
        assert records[-1]["interval"] == [exact, exact]
        for record in records:
            lo, hi = record["interval"]
            assert lo <= exact <= hi, (record["cutoff"], record["interval"], exact)
            if "structural_expected" in record:
                assert record["value"] == pytest.approx(record["structural_expected"], abs=1e-12)


# One order's triple-emission state has Mermin value exactly 2, the local bound.
@pytest.mark.parametrize(
    "coeffs", ["0,0.078,0.5\n", "0,0,0\n1,0.15,-0.3\n", "0,0,0\n1,0,0\n2,0.15,-0.3\n"]
)
def test_bell_single_order_state_sits_on_the_bound(capsys, tmp_path, coeffs):
    code, out, _ = run(capsys, "bell", "bghz", "--coeffs", write_coeffs(tmp_path, coeffs))
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(2.0, abs=1e-12)
    assert payload["verdict"] == "not_violated"


def test_bell_qubit_ghz(capsys):
    code, out, _ = run(capsys, "bell", "qubit", "--ghz")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(4.0, abs=1e-12)


def test_bell_qubit_without_ghz_is_usage_error(capsys):
    code, _, err = run(capsys, "bell", "qubit")
    assert code == 1


def test_bell_product_state_respects_bound(capsys):
    code, out, _ = run(capsys, "bell", "product-state")
    assert code == 0
    assert abs(json.loads(out)["value"]) <= 2.0


def test_counterexample_default(capsys):
    code, out, _ = run(capsys, "counterexample")
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] > 0.5
    assert payload["stokes_distance"] < 1e-12
    assert payload["matches_balanced_form"] is True


def test_counterexample_sign_flip(capsys):
    code, out, _ = run(capsys, "counterexample", "--sign-flip")
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] > 0.5
    assert payload["stokes_distance"] < 1e-12


def test_counterexample_one_photon_block(capsys):
    code, out, _ = run(capsys, "counterexample", "--block", "1")
    assert code == 0
    assert json.loads(out)["distance"] < 1e-12


@pytest.mark.parametrize("cutoff", ["80", "139"])
def test_counterexample_stays_covariant_at_high_cutoff(capsys, cutoff):
    code, out, err = run(capsys, "counterexample", "--cutoff", cutoff)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["stokes_distance"] < 1e-10
    assert payload["lift_unitarity_residual"] < 1e-12


@pytest.mark.parametrize(
    "total, corrupt",
    [
        # Block 0 carries no Stokes weight, so only the unitarity residual sees it.
        (0, lambda block: block * (1 + 1e-6)),
        # Still unitary, but no longer covariant.
        (2, lambda block: block @ np.diag([1, 1j, 1])),
    ],
    ids=["not-unitary", "rephased"],
)
def test_counterexample_with_a_corrupted_lift_block_fails_its_self_check(capsys, monkeypatch, total, corrupt):
    _corrupt_lift_block(monkeypatch, total, corrupt)
    code, out, err = run(capsys, "counterexample")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("bnl: counterexample self-check failed: stokes_distance ")


class TestStateFiles:
    def test_embedded_singlet_file(self, capsys, tmp_path):
        path = tmp_path / "singlet.csv"
        amp = 1 / math.sqrt(2)
        path.write_text(f"1,0,0,1,{amp},0.0\n0,1,1,0,{-amp},0.0\n")
        code, out, _ = run(capsys, "contextuality", "state", "--state", str(path))
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[2]) == pytest.approx(6.0, abs=1e-10)

    def test_renormalization_warning(self, capsys, tmp_path):
        path = tmp_path / "half.csv"
        path.write_text("1,0,0,1,0.5,0.0\n")
        code, _, err = run(capsys, "contextuality", "state", "--state", str(path))
        assert code == 0
        assert "renormalizing" in err

    def test_malformed_line_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0,0,1,0.7,0.0\n1,0,0,oops,0.7,0.0\n")
        code, _, err = run(capsys, "contextuality", "state", "--state", str(path))
        assert code == 3
        assert ":2:" in err

    def test_duplicate_row_rejected(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("1,0,0,1,0.7,0.0\n1,0,0,1,0.1,0.0\n")
        code, _, err = run(capsys, "contextuality", "state", "--state", str(path))
        assert code == 3
        assert "duplicate" in err

    def test_three_beam_file_feeds_bell(self, capsys, tmp_path):
        path = tmp_path / "ghz.csv"
        amp = 1 / math.sqrt(2)
        path.write_text(f"1,0,1,0,1,0,{amp},0.0\n0,1,0,1,0,1,{amp},0.0\n")
        code, out, _ = run(capsys, "bell", "state", "--state", str(path))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(4.0, abs=1e-10)

    @pytest.mark.parametrize("value", ["nan,0.0", "0.5,inf", "-inf,0.0"])
    def test_non_finite_amplitude_names_line(self, capsys, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"1,0,0,1,0.7,0.0\n0,1,1,0,{value}\n")
        for command in ("contextuality state", "entanglement witness state", "entanglement gram state"):
            code, out, err = run(capsys, *command.split(), "--state", str(path))
            assert (code, out) == (3, "")
            assert err == f"bnl: parse error: {path}:2: amplitude '{value}' is not finite\n"

    # 1e-160 squares to a subnormal double, where the norm has lost its precision.
    @pytest.mark.parametrize(
        "amplitude, flow", [("1e200", "overflows"), ("1e-200", "underflows"), ("1e-160", "underflows")]
    )
    def test_squared_norm_outside_the_doubles_is_one_line(self, capsys, tmp_path, amplitude, flow):
        path = tmp_path / "scaled.csv"
        path.write_text(f"1,0,0,1,{amplitude},0.0\n0,1,1,0,-{amplitude},0.0\n")
        code, out, err = run(capsys, "contextuality", "state", "--state", str(path))
        assert (code, out) == (3, "")
        assert err == f"bnl: parse error: {path}: the squared norm of the amplitudes {flow} a double\n"

    def test_cap_is_checked_as_lines_are_read(self, capsys, monkeypatch, tmp_path):
        # The third line is malformed, but the cap refuses the second before it is read.
        path = tmp_path / "long.csv"
        path.write_text("1,0,0,1,0.6,0.0\n0,1,1,0,0.8,0.0\n1,0,0,oops,0.7,0.0\n")
        monkeypatch.setenv("BNL_MAX_DIM", "1")
        code, out, err = run(capsys, "contextuality", "state", "--state", str(path))
        assert (code, out) == (1, "")
        assert err == f"bnl: error: {path}: state needs 2 stored amplitudes, above the BNL_MAX_DIM cap 1\n"

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--state", "1,0,0,1,0.7\n", ":1: expected 6 or 8 comma-separated fields, got 5"),
            ("--state", "1,0,0,1,0.6,0.0\n1,0,0,1,0,1,0.8,0.0\n", ":2: 3-beam row in a 2-beam file"),
            ("--state", "1,0,0,-1,0.7,0.0\n", ":1: negative occupation"),
            ("--state", "1,0,0,1,0.6,0.0\n\n1,0,0,1,0.8,0.0\n", ":3: duplicate occupation (first seen on line 1)"),
            ("--state", "\n  \n\n", ": no amplitude lines found"),
            ("--state", "1,0,0,1,0.0,0.0\n0,1,1,0,-0.0,0.0\n", ": state has zero norm"),
            ("--coeffs", "\n  \n\n", ": no coefficient lines found"),
            ("--coeffs", "0,1.0,0.0\n1,x,0.0\n", ":2: could not convert string to float: 'x'"),
        ],
    )
    def test_file_refusal_is_one_exact_line(self, capsys, tmp_path, flag, text, message):
        path = tmp_path / "input.csv"
        path.write_text(text)
        source = "state" if flag == "--state" else "bghz"
        code, out, err = run(capsys, "entanglement", "witness", source, flag, str(path))
        assert (code, out) == (3, "")
        assert err == f"bnl: parse error: {path}{message}\n"

    def test_beam_count_must_match_command(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("1,0,0,1,1.0,0.0\n")
        code, _, err = run(capsys, "bell", "state", "--state", str(path))
        assert code == 1
        assert "three" in err
