"""Command-line surface: verification suites, state evaluation and sweeps.

Commands emit CSV for sweep curves and JSON for structured verdicts; no
plotting happens in-process.  Output is byte-stable for fixed flags, seed
and BLAS thread count.  JSON has a 2-space indent and sorted keys, and
``json`` formats every key and scalar; emitting it leaves no cyclic
garbage.  Exit codes: 0 success, 1 usage error or unwritable --out,
2 verification failure, 3 parse error or unreadable input file.
This module parses no file; ``bnl.states`` reads both input formats.
One handler runs every state command from two tables.  ``SOURCES`` holds
each state source whole: the flags it reads, with their defaults or
``NEEDED``, and its builder of the state and its JSON fields.  ``COMMANDS``
holds each state command's beam count and its result on one state, as JSON
fields.  A source refuses any other source flag, and a missing needed
flag ("bsv source needs --gamma"); a command refuses a state of another
beam count ("bell takes a three-beam state").  Handlers raise, and
``main`` alone maps the exception to its exit code and one ``bnl:`` line
on stderr: ``InputFileError`` to 3, ``CrossCheckError``, ``DegenerateCertificateError``
and ``HermitianViolationError`` to 2, and any other ``ValueError`` to 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import indicators, states
from .fock import (
    MAX_DIM_ENV, HermitianViolationError, MultiBeamState, amplitude_cap, basis_state, build_space,
)
from .gpauli import verify_algebra
from .indicators import (
    GHZ3_WITNESS,
    PHI_PLUS_WITNESS,
    SINGLET_WITNESS,
    DegenerateCertificateError,
    WitnessSpec,
)
from .modes import SELF_CHECK_ATOL, counterexample_report
from .states import (
    BsvParams,
    InputFileError,
    bghz_generator_state,
    bghz_state,
    bsv_state,
    load_bghz_coefficients,
    load_state_file,
    open_text,
    qubit_embed,
    random_separable,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_PARSE = 3

CSV_HEADER = "gamma,p_diag,pm_value,margin,lo,hi,verdict"

WITNESSES: dict[str, WitnessSpec] = {
    "singlet": SINGLET_WITNESS,
    "phi-plus": PHI_PLUS_WITNESS,
    "ghz3": GHZ3_WITNESS,
}


def _qubit(args) -> tuple[MultiBeamState, dict]:
    if args.ghz:
        return qubit_embed(states.GHZ3), {"state": "ghz"}
    if args.command == "bell":  # the one three-beam command
        raise ValueError("bell qubit needs --ghz (three beams)")
    return qubit_embed(states.BELL_STATES[args.bell_state]), {"state": args.bell_state}


def _bghz(args) -> tuple[MultiBeamState, dict]:
    coeffs = load_bghz_coefficients(args.coeffs)
    cutoff = max(2 * coeffs.max_order, 1) if args.cutoff is None else args.cutoff
    return bghz_state(coeffs, cutoff), {"coeffs": str(args.coeffs), "cutoff": cutoff}


NEEDED = object()  # the default of a flag that the source cannot do without
# Each source: the argparse dests it reads, with their values when not given (bghz's cutoff comes from
# its coefficients), and its builder, which returns the state and its JSON fields besides "source".
SOURCES = {
    "bsv": ({"gamma": NEEDED, "cutoff": 40}, lambda a: (
        bsv_state(BsvParams(a.gamma, a.cutoff)), {"gamma": a.gamma, "cutoff": a.cutoff})),
    "qubit": ({"bell_state": "singlet", "ghz": False}, _qubit),
    "bghz": ({"coeffs": NEEDED, "cutoff": None}, _bghz),
    "bghz-gen": ({"gamma": NEEDED, "cutoff": 8}, lambda a: (
        bghz_generator_state(a.gamma, a.cutoff),
        {"gamma": a.gamma, "cutoff": a.cutoff,
         "authoritative": False, "note": "generator-exponential path, truncation-sensitive"})),
    "separable": ({"seed": 0, "degree": 2, "cutoff": 4}, lambda a: (
        random_separable(a.seed, 3 if a.witness == "ghz3" else 2, a.cutoff, a.degree),
        {"seed": a.seed, "degree": a.degree, "cutoff": a.cutoff})),
    "product-state": ({}, lambda a: (basis_state((build_space(1),) * 3, [(1, 0)] * 3), {})),
    "state": ({"state": NEEDED}, lambda a: (load_state_file(a.state), {"file": str(a.state)})),
}
# The only (command, source) pairs that sweep the gain, and the sweep flags they read besides.
SWEEPS = {
    ("contextuality", "bsv"): {"gamma_min": None, "gamma_max": None, "steps": 25},
    ("witness", "bghz-gen"): {"gamma_min": None, "gamma_max": None, "steps": 10},
}
_SOURCE_FLAGS = {
    "gamma": {"type": float}, "gamma_min": {"type": float}, "gamma_max": {"type": float},
    "steps": {"type": int}, "cutoff": {"type": int}, "seed": {"type": int}, "degree": {"type": int},
    "bell_state": {"choices": sorted(states.BELL_STATES)}, "ghz": {"action": "store_true"},
    "coeffs": {}, "state": {},
}


def _witness(args, state: MultiBeamState) -> dict:
    """The named witness, by default the one for the state's beam count, if its parties match the beams."""
    name = args.witness or ("ghz3" if state.n_beams == 3 else "singlet")
    spec = WITNESSES[name]
    if spec.n_parties != state.n_beams:
        raise ValueError(f"witness {name!r} has {spec.n_parties} parties, state has {state.n_beams} beams")
    return {"witness": name, **indicators.witness_verdict(spec, state).to_dict()}


# Each state command (for entanglement, the subcommand): the beam count of the states it takes, None
# for any, and its result on one state as JSON fields.
COMMANDS = {
    "contextuality": (2, lambda _, state: indicators.pm_expectation(state).to_dict()),
    "witness": (None, _witness),
    "ns-family": (2, lambda _, state: indicators.ns_condition_family(state).to_dict()),
    "gram": (2, lambda _, state: indicators.gram_certificate(state).to_dict()),
    "bell": (3, lambda _, state: indicators.mermin_bell_value(state).to_dict()),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        with open_text(out, "w", ValueError) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` by plain recursion, without the reference
    cycle that json's indenting encoder leaves per call.  ``json`` formats every key and scalar;
    a non-``str`` key or a leaf it cannot format raises ``TypeError``."""
    inner = indent + "  "
    if isinstance(value, dict):
        parts = [f"{encode_basestring_ascii(key)}: {_json(value[key], inner)}" for key in sorted(value)]
        return "{" + inner + ("," + inner).join(parts) + indent + "}" if parts else "{}"
    if isinstance(value, (list, tuple)):
        parts = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(parts) + indent + "]" if parts else "[]"
    return encode_basestring_ascii(value) if isinstance(value, str) else json.dumps(value)


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(_json(payload) + "\n", out)


def _emit_csv(lines: list[str], out: str | None) -> None:
    _emit("\n".join(lines) + "\n", out)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_verify_algebra(args) -> int:
    report = verify_algebra(build_space(args.cutoff), args.construction)
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _source_args(args, command: str) -> bool:
    """Refuse each given flag that ``command`` does not read for ``args.source``, and a missing needed
    flag, then fill in the defaults of the others.  True when --gamma-min/--gamma-max sweep the gain."""
    if command in ("ns-family", "gram") and args.witness is not None:
        raise ValueError(f"{command} takes no --witness")
    reads = {**SOURCES[args.source][0], **SWEEPS.get((command, args.source), {})}
    for dest in _SOURCE_FLAGS:
        if dest not in reads and getattr(args, dest) is not None:
            raise ValueError(f"{args.source} source takes no {_flag(dest)}")
    # Past the loop only qubit can be given both, and only a sweeping pair a sweep flag.
    if args.ghz and args.bell_state is not None:
        raise ValueError("--ghz cannot be combined with --bell-state")
    if args.gamma is not None and (args.gamma_min is not None or args.gamma_max is not None):
        raise ValueError("--gamma cannot be combined with --gamma-min or --gamma-max")
    if args.gamma is not None and args.steps is not None:
        raise ValueError("--gamma cannot be combined with --steps")
    sweep = args.gamma_min is not None and args.gamma_max is not None
    for dest, default in reads.items():
        if getattr(args, dest) is None and not (sweep and dest == "gamma"):  # the grid gives the gain
            if default is NEEDED:
                also = " or --gamma-min/--gamma-max" if (command, args.source) in SWEEPS else ""
                raise ValueError(f"{args.source} source needs {_flag(dest)}{also}")
            setattr(args, dest, default)
    return sweep


def _gain_grid(args) -> list[float]:
    """The --steps gains from --gamma-min to --gamma-max."""
    lo, hi, steps = args.gamma_min, args.gamma_max, args.steps
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("gamma-min and gamma-max must be finite")
    if lo > hi:
        raise ValueError("gamma-min must not exceed gamma-max")
    if not math.isfinite(hi - lo):
        # np.linspace would warn on the overflowing span and grid NaN gains.
        raise ValueError("gamma-max - gamma-min overflows a double")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    cap = amplitude_cap()
    if steps > cap:
        # Refused before np.linspace allocates the grid.
        raise ValueError(f"steps {steps} is above the {MAX_DIM_ENV} cap {cap}")
    return np.linspace(lo, hi, steps).tolist()


def _cmd_state(args) -> int:
    """Check the source flags, build the state at the one gain or at each gain of the grid, refuse a
    state of another beam count, and emit the command's result."""
    command = getattr(args, "subcommand", args.command)
    beams, result = COMMANDS[command]
    sweep = _source_args(args, command)
    if args.format == "csv" and not sweep and command != "contextuality":
        raise ValueError("--csv applies only to the bghz-gen witness sweep")
    rows = []
    for gamma in _gain_grid(args) if sweep else [args.gamma]:
        args.gamma = gamma
        state, fields = SOURCES[args.source][1](args)
        if beams is not None and state.n_beams != beams:
            raise ValueError(f"{command} takes a {'two' if beams == 2 else 'three'}-beam state")
        rows.append(({"source": args.source, **fields}, result(args, state)))
    if command == "contextuality" and args.format == "csv":
        lines = [CSV_HEADER]
        for meta, r in rows:
            numbers = (meta.get("gamma"), r["p_diag"], r["value"], r["margin"], *r["interval"])
            lines.append(",".join([*map(_fmt, numbers), r["verdict"]]))
        _emit_csv(lines, args.out)
    elif command == "contextuality":
        _emit_json({"rows": [{"gamma": meta.get("gamma"), **r} for meta, r in rows]}, args.out)
    elif sweep:  # the qualitative witness curve of the generator path
        meta, first = rows[0]
        curve = [{"gamma": m["gamma"], "witness_value": r["value"]} for m, r in rows]
        if args.format == "csv":
            flag = _json(meta["authoritative"])
            _emit_csv(["gamma,witness_value,authoritative"]
                      + [f"{_fmt(p['gamma'])},{_fmt(p['witness_value'])},{flag}" for p in curve], args.out)
        else:
            _emit_json({"authoritative": meta["authoritative"], "note": meta["note"],
                        "witness": first["witness"], "curve": curve}, args.out)
    else:
        [(meta, r)] = rows
        _emit_json({**meta, **r}, args.out)
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    report = counterexample_report(cutoff=args.cutoff, sign_flip=args.sign_flip)
    if max(report.stokes_distance, report.lift_unitarity_residual) > SELF_CHECK_ATOL:
        print(f"bnl: counterexample self-check failed: stokes_distance {report.stokes_distance:.3e}, "
              f"lift_unitarity_residual {report.lift_unitarity_residual:.3e}, tolerance {SELF_CHECK_ATOL:g}",
              file=sys.stderr)
        return EXIT_VERIFICATION
    payload = report.to_dict()
    payload["block"] = args.block
    payload["distance"] = (
        report.g_distance_block1 if args.block == 1 else report.g_distance_block2
    )
    _emit_json(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="bnl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-algebra", help="run the operator-algebra suite")
    p.add_argument("--cutoff", type=int, default=6)
    p.add_argument("--construction", choices=("direct", "compact"), default="direct")
    p.set_defaults(func=_cmd_verify_algebra)

    p = sub.add_parser("contextuality", help="square-expression verdicts and sweeps")
    p.add_argument("source", choices=("bsv", "qubit", "state"))
    _add_format_flags(p, default="csv")

    p = sub.add_parser("entanglement", help="witness, criterion family and certificate")
    p.add_argument("subcommand", choices=("witness", "ns-family", "gram"))
    p.add_argument("source", choices=("bsv", "qubit", "bghz", "bghz-gen", "separable", "state"))
    p.add_argument("--witness", choices=sorted(WITNESSES), default=None)
    _add_format_flags(p, default="json")

    p = sub.add_parser("bell", help="three-beam Mermin expression")
    p.add_argument("source", choices=("bghz", "bghz-gen", "qubit", "product-state", "state"))
    p.set_defaults(format="json")

    p = sub.add_parser("counterexample", help="mode-rotation non-covariance contrast")
    p.add_argument("--sign-flip", dest="sign_flip", action="store_true")
    p.add_argument("--block", type=int, choices=(1, 2), default=2)
    p.add_argument("--cutoff", type=int, default=2)
    p.set_defaults(func=_cmd_counterexample)

    # One handler runs the state commands.  Each source flag is declared once, with default None, so
    # that _source_args sees what was given.
    for name in ("contextuality", "entanglement", "bell"):
        sub.choices[name].set_defaults(func=_cmd_state)
        for dest, kwargs in _SOURCE_FLAGS.items():
            sub.choices[name].add_argument(_flag(dest), default=None, **kwargs)
    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def _add_format_flags(p: argparse.ArgumentParser, default: str) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", dest="format", action="store_const", const="json")
    group.add_argument("--csv", dest="format", action="store_const", const="csv")
    p.set_defaults(format=default)


# Built once per process: argparse keeps no state between parse_args calls.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for dest in ("out", "state", "coeffs"):  # an empty path names no file; only an absent --out is stdout
            if getattr(args, dest, None) == "":
                raise ValueError(f"{_flag(dest)} needs a file path, got an empty one")
        return args.func(args)
    except InputFileError as exc:
        print(f"bnl: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (indicators.CrossCheckError, DegenerateCertificateError, HermitianViolationError) as exc:
        print(f"bnl: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ValueError as exc:
        print(f"bnl: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
