"""Command-line surface: verification suites, state evaluation and sweeps.

Commands emit CSV for sweep curves and JSON for structured verdicts; no
plotting happens in-process.  Output is byte-stable for fixed flags, seed
and BLAS thread count.  JSON has a 2-space indent and sorted keys, and
``json`` formats every key and scalar; emitting it leaves no cyclic
garbage.  Exit codes: 0 success, 1 usage error or unwritable --out,
2 verification failure, 3 parse error or unreadable input file.
This module parses no file; ``bnl.states`` reads both input formats.
``SOURCES`` and ``SWEEPS`` hold the flags each state source reads,
with their defaults; a source refuses any other source flag (exit 1).
Handlers raise, and ``main`` alone maps the exception to its exit code
and one ``bnl:`` line on stderr: ``InputFileError`` to 3,
``DegenerateCertificateError`` and ``HermitianViolationError`` to 2, and
any other ``ValueError`` to 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterator

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
    VerdictRecord,
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

# Each source's argparse dests, with their values when not given; bghz's cutoff comes from its coefficients.
SOURCES: dict[str, dict[str, object]] = {
    "bsv": {"gamma": None, "cutoff": 40},
    "qubit": {"bell_state": "singlet", "ghz": False},
    "bghz": {"coeffs": None, "cutoff": None},
    "bghz-gen": {"gamma": None, "cutoff": 8},
    "separable": {"seed": 0, "degree": 2, "cutoff": 4},
    "product-state": {},
    "state": {"state": None},
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

WITNESSES: dict[str, WitnessSpec] = {
    "singlet": SINGLET_WITNESS,
    "phi-plus": PHI_PLUS_WITNESS,
    "ghz3": GHZ3_WITNESS,
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


def _emit(text: str, out: str | None) -> None:
    if out:
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


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_verify_algebra(args) -> int:
    report = verify_algebra(build_space(args.cutoff), args.construction)
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _source_args(args, command: str) -> None:
    """Refuse each given flag that ``command`` (for entanglement, the subcommand) does not read for
    ``args.source``, then fill in the defaults of those it does."""
    if command in ("ns-family", "gram") and args.witness is not None:
        raise ValueError(f"{command} takes no --witness")
    reads = {**SOURCES[args.source], **SWEEPS.get((command, args.source), {})}
    for dest in _SOURCE_FLAGS:
        if dest not in reads and getattr(args, dest) is not None:
            raise ValueError(f"{args.source} source takes no --{dest.replace('_', '-')}")
    # Past the loop only qubit can be given both, and only a sweeping pair a sweep flag.
    if args.ghz and args.bell_state is not None:
        raise ValueError("--ghz cannot be combined with --bell-state")
    if args.gamma is not None and (args.gamma_min is not None or args.gamma_max is not None):
        raise ValueError("--gamma cannot be combined with --gamma-min or --gamma-max")
    if args.gamma is not None and args.steps is not None:
        raise ValueError("--gamma cannot be combined with --steps")
    for dest, default in reads.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


def _gain_grid(args, missing: str) -> Iterator[tuple[MultiBeamState, dict]]:
    """The ``_source_state`` of each point of the --gamma-min/--gamma-max grid."""
    lo, hi, steps = args.gamma_min, args.gamma_max, args.steps
    if lo is None or hi is None:
        raise ValueError(missing)
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
    for gamma in np.linspace(lo, hi, steps).tolist():
        yield _source_state(argparse.Namespace(**{**vars(args), "gamma": gamma}))


def _cmd_contextuality(args) -> int:
    _source_args(args, "contextuality")
    if ("contextuality", args.source) in SWEEPS and args.gamma is None:
        rows = _gain_grid(args, "bsv source needs --gamma or --gamma-min/--gamma-max")
    else:
        rows = [_source_state(args)]
    records: list[tuple[float | None, VerdictRecord]] = []
    for state, meta in rows:
        if state.n_beams != 2:
            raise ValueError("contextuality takes a two-beam state")
        records.append((meta.get("gamma"), indicators.pm_expectation(state)))
    if args.format == "json":
        payload = {"rows": [{"gamma": gamma, **v.to_dict()} for gamma, v in records]}
        _emit_json(payload, args.out)
        return EXIT_OK
    lines = [CSV_HEADER]
    for gamma, v in records:
        lines.append(
            ",".join(
                [
                    _fmt(gamma),
                    _fmt(v.p_diag),
                    _fmt(v.value),
                    _fmt(v.margin),
                    _fmt(v.interval_lo),
                    _fmt(v.interval_hi),
                    v.verdict,
                ]
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _source_state(args) -> tuple[MultiBeamState, dict]:
    """The state named by ``args.source``, from the flags ``_source_args`` checked, and its JSON metadata."""
    meta: dict = {"source": args.source}
    if args.source == "bsv":
        if args.gamma is None:
            raise ValueError("bsv source needs --gamma")
        meta["gamma"] = args.gamma
        meta["cutoff"] = args.cutoff
        return bsv_state(BsvParams(args.gamma, args.cutoff)), meta
    if args.source == "qubit":
        if args.ghz:
            meta["state"] = "ghz"
            return qubit_embed(states.GHZ3), meta
        meta["state"] = args.bell_state
        return qubit_embed(states.BELL_STATES[args.bell_state]), meta
    if args.source == "bghz":
        if args.coeffs is None:
            raise ValueError("bghz source needs --coeffs FILE")
        coeffs = load_bghz_coefficients(args.coeffs)
        cutoff = max(2 * coeffs.max_order, 1) if args.cutoff is None else args.cutoff
        meta["coeffs"] = str(args.coeffs)
        meta["cutoff"] = cutoff
        return bghz_state(coeffs, cutoff), meta
    if args.source == "bghz-gen":
        if args.gamma is None:
            raise ValueError("bghz-gen source needs --gamma")
        meta["gamma"] = args.gamma
        meta["cutoff"] = args.cutoff
        meta["authoritative"] = False
        meta["note"] = "generator-exponential path, truncation-sensitive"
        return bghz_generator_state(args.gamma, args.cutoff), meta
    if args.source == "separable":
        beams = 3 if args.witness == "ghz3" else 2
        meta.update({"seed": args.seed, "degree": args.degree, "cutoff": args.cutoff})
        return random_separable(args.seed, beams, args.cutoff, args.degree), meta
    if args.source == "product-state":
        return basis_state((build_space(1),) * 3, [(1, 0)] * 3), meta
    if args.state is None:
        raise ValueError("state source needs --state FILE")
    meta["file"] = str(args.state)
    return load_state_file(args.state), meta


def _witness(name: str, state: MultiBeamState) -> WitnessSpec:
    spec = WITNESSES[name]
    if spec.n_parties != state.n_beams:
        raise ValueError(
            f"witness {name!r} has {spec.n_parties} parties, state has {state.n_beams} beams"
        )
    return spec


def _cmd_entanglement(args) -> int:
    _source_args(args, args.subcommand)
    if (args.subcommand, args.source) in SWEEPS and args.gamma is None:
        # Sweep mode: emit the qualitative curve from the generator path.
        grid = _gain_grid(args, "bghz-gen needs --gamma or --gamma-min/--gamma-max")
        curve = []
        for state, meta in grid:
            value = indicators.witness_expectation(_witness(args.witness or "ghz3", state), state)
            curve.append({"gamma": meta["gamma"], "witness_value": value})
        if args.format == "csv":
            lines = ["gamma,witness_value,authoritative"]
            for point in curve:
                lines.append(
                    f"{_fmt(point['gamma'])},{_fmt(point['witness_value'])},false"
                )
            _emit("\n".join(lines) + "\n", args.out)
        else:
            _emit_json(
                {
                    "authoritative": False,
                    "note": "generator-exponential path, truncation-sensitive",
                    "witness": args.witness or "ghz3",
                    "curve": curve,
                },
                args.out,
            )
        return EXIT_OK

    if args.format == "csv":
        raise ValueError("--csv applies only to the bghz-gen witness sweep")
    state, meta = _source_state(args)

    if args.subcommand == "witness":
        name = args.witness or ("ghz3" if state.n_beams == 3 else "singlet")
        verdict = indicators.witness_verdict(_witness(name, state), state)
        payload = {"witness": name, **meta, **verdict.to_dict()}
        _emit_json(payload, args.out)
        return EXIT_OK

    if state.n_beams != 2:
        raise ValueError(f"{args.subcommand} takes a two-beam state")
    if args.subcommand == "ns-family":
        report = indicators.ns_condition_family(state)
    else:
        report = indicators.gram_certificate(state)
    _emit_json({**meta, **report.to_dict()}, args.out)
    return EXIT_OK


def _cmd_bell(args) -> int:
    _source_args(args, "bell")
    if args.source == "qubit" and not args.ghz:
        raise ValueError("bell qubit needs --ghz (three beams)")
    state, meta = _source_state(args)
    if state.n_beams != 3:
        raise ValueError("bell takes a three-beam state")
    result = indicators.mermin_bell_value(state)
    _emit_json({**meta, **result.to_dict()}, args.out)
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
    p.set_defaults(func=_cmd_contextuality)

    p = sub.add_parser("entanglement", help="witness, criterion family and certificate")
    p.add_argument("subcommand", choices=("witness", "ns-family", "gram"))
    p.add_argument("source", choices=("bsv", "qubit", "bghz", "bghz-gen", "separable", "state"))
    p.add_argument("--witness", choices=sorted(WITNESSES), default=None)
    _add_format_flags(p, default="json")
    p.set_defaults(func=_cmd_entanglement)

    p = sub.add_parser("bell", help="three-beam Mermin expression")
    p.add_argument("source", choices=("bghz", "bghz-gen", "qubit", "product-state", "state"))
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("counterexample", help="mode-rotation non-covariance contrast")
    p.add_argument("--sign-flip", dest="sign_flip", action="store_true")
    p.add_argument("--block", type=int, choices=(1, 2), default=2)
    p.add_argument("--cutoff", type=int, default=2)
    p.set_defaults(func=_cmd_counterexample)

    # Each source flag is declared once, with default None, so that _source_args sees what was given.
    for name in ("contextuality", "entanglement", "bell"):
        for dest, kwargs in _SOURCE_FLAGS.items():
            sub.choices[name].add_argument("--" + dest.replace("_", "-"), default=None, **kwargs)
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
        return args.func(args)
    except InputFileError as exc:
        print(f"bnl: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DegenerateCertificateError, HermitianViolationError) as exc:
        print(f"bnl: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ValueError as exc:
        print(f"bnl: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
