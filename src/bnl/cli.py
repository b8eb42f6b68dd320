"""Command-line surface: verification suites, state evaluation and sweeps.

Commands emit CSV for sweep curves and JSON for structured verdicts; no
plotting happens in-process.  Output is byte-stable for fixed flags, seed
and BLAS thread count.  Exit codes: 0 success, 1 usage error or unwritable
--out, 2 verification failure, 3 parse error or unreadable input file.
This module parses no file: ``bnl.states`` reads both input formats, and
its ``InputFileError`` is the one error reported as a parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

import numpy as np

from . import indicators, states
from .fock import (
    MAX_DIM_ENV, MultiBeamState, amplitude_cap, basis_state, build_space,
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

T = TypeVar("T")

CSV_HEADER = "gamma,p_diag,pm_value,margin,lo,hi,verdict"

# --cutoff when not given; bghz derives it from the coefficients, other sources fix their space.
DEFAULT_CUTOFFS = {"bsv": 40, "bghz-gen": 8, "separable": 4}

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


@dataclass(frozen=True)
class SweepSpec:
    """Evenly spaced gain grid for curve emission."""

    gamma_min: float
    gamma_max: float
    steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma_min) and math.isfinite(self.gamma_max)):
            raise ValueError("gamma-min and gamma-max must be finite")
        if self.gamma_min > self.gamma_max:
            raise ValueError("gamma-min must not exceed gamma-max")
        if not math.isfinite(self.gamma_max - self.gamma_min):
            # np.linspace would warn on the overflowing span and grid NaN gains.
            raise ValueError("gamma-max - gamma-min overflows a double")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        cap = amplitude_cap()
        if self.steps > cap:
            # Refused before np.linspace allocates the grid.
            raise ValueError(f"steps {self.steps} is above the {MAX_DIM_ENV} cap {cap}")

    def grid(self) -> list[float]:
        return [float(g) for g in np.linspace(self.gamma_min, self.gamma_max, self.steps)]


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open_text(out, "w", _UsageError) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_verify_algebra(args) -> int:
    report = _checked(lambda: verify_algebra(build_space(args.cutoff), args.construction))
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


class _UsageError(Exception):
    pass


def _checked(build: Callable[[], T]) -> T:
    """Run a constructor, reporting its domain ValueError as a usage error.

    A file's parse error, also a ValueError, keeps its own exit code.
    """
    try:
        return build()
    except InputFileError:
        raise
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _refuse_mixed_gains(args) -> None:
    if args.gamma is not None and (args.gamma_min is not None or args.gamma_max is not None):
        raise _UsageError("--gamma cannot be combined with --gamma-min or --gamma-max")


def _gain_grid(args, missing: str) -> Iterator[tuple[MultiBeamState, dict]]:
    """The ``_source_state`` of each point of the --gamma-min/--gamma-max grid."""
    if args.gamma_min is None or args.gamma_max is None:
        raise _UsageError(missing)
    sweep = _checked(lambda: SweepSpec(args.gamma_min, args.gamma_max, args.steps))
    for gamma in sweep.grid():
        yield _source_state(argparse.Namespace(**{**vars(args), "gamma": gamma}))


def _cmd_contextuality(args) -> int:
    _refuse_mixed_gains(args)
    if args.source == "bsv" and args.gamma is None:
        rows = _gain_grid(args, "bsv source needs --gamma or --gamma-min/--gamma-max")
    else:
        rows = [_source_state(args)]
    records: list[tuple[float | None, VerdictRecord]] = []
    for state, meta in rows:
        if state.n_beams != 2:
            raise _UsageError("contextuality takes a two-beam state")
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


def _cutoff(args) -> int | None:
    return args.cutoff if args.cutoff is not None else DEFAULT_CUTOFFS.get(args.source)


def _source_state(args) -> tuple[MultiBeamState, dict]:
    """The state named by ``args.source``, with the metadata echoed in JSON output."""
    meta: dict = {"source": args.source}
    cutoff = _cutoff(args)
    if args.source == "bsv":
        if args.gamma is None:
            raise _UsageError("bsv source needs --gamma")
        meta["gamma"] = args.gamma
        meta["cutoff"] = cutoff
        return _checked(lambda: bsv_state(BsvParams(args.gamma, cutoff))), meta
    if args.source == "qubit":
        if getattr(args, "ghz", False):
            meta["state"] = "ghz"
            return qubit_embed(states.GHZ3), meta
        meta["state"] = args.bell_state
        return qubit_embed(states.BELL_STATES[args.bell_state]), meta
    if args.source == "bghz":
        if args.coeffs is None:
            raise _UsageError("bghz source needs --coeffs FILE")
        coeffs = load_bghz_coefficients(args.coeffs)
        if cutoff is None:
            cutoff = max(2 * coeffs.max_order, 1)
        meta["coeffs"] = str(args.coeffs)
        meta["cutoff"] = cutoff
        return _checked(lambda: bghz_state(coeffs, cutoff)), meta
    if args.source == "bghz-gen":
        if args.gamma is None:
            raise _UsageError("bghz-gen source needs --gamma")
        meta["gamma"] = args.gamma
        meta["cutoff"] = cutoff
        meta["authoritative"] = False
        meta["note"] = "generator-exponential path, truncation-sensitive"
        return _checked(lambda: bghz_generator_state(args.gamma, cutoff)), meta
    if args.source == "separable":
        beams = 3 if args.witness == "ghz3" else 2
        meta.update({"seed": args.seed, "degree": args.degree, "cutoff": cutoff})
        return _checked(lambda: random_separable(args.seed, beams, cutoff, args.degree)), meta
    if args.source == "product-state":
        return basis_state((build_space(1),) * 3, [(1, 0)] * 3), meta
    if args.state is None:
        raise _UsageError("state source needs --state FILE")
    meta["file"] = str(args.state)
    return _checked(lambda: load_state_file(args.state)), meta


def _witness(name: str, state: MultiBeamState) -> WitnessSpec:
    spec = WITNESSES[name]
    if spec.n_parties != state.n_beams:
        raise _UsageError(
            f"witness {name!r} has {spec.n_parties} parties, state has {state.n_beams} beams"
        )
    return spec


def _cmd_entanglement(args) -> int:
    _refuse_mixed_gains(args)
    if args.subcommand == "witness" and args.source == "bghz-gen" and args.gamma is None:
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
        raise _UsageError("--csv applies only to the bghz-gen witness sweep")
    state, meta = _source_state(args)

    if args.subcommand == "witness":
        name = args.witness or ("ghz3" if state.n_beams == 3 else "singlet")
        verdict = indicators.witness_verdict(_witness(name, state), state)
        payload = {"witness": name, **meta, **verdict.to_dict()}
        _emit_json(payload, args.out)
        return EXIT_OK

    if state.n_beams != 2:
        raise _UsageError(f"{args.subcommand} takes a two-beam state")
    if args.subcommand == "ns-family":
        report = indicators.ns_condition_family(state)
    else:
        report = indicators.gram_certificate(state)
    _emit_json({**meta, **report.to_dict()}, args.out)
    return EXIT_OK


def _cmd_bell(args) -> int:
    if args.source == "qubit" and not args.ghz:
        raise _UsageError("bell qubit needs --ghz (three beams)")
    state, meta = _source_state(args)
    if state.n_beams != 3:
        raise _UsageError("bell takes a three-beam state")
    result = indicators.mermin_bell_value(state)
    _emit_json({**meta, **result.to_dict()}, args.out)
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    report = _checked(lambda: counterexample_report(cutoff=args.cutoff, sign_flip=args.sign_flip))
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
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify_algebra)

    p = sub.add_parser("contextuality", help="square-expression verdicts and sweeps")
    p.add_argument("source", choices=("bsv", "qubit", "state"))
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--gamma-min", dest="gamma_min", type=float, default=None)
    p.add_argument("--gamma-max", dest="gamma_max", type=float, default=None)
    p.add_argument("--steps", type=int, default=25)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--bell-state", dest="bell_state", choices=sorted(states.BELL_STATES), default="singlet")
    p.add_argument("--state", default=None)
    p.add_argument("--out", default=None)
    _add_format_flags(p, default="csv")
    p.set_defaults(func=_cmd_contextuality)

    p = sub.add_parser("entanglement", help="witness, criterion family and certificate")
    p.add_argument("subcommand", choices=("witness", "ns-family", "gram"))
    p.add_argument(
        "source", choices=("bsv", "qubit", "bghz", "bghz-gen", "separable", "state")
    )
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--gamma-min", dest="gamma_min", type=float, default=None)
    p.add_argument("--gamma-max", dest="gamma_max", type=float, default=None)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--bell-state", dest="bell_state", choices=sorted(states.BELL_STATES), default="singlet")
    p.add_argument("--ghz", action="store_true")
    p.add_argument("--coeffs", default=None)
    p.add_argument("--state", default=None)
    p.add_argument("--witness", choices=sorted(WITNESSES), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--out", default=None)
    _add_format_flags(p, default="json")
    p.set_defaults(func=_cmd_entanglement)

    p = sub.add_parser("bell", help="three-beam Mermin expression")
    p.add_argument(
        "source", choices=("bghz", "bghz-gen", "qubit", "product-state", "state")
    )
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--ghz", action="store_true")
    p.add_argument("--coeffs", default=None)
    p.add_argument("--state", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("counterexample", help="mode-rotation non-covariance contrast")
    p.add_argument("--sign-flip", dest="sign_flip", action="store_true")
    p.add_argument("--block", type=int, choices=(1, 2), default=2)
    p.add_argument("--cutoff", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_counterexample)

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
    except _UsageError as exc:
        print(f"bnl: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputFileError as exc:
        print(f"bnl: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegenerateCertificateError as exc:
        print(f"bnl: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
