"""Closed-loop benchmark of the ``bnl`` CLI, run in-process against ``src/``.

    python3 perfbench/run.py --workload pm_sweep --seed 1 --seconds 25 --trace 0

One client issues one operation at a time through ``bnl.cli.main(argv)``,
captures its stdout and checks it against closed-form references
(``checks.py``).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run (``tracer.py``).  The line before it is an ``info`` record with the
provenance of the run.  Other modes:

    --smoke        a few operations per workload, schema and name checks
    --self-test    every reference check accepts real output, rejects a perturbed one
    --record FILE  also append the run as one JSON line (input to compare.py)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
from workloads import WORKLOADS, Command, Op, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# Fresh interpreters timed per run; setup_s is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 150
# Fallback ladder for latency_tail_ms when a run has too few samples for
# its workload's declared percentile.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
NOTES = (
    "closed loop, one client, in-process bnl.cli.main calls; "
    "one client thread with no queues, so no layer waits and no wait time is reported"
)
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


@dataclass
class OpResult:
    latency: float
    stdout: str
    failure: str | None


def cap_blas_threads() -> None:
    """Cap BLAS pools at nproc; must run before numpy is first imported."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = threads


def require_sources() -> None:
    if not (SRC / "bnl" / "__init__.py").is_file():
        raise BenchError(f"no bnl sources under {SRC}")


def import_cli():
    """Import ``bnl.cli`` from this checkout's ``src``, never from elsewhere."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bnl.cli

    if SRC.resolve() not in Path(bnl.cli.__file__).resolve().parents:
        raise BenchError(f"bnl was imported from {bnl.cli.__file__}, not {SRC}")
    return bnl.cli


def perform(cli, op: Op) -> OpResult:
    """Issue every command of the op, then check each captured output."""
    latency = 0.0
    captured = []
    for command in op.commands:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(command.argv))
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
        latency += perf_counter() - start
        captured.append((command, code, out.getvalue(), err.getvalue()))
    failure = None
    for command, code, stdout, stderr in captured:
        if code != 0:
            failure = f"{' '.join(command.argv)}: exit {code}: {stderr.strip()[:200]}"
        else:
            try:
                failure = checks.check(command.check, json.loads(stdout), command.params)
            except json.JSONDecodeError as exc:
                failure = f"{' '.join(command.argv)}: stdout is not JSON: {exc}"
        if failure:
            break
    return OpResult(latency, "".join(stdout for _, _, stdout, _ in captured), failure)


def run_window(cli, rounds, seconds: float, limit: int | None) -> tuple[list[OpResult], float]:
    """Whole rounds until ``seconds`` have passed (or ``limit`` ops are done)."""
    results: list[OpResult] = []
    start = perf_counter()
    while True:
        for op in next(rounds):
            results.append(perform(cli, op))
            if limit is not None and len(results) >= limit:
                return results, perf_counter() - start
        if perf_counter() - start >= seconds:
            return results, perf_counter() - start


def tail_latency(latencies: list[float], declared: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) by nearest rank.

    The workload declares the percentile that keeps >= 10 samples beyond it
    at the configured run length, so faster code keeps the same percentile;
    a run with fewer samples falls back down the ladder.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in (declared,) + tuple(p for p in reversed(TAIL_PERCENTILES) if p < declared):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND or pct == TAIL_PERCENTILES[0]:
            break
    return pct, ordered[rank - 1], n - rank


def probe_setup(workload: str, seed: int) -> tuple[float, str | None]:
    """Seconds from spawning a fresh interpreter to its first completed operation."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    report = json.loads(lines[-1])
    return report["done"] - start, report["failure"]


def probe_main(workload: Workload) -> int:
    """Child side of probe_setup; perf_counter is CLOCK_MONOTONIC, shared by both."""
    result = perform(import_cli(), workload.setup_op)
    print(json.dumps({"done": perf_counter(), "failure": result.failure}))
    return 0


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_inputs(workload: Workload) -> None:
    for path, text in workload.files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")


def stdout_digest(results: list[OpResult]) -> str:
    return hashlib.sha256("".join(r.stdout for r in results).encode()).hexdigest()


def measure(name: str, seed: int, seconds: float, trace: bool, limit: int | None = None,
            probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """One benchmark run; returns the info record and the result object."""
    workload = WORKLOADS[name](seed, f"{WORK_DIR}/{name}-s{seed}")
    info: dict = {"workload": name, "seed": seed, "trace": int(trace), "seconds": seconds}
    try:
        write_inputs(workload)
        cli = import_cli()
        rounds = workload.rounds()
        first_round = next(rounds)
        rounds = itertools.chain([first_round], rounds)
        if trace:
            metrics, head, done = traced_run(cli, workload, rounds, seconds, limit, info)
        else:
            start = perf_counter()
            setup_result = perform(cli, workload.setup_op)
            info["inprocess_setup_s"] = perf_counter() - start
            # The probes alternate with slices of the window, so that setup_s
            # samples the host's speed across the whole run, not one moment.
            setup_probes, window, window_s = [], [], 0.0
            for k in range(1, probes + 1):
                setup_probes.append(probe_setup(name, seed))
                part, part_s = run_window(cli, rounds, k * seconds / probes - window_s, limit)
                window += part
                window_s += part_s
            metrics = end_to_end(workload, window, window_s, setup_probes, info)
            head = [setup_result] + window
            done = [OpResult(t, "", failure) for t, failure in setup_probes] + head
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            Path(WORK_DIR).rmdir()

    numpy, scipy = sys.modules["numpy"], sys.modules["scipy"]
    failures = [r.failure for r in done if r.failure]
    head = head[:1 + len(first_round)]
    info.update({
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get(BLAS_VARS[0], "default"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "attempted": len(done),
        "failed": len(failures),
        "failed_ratio": len(failures) / len(done),
        "failures": failures[:5],
        "stdout_sha256": stdout_digest(head),
        "stdout_sha256_ops": len(head),
        "notes": NOTES,
    })
    if not trace:
        metrics["ok_ratio"] = {"value": 1.0 - info["failed_ratio"], "unit": END_TO_END_UNITS["ok_ratio"]}
    result = {"correct": not failures, "attempted": len(done), "failed": len(failures), "metrics": metrics}
    return info, result


def end_to_end(workload: Workload, window: list[OpResult], window_s: float,
               setup_probes: list[tuple[float, str | None]], info: dict) -> dict:
    """Every end-to-end metric but ok_ratio, which needs the whole run's failures."""
    # Latency statistics cover successful operations, unless none succeeded.
    latencies = [r.latency for r in window if not r.failure] or [r.latency for r in window]
    pct, tail, beyond = tail_latency(latencies, workload.tail_percentile)
    setup_samples = [t for t, _ in setup_probes]
    info.update({
        "ops": len(window),
        "window_s": window_s,
        "setup_probes_s": setup_samples,
        "latency_samples": len(latencies),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
    })
    values = {
        "ops_per_s": len(window) / window_s,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }
    return {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}


def traced_run(cli, workload: Workload, rounds, seconds: float, limit: int | None,
               info: dict) -> tuple[dict, list[OpResult], list[OpResult]]:
    """Trace the set-up op and ``trace_rounds`` rounds, then time an untraced window.

    Returns the per-layer metrics, the traced results and every result.
    """
    from tracer import Tracer, metric_specs

    tracer = Tracer()
    tracer.install()
    traced = [perform(cli, workload.setup_op)]
    traced_s = 0.0
    for op in [op for _ in range(workload.trace_rounds) for op in next(rounds)][:limit]:
        tracer.op = len(traced)
        start = perf_counter()
        traced.append(perform(cli, op))
        traced_s += perf_counter() - start
    tracer.uninstall()
    window, window_s = run_window(cli, rounds, seconds / 2, limit)

    values = tracer.summary()
    values["trace.ops_per_s_traced"] = (len(traced) - 1) / traced_s
    values["trace.ops_per_s_untraced"] = len(window) / window_s
    values["trace.overhead_ratio"] = 1.0 - values["trace.ops_per_s_traced"] / values["trace.ops_per_s_untraced"]
    Path(OUT_DIR).mkdir(exist_ok=True)
    spans_file = f"{OUT_DIR}/spans-{workload.name}-s{info['seed']}.jsonl"
    tracer.write(spans_file)
    info.update({
        "traced_ops": len(traced),
        "ops": len(window),
        "window_s": window_s,
        "spans": len(tracer.spans),
        "spans_file": spans_file,
        "self_s_leaders_setup_op": tracer.leaders(steady=False),
        "self_s_leaders_steady": tracer.leaders(steady=True),
    })
    metrics = {n: {"value": values[n], "unit": unit} for n, unit, _ in metric_specs()}
    return metrics, traced, traced + window


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def validate(result: dict, expected: dict[str, str], positive: bool) -> list[str]:
    """Schema problems of a result line against {metric name: unit}."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted is not a positive integer")
    if not isinstance(result.get("failed"), int):
        problems.append("failed is not an integer")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if set(entry) != {"value", "unit"} or entry["unit"] != expected.get(name):
            problems.append(f"{name}: bad entry {entry}")
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif positive and value <= 0:
            problems.append(f"{name}: end-to-end value {value!r} is not positive")
    return problems


def smoke() -> int:
    """A few operations per workload in both modes, checked against BENCHMARK.json."""
    spec = load_spec()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if set(WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        problems.append("workload names differ from BENCHMARK.json")
    for name in WORKLOADS:
        for trace in (False, True):
            _, result = measure(name, seed=0, seconds=0.0, trace=trace, limit=2, probes=1)
            expected = per_layer if trace else end_to_end
            found = validate(result, expected, positive=not trace)
            if not result["correct"]:
                found.append(f"{result['failed']} failed operations")
            problems += [f"{name} trace={int(trace)}: {p}" for p in found]
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def self_test() -> int:
    """Every reference check passes real output and rejects a perturbed copy."""
    cli = import_cli()
    commands = {}
    for cls in WORKLOADS.values():
        workload = cls(0, f"{WORK_DIR}/self-test-{cls.name}")
        write_inputs(workload)
        for op in [workload.setup_op] + next(workload.rounds()):
            for command in op.commands:
                commands.setdefault(command.check, command)
    problems = []
    try:
        for kind, command in sorted(commands.items()):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(command.argv))
            payload = json.loads(out.getvalue()) if code == 0 else None
            if payload is None or checks.check(kind, payload, command.params):
                problems.append(f"{kind}: real output rejected")
                continue
            checks.PERTURBATIONS[kind](payload)
            if checks.check(kind, payload, command.params) is None:
                problems.append(f"{kind}: perturbed output accepted")
        bad = Op("bad", (Command(("contextuality", "bsv", "--cutoff", "-1"), "pm", (0.5, -1)),))
        if perform(cli, bad).failure is None:
            problems.append("a nonzero exit was not counted as a failure")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print(f"self-test: {len(commands)} checks, " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def print_table(info: dict, result: dict) -> None:
    print(f"{info['workload']} seed={info['seed']} trace={info['trace']} "
          f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    for name, entry in result["metrics"].items():
        print(f"  {name:44s} {entry['value']:>14.6g} {entry['unit']}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the run as a JSON line to this file")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--self-test", dest="self_test", action="store_true")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    cap_blas_threads()
    try:
        require_sources()
        if args.smoke:
            return smoke()
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        if args.probe:
            return probe_main(WORKLOADS[args.workload](args.seed, f"{WORK_DIR}/{args.workload}-s{args.seed}"))
        info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"info": info, "result": result}) + "\n")
    print_table(info, result)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
