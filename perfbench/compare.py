"""Summarise one set of benchmark runs, compare two, or collect two.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]
    python3 perfbench/compare.py --collect BASE_CHECKOUT CHANGE_CHECKOUT OUT_DIR

A set is a file (or a directory of ``*.jsonl`` files) of records written by
``run.py --record``.  ``--collect`` makes two such sets: for each workload
and seeds 0-9 it runs the base checkout and the change checkout back to back,
alternating which side runs first, writes ``OUT_DIR/base.jsonl`` and
``OUT_DIR/change.jsonl`` and compares them.  Run in pairs like this, a
drift of the host's speed hits both sides of a pair alike.

For each workload and end-to-end metric it prints the median and quartiles
of every set.  With two sets it pairs runs by seed (by order when the seeds
differ), takes each pair's loss ratio (change over base for a metric where
lower is better, base over change otherwise; above 1 is worse) and applies
this rule:

* better: the change failed no more operations than the base, and either
  every change run beats every base run, or the change wins at least 9 of
  10 pairs (ties count for neither) and the medians differ by more than the
  base's interquartile distance;
* worse: the median loss ratio exceeds 1 by more than the metric's bound
  in BENCHMARK.json;
* unresolved: otherwise, when the loss ratios' interquartile distance over
  their median exceeds the bound;
* within bound: otherwise.

Then it lists, per workload, the per-layer ``self_s`` medians from traced
runs with their deltas, largest first, so a reader sees which layer moved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
# Seeds per workload that --collect runs on each side.
PAIRS = 10
TOP_LAYERS = 12


def load(path: str) -> list[dict]:
    files = sorted(Path(path).glob("*.jsonl")) if Path(path).is_dir() else [Path(path)]
    records = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            records += [json.loads(line) for line in handle if line.strip()]
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def runs(records: list[dict], workload: str, trace: int) -> list[dict]:
    return [r for r in records if r["info"]["workload"] == workload and r["info"]["trace"] == trace]


def values(selected: list[dict], metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in selected if metric in r["result"]["metrics"]]


def pair(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["info"]["seed"]: r for r in change}
    if {r["info"]["seed"] for r in base} == set(by_seed):
        return [(r, by_seed[r["info"]["seed"]]) for r in base]
    return list(zip(base, change))


def loss_ratio(spec: dict, base: float, change: float) -> float:
    """How much worse the change reads than the base; 1.0 is equal."""
    if base == change:
        return 1.0
    worse, better = (change, base) if spec["better"] == "lower" else (base, change)
    return worse / better if better else float("inf")


def verdict(spec: dict, base: list[float], change: list[float], pairs: list[tuple[float, float]],
            failed: tuple[int, int] = (0, 0)) -> str:
    """The rule in the module docstring; ``failed`` counts (base, change) failures."""
    sign = 1.0 if spec["better"] == "higher" else -1.0  # sign * value grows when better
    q1, med_a, q3 = quartiles(base)
    med_b = statistics.median(change)
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if failed[1] <= failed[0]:
        if min(sign * v for v in change) > max(sign * v for v in base):
            return "better"
        if pairs and wins >= WIN_SHARE * len(pairs) and abs(med_b - med_a) > q3 - q1:
            return "better"
    if not pairs:
        return "unresolved"
    r1, ratio, r3 = quartiles([loss_ratio(spec, a, b) for a, b in pairs])
    if ratio - 1.0 > spec["bound"]:
        return "worse"
    if (r3 - r1) / ratio > spec["bound"]:
        return "unresolved"
    return "within bound"


def describe(vals: list[float]) -> str:
    q1, med, q3 = quartiles(vals)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return f"{med:12.5g} [{q1:.5g}, {q3:.5g}] spread {spread:6.3f} n={len(vals)}"


def failed(selected: list[dict]) -> int:
    return sum(r["result"]["failed"] for r in selected)


def compare(paths: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = [load(path) for path in paths]
    for workload in [w["name"] for w in spec["workloads"]]:
        selected = [runs(records, workload, 0) for records in sets]
        if not any(selected):
            continue
        print(f"== {workload}  failed operations: {' vs '.join(str(failed(s)) for s in selected)}")
        paired = pair(*selected) if len(selected) == 2 else []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            found = [values(s, name) for s in selected]
            if not all(found):
                continue
            line = f"  {name:16s} {metric['unit']:6s} bound {metric['bound']:.2g}  base {describe(found[0])}"
            if len(found) == 2:
                pairs = [(values([a], name)[0], values([b], name)[0]) for a, b in paired]
                ratios = quartiles([loss_ratio(metric, a, b) for a, b in pairs]) if pairs else (0.0,) * 3
                outcome = verdict(metric, *found, pairs, (failed(selected[0]), failed(selected[1])))
                line += (f"\n  {'':31s} change {describe(found[1])}"
                         f"\n  {'':31s} loss ratio {ratios[1]:.4f} [{ratios[0]:.4f}, {ratios[2]:.4f}]"
                         f" over {len(pairs)} pairs -> {outcome}")
            print(line)
        tails = [sorted({r["info"].get("tail_percentile") for r in s}) for s in selected]
        print(f"  tail percentile used: {' vs '.join(str(t) for t in tails)}")
        digests = [{r["info"]["seed"]: r["info"]["stdout_sha256"] for r in s} for s in selected]
        if len(digests) == 2:
            shared = set(digests[0]) & set(digests[1])
            same = sum(digests[0][seed] == digests[1][seed] for seed in shared)
            print(f"  stdout sha256 identical on {same}/{len(shared)} shared seeds")
        layer_report(workload, [runs(records, workload, 1) for records in sets])
    return 0


def collect(base: str, change: str, out: str) -> int:
    """Run both checkouts seed by seed, alternating which runs first, then compare."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    folder = Path(out).resolve()
    folder.mkdir(parents=True, exist_ok=True)
    sides = [(Path(base).resolve(), folder / "base.jsonl"), (Path(change).resolve(), folder / "change.jsonl")]
    jobs = [(w["name"], seed, 0) for w in spec["workloads"] for seed in range(PAIRS)]
    jobs += [(w["name"], 0, 1) for w in spec["workloads"]]
    for index, (workload, seed, trace) in enumerate(jobs):
        for checkout, record in sides if index % 2 == 0 else sides[::-1]:
            print(f"collect: {workload} seed {seed} trace {trace} in {checkout}", file=sys.stderr)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace), "--record", str(record)],
                cwd=checkout, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                return proc.returncode
    return compare([str(record) for _, record in sides])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="+", help="one or two sets, or with --collect: base, change, out")
    parser.add_argument("--collect", action="store_true", help="run two checkouts in alternating pairs first")
    args = parser.parse_args(argv)
    if args.collect:
        if len(args.paths) != 3:
            parser.error("--collect takes BASE_CHECKOUT CHANGE_CHECKOUT OUT_DIR")
        return collect(*args.paths)
    if len(args.paths) > 2:
        parser.error("give one or two sets")
    return compare(args.paths)


def layer_report(workload: str, traced: list[list[dict]]) -> None:
    if not all(traced):
        return
    names = [n for n in traced[0][0]["result"]["metrics"] if n.endswith(".self_s")]
    rows = []
    for name in names:
        medians = [statistics.median(values(s, name)) for s in traced if values(s, name)]
        delta = medians[-1] - medians[0]
        rows.append((abs(delta) if len(medians) == 2 else medians[0], name, medians))
    rows.sort(reverse=True)
    print(f"  per-layer self_s medians ({' -> '.join(str(len(s)) for s in traced)} traced runs)")
    for _, name, medians in rows[:TOP_LAYERS]:
        text = " -> ".join(f"{m:.4f}" for m in medians)
        if len(medians) == 2:
            text += f"  ({medians[1] - medians[0]:+.4f} s)"
        print(f"    {name:42s} {text}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
