"""Tests of the benchmark itself; run with ``python -m pytest perfbench``.

They are outside the tier-1 suite (pyproject's testpaths is ``tests``):
the smoke run issues real CLI operations, including one cutoff-40 square.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import compare
import run
import tracer
from workloads import WORKLOADS, CutoffLadder

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_lists_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [cls.why for cls in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracer.metric_specs()
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_streams_repeat_under_a_seed():
    for cls in WORKLOADS.values():
        first, second = cls(5, "w"), cls(5, "w")
        assert first.files == second.files and first.setup_op == second.setup_op
        assert next(first.rounds()) == next(second.rounds())
        assert next(cls(6, "w").rounds()) != next(cls(5, "w").rounds())


def test_ladder_never_reuses_a_cutoff_within_the_cache_size():
    for seed in range(20):
        workload = CutoffLadder(seed, "w")
        rounds = workload.rounds()
        ops = [workload.setup_op] + next(rounds) + next(rounds) + next(rounds)
        cutoffs = [op.commands[-1].params[0] for op in ops]
        assert sorted(cutoffs[1:26]) == list(range(8, 33))
        for i, cutoff in enumerate(cutoffs):
            assert cutoff not in cutoffs[i + 1:i + 1 + CutoffLadder.CACHE_SIZE]


def test_tail_uses_the_declared_percentile_and_falls_back():
    samples = [float(k) for k in range(1, 1001)]
    assert run.tail_latency(samples, 99.0) == (99.0, 990.0, 10)
    assert run.tail_latency(samples[:500], 99.0) == (95.0, 475.0, 25)
    assert run.tail_latency([1.0, 2.0], 95.0)[0] == 50.0


def _record(workload, seed, value):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    return {"info": {"workload": workload, "seed": seed, "trace": 0, "stdout_sha256": "x",
                     "tail_percentile": 95.0}, "result": {"failed": 0, "metrics": metrics}}


def test_compare_rule():
    spec = {"better": "higher", "bound": 0.1}
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert compare.verdict(spec, base, [v * 1.2 for v in base], list(zip(base, [v * 1.2 for v in base]))) == "better"
    assert compare.verdict(spec, base, [v * 0.8 for v in base], list(zip(base, [v * 0.8 for v in base]))) == "worse"
    assert compare.verdict(spec, base, base, list(zip(base, base))) == "within bound"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0]
    shuffled = noisy[::-1]
    assert compare.verdict(spec, noisy, shuffled, list(zip(noisy, shuffled))) == "unresolved"


def test_compare_pairs_cancel_shared_drift():
    spec = {"better": "lower", "bound": 0.1}
    # The host slows by 30% in phases; each base run and its paired change run share a phase.
    base = [100.0, 130.0, 101.0, 131.0, 99.0, 129.0, 100.0, 130.0, 100.5, 130.5]
    change = [v * 1.02 for v in base]
    assert compare.verdict(spec, base, change, list(zip(base, change))) == "within bound"
    change = [v * 1.15 for v in base]
    assert compare.verdict(spec, base, change, list(zip(base, change))) == "worse"


def test_compare_refuses_better_with_more_failures():
    spec = {"better": "higher", "bound": 0.1}
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    change = [v * 1.2 for v in base]
    assert compare.verdict(spec, base, change, list(zip(base, change)), failed=(0, 1)) != "better"
    assert compare.verdict(spec, base, change, list(zip(base, change)), failed=(1, 1)) == "better"


def test_compare_prints_every_metric(capsys):
    folder = run.ROOT / run.OUT_DIR / "compare-test"
    folder.mkdir(parents=True, exist_ok=True)
    try:
        path = folder / "set.jsonl"
        path.write_text("".join(json.dumps(_record("pm_sweep", s, 1.0 + s / 100)) + "\n" for s in range(4)))
        assert compare.main([str(path), str(path)]) == 0
    finally:
        shutil.rmtree(folder)
    out = capsys.readouterr().out
    for metric in SPEC["end_to_end"]:
        assert metric["name"] in out
    assert "identical on 4/4" in out


def test_self_test_rejects_perturbed_outputs(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    assert run.self_test() == 0


def test_smoke(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    assert run.smoke() == 0


def test_bare_directory_fails_without_a_result():
    bare = run.ROOT / run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pm_sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(run.ROOT / run.WORK_DIR, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
