"""In-memory span recording around the public functions of each ``bnl`` layer.

The modules bind imported names at import time (``bnl.cli`` calls its own
``bsv_state``, ``bnl.indicators`` its own ``expectation``), so a function
is wrapped under every name in every ``bnl`` module that refers to it.
Each call becomes a span: name, start, end, parent span and operation id.
A span's self time is its duration minus the durations of its children;
the client is one thread, so children never overlap and no span waits.
"""

from __future__ import annotations

import functools
import json
import sys
import tracemalloc
from time import perf_counter

# (layer module, public function) pairs, in the order metrics are listed.
TRACED = (
    ("fock", "build_space"),
    ("fock", "tensor"),
    ("fock", "expectation"),
    ("fock", "apply"),
    ("gpauli", "g_operator"),
    ("gpauli", "g_minus"),
    ("gpauli", "verify_algebra"),
    ("states", "bsv_state"),
    ("states", "prob_diagonal"),
    ("states", "random_separable"),
    ("states", "bghz_state"),
    ("states", "load_bghz_coefficients"),
    ("indicators", "build_pm_square"),
    ("indicators", "contextuality_verdict"),
    ("indicators", "ns_condition_family"),
    ("indicators", "gram_certificate"),
    ("indicators", "map_witness"),
    ("indicators", "witness_expectation"),
    ("indicators", "mermin_bell_value"),
    ("cli", "main"),
)
PM_BUILD = "indicators.build_pm_square"
BUILD_SPACE = "fock.build_space"
MIB = float(1 << 20)

# Counters measured at single layers besides calls, self time and errors.
EXTRA_METRICS = (
    ("fock.build_space.hit_ratio", "ratio", "higher"),
    ("fock.tensor.nnz_out", "count", "lower"),
    ("fock.expectation.bytes_computed", "B", "lower"),
    ("indicators.build_pm_square.hit_ratio", "ratio", "higher"),
    ("indicators.build_pm_square.peak_mib", "MiB", "lower"),
    ("trace.ops_per_s_traced", "1/s", "higher"),
    ("trace.ops_per_s_untraced", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    specs = []
    for module, func in TRACED:
        specs.append((f"{module}.{func}.calls", "count", "lower"))
        specs.append((f"{module}.{func}.self_s", "s", "lower"))
        specs.append((f"{module}.{func}.errors", "count", "lower"))
    return specs + list(EXTRA_METRICS)


def _expectation_bytes(args) -> int:
    """Bytes one CSR mat-vec plus vdot touches, computed from nnz and dim.

    Values, column indices and gathered input entries per nonzero, the row
    pointer, then writing the image and reading both vectors in the vdot.
    """
    matrix = args[0].matrix
    nnz, dim = matrix.nnz, matrix.shape[0]
    return (
        nnz * (16 + matrix.indices.itemsize + 16)
        + (dim + 1) * matrix.indptr.itemsize
        + 3 * 16 * dim
    )


class Tracer:
    """Wraps the traced functions while installed and keeps every span."""

    def __init__(self) -> None:
        # [name, start, end, parent index or None, op id, raised]
        self.spans: list[list] = []
        self.op = 0
        self.nnz_out = 0
        self.bytes_computed = 0
        self.pm_peak = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._space_cache = None
        self._space_start = (0, 0)
        self._space_counts = (0, 0)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "bnl" or n.startswith("bnl.")]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules.get(f"bnl.{module_name}"), func_name, None)
            if original is None:
                continue
            name = f"{module_name}.{func_name}"
            if name == BUILD_SPACE and hasattr(original, "cache_info"):
                self._space_cache = original
                info = original.cache_info()
                self._space_start = (info.hits, info.misses)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        if self._space_cache is not None:
            info = self._space_cache.cache_info()
            hits0, misses0 = self._space_start
            self._space_counts = (info.hits - hits0, info.misses - misses0)
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, original):
        tracer = self
        measure_memory = name == PM_BUILD

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.op, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            # Allocation tracing slows the call it watches, so it runs only in
            # the set-up op (op 0), the cold build whose peak drives setup_s.
            started_memory = measure_memory and tracer.op == 0 and not tracemalloc.is_tracing()
            if started_memory:
                tracemalloc.start()
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
                if started_memory:
                    tracer.pm_peak = max(tracer.pm_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if name == "fock.tensor":
                tracer.nnz_out += result.matrix.nnz
            elif name == "fock.expectation":
                tracer.bytes_computed += _expectation_bytes(args)
            return result

        return wrapper

    def _child_time(self) -> tuple[list[float], list[bool]]:
        child_time = [0.0] * len(self.spans)
        has_child = [False] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
                has_child[parent] = True
        return child_time, has_child

    def summary(self) -> dict[str, float]:
        """Per-layer totals over every span recorded so far (after uninstall)."""
        child_time, has_child = self._child_time()
        values: dict[str, float] = {}
        for module, func in TRACED:
            prefix = f"{module}.{func}"
            values[f"{prefix}.calls"] = 0
            values[f"{prefix}.self_s"] = 0.0
            values[f"{prefix}.errors"] = 0
        pm_calls = pm_hits = 0
        for index, (name, start, end, _, _, raised) in enumerate(self.spans):
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += end - start - child_time[index]
            values[f"{name}.errors"] += int(raised)
            if name == PM_BUILD:
                pm_calls += 1
                pm_hits += not has_child[index]
        space_hits, space_misses = self._space_counts
        values["fock.build_space.hit_ratio"] = _ratio(space_hits, space_hits + space_misses)
        values["fock.tensor.nnz_out"] = self.nnz_out
        values["fock.expectation.bytes_computed"] = self.bytes_computed
        # A square request that constructs nothing below it was served from cache.
        values["indicators.build_pm_square.hit_ratio"] = _ratio(pm_hits, pm_calls)
        values["indicators.build_pm_square.peak_mib"] = self.pm_peak / MIB
        return values

    def leaders(self, steady: bool, top: int = 5) -> list[list]:
        """Largest self times, [name, seconds], over the set-up op (op 0) or the rest."""
        child_time, _ = self._child_time()
        totals: dict[str, float] = {}
        for index, (name, start, end, _, op, _) in enumerate(self.spans):
            if (op > 0) == steady:
                totals[name] = totals.get(name, 0.0) + end - start - child_time[index]
        return [[n, t] for n, t in sorted(totals.items(), key=lambda item: -item[1])[:top]]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op, raised) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "raised": raised,
                }) + "\n")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
