"""Seeded operation streams for the three benchmark workloads.

An operation is one or more ``bnl`` CLI invocations that a closed-loop
client issues back to back; each invocation carries the name of the
reference check its output must pass.  A stream is a fixed set-up
operation followed by rounds.  Every round visits each operation kind of
its workload exactly once, in a seeded order, so whole rounds keep the mix
of cheap and costly operations identical from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

# Gains are drawn from a 1000-point grid over (0, 1.2], the README sweep's
# range; four decimals keep argv, JSON echo and reference bit-identical.
GAMMA_STEP = 0.0012
GAMMA_POINTS = 1000


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: str
    params: tuple


@dataclass(frozen=True)
class Op:
    label: str
    commands: tuple[Command, ...]


def _gamma(rng: random.Random, lo: int = 1, hi: int = GAMMA_POINTS) -> float:
    return round(rng.randint(lo, hi) * GAMMA_STEP, 4)


class Workload:
    """Base stream: subclasses draw files, the set-up op and one round."""

    name = ""
    why = ""
    # Rounds traced after the set-up op in a traced run.
    trace_rounds = 1
    # Highest of 50/75/90/95/99/99.9 that keeps >= 10 latency samples beyond
    # it with twice the sample count a 25 s run gets on a 2-core machine;
    # fixed so that faster code is compared at the same percentile.
    tail_percentile = 50.0

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.files: dict[str, str] = self._files()
        self.setup_op = self._setup_op()

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            yield self._round()

    def _files(self) -> dict[str, str]:
        return {}

    def _setup_op(self) -> Op:
        raise NotImplementedError

    def _round(self) -> list[Op]:
        raise NotImplementedError


class PmSweep(Workload):
    name = "pm_sweep"
    why = "cutoff-40 contextuality sweep: one cached 741,321-dim square, steady state is one huge expectation"
    trace_rounds = 30
    tail_percentile = 95.0
    CUTOFF = 40
    STRATA = 5

    def _op(self, gamma: float) -> Op:
        argv = ("contextuality", "bsv", "--gamma", repr(gamma), "--cutoff", str(self.CUTOFF), "--json")
        return Op("pm", (Command(argv, "pm", (gamma, self.CUTOFF)),))

    def _setup_op(self) -> Op:
        return self._op(_gamma(self.rng))

    def _round(self) -> list[Op]:
        width = GAMMA_POINTS // self.STRATA
        ops = [self._op(_gamma(self.rng, k * width + 1, (k + 1) * width)) for k in range(self.STRATA)]
        self.rng.shuffle(ops)
        return ops


class CutoffLadder(Workload):
    name = "cutoff_ladder"
    why = "four-command report over 25 cutoffs against an 8-entry square cache, so construction dominates"
    trace_rounds = 1
    tail_percentile = 75.0
    SETUP_CUTOFF = 20
    # Size of the program's square cache (lru_cache(maxsize=8) in bnl.indicators).
    CACHE_SIZE = 8
    # Rounds walk cutoffs 8..32 in this cycle: consecutive entries differ by
    # 7 (mod 25), so small and large squares alternate, every cutoff recurs
    # only after 24 others (each square request misses the cache), and
    # every round does the same work in the same order up to rotation.
    CYCLE = tuple(8 + 7 * k % 25 for k in range(25))

    def _op(self, gamma: float, cutoff: int) -> Op:
        params = (gamma, cutoff)
        bsv = ("bsv", "--gamma", repr(gamma), "--cutoff", str(cutoff))
        return Op(
            f"ladder-c{cutoff}",
            (
                Command(("contextuality",) + bsv + ("--json",), "pm", params),
                Command(("entanglement", "ns-family") + bsv, "ns", params),
                Command(("entanglement", "gram") + bsv, "gram", params),
                Command(("verify-algebra", "--cutoff", str(cutoff)), "algebra", (cutoff,)),
            ),
        )

    def _setup_op(self) -> Op:
        # Start the cycle where the set-up cutoff is at least CACHE_SIZE ops away.
        n = len(self.CYCLE)
        at = self.CYCLE.index(self.SETUP_CUTOFF)
        self._start = (at + 1 + self.rng.randrange(n - self.CACHE_SIZE)) % n
        return self._op(_gamma(self.rng), self.SETUP_CUTOFF)

    def _round(self) -> list[Op]:
        cutoffs = self.CYCLE[self._start:] + self.CYCLE[:self._start]
        return [self._op(_gamma(self.rng), cutoff) for cutoff in cutoffs]


class SeparabilityScan(Workload):
    name = "separability_scan"
    why = "tiny separable and triple-emission states whose operators are rebuilt per call, so fixed costs dominate"
    trace_rounds = 10
    tail_percentile = 99.0
    WITNESSES = ("ghz3", "singlet", "phi-plus")
    CUTOFFS = (4, 5, 6)
    N_FILES = 8
    TERMS = 3

    def _files(self) -> dict[str, str]:
        self.coeffs: list[tuple[str, list[complex]]] = []
        files = {}
        for index in range(self.N_FILES):
            path = f"{self.workdir}/coeffs-{index}.csv"
            entries = [
                complex(round(self.rng.uniform(-1, 1), 6), round(self.rng.uniform(-1, 1), 6))
                for _ in range(self.TERMS)
            ]
            files[path] = "".join(f"{m},{c.real!r},{c.imag!r}\n" for m, c in enumerate(entries))
            self.coeffs.append((path, entries))
        return files

    def _separable(self, witness: str, cutoff: int) -> Op:
        argv = (
            "entanglement", "witness", "separable",
            "--seed", str(self.rng.randrange(1_000_000)),
            "--witness", witness, "--cutoff", str(cutoff),
        )
        return Op(f"separable-{witness}-c{cutoff}", (Command(argv, "separable", (witness,)),))

    def _bghz(self, argv: tuple[str, ...], check: str) -> Op:
        path, entries = self.coeffs[self.rng.randrange(self.N_FILES)]
        # The CLI's bghz default cutoff, 2 * max_order, keeps every term.
        cutoff = 2 * (len(entries) - 1)
        return Op(check, (Command(argv + ("--coeffs", path), check, (entries, cutoff)),))

    def _setup_op(self) -> Op:
        return self._separable("ghz3", 5)

    def _round(self) -> list[Op]:
        ops = [self._separable(w, c) for w in self.WITNESSES for c in self.CUTOFFS]
        ops.append(self._bghz(("bell", "bghz"), "mermin"))
        ops.append(self._bghz(("entanglement", "witness", "bghz"), "bghz_witness"))
        self.rng.shuffle(ops)
        return ops


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PmSweep, CutoffLadder, SeparabilityScan)
}
