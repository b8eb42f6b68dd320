"""State generators: squeezed-vacuum and GHZ-like bosonic states, qubit
embeddings, random separable products, and the diagonal-subspace probability.

Truncation policy: states with analytically infinite support (the two-beam
squeezed vacuum) carry an explicit ``norm_deficit`` equal to the analytic
tail mass beyond the cutoff, instead of being renormalized.  Downstream
verdicts widen their tolerance by that deficit, which keeps truncation
error accounting honest.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TextIO

import numpy as np
import scipy.linalg

from .fock import MultiBeamState, build_space, joint_index, product_state

QUBIT_NORM_ATOL = 1e-10

# Cap on the reduced dimension handed to the dense matrix exponential.
MAX_DIM_ENV = "BNL_MAX_DIM"
DEFAULT_MAX_DIM = 10_000


class CoefficientFileError(ValueError):
    """Malformed coefficient file; the message names the offending line."""


def open_text(path, mode: str, error: type[Exception]) -> TextIO:
    """Open UTF-8 text (bad bytes read as U+FFFD); ``error`` names the path the OS refused."""
    try:
        return open(path, mode, encoding="utf-8", errors="replace")
    except OSError as exc:
        raise error(f"{path}: {exc.strerror}") from exc


@dataclass(frozen=True)
class BsvParams:
    """Amplification gain and per-beam photon cutoff for the squeezed vacuum."""

    gamma: float
    cutoff: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")


@dataclass(frozen=True)
class BghzCoefficients:
    """Complex weights C_0..C_M of the triple-emission expansion."""

    entries: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("coefficient list is empty")
        if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in self.entries):
            raise ValueError("coefficients must be finite")
        if all(c == 0 for c in self.entries):
            raise ValueError("all coefficients are zero")

    @property
    def max_order(self) -> int:
        return len(self.entries) - 1


@dataclass(frozen=True)
class EnsembleState:
    """Convex mixture of pure multi-beam states."""

    members: tuple[tuple[float, MultiBeamState], ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        weights = [w for w, _ in self.members]
        if any(w <= 0 for w in weights):
            raise ValueError("ensemble weights must be positive")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"ensemble weights sum to {sum(weights)!r}, expected 1")
        domains = {state.domain for _, state in self.members}
        if len(domains) != 1:
            raise ValueError("ensemble members live on different domains")

    @property
    def domain(self):
        return self.members[0][1].domain


def bsv_state(params: BsvParams) -> MultiBeamState:
    """Two-beam bright squeezed vacuum at gain ``gamma``.

    The n-photon-pairs component is an alternating-sign superposition

        sum_m (-1)^m |(n-m)_a1, m_b1; m_a2, (n-m)_b2>

    weighted by tanh^n(gamma)/cosh^2(gamma); the analytic tail mass of the
    components beyond the cutoff is stored as ``norm_deficit``.
    """
    space = build_space(params.cutoff)
    dim = space.dim
    amps = np.zeros(dim * dim, dtype=complex)
    t = math.tanh(params.gamma)
    # cosh(gamma)**2 overflows above gamma ~355, where every weight underflows anyway.
    inv_cosh2 = 1.0 / math.cosh(params.gamma) ** 2 if params.gamma < 355 else 0.0
    weights = [t**n * inv_cosh2 for n in range(params.cutoff + 1)]
    kept = sum((n + 1) * weight * weight for n, weight in enumerate(weights))
    # Beam 1 in |n-m, m> pairs with beam 2 in the swapped |m, n-m>.
    n_a, n_b = space.occupations
    signs = np.where(n_b % 2, -1.0, 1.0)
    amps[np.arange(dim) * dim + space.swap_index] = signs * np.take(weights, n_a + n_b)
    deficit = max(0.0, 1.0 - kept)
    return MultiBeamState((space, space), amps, norm_deficit=deficit)


def prob_diagonal(state: MultiBeamState) -> float:
    """Probability that at least one beam shows equal occupations.

    The diagonal kets are split by the first beam k with n_a == n_b: the
    beams before k are off the diagonal, beam k is on it and the beams after
    k are free.  These slices of the amplitudes, one per beam, are disjoint
    and together hold every diagonal ket, so their weights add up to the
    probability, and no array the size of the joint space is allocated.

    Computed on the truncated amplitudes; the unresolved tail can only add
    mass, so the true value lies in [value, value + norm_deficit] (see
    prob_diagonal_bounds).
    """
    psi = state.amplitudes.reshape([space.dim for space in state.domain])
    off_before: list[np.ndarray] = []
    total = 0.0
    for space in state.domain:
        block = psi[np.ix_(*off_before, space.diagonal_mask)]
        total += float(np.sum(np.abs(block) ** 2))
        off_before.append(~space.diagonal_mask)
    return total


def prob_diagonal_bounds(state: MultiBeamState) -> tuple[float, float]:
    """Interval [value, value + norm_deficit] bracketing the untruncated probability."""
    value = prob_diagonal(state)
    return value, min(1.0, value + state.norm_deficit)


def bghz_state(coeffs: BghzCoefficients, cutoff: int) -> MultiBeamState:
    """Three-beam state assembled from triple-emission coefficients.

    The (p, m) term populates |p,m; p,m; p,m> with weight
    C_p C_m (p! m!)^{3/2} (the repeated-creation normalization), so every
    ket in the support shows the same occupation pair in all three beams.
    The assembled vector is normalized on the truncated space; the
    structural identities probed downstream hold for any normalized state
    of this shape, independent of the coefficient values.
    """
    space = build_space(cutoff)
    dim = space.dim
    amps = np.zeros(dim**3, dtype=complex)
    for p, cp in enumerate(coeffs.entries):
        for m, cm in enumerate(coeffs.entries):
            if p + m > cutoff or cp == 0 or cm == 0:
                continue
            weight = cp * cm * (math.factorial(p) * math.factorial(m)) ** 1.5
            i = space.position(p, m)
            amps[(i * dim + i) * dim + i] += weight
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise ValueError("no coefficient term is representable at this cutoff")
    return MultiBeamState((space,) * 3, amps / norm)


def psi_nm_state(n: int, m: int) -> MultiBeamState:
    """Balanced superposition (|n,m;n,m;n,m> + |m,n;m,n;m,n>)/sqrt(2), at cutoff n + m."""
    if n == m:
        raise ValueError("n == m gives a diagonal ket, not a two-term superposition")
    space = build_space(n + m)
    domain = (space,) * 3
    amps = np.zeros(space.dim**3, dtype=complex)
    amps[joint_index(domain, [(n, m)] * 3)] = 1 / math.sqrt(2)
    amps[joint_index(domain, [(m, n)] * 3)] = 1 / math.sqrt(2)
    return MultiBeamState(domain, amps)


def qubit_embed(amplitudes) -> MultiBeamState:
    """Embed a 2- or 3-qubit state, one photon per beam: |0> -> |1,0>, |1> -> |0,1>.

    Expects 4 amplitudes (two parties) or 8 (three parties), normalized to
    within 1e-10.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape == (4,):
        n_parties = 2
    elif amplitudes.shape == (8,):
        n_parties = 3
    else:
        raise ValueError(f"expected 4 or 8 amplitudes, got shape {amplitudes.shape}")
    norm = np.linalg.norm(amplitudes)
    if abs(norm - 1.0) > QUBIT_NORM_ATOL:
        raise ValueError(f"qubit amplitudes have norm {norm!r}, expected 1")
    space = build_space(1)
    domain = (space,) * n_parties
    amps = np.zeros(space.dim**n_parties, dtype=complex)
    for flat, value in enumerate(amplitudes):
        if value == 0:
            continue
        bits = [(flat >> (n_parties - 1 - party)) & 1 for party in range(n_parties)]
        occs = [(0, 1) if bit else (1, 0) for bit in bits]
        amps[joint_index(domain, occs)] = value
    return MultiBeamState(domain, amps)


BELL_STATES = {
    "singlet": np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
}

GHZ3 = np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex) / math.sqrt(2)


def random_beam_state(rng: np.random.Generator, cutoff: int, degree: int) -> MultiBeamState:
    """One-beam state with complex-Gaussian amplitudes on occupations of total <= degree."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree > cutoff:
        raise ValueError(f"degree {degree} exceeds cutoff {cutoff}")
    space = build_space(cutoff)
    amps = np.zeros(space.dim, dtype=complex)
    # The occupations of total <= degree are the basis prefix ending at |0, degree>.
    support = space.position(0, degree) + 1
    draw = rng.standard_normal(support) + 1j * rng.standard_normal(support)
    amps[:support] = draw / np.linalg.norm(draw)
    return MultiBeamState((space,), amps)


def random_separable(seed: int, n_beams: int, cutoff: int, degree: int) -> MultiBeamState:
    """Product of independently drawn beam states; deterministic under seed."""
    rng = np.random.default_rng(seed)
    beams = [random_beam_state(rng, cutoff, degree) for _ in range(n_beams)]
    return product_state(beams)


def bghz_generator_state(
    gamma: float,
    cutoff: int,
    relative_sign: float = 1.0,
) -> MultiBeamState:
    """Non-authoritative stand-in: exp(gamma (T_a + s T_b - h.c.)) |vacuum>.

    T_a and T_b raise all three a modes (resp. b modes) together, so the
    propagator never leaves the span of |p,m; p,m; p,m> kets and the dense
    exponential is taken on that reduced subspace, which equals the
    full-space truncated exponential restricted to it.  The result depends
    on where the sector is cut, so it is truncation-sensitive; use it for
    qualitative curves only.  ``relative_sign`` sets the sign s of the
    b-triple term.  The reduced dimension is capped by the ``BNL_MAX_DIM``
    environment variable.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if relative_sign not in (1.0, -1.0):
        raise ValueError("relative_sign must be +1 or -1")
    space = build_space(cutoff)
    dim = space.dim
    raw_max_dim = os.environ.get(MAX_DIM_ENV, str(DEFAULT_MAX_DIM))
    try:
        max_dim = int(raw_max_dim)
    except ValueError:
        raise ValueError(f"{MAX_DIM_ENV} must be an integer, got {raw_max_dim!r}") from None
    if dim > max_dim:
        raise ValueError(
            f"reduced dimension {dim} exceeds the dense-exponential cap {max_dim}"
        )
    raising = np.zeros((dim, dim))
    n_a, n_b = space.occupations
    for col, (p, m) in enumerate(zip(n_a.tolist(), n_b.tolist())):
        if p + m < cutoff:
            raising[space.position(p + 1, m), col] += (p + 1) ** 1.5
            raising[space.position(p, m + 1), col] += relative_sign * (m + 1) ** 1.5
    generator = gamma * (raising - raising.T)
    reduced = scipy.linalg.expm(generator)[:, space.position(0, 0)]
    reduced = reduced / np.linalg.norm(reduced)
    amps = np.zeros(dim**3, dtype=complex)
    for i, value in enumerate(reduced):
        amps[(i * dim + i) * dim + i] = value
    return MultiBeamState((space,) * 3, amps)


def load_bghz_coefficients(path) -> BghzCoefficients:
    """Read a coefficient file: one `m,real,imag` line per order, m consecutive from 0."""
    entries: list[complex] = []
    with open_text(path, "r", CoefficientFileError) as handle:
        expected = 0
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise CoefficientFileError(
                    f"{path}:{lineno}: expected 'm,real,imag', got {line!r}"
                )
            try:
                m = int(parts[0])
                real = float(parts[1])
                imag = float(parts[2])
            except ValueError as exc:
                raise CoefficientFileError(f"{path}:{lineno}: {exc}") from exc
            if m != expected:
                raise CoefficientFileError(
                    f"{path}:{lineno}: order {m} out of sequence, expected {expected}"
                )
            entries.append(complex(real, imag))
            expected += 1
    if not entries:
        raise CoefficientFileError(f"{path}: no coefficient lines found")
    return BghzCoefficients(tuple(entries))
