"""State generators: squeezed-vacuum and GHZ-like bosonic states, qubit
embeddings, random separable products, and the diagonal-subspace probability.

Truncation policy: states with analytically infinite support (the two-beam
squeezed vacuum) carry an explicit ``norm_deficit`` equal to the analytic
tail mass beyond the cutoff, instead of being renormalized.  Downstream
verdicts widen their tolerance by that deficit, which keeps truncation
error accounting honest.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import TextIO

import numpy as np
import scipy

from .fock import (
    MultiBeamState,
    build_space,
    check_stored,
    joint_index,
    occupations,
    product_state,
)

QUBIT_NORM_ATOL = 1e-10
# Largest 1-norm of the scaled reduced generator that bghz_generator_state
# exponentiates: the sparse exponential takes a number of products
# proportional to it, about 0.1-0.3 ms per unit (up to ~1.5 s at this cap).
GENERATOR_NORM_CAP = 5000.0


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


def bsv_state(params: BsvParams) -> MultiBeamState:
    """Two-beam bright squeezed vacuum at gain ``gamma``.

    The n-photon-pairs component is an alternating-sign superposition

        sum_m (-1)^m |(n-m)_a1, m_b1; m_a2, (n-m)_b2>

    weighted by tanh^n(gamma)/cosh^2(gamma); the analytic tail mass of the
    components beyond the cutoff is stored as ``norm_deficit``.  Each
    beam-1 ket pairs with exactly one beam-2 ket, so the state stores
    (cutoff+1)(cutoff+2)/2 amplitudes.
    """
    space = build_space(params.cutoff)
    dim = space.dim
    check_stored(dim)
    t = math.tanh(params.gamma)
    # cosh(gamma)**2 overflows above gamma ~355, where every weight underflows anyway.
    inv_cosh2 = 1.0 / math.cosh(params.gamma) ** 2 if params.gamma < 355 else 0.0
    weights = [t**n * inv_cosh2 for n in range(params.cutoff + 1)]
    # With x = tanh^2(gamma) the n-pair mass is (n+1) x^n (1-x)^2, and its
    # tail past n = cutoff sums to x^(c+1) ((c+2) - (c+1) x) in closed form.
    x, c = t * t, params.cutoff
    # Beam 1 in |n-m, m> pairs with beam 2 in the swapped |m, n-m>, which
    # sits n_a - n_b positions further on.
    beam1 = np.arange(dim)
    n_a, n_b = occupations(beam1)
    signs = np.where(n_b % 2, -1.0, 1.0)
    return MultiBeamState.from_support(
        (space, space),
        beam1 * dim + beam1 + n_a - n_b,
        signs * np.take(weights, n_a + n_b),
        norm_deficit=x ** (c + 1) * ((c + 2) - (c + 1) * x),
    )


def prob_diagonal(state: MultiBeamState) -> float:
    """Probability that at least one beam shows equal occupations.

    Each beam's occupations are read at the stored coordinates, so only
    the support is visited.

    Computed on the truncated amplitudes; the unresolved tail can only add
    mass, so the true value lies in [value, value + norm_deficit] (see
    prob_diagonal_bounds).
    """
    on_diagonal = np.logical_or.reduce([n_a == n_b for n_a, n_b in state.occupations])
    kept = state.values[on_diagonal]
    return float(np.vdot(kept, kept).real)


def prob_diagonal_bounds(state: MultiBeamState) -> tuple[float, float]:
    """Interval [value, value + norm_deficit] bracketing the untruncated probability."""
    value = prob_diagonal(state)
    return value, min(1.0, value + state.norm_deficit)


def squared_norm_flow(norm: float) -> str | None:
    """How norm**2 leaves the normal doubles, "overflows" or "underflows", or None if it does not."""
    if sys.float_info.min <= norm * norm < math.inf:
        return None
    return "underflows" if norm < 1 else "overflows"


def bghz_state(coeffs: BghzCoefficients, cutoff: int) -> MultiBeamState:
    """Three-beam state assembled from triple-emission coefficients.

    The (p, m) term populates |p,m; p,m; p,m> with weight
    C_p C_m (p! m!)^{3/2} (the repeated-creation normalization), so every
    ket in the support shows the same occupation pair in all three beams.
    The assembled vector is normalized on the truncated space; the
    structural identities probed downstream hold for any normalized state
    of this shape, independent of the coefficient values.  It stores one
    amplitude per representable (p, m) term, at most (cutoff+1)(cutoff+2)/2.
    Weights whose squared norm leaves the normal doubles are refused.
    """
    space = build_space(cutoff)
    dim = space.dim
    orders = [k for k, c in enumerate(coeffs.entries) if c != 0 and k <= cutoff]
    # For each order p, the orders m with p + m <= cutoff form a prefix of ``orders``.
    partners = [bisect.bisect_right(orders, cutoff - p) for p in orders]
    check_stored(sum(partners))
    index, values = [], []
    for p, count in zip(orders, partners):
        for m in orders[:count]:
            i = space.position(p, m)
            index.append((i * dim + i) * dim + i)
            try:
                weight = (math.factorial(p) * math.factorial(m)) ** 1.5
            except OverflowError:  # past the largest double; the norm check refuses it
                weight = math.inf
            values.append(coeffs.entries[p] * coeffs.entries[m] * weight)
    if not values:
        raise ValueError("no coefficient term is representable at this cutoff")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(values)
    flow = squared_norm_flow(norm)
    if flow:
        raise ValueError(
            f"the squared norm of the weights C_p C_m (p! m!)^(3/2) at cutoff {cutoff} {flow} a double"
        )
    return MultiBeamState.from_support((space,) * 3, index, np.divide(values, norm))


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
    domain = (build_space(1),) * n_parties
    flat = np.flatnonzero(amplitudes)
    # The bits of amplitude k, first party first, pick |1,0> for 0 and |0,1> for 1.
    index = [
        joint_index(domain, [((1, 0), (0, 1))[int(bit)] for bit in f"{k:0{n_parties}b}"])
        for k in flat.tolist()
    ]
    return MultiBeamState.from_support(domain, index, amplitudes[flat])


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
    # The occupations of total <= degree are the basis prefix ending at |0, degree>.
    support = space.position(0, degree) + 1
    draw = rng.standard_normal(support) + 1j * rng.standard_normal(support)
    return MultiBeamState.from_support((space,), np.arange(support), draw / np.linalg.norm(draw))


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
    propagator never leaves the span of |p,m; p,m; p,m> kets.  The
    exponential is applied to the vacuum on that reduced subspace, with a
    sparse generator, and equals the full-space truncated exponential
    restricted to it.  The result depends on where the sector is cut, so
    it is truncation-sensitive; use it for qualitative curves only.
    ``relative_sign`` sets the sign s of the b-triple term.  The reduced
    dimension, which is also the number of stored amplitudes, is capped by
    the ``BNL_MAX_DIM`` environment variable, and the generator's 1-norm,
    which sets the cost of the exponential, by GENERATOR_NORM_CAP.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if relative_sign not in (1.0, -1.0):
        raise ValueError("relative_sign must be +1 or -1")
    space = build_space(cutoff)
    dim = space.dim
    check_stored(dim)
    col = np.arange(space.block_indices(cutoff).start)  # every ket below the top block
    p, m = occupations(col)
    # |p+1, m> opens the next block at position m, and |p, m+1> sits one past it.
    row = (p + m + 1) * (p + m + 2) // 2 + m
    raising = scipy.sparse.csr_matrix(
        (
            np.concatenate([(p + 1) ** 1.5, relative_sign * (m + 1) ** 1.5]),
            (np.concatenate([row, row + 1]), np.concatenate([col, col])),
        ),
        shape=(dim, dim),
    )
    generator = gamma * (raising - raising.T)
    norm = float(abs(generator).sum(axis=0).max())
    if norm > GENERATOR_NORM_CAP:
        raise ValueError(
            f"gain {gamma} at cutoff {cutoff} gives a generator of 1-norm {norm:.6g}, "
            f"above the {GENERATOR_NORM_CAP:g} the sparse exponential takes"
        )
    vacuum = np.zeros(dim)
    vacuum[space.position(0, 0)] = 1.0
    reduced = scipy.sparse.linalg.expm_multiply(generator, vacuum)
    reduced = reduced / np.linalg.norm(reduced)
    # Reduced entry i sits on |p,m; p,m; p,m> with i the position of |p,m>.
    i = np.arange(dim)
    return MultiBeamState.from_support((space,) * 3, (i * dim + i) * dim + i, reduced)


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
            if not (math.isfinite(real) and math.isfinite(imag)):
                raise CoefficientFileError(
                    f"{path}:{lineno}: coefficient '{parts[1]},{parts[2]}' is not finite"
                )
            if m != expected:
                raise CoefficientFileError(
                    f"{path}:{lineno}: order {m} out of sequence, expected {expected}"
                )
            entries.append(complex(real, imag))
            expected += 1
    if not entries:
        raise CoefficientFileError(f"{path}: no coefficient lines found")
    try:
        return BghzCoefficients(tuple(entries))
    except ValueError as exc:  # all coefficients zero; each line is already finite
        raise CoefficientFileError(f"{path}: {exc}") from exc
