"""State generators: squeezed-vacuum and GHZ-like bosonic states, qubit
embeddings, random separable products, and the diagonal-subspace probability.

Truncation policy: states with more support than the cutoff holds (the
two-beam squeezed vacuum, and a ``bghz`` state cut below twice its top
order) carry an explicit ``norm_deficit`` equal to the mass beyond the
cutoff, instead of being renormalized.  Downstream verdicts widen their
tolerance by that deficit, which keeps truncation error accounting
honest.  The triple-emission generator state has no
untruncated limit to measure a deficit against, so it carries none and
its output is labelled non-authoritative.

Input files: both formats, triple-emission coefficients and amplitude
states, are read here, by one line reader and one parse of the trailing
``real,imag`` pair.  Every refusal raises ``InputFileError`` naming the
file and, where there is one, the line.  Files and ``bghz`` weights
share one norm refusal: a squared norm outside the normal doubles.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .fock import (
    MAX_DIM_ENV,
    MultiBeamState,
    amplitude_cap,
    build_space,
    check_stored,
    expi_tridiagonal,
    occupations,
    product_state,
)

QUBIT_NORM_ATOL = 1e-10


class InputFileError(ValueError):
    """Unreadable or malformed input file; the message names the file and any offending line."""


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
    check_stored(space.dim)
    t = math.tanh(params.gamma)
    # cosh(gamma)**2 overflows above gamma ~355, where every weight underflows anyway.
    inv_cosh2 = 1.0 / math.cosh(params.gamma) ** 2 if params.gamma < 355 else 0.0
    weights = [t**n * inv_cosh2 for n in range(params.cutoff + 1)]
    # With x = tanh^2(gamma) the n-pair mass is (n+1) x^n (1-x)^2, and its
    # tail past n = cutoff sums to x^(c+1) ((c+2) - (c+1) x) in closed form.
    x, c = t * t, params.cutoff
    # Beam 1 in |n-m, m> pairs with beam 2 in the swapped |m, n-m>, which
    # sits n_a - n_b positions further on.
    beam1 = np.arange(space.dim)
    n_a, n_b = occupations(beam1)
    signs = np.where(n_b % 2, -1.0, 1.0)
    return MultiBeamState.from_support(
        (space, space),
        (beam1, beam1 + n_a - n_b),
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


def _check_squared_norm(square: float, what: str) -> None:
    """Refuse a squared norm outside the normal doubles: "the squared norm of
    ``what`` overflows (or underflows) a double"."""
    if not sys.float_info.min <= square < math.inf:
        flow = "underflows" if square < 1 else "overflows"
        raise ValueError(f"the squared norm of {what} {flow} a double")


def _normalized(values, what: str) -> tuple[np.ndarray, float]:
    """``values`` scaled to unit norm, and that norm; see _check_squared_norm."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(values))
    _check_squared_norm(norm * norm, what)
    return np.divide(values, norm), norm


def bghz_state(coeffs: BghzCoefficients, cutoff: int) -> MultiBeamState:
    """Three-beam state assembled from triple-emission coefficients.

    The (p, m) term populates |p,m; p,m; p,m> with weight
    C_p C_m (p! m!)^{3/2} (the repeated-creation normalization), so every
    ket in the support shows the same occupation pair in all three beams.
    It stores one amplitude per representable (p, m) term, p + m <= cutoff,
    at most (cutoff+1)(cutoff+2)/2.  When the cutoff keeps every term, the
    stored weights are normalized among themselves.  Otherwise they are
    divided by the norm over every (p, m), which factorizes as
    sum_p |C_p|^2 p!^3, and the share the cutoff drops is stored as
    ``norm_deficit``.  Weights whose squared norm leaves the normal doubles
    are refused: the stored ones, or the untruncated ones when terms drop.
    """
    space = build_space(cutoff)
    top = max(k for k, c in enumerate(coeffs.entries) if c != 0)
    orders = [k for k, c in enumerate(coeffs.entries) if c != 0 and k <= cutoff]
    # For each order p, the orders m with p + m <= cutoff form a prefix of ``orders``.
    partners = [bisect.bisect_right(orders, cutoff - p) for p in orders]
    check_stored(sum(partners))
    kets, values = [], []
    for p, count in zip(orders, partners):
        for m in orders[:count]:
            kets.append(space.position(p, m))
            try:
                weight = (math.factorial(p) * math.factorial(m)) ** 1.5
            except OverflowError:  # past the largest double; the norm check refuses it
                weight = math.inf
            values.append(coeffs.entries[p] * coeffs.entries[m] * weight)
    if not values:
        raise ValueError("no coefficient term is representable at this cutoff")
    if 2 * top <= cutoff:
        unit, _ = _normalized(values, f"the weights C_p C_m (p! m!)^(3/2) at cutoff {cutoff}")
        return MultiBeamState.from_support((space,) * 3, (kets,) * 3, unit)
    try:
        norm = sum(abs(c) ** 2 * math.factorial(p) ** 3 for p, c in enumerate(coeffs.entries))
    except OverflowError:  # past the largest double
        norm = math.inf
    _check_squared_norm(norm * norm, "the untruncated weights C_p C_m (p! m!)^(3/2)")
    unit = np.divide(values, norm)
    deficit = max(0.0, 1.0 - float(np.vdot(unit, unit).real))
    return MultiBeamState.from_support((space,) * 3, (kets,) * 3, unit, norm_deficit=deficit)


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
    flat = np.flatnonzero(amplitudes)
    # The bits of amplitude k, first party first, pick |1,0> (position 1) for 0
    # and |0,1> (position 2) for 1.
    positions = [1 + (flat >> (n_parties - 1 - party)) % 2 for party in range(n_parties)]
    return MultiBeamState.from_support((build_space(1),) * n_parties, positions, amplitudes[flat])


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
    return MultiBeamState.from_support((space,), [np.arange(support)], draw / np.linalg.norm(draw))


def random_separable(seed: int, n_beams: int, cutoff: int, degree: int) -> MultiBeamState:
    """Product of independently drawn beam states; deterministic under seed."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    beams = [random_beam_state(rng, cutoff, degree) for _ in range(n_beams)]
    return product_state(beams)


def bghz_generator_state(gamma: float, cutoff: int) -> MultiBeamState:
    """Non-authoritative stand-in: exp(gamma (T_a + T_b - h.c.)) |vacuum>.

    T_a and T_b raise all three a modes (resp. b modes) together, so the
    propagator never leaves the span of |p,m; p,m; p,m> kets.  They act on
    disjoint modes and commute, so that ket's amplitude is v_p v_m, with
    v = exp(gamma (R - R^T)) e_0 on one ladder, R[p+1, p] = (p+1)^1.5.  The
    ladder exponential is exp(iH) for the tridiagonal H = -i gamma (R - R^T),
    from one eigendecomposition.  Each ladder is cut at n = cutoff // 2
    triples, so every ket lies in the cutoff space: an odd cutoff gives the
    state of the even cutoff below it, and cutoffs 0 and 1 give the vacuum
    at every gain.  The triple-emission exponential has no convergent
    untruncated limit, so the result depends on n; use it for qualitative
    curves only.  The (n+1)^2 stored amplitudes are capped by the
    ``BNL_MAX_DIM`` environment variable.  Every eigenvalue of H is at most
    2 |gamma| n^1.5 in modulus (Gershgorin), so a gain for which that bound
    overflows a double is refused before any entry is formed.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    space = build_space(cutoff)
    n = cutoff // 2
    check_stored((n + 1) ** 2)
    if not math.isfinite(abs(float(gamma)) * (2 * n**1.5)):
        raise ValueError(
            f"gain {gamma} at cutoff {cutoff} is refused: the ladder eigenvalue bound "
            f"2 |gamma| n^1.5 with n = {n} overflows a double"
        )
    p = np.arange(n + 1)
    ladder = expi_tridiagonal(np.zeros(n + 1), p[1:] ** 1.5, 1j * gamma)[:, 0]
    # |p,m> sits at T(T+1)/2 + m with T = p + m.
    total = p[:, None] + p
    i = (total * (total + 1) // 2 + p).ravel()
    return MultiBeamState.from_support((space,) * 3, (i,) * 3, np.outer(ladder, ladder).ravel())


def _lines(path) -> Iterator[tuple[int, list[str]]]:
    """Each nonblank line of a UTF-8 text file: its number and its comma-separated fields."""
    with open_text(path, "r", InputFileError) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if line:
                yield lineno, line.split(",")


def _parse_row(path, lineno: int, fields: list[str], what: str) -> tuple[list[int], complex]:
    """The leading integer fields of a line, then its trailing finite `real,imag` pair."""
    try:
        integers = [int(field) for field in fields[:-2]]
        value = complex(float(fields[-2]), float(fields[-1]))
    except ValueError as exc:
        raise InputFileError(f"{path}:{lineno}: {exc}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise InputFileError(f"{path}:{lineno}: {what} '{fields[-2]},{fields[-1]}' is not finite")
    return integers, value


def load_bghz_coefficients(path) -> BghzCoefficients:
    """Read a coefficient file: one `m,real,imag` line per order, m consecutive from 0.

    The line count is checked against ``BNL_MAX_DIM`` as the lines are read.
    """
    cap = amplitude_cap()
    entries: list[complex] = []
    for lineno, fields in _lines(path):
        if len(entries) == cap:
            raise ValueError(f"{path}: more than {cap} coefficient lines, the {MAX_DIM_ENV} cap")
        if len(fields) != 3:
            raise InputFileError(f"{path}:{lineno}: expected 'm,real,imag', got {','.join(fields)!r}")
        (m,), value = _parse_row(path, lineno, fields, "coefficient")
        if m != len(entries):
            raise InputFileError(f"{path}:{lineno}: order {m} out of sequence, expected {len(entries)}")
        entries.append(value)
    if not entries:
        raise InputFileError(f"{path}: no coefficient lines found")
    try:
        return BghzCoefficients(tuple(entries))
    except ValueError as exc:  # all coefficients zero; each line is already finite
        raise InputFileError(f"{path}: {exc}") from exc


def load_state_file(path) -> MultiBeamState:
    """Parse amplitude lines `n_a1,n_b1,n_a2,n_b2[,n_a3,n_b3],real,imag`.

    The state is normalized on load; a deficit above 1e-6 triggers a
    warning on stderr.  Duplicate occupation rows, inconsistent beam
    counts and non-finite amplitudes are parse errors naming the line;
    a squared norm outside the normal doubles, or a joint space whose
    positions exceed int64, is a parse error naming the file.  Each line
    stores one amplitude, so the line count is checked against
    ``BNL_MAX_DIM`` as the lines are read.
    """
    seen: dict[tuple[tuple[int, int], ...], int] = {}  # occupations -> line, in file order
    amplitudes: list[complex] = []
    for lineno, fields in _lines(path):
        if len(fields) not in (6, 8):
            raise InputFileError(
                f"{path}:{lineno}: expected 6 or 8 comma-separated fields, got {len(fields)}"
            )
        beams = len(fields) // 2 - 1
        n_beams = len(next(iter(seen))) if seen else beams
        if beams != n_beams:
            raise InputFileError(f"{path}:{lineno}: {beams}-beam row in a {n_beams}-beam file")
        integers, value = _parse_row(path, lineno, fields, "amplitude")
        if min(integers) < 0:
            raise InputFileError(f"{path}:{lineno}: negative occupation")
        occs = tuple(zip(integers[::2], integers[1::2]))
        if occs in seen:
            raise InputFileError(
                f"{path}:{lineno}: duplicate occupation (first seen on line {seen[occs]})"
            )
        seen[occs] = lineno
        amplitudes.append(value)
        try:
            check_stored(len(amplitudes))
        except ValueError as exc:  # the cap line names the file, as a coefficient file's does
            raise ValueError(f"{path}: {exc}") from None
    if not seen:
        raise InputFileError(f"{path}: no amplitude lines found")
    domain = (build_space(max(n + m for occs in seen for n, m in occs)),) * n_beams
    values = np.array(amplitudes)
    if not values.any():
        raise InputFileError(f"{path}: state has zero norm")
    try:
        unit, norm = _normalized(values, "the amplitudes")
        if abs(1.0 - norm * norm) > 1e-6:
            print(f"warning: {path}: renormalizing, |amplitudes|^2 was {norm * norm!r}", file=sys.stderr)
        positions = [[space.position(*occs[k]) for occs in seen] for k, space in enumerate(domain)]
        return MultiBeamState.from_support(domain, positions, unit)
    except ValueError as exc:  # a squared norm outside the doubles, or positions past int64
        raise InputFileError(f"{path}: {exc}") from exc
