"""Nonclassicality indicators built from the two-mode Pauli-like observables.

Four quantities are evaluated, each against an explicitly stated classical
bound:

* a Peres-Mermin-square expression for two beams, whose noncontextual
  bound 4 is established by brute-force enumeration, not assumed; its
  line identities and the commutation of each context's cells are
  checked, exactly, on 9x9 products of the cells' orbit matrices;
* linear entanglement witnesses obtained by substituting the bosonic
  observables for qubit Paulis in a real coefficient tensor, nonnegative on
  every separable state;
* a quadratic two-beam entanglement criterion and its nine-member family
  under cyclic index permutations per party;
* a three-beam Mermin expression over the dichotomized observables, with
  local-hidden-variable bound 2 (also re-derived by enumeration).

Each is read from expectations of products of the cutoff-free Hermitian
monomials of ``bnl.gpauli``, one per beam, which one kernel
(``fock.expectations``) evaluates at the state's stored kets only,
whatever the cutoff.  Every quantity but the Mermin expression reads the
correlations T_s = <g_s1 x ... x g_sn> (``correlations``): the square is
its weight times T_00, a witness sum_s w_s T_s, the quadratic family 16
two-beam entries, and the Gram certificate
2^-n sum_s T_s sigma_s1 x ... x sigma_sn.  The Mermin expression sums its
four products of the dichotomized observables with their signs.

All four share one verdict rule (``_verdict``) and one record
(``VerdictRecord``); each member of the quadratic family is its own
record.  The margin is positive when the bound is violated.  A state
truncated with ``norm_deficit`` d moves it by at most d times a spread
derived per quantity: ±sum |w| over the declared product terms of a
linear quantity, each of norm at most 1; [0, w] for the square, whose
six line products sum to w g0 x g0 with w = 6 (``_pm_terms``); and ±24 for a
quadratic member (see NS_SPREAD).  The verdict reads that margin
interval against VERDICT_ATOL, and an interval that straddles it is
reported as inconclusive.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fock import CrossCheckError, DomainMismatchError, MultiBeamState, expectations
from .gpauli import PAULI, g_monomial, orbit_matrix
from .states import BsvParams, bsv_state, prob_diagonal

PM_BOUND = 4.0
LHV_BOUND = 2.0
LINE_COMMUTE_ATOL = 1e-12
SHORTCUT_ATOL = 1e-10
GRAM_PSD_ATOL = 1e-10
GRAM_TRACE_ATOL = 1e-10
VERDICT_ATOL = 1e-10
# Spread of a quadratic family member's margin t1^2 + t2^2 - r^2.  Each pair
# expectation moves by at most d; t1, t2 and r are each a sum of two pairs,
# so each is bounded by 2 and moves by at most 2d, and each square moves by
# at most |a - b| |a + b| <= 2d * 4 = 8d.  The three squares give 24d.
NS_SPREAD = (-24.0, 24.0)
# Verdict labels of the entanglement tests, which detect but never certify separability.
DETECTION_LABELS = ("entangled", "not_detected")
# g0..g3 on one beam; monomials are immutable, so one tuple serves every call.
G_MONOMIALS = tuple(g_monomial(i) for i in range(4))


@dataclass(frozen=True)
class VerdictRecord:
    """One quantity against its classical bound.

    ``margin`` is positive when the bound is violated, and
    [``interval_lo``, ``interval_hi``] is the range it admits for the
    untruncated state.  ``details`` holds fields particular to the
    quantity; they read as attributes, and ``to_dict`` merges them in.
    """

    quantity: str
    value: float
    bound: float
    margin: float
    interval_lo: float
    interval_hi: float
    verdict: str
    details: Mapping = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "value": self.value,
            "bound": self.bound,
            "margin": self.margin,
            "interval": [self.interval_lo, self.interval_hi],
            "verdict": self.verdict,
            **self.details,
        }

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails.  ``details`` itself is
        # excluded, so a record without it (mid-unpickling) cannot recurse.
        if name != "details" and name in self.details:
            return self.details[name]
        raise AttributeError(name)


def _verdict(
    quantity: str,
    value: float,
    bound: float,
    margin: float,
    deficit: float,
    spread: tuple[float, float],
    labels: tuple[str, str] = ("violated", "not_violated"),
    **details,
) -> VerdictRecord:
    """The verdict rule shared by every quantity.

    The margin interval is ``margin + deficit * spread``.  The first label
    applies when it lies wholly above VERDICT_ATOL, the second when it
    lies wholly at or below it; otherwise the verdict is inconclusive.
    """
    margin += 0.0  # a -0.0 margin becomes 0.0, so no verdict prints a signed zero
    lo, hi = (margin + deficit * s for s in spread)
    if lo > VERDICT_ATOL:
        verdict = labels[0]
    elif hi <= VERDICT_ATOL:
        verdict = labels[1]
    else:
        verdict = "inconclusive"
    return VerdictRecord(quantity, value, bound, margin, lo, hi, verdict, details)


def correlations(state: MultiBeamState, keys: Iterable[tuple[int, ...]]) -> dict[tuple[int, ...], float]:
    """T_s = <g_s1 x ... x g_sn> for each index tuple s of ``keys``, and no other: one product of
    Hermitian monomials each, all in one ``expectations`` call, which refuses a key of another
    length than the beam count."""
    keys = list(keys)
    return dict(zip(keys, expectations([tuple(G_MONOMIALS[i] for i in key) for key in keys], state)))


# ---------------------------------------------------------------------------
# Peres-Mermin square
# ---------------------------------------------------------------------------

# Cell (i, j) holds the observable pair (party-1 index, party-2 index).
PM_CELL_LABELS: dict[tuple[int, int], tuple[int, int]] = {
    (1, 1): (3, 0), (2, 1): (0, 3), (3, 1): (3, 3),
    (1, 2): (0, 1), (2, 2): (1, 0), (3, 2): (1, 1),
    (1, 3): (3, 1), (2, 3): (1, 3), (3, 3): (2, 2),
}

# The six measurement contexts (lines).  Each line's cells mutually
# commute; five line products equal +g0 x g0 while the line collecting
# the doubled-index cells {g3g3, g1g1, g2g2} multiplies to -g0 x g0 and
# enters the square expression with the minus sign.
PM_LINES: tuple[tuple[str, tuple[tuple[int, int], ...], int], ...] = (
    ("j1", ((1, 1), (2, 1), (3, 1)), +1),
    ("j2", ((1, 2), (2, 2), (3, 2)), +1),
    ("j3", ((1, 3), (2, 3), (3, 3)), +1),
    ("i1", ((1, 1), (1, 2), (1, 3)), +1),
    ("i2", ((2, 1), (2, 2), (2, 3)), +1),
    ("i3", ((3, 1), (3, 2), (3, 3)), -1),
)


@functools.lru_cache(maxsize=None)
def _pm_terms(cells: tuple, lines: tuple) -> float:
    """The weight w of the signed sum of the six line products, w g0 x g0.

    A transcription guard runs on the cells' 9x9 orbit matrices, the
    Kronecker products of their factors' ``orbit_matrix``: the three cells
    of every context must commute, and each line product must be a real
    multiple of g0 x g0, whose signed scalars sum to w.  Those matrices
    represent the cells on every space, so guard and weight are exact at
    every cutoff, and both are built once per distinct cell table.
    """
    g = [orbit_matrix(m, 1) for m in G_MONOMIALS]
    cell = {key: np.kron(g[p], g[q]) for key, (p, q) in cells}
    worst = max(
        float(np.abs(cell[a] @ cell[b] - cell[b] @ cell[a]).max())
        for _, line, _ in lines
        for a, b in itertools.combinations(line, 2)
    )
    if worst > LINE_COMMUTE_ATOL:
        raise CrossCheckError(
            f"cells within a context fail to commute (residual {worst:.3e})"
        )
    g00 = np.kron(g[0], g[0])
    weight = 0.0
    for name, line, sign in lines:
        product = cell[line[0]] @ cell[line[1]] @ cell[line[2]]
        # g0 x g0 is 1 on |1,0>|1,0>, the fifth of the nine orbit kets.
        scale = float(product[4, 4].real)
        residual = float(np.abs(product - scale * g00).max())
        if residual > LINE_COMMUTE_ATOL:
            raise CrossCheckError(
                f"line {name} multiplies to no multiple of g0 x g0 (residual {residual:.3e})"
            )
        weight += sign * scale
    return weight


def pm_expectation(state: MultiBeamState) -> VerdictRecord:
    """Violated iff the square expression exceeds 4 (equivalently P(diagonal) < 1/3).

    The expression is evaluated as the sum of its six line products, which
    all collapse to +-g0 x g0, as w T_00: the commutation of each
    context's cells and the line identities are checked, exactly, on 9x9
    orbit-matrix products (see _pm_terms).  The
    independently computed shortcut 6(1 - P(diagonal)) must agree with
    that value up to SHORTCUT_ATOL plus w times the tail mass;
    disagreement beyond that raises CrossCheckError.
    """
    if state.n_beams != 2:
        raise DomainMismatchError("the square expression takes a two-beam state")
    weight = _pm_terms(tuple(PM_CELL_LABELS.items()), PM_LINES)
    value = weight * correlations(state, [(0, 0)])[0, 0]
    p_diag = prob_diagonal(state)
    shortcut = 6.0 * (1.0 - p_diag)
    if abs(value - shortcut) > SHORTCUT_ATOL + weight * state.norm_deficit:
        raise CrossCheckError(
            f"operator value {value!r} and shortcut {shortcut!r} disagree"
        )
    return _verdict(
        "peres_mermin_square", value, PM_BOUND, value - PM_BOUND,
        state.norm_deficit, (0.0, weight), p_diag=p_diag,
    )


contextuality_verdict = pm_expectation


def contextuality_threshold(cutoff: int = 40, tol: float = 1e-6) -> float:
    """Locate, by bisection on the gain in [0.5, 1.2], where the verdict flips.

    P(diagonal) for the squeezed vacuum decreases with the gain, so the
    flip is the root of P(d) = 1/3 (closed form: acosh(3)/2).
    """
    def detects(gamma: float) -> bool:
        return prob_diagonal(bsv_state(BsvParams(gamma, cutoff))) < 1.0 / 3.0

    lo, hi = 0.5, 1.2
    if detects(lo) or not detects(hi):
        raise ValueError(f"bracket [{lo}, {hi}] does not straddle the flip")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if detects(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def nchv_expression(assignment: Mapping[tuple[int, int], float]) -> float:
    """The six-context expression for one noncontextual value assignment."""
    total = 0.0
    for _, line, sign in PM_LINES:
        product = 1.0
        for cell in line:
            product *= assignment[cell]
        total += sign * product
    return total


def nchv_bound_oracle(values: Sequence[int] = (-1, 0, 1)) -> int:
    """Brute-force maximum of the square expression over per-cell assignments.

    Enumerates every map cell -> values (3^9 assignments for the default
    trichotomic outcome set) and returns the exact maximum, which equals 4
    for both the dichotomic and the trichotomic outcome sets.
    """
    cells = sorted(PM_CELL_LABELS)
    return int(
        max(
            nchv_expression(dict(zip(cells, combo)))
            for combo in itertools.product(values, repeat=len(cells))
        )
    )


# ---------------------------------------------------------------------------
# Witness mapping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessSpec:
    """Real coefficient tensor w over index tuples in {0,1,2,3}^n."""

    n_parties: int
    coefficients: Mapping[tuple[int, ...], float]

    def __post_init__(self) -> None:
        if self.n_parties not in (2, 3):
            raise ValueError(f"n_parties must be 2 or 3, got {self.n_parties}")
        if not self.coefficients:
            raise ValueError("witness needs at least one coefficient")
        for key, value in self.coefficients.items():
            if len(key) != self.n_parties or any(s not in (0, 1, 2, 3) for s in key):
                raise ValueError(f"bad coefficient index {key!r}")
            if not math.isfinite(value):
                raise ValueError(f"coefficient {key!r} is not finite")
        if all(v == 0 for v in self.coefficients.values()):
            raise ValueError("all witness coefficients are zero")


# Witness tailored to the three-beam GHZ-type states.
GHZ3_WITNESS = WitnessSpec(
    3,
    {
        (0, 0, 0): 1.5,
        (1, 1, 1): -1.0,
        (0, 3, 3): -0.5,
        (3, 0, 3): -0.5,
        (3, 3, 0): -0.5,
    },
)
# Two-party witnesses for the singlet and for phi+ respectively.
SINGLET_WITNESS = WitnessSpec(
    2, {(0, 0): 0.25, (1, 1): 0.25, (2, 2): 0.25, (3, 3): 0.25}
)
PHI_PLUS_WITNESS = WitnessSpec(
    2, {(0, 0): 0.25, (1, 1): -0.25, (2, 2): 0.25, (3, 3): -0.25}
)


def witness_expectation(spec: WitnessSpec, state: MultiBeamState) -> float:
    """Witness value on a pure state.

    The boson image of the witness is sum_s w_s  g_{s_1} x ... x g_{s_n},
    so its value is sum_s w_s T_s over the nonzero weights; it is
    nonnegative on every separable input, so a negative value certifies
    entanglement.
    """
    if len(state.domain) != spec.n_parties:
        raise DomainMismatchError(
            f"witness has {spec.n_parties} parties but {len(state.domain)} spaces were given"
        )
    weights = {key: float(w) for key, w in sorted(spec.coefficients.items()) if w != 0}
    t = correlations(state, weights)
    return sum(w * t[key] for key, w in weights.items())


def witness_verdict(spec: WitnessSpec, state: MultiBeamState) -> VerdictRecord:
    """Entangled iff the margin -value stays above 0 across its truncation interval."""
    weight = sum(abs(w) for w in spec.coefficients.values())
    value = witness_expectation(spec, state)
    return _verdict(
        "witness_expectation", value, 0.0, -value, state.norm_deficit,
        (-weight, weight), labels=DETECTION_LABELS,
    )


# ---------------------------------------------------------------------------
# Gram certificate
# ---------------------------------------------------------------------------


class DegenerateCertificateError(ValueError):
    """The certificate trace vanishes on the truncated state (diagonal subspace or truncation tail)."""


@dataclass(frozen=True, eq=False)
class GramCertificate:
    """Positive-semidefinite overlap matrix certifying the qubit correspondence.

    ``matrix`` collects the overlaps of the 2^n vectors obtained by acting
    with the half-swap / half-projector pair on each beam; as each g_i is
    (sr, pr)^dag sigma_i (sr, pr), it is 2^-n sum_s T_s sigma_s, with trace
    T_0...0.  ``normalized`` is the unit-trace version, a valid n-qubit
    density matrix.  Witness expectations factor through it:
    Tr[W normalized] * trace = <W_boson>.
    """

    matrix: np.ndarray
    trace: float
    normalized: np.ndarray
    min_eigenvalue: float

    def to_dict(self) -> dict:
        return {
            "trace": self.trace,
            "min_eigenvalue": self.min_eigenvalue,
            "matrix_real": self.matrix.real.tolist(),
            "matrix_imag": self.matrix.imag.tolist(),
            "normalized_real": self.normalized.real.tolist(),
            "normalized_imag": self.normalized.imag.tolist(),
        }


@functools.lru_cache(maxsize=None)
def _pauli_basis(n_beams: int) -> np.ndarray:
    """Row k is 2^-n sigma_s1 x ... x sigma_sn, flattened, for the k-th s of
    ``itertools.product(range(4), repeat=n)``."""
    return np.array([
        functools.reduce(np.kron, [PAULI[i] for i in key]).ravel() / 2**n_beams
        for key in itertools.product(range(4), repeat=n_beams)
    ])


def gram_certificate(state: MultiBeamState) -> GramCertificate:
    """Overlap-matrix certificate of a pure multi-beam state, 2^-n sum_s T_s sigma_s.

    Raises DegenerateCertificateError when the trace T_0...0 vanishes,
    naming the norm deficit when mass lies beyond the cutoff; verifies
    the trace against the stored mass off the diagonal subspace,
    |psi|^2 - P(diagonal), and positivity, raising CrossCheckError if either fails.
    """
    t = correlations(state, itertools.product(range(4), repeat=state.n_beams))
    trace = t[(0,) * state.n_beams]
    if trace < 1e-12:
        if state.norm_deficit > 0:
            raise DegenerateCertificateError(
                f"certificate trace is 0 within the cutoff, and norm deficit "
                f"{state.norm_deficit:.6g} of the state's mass lies beyond it"
            )
        raise DegenerateCertificateError(
            "state lies in the diagonal subspace; certificate trace is 0"
        )
    off_diagonal = float(np.vdot(state.values, state.values).real) - prob_diagonal(state)
    if abs(trace - off_diagonal) > GRAM_TRACE_ATOL:
        raise CrossCheckError(
            f"certificate trace {trace!r} deviates from the mass off the diagonal {off_diagonal!r}"
        )
    matrix = (np.array(list(t.values())) @ _pauli_basis(state.n_beams)).reshape(2**state.n_beams, -1)
    eigenvalues = np.linalg.eigvalsh(matrix)
    if eigenvalues[0] < -GRAM_PSD_ATOL:
        raise CrossCheckError(f"certificate not positive semidefinite: {eigenvalues[0]!r}")
    return GramCertificate(
        matrix=matrix,
        trace=trace,
        normalized=matrix / trace,
        min_eigenvalue=float(eigenvalues[0]),
    )


def beam_gram(state: MultiBeamState) -> np.ndarray:
    """2x2 overlap matrix of a single-beam state (the per-factor certificate)."""
    if state.n_beams != 1:
        raise DomainMismatchError("beam_gram takes a one-beam state")
    return gram_certificate(state).matrix


# ---------------------------------------------------------------------------
# Quadratic two-beam criterion family
# ---------------------------------------------------------------------------

CYCLIC_PERMUTATIONS = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


@dataclass(frozen=True)
class NsFamilyReport:
    members: tuple[VerdictRecord, ...]

    @property
    def detected(self) -> bool:
        return any(m.verdict == DETECTION_LABELS[0] for m in self.members)

    def to_dict(self) -> dict:
        return {
            "detected": self.detected,
            "members": [m.to_dict() for m in self.members],
        }


def ns_condition_family(state: MultiBeamState) -> NsFamilyReport:
    """Evaluate the quadratic criterion and its cyclic-permutation family.

    A member with party permutations (p, q) compares

        <g_p1 g_q1 + g_p2 g_q2>^2 + <g_p3 g_0 + g_0 g_q3>^2
            vs  <g_0 g_0 + g_p3 g_q3>^2

    and detects entanglement when the margin left - right stays above 0
    across its truncation interval (see NS_SPREAD).  Detection semantics
    only: absence of detection is not reported as separability.
    """
    if state.n_beams != 2:
        raise DomainMismatchError("the criterion family takes a two-beam state")
    pairs = correlations(state, itertools.product(range(4), repeat=2))
    members = []
    for perm1, perm2 in itertools.product(CYCLIC_PERMUTATIONS, repeat=2):
        t1 = pairs[(perm1[0], perm2[0])] + pairs[(perm1[1], perm2[1])]
        t2 = pairs[(perm1[2], 0)] + pairs[(0, perm2[2])]
        rhs = (pairs[(0, 0)] + pairs[(perm1[2], perm2[2])]) ** 2
        lhs = t1 * t1 + t2 * t2
        members.append(_verdict(
            "ns_condition", lhs, rhs, lhs - rhs, state.norm_deficit, NS_SPREAD,
            labels=DETECTION_LABELS, perm_party1=perm1, perm_party2=perm2,
            lhs_term1=t1 * t1, lhs_term2=t2 * t2,
        ))
    return NsFamilyReport(members=tuple(members))


# ---------------------------------------------------------------------------
# Three-beam Mermin expression
# ---------------------------------------------------------------------------


def _is_pair_symmetric_triple(state: MultiBeamState) -> bool:
    """True when every support ket repeats one occupation pair across all
    three beams and the (p,m) and (m,p) amplitudes coincide."""
    if state.n_beams != 3:
        return False
    space = state.domain[0]
    if any(s != space for s in state.domain):
        return False
    magnitude = np.abs(state.values)
    scale = magnitude.max(initial=0.0) or 1.0
    kept = magnitude > 1e-14
    i1, i2, i3 = (coords[kept] for coords in state.coordinates)
    if not (np.array_equal(i1, i2) and np.array_equal(i2, i3)):
        return False
    n_a, n_b = state.occupations[0]
    mirrored = i1 + n_a[kept] - n_b[kept]
    gap = np.abs(state.values[kept] - state.lookup((mirrored,) * 3))
    return bool(np.all(gap <= 1e-12 * scale))


def mermin_bell_value(state: MultiBeamState, dichotomized: bool = True) -> VerdictRecord:
    """<b1 b1 b1 - b1 b2 b2 - b2 b1 b2 - b2 b2 b1> with b_i per beam.

    With ``dichotomized`` (the default) b_i are the spectrum-{-1,+1}
    variants and the local-hidden-variable bound 2 applies to |value|.
    For states that repeat one occupation pair across all beams with
    symmetric pair amplitudes, the value must equal 4 (1 - d) - 2 P(diagonal)
    (4 (1 - d) - 4 P(diagonal) without dichotomization), d being the norm
    deficit; that expectation is returned in ``details["structural_expected"]``,
    and a value further from it than SHORTCUT_ATOL raises CrossCheckError.
    """
    if state.n_beams != 3:
        raise DomainMismatchError("the Mermin expression takes a three-beam state")
    b = {i: g_monomial(i, dichotomized) for i in (1, 2)}
    signs = {(1, 1, 1): 1.0, (1, 2, 2): -1.0, (2, 1, 2): -1.0, (2, 2, 1): -1.0}
    values = expectations([tuple(b[i] for i in idx) for idx in signs], state)
    value = sum(sign * v for sign, v in zip(signs.values(), values))

    structural = None
    if _is_pair_symmetric_triple(state):
        p_diag = prob_diagonal(state)
        structural = 4.0 * (1.0 - state.norm_deficit) - (2.0 if dichotomized else 4.0) * p_diag
        if abs(value - structural) > SHORTCUT_ATOL:
            raise CrossCheckError(f"Mermin value {value!r} and structural identity {structural!r} disagree")

    weight = sum(abs(sign) for sign in signs.values())
    return _verdict(
        "mermin_expression", value, LHV_BOUND, abs(value) - LHV_BOUND,
        state.norm_deficit, (-weight, weight),
        dichotomized=dichotomized, structural_expected=structural,
    )


def mermin_lhv_value(a: Sequence[int], b: Sequence[int]) -> int:
    """Expression value for one local assignment (a_j, b_j the two outcomes per party)."""
    return (
        a[0] * a[1] * a[2]
        - a[0] * b[1] * b[2]
        - b[0] * a[1] * b[2]
        - b[0] * b[1] * a[2]
    )


def lhv_bound_oracle() -> int:
    """Brute-force maximum over the 2^6 dichotomic local assignments; equals 2."""
    return max(
        mermin_lhv_value(outcomes[:3], outcomes[3:])
        for outcomes in itertools.product((-1, 1), repeat=6)
    )
