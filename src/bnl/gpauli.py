"""Pauli-like observables for two bosonic modes.

The operator set g0..g3 acts on a single beam and mirrors the qubit Pauli
algebra while staying bounded on the whole truncated Fock sector:

    g0 = 1 - sum_n |n,n><n,n|          (projector off the equal-occupation states)
    g1 = sum_{n != m} |n,m><m,n|       (mode swap off the diagonal)
    g2 = -i sign(Na - Nb) g1
    g3 = sign(Na - Nb)

with sign(0) = 0, so every g_i annihilates the equal-occupation
("diagonal") states.  The set satisfies the Pauli product rule
g_i g_j = delta_ij g0 + i eps_ijk g_k and has spectrum {-1, 0, +1}.

Two independent constructions are provided: the direct occupation-basis
definition above (canonical) and the quadratic form

    g_i = (sr, pr)^dag sigma_i (sr, pr)

built from the half-swap ``sr`` and half-projector ``pr``.  Both must
agree entrywise; verify_algebra cross-checks them along with the full
commutation, anticommutation and spectrum suite.

Each observable, sr and pr included, either keeps a ket or swaps its two
occupations, with a phase set by sign(Na - Nb) alone.  So each has one
builder, its cutoff-free sign-sector ``Monomial``: the verdicts evaluate
it at a state's stored kets and verify_algebra reads its dense
photon-number blocks.  ``g_operator`` is its sparse form on a given
space, kept only as the construction the acceptance suite compares
against.

The dichotomized variants g_{i-} = g_i - (diagonal projector), selected by
``dichotomized=True``, assign -1 to equal-occupation outcomes and have
spectrum {-1, +1}.  The standard Stokes operators are included solely to
exhibit, by contrast, that they fail the anticommutation relation and
rotate covariantly under a mode mixer.  They are not sign-sector
monomials; ``stokes_block`` gives each photon-number block in closed
form, which is all the mode-rotation contrast reads.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .fock import BeamSpace, ComplexOperator, CrossCheckError, Monomial, check_beam

# Entrywise tolerance for the algebra identities (products of exact 0/±1/±i
# entries, so residuals are genuinely zero in floating point).
ALGEBRA_ATOL = 1e-12
# Tolerance on eigenvalues relative to the target spectrum {-1, 0, +1}.
SPECTRUM_ATOL = 1e-10
# Hermiticity slack accepted by the per-block eigensolver.
HERMITIAN_BLOCK_ATOL = 1e-12


def _eps(i: int, j: int) -> tuple[int, int]:
    """Return (k, sign) with eps_ijk = sign for i, j in 1..3, or (0, 0) when i == j."""
    if i == j:
        return 0, 0
    return 6 - i - j, 1 if (j - i) % 3 == 1 else -1


def diagonal_monomial() -> Monomial:
    """sum_n |n,n><n,n|: the s = 0 sector."""
    return Monomial(False, (1, 0, 0))


# g_i as (swap, phases on the sectors s = 0, +1, -1).  g2 = -i sign(Na - Nb) g1
# reads the sign on the swapped target, so its phase on |n_a, n_b> is
# -i sign(n_b - n_a) = i sign(n_a - n_b).
_G_SECTORS = {
    0: (False, (0, 1, 1)), 1: (True, (0, 1, 1)), 2: (True, (0, 1j, -1j)), 3: (False, (0, 1, -1)),
}


def g_monomial(index: int, dichotomized: bool = False) -> Monomial:
    """Observable g_index, or with ``dichotomized`` g_{index-}, on one beam, as a monomial."""
    if index not in (0, 1, 2, 3):
        raise ValueError(f"index must be one of 0..3, got {index}")
    if dichotomized and index == 0:
        raise ValueError("g0 has no dichotomized variant")
    swap, phase = _G_SECTORS[index]
    if dichotomized:
        # g_i annihilates the diagonal states, the support of the projector,
        # so g_i - projector stays monomial.
        phase = np.subtract(phase, diagonal_monomial().phase)
    return Monomial(swap, phase)


def sr_monomial() -> Monomial:
    """Half swap |m,n> -> |n,m> for m > n, as a monomial."""
    return Monomial(True, (0, 1, 0))


def pr_monomial() -> Monomial:
    """Projector onto the states with more photons in mode b, as a monomial."""
    return Monomial(False, (0, 0, 1))


def g_operator(index: int, space: BeamSpace, dichotomized: bool = False) -> ComplexOperator:
    """``g_monomial(index, dichotomized)`` as a sparse operator on ``space``, the reference form."""
    return g_monomial(index, dichotomized).operator(space, hermitian=True)


PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _compact_forms(sr: np.ndarray, pr: np.ndarray) -> list[np.ndarray]:
    """Every g_i as (sr, pr)^dag sigma_i (sr, pr), from dense blocks of sr and pr.

    ``PAULI`` is read at call time.
    """
    v = (sr, pr)
    products = {kl: v[kl[0]].conj().T @ v[kl[1]] for kl in itertools.product(range(2), repeat=2)}
    return [sum(sigma[kl] * products[kl] for kl in products) for sigma in PAULI]


def stokes_block(index: int, total: int) -> np.ndarray:
    """Block of the Stokes operator S_i = (1/2) (a,b)^dag sigma_i (a,b) on the kets |T-k, k>.

    S_i conserves total photon number, so its blocks are the whole
    operator at every cutoff.  The block is tridiagonal: a^dag b sends
    |T-k, k> to |T-k+1, k-1> with factor sqrt(k (T-k+1)).  Unlike g1..g3
    the S_i do not anticommute.
    """
    if index not in (0, 1, 2, 3):
        raise ValueError(f"index must be one of 0..3, got {index}")
    sigma = PAULI[index]
    k = np.arange(total + 1)
    hop = np.sqrt(k[1:] * (total - k[:-1]))
    return (
        np.diag((sigma[0, 0] * (total - k) + sigma[1, 1] * k) / 2)
        + np.diag(sigma[0, 1] / 2 * hop, 1)
        + np.diag(sigma[1, 0] / 2 * hop, -1)
    )


def pauli_restriction(space: BeamSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each g_i restricted to span{|1,0>, |0,1>}, with |1,0> as the first basis vector.

    On that subspace the restrictions equal the 2x2 identity and Pauli
    matrices exactly.
    """
    if space.cutoff < 1:
        raise ValueError("the one-photon sector needs cutoff >= 1")
    return tuple(g_monomial(i).block(1) for i in range(4))


@dataclass(frozen=True)
class AlgebraReport:
    """Residuals of the operator-algebra suite on one truncated space."""

    cutoff: int
    construction: str
    max_commutator_residual: float
    max_anticommutator_residual: float
    max_product_residual: float
    spectrum_ok: bool
    max_spectrum_deviation: float
    identity_residuals: dict[str, float]
    details: dict[str, float] = field(default_factory=dict)
    atol_identity: float = ALGEBRA_ATOL
    atol_spectrum: float = SPECTRUM_ATOL

    @property
    def passed(self) -> bool:
        worst = max(
            self.max_commutator_residual,
            self.max_anticommutator_residual,
            self.max_product_residual,
            max(self.identity_residuals.values(), default=0.0),
        )
        return worst <= self.atol_identity and self.spectrum_ok

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def orbit_matrix(monomial: Monomial, cutoff: int) -> np.ndarray:
    """Blocks 0 and, from cutoff 1, 1 of ``monomial`` as one matrix on |0,0>, |1,0>, |0,1>.

    A monomial, and so a product of monomials, acts on every orbit
    {|n,m>, |m,n>} (n > m) as on {|1,0>, |0,1>} and on every |n,n> as on
    |0,0>.  Every photon-number block is a direct sum of copies of these
    two, so an entrywise identity or max over products, sums or Kronecker
    products of these matrices holds for the operators on every space,
    exactly.
    """
    matrix = np.zeros((3, 3), dtype=complex)
    matrix[:1, :1], matrix[1:, 1:] = monomial.block(0), monomial.block(1)
    return matrix if cutoff else matrix[:1, :1]


def _max_abs(matrix: np.ndarray) -> float:
    return float(abs(matrix).max())


def _spectrum_deviation(block: np.ndarray) -> float:
    """Largest distance of an eigenvalue of a Hermitian block from {-1, 0, +1}."""
    if _max_abs(block - block.conj().T) > HERMITIAN_BLOCK_ATOL:
        raise CrossCheckError("block eigensolve expects a Hermitian operator")
    eigenvalues = np.linalg.eigvalsh(block)
    return float(np.abs(eigenvalues[:, None] - np.array([-1.0, 0.0, 1.0])).min(axis=1).max())


def verify_algebra(space: BeamSpace, construction: str = "direct") -> AlgebraReport:
    """Check the full operator algebra on one space and report residuals.

    Verified identities (entrywise max norm):
      * [g_i, g_j] = 2i eps_ijk g_k
      * {g_i, g_j} = 2 delta_ij g0
      * g_i g_j = delta_ij g0 + i eps_ijk g_k   (covers g_i^2 = g0)
      * [g0, g_i] = 0
      * g2 = -i g3 g1
      * direct vs quadratic-form construction of every g_i
    plus the eigenvalue check: every g_i spectrum inside {-1, 0, +1}.

    The identities are evaluated on the ``orbit_matrix`` of each g_i, sr
    and pr, so each entrywise max over the space is exact.  The spectrum
    is solved on every photon-number block T = 0..cutoff, which costs
    about sum_T T^3, so a space above the ``BNL_MAX_DIM`` cap is still
    refused.  A failed identity or spectrum is reported in the residual
    table; a non-Hermitian block raises CrossCheckError.
    """
    if construction not in ("direct", "compact"):
        raise ValueError(f"unknown construction {construction!r}")
    check_beam(space)
    monomials = [g_monomial(i) for i in range(4)]
    sr, pr = sr_monomial(), pr_monomial()
    direct = [orbit_matrix(m, space.cutoff) for m in monomials]
    compact = _compact_forms(orbit_matrix(sr, space.cutoff), orbit_matrix(pr, space.cutoff))
    g = direct if construction == "direct" else compact
    prod = {(i, j): g[i] @ g[j] for i, j in itertools.product(range(4), repeat=2)}

    pairs = list(itertools.product((1, 2, 3), repeat=2))
    details: dict[str, float] = {}
    for i, j in pairs:
        k, sign = _eps(i, j)
        comm = prod[i, j] - prod[j, i]
        anti = prod[i, j] + prod[j, i]
        if k:
            comm = comm - (2j * sign) * g[k]
            product = prod[i, j] - (1j * sign) * g[k]
        else:
            anti = anti - 2.0 * g[0]
            product = prod[i, j] - g[0]
        details[f"commutator_{i}{j}"] = _max_abs(comm)
        details[f"anticommutator_{i}{j}"] = _max_abs(anti)
        details[f"product_{i}{j}"] = _max_abs(product)
    max_comm, max_anti, max_prod = (
        max(details[f"{kind}_{i}{j}"] for i, j in pairs)
        for kind in ("commutator", "anticommutator", "product")
    )

    identity_residuals = {
        "g2_equals_minus_i_g3_g1": _max_abs(g[2] - (-1j) * prod[3, 1]),
    }
    for i in range(4):
        identity_residuals[f"g0_commutes_g{i}"] = _max_abs(prod[0, i] - prod[i, 0])
        identity_residuals[f"construction_cross_check_g{i}"] = _max_abs(direct[i] - compact[i])

    totals = range(space.cutoff + 1)
    if construction == "direct":
        spectrum_blocks = ([m.block(t) for m in monomials] for t in totals)
    else:
        spectrum_blocks = (_compact_forms(sr.block(t), pr.block(t)) for t in totals)
    max_dev = max(_spectrum_deviation(b) for blocks in spectrum_blocks for b in blocks)

    return AlgebraReport(
        cutoff=space.cutoff,
        construction=construction,
        max_commutator_residual=max_comm,
        max_anticommutator_residual=max_anti,
        max_product_residual=max_prod,
        spectrum_ok=max_dev <= SPECTRUM_ATOL,
        max_spectrum_deviation=max_dev,
        identity_residuals=identity_residuals,
        details=details,
    )
