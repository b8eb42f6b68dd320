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
builder, its cutoff-free sign-sector ``Monomial``, and ``g_operator`` is
the sparse form of ``g_monomial`` on a given space.

The dichotomized variants g_{i-} = g_i - (diagonal projector) assign -1
to equal-occupation outcomes and have spectrum {-1, +1}; the standard
Stokes operators are included solely to exhibit, by contrast, that they
fail the anticommutation relation; they are not sign-sector monomials and
are built directly as sparse matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np
import scipy

from .fock import BeamSpace, ComplexOperator, Monomial, check_beam, occupations

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


@dataclass(frozen=True)
class GLabel:
    """Selector for one observable of the set: index 0..3, optionally dichotomized."""

    index: int
    minus_variant: bool = False

    def __post_init__(self) -> None:
        if self.index not in (0, 1, 2, 3):
            raise ValueError(f"index must be one of 0..3, got {self.index}")
        if self.minus_variant and self.index == 0:
            raise ValueError("g0 has no dichotomized variant")


def diagonal_monomial() -> Monomial:
    """sum_n |n,n><n,n|: the s = 0 sector."""
    return Monomial(False, (1, 0, 0))


# g_i as (swap, phases on the sectors s = 0, +1, -1).  g2 = -i sign(Na - Nb) g1
# reads the sign on the swapped target, so its phase on |n_a, n_b> is
# -i sign(n_b - n_a) = i sign(n_a - n_b).
_G_SECTORS = {
    0: (False, (0, 1, 1)), 1: (True, (0, 1, 1)), 2: (True, (0, 1j, -1j)), 3: (False, (0, 1, -1)),
}


def g_monomial(label: GLabel | int) -> Monomial:
    """Observable g_index (or its dichotomized variant) on one beam, as a monomial."""
    if isinstance(label, int):
        label = GLabel(label)
    swap, phase = _G_SECTORS[label.index]
    if label.minus_variant:
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


def g_operator(label: GLabel | int, space: BeamSpace) -> ComplexOperator:
    """Observable g_index (or its dichotomized variant) on one beam, as a sparse operator."""
    return g_monomial(label).operator(space, hermitian=True)


PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def g_operator_compact(index: int, space: BeamSpace) -> ComplexOperator:
    """Alternative construction of g_index as (sr, pr)^dag sigma_index (sr, pr)."""
    if index not in (0, 1, 2, 3):
        raise ValueError(f"index must be one of 0..3, got {index}")
    v = (sr_monomial().operator(space), pr_monomial().operator(space))
    sigma = PAULI[index]
    terms = [
        complex(sigma[k, l]) * (v[k].dagger() @ v[l])
        for k in range(2)
        for l in range(2)
        if sigma[k, l] != 0
    ]
    return sum(terms[1:], terms[0]).with_hermitian_flag()


def stokes_operator(index: int, space: BeamSpace) -> ComplexOperator:
    """Standard two-mode su(2) generators S_i = (1/2) (a,b)^dag sigma_i (a,b).

    These conserve total photon number, so their restriction to the
    truncated sector is exact.  Unlike g1..g3 they do not anticommute.
    """
    if index not in (0, 1, 2, 3):
        raise ValueError(f"index must be one of 0..3, got {index}")
    cols = np.arange(space.dim)
    n_a, n_b = occupations(cols)
    if index in (0, 3):
        rows, values = cols, (n_a + n_b if index == 0 else n_a - n_b) / 2.0
    else:
        # a^dag b / 2 sends |n,m> to |n+1,m-1>, one basis position back; the
        # b^dag a / 2 half is its adjoint.
        rows, values = cols - 1, np.sqrt(n_b * (n_a + 1)) / 2.0 * (1.0 if index == 1 else -1j)
    kept = np.flatnonzero(values)
    matrix = scipy.sparse.csr_matrix(
        (values[kept].astype(complex), (rows[kept], kept)), shape=(space.dim, space.dim)
    )
    if index in (1, 2):
        matrix = (matrix + matrix.getH()).tocsr()
    return ComplexOperator((space,), matrix, hermitian=True)


def pauli_restriction(space: BeamSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each g_i restricted to span{|1,0>, |0,1>}, with |1,0> as the first basis vector.

    On that subspace the restrictions equal the 2x2 identity and Pauli
    matrices exactly.
    """
    if space.cutoff < 1:
        raise ValueError("the one-photon sector needs cutoff >= 1")
    return tuple(g_operator(i, space).block(1) for i in range(4))


def block_eigenvalues(op: ComplexOperator) -> np.ndarray:
    """Eigenvalues of a Hermitian single-beam operator, solved per photon-number block.

    The g and Stokes operators conserve total photon number, so a dense
    eigensolve of each small block is exact and scales to large cutoffs.
    """
    values: list[np.ndarray] = []
    for total in range(op.domain[0].cutoff + 1):
        block = op.block(total)
        if abs(block - block.conj().T).max() > HERMITIAN_BLOCK_ATOL:
            raise ValueError("block eigensolve expects a Hermitian operator")
        values.append(np.linalg.eigvalsh(block))
    return np.sort(np.concatenate(values))


def spectrum_deviation(op: ComplexOperator, targets: Iterable[float] = (-1.0, 0.0, 1.0)) -> float:
    """Largest distance of any eigenvalue of a one-beam operator from the target spectrum."""
    eigenvalues = block_eigenvalues(op)
    targets = np.asarray(tuple(targets))
    return float(np.abs(eigenvalues[:, None] - targets[None, :]).min(axis=1).max())


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

    Failures are reported in the residual table, never raised.  A space
    above the ``BNL_MAX_DIM`` cap is refused before any operator is built.
    """
    if construction not in ("direct", "compact"):
        raise ValueError(f"unknown construction {construction!r}")
    check_beam(space)
    direct = [g_operator(i, space) for i in range(4)]
    compact = [g_operator_compact(i, space) for i in range(4)]
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
        details[f"commutator_{i}{j}"] = comm.max_abs()
        details[f"anticommutator_{i}{j}"] = anti.max_abs()
        details[f"product_{i}{j}"] = product.max_abs()
    max_comm, max_anti, max_prod = (
        max(details[f"{kind}_{i}{j}"] for i, j in pairs)
        for kind in ("commutator", "anticommutator", "product")
    )

    identity_residuals = {
        "g2_equals_minus_i_g3_g1": (g[2] - (-1j) * prod[3, 1]).max_abs(),
    }
    for i in range(4):
        identity_residuals[f"g0_commutes_g{i}"] = (prod[0, i] - prod[i, 0]).max_abs()
        identity_residuals[f"construction_cross_check_g{i}"] = (
            direct[i] - compact[i]
        ).max_abs()

    max_dev = max(spectrum_deviation(gi) for gi in g)

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
