"""Sparse reference operators: the independent oracle for the kernel.

``bnl`` evaluates every indicator with ``expectation_sums`` on per-beam
monomials.  The helpers here build the same observables as explicit sparse
operators on the joint space with ``tensor()``, so tests can compare the
two evaluation paths.  ``ComplexOperator`` has no algebra of its own, so
products and sums are taken on the scipy matrices and wrapped again only
to reach ``tensor`` or ``expectation``.  ``stokes_operator`` builds the
Stokes operators from the occupations of each basis ket, the oracle for
the closed-form blocks of ``gpauli.stokes_block``.  ``verify_algebra``
runs the algebra suite on the sparse operators over the whole space, both
constructions included, the oracle for ``gpauli.verify_algebra``, which
evaluates it on two orbit blocks.  ``gram_oracle`` builds the Gram
certificate from its definition, the overlaps of the half-swap /
half-projector products V_r psi, the oracle for
``indicators.gram_certificate``, which reads it from the correlations.
``flat_position`` is the test's own first-beam-major layout of a product
ket, the oracle for how ``MultiBeamState`` ravels per-beam positions.
``monomial_product`` and ``monomial_adjoint`` compose sign-sector
monomials, so the kernel can be fed products of them; their sparse forms
are compared against products of the factors' sparse forms.
"""

import itertools
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from bnl.fock import (
    BeamSpace,
    ComplexOperator,
    DomainMismatchError,
    Monomial,
    MultiBeamState,
    check_beam,
    occupations,
    tensor,
)
from bnl.gpauli import (
    HERMITIAN_BLOCK_ATOL,
    PAULI,
    SPECTRUM_ATOL,
    AlgebraReport,
    _eps,
    g_operator,
    pr_monomial,
    sr_monomial,
)
from bnl.indicators import PM_CELL_LABELS, PM_LINES


# Index of the sector -s for each phase index of sector s, in the order 0, +1, -1.
_MIRROR = np.array([0, 2, 1])


def monomial_product(left: Monomial, right: Monomial) -> Monomial:
    """The monomial left @ right.  A swapping right factor hands the left one the mirrored sector."""
    phase = left.phase[_MIRROR] if right.swap else left.phase
    return Monomial(left.swap != right.swap, phase * right.phase)


def monomial_adjoint(monomial: Monomial) -> Monomial:
    """The adjoint: conjugate phases, each read from the mirrored sector when the monomial swaps."""
    phase = monomial.phase.conj()
    return Monomial(monomial.swap, phase[_MIRROR] if monomial.swap else phase)


def gram_oracle(state: MultiBeamState) -> np.ndarray:
    """Entry (r, c) is <V_c psi, V_r psi>, V_r the sparse sr or pr on each beam as chosen by r's bits."""
    v = [(sr_monomial().operator(space), pr_monomial().operator(space)) for space in state.domain]
    vectors = [
        tensor([ops[bit] for ops, bit in zip(v, choice)]).matrix @ state.amplitudes
        for choice in itertools.product((0, 1), repeat=state.n_beams)
    ]
    return np.array([[np.vdot(vc, vr) for vc in vectors] for vr in vectors])


def _joint(domain) -> tuple[tuple[BeamSpace, ...], int]:
    domain = (domain,) if isinstance(domain, BeamSpace) else tuple(domain)
    return domain, int(np.prod([space.dim for space in domain]))


def flat_position(domain, occupations) -> int:
    """Position of the product ket |occ_1; occ_2; ...> in the joint basis, first beam major."""
    flat = 0
    for space, occ in zip(domain, occupations):
        flat = flat * space.dim + space.position(*occ)
    return flat


def identity_operator(domain) -> ComplexOperator:
    domain, dim = _joint(domain)
    return ComplexOperator(domain, sp.identity(dim, dtype=complex, format="csr"), hermitian=True)


def zero_operator(domain) -> ComplexOperator:
    domain, dim = _joint(domain)
    return ComplexOperator(domain, sp.csr_matrix((dim, dim), dtype=complex), hermitian=True)


def map_witness(spec, space: BeamSpace) -> ComplexOperator:
    """Boson image of the witness: sum_s w_s  g_{s_1} x ... x g_{s_n}."""
    total = sum(
        float(weight) * tensor([g_operator(s, space) for s in key]).matrix
        for key, weight in sorted(spec.coefficients.items())
    )
    return ComplexOperator((space,) * spec.n_parties, total.tocsr(), hermitian=True)


def pm_cells(space: BeamSpace, labels=PM_CELL_LABELS) -> dict:
    """The nine two-beam cell operators g_p1 x g_p2 of the square (or of another cell table)."""
    g = [g_operator(i, space) for i in range(4)]
    return {key: tensor([g[p1], g[p2]]) for key, (p1, p2) in labels.items()}


def pm_line_products(space: BeamSpace, labels=PM_CELL_LABELS, lines=PM_LINES) -> dict:
    """Each context's product of its three cells as a sparse matrix, keyed by line name."""
    cells = {key: cell.matrix for key, cell in pm_cells(space, labels).items()}
    return {
        name: cells[line[0]] @ cells[line[1]] @ cells[line[2]] for name, line, _ in lines
    }


def pm_operator(space: BeamSpace) -> ComplexOperator:
    """The square expression: signed sum of the six line products."""
    products = pm_line_products(space)
    total = sum(sign * products[name] for name, _, sign in PM_LINES)
    return ComplexOperator((space, space), total.tocsr(), hermitian=True)


def stokes_operator(index: int, space: BeamSpace) -> ComplexOperator:
    """S_i = (1/2) (a,b)^dag sigma_i (a,b) on one beam, built ket by ket from the occupations."""
    cols = np.arange(space.dim)
    n_a, n_b = occupations(cols)
    if index in (0, 3):
        rows, values = cols, (n_a + n_b if index == 0 else n_a - n_b) / 2.0
    else:
        # a^dag b / 2 sends |n,m> to |n+1,m-1>, one basis position back; the
        # b^dag a / 2 half is its adjoint.
        rows, values = cols - 1, np.sqrt(n_b * (n_a + 1)) / 2.0 * (1.0 if index == 1 else -1j)
    kept = np.flatnonzero(values)
    matrix = sp.csr_matrix(
        (values[kept].astype(complex), (rows[kept], kept)), shape=(space.dim, space.dim)
    )
    if index in (1, 2):
        matrix = (matrix + matrix.getH()).tocsr()
    return ComplexOperator((space,), matrix, hermitian=True)


def operator_block(op: ComplexOperator, total: int) -> np.ndarray:
    """Dense submatrix on the fixed total-photon block (single-beam only)."""
    if len(op.domain) != 1:
        raise DomainMismatchError("block extraction is defined for single-beam operators")
    indices = op.domain[0].block_indices(total)
    rows = slice(indices.start, indices.stop)
    return op.matrix[rows, rows].toarray()


def g_operator_compact(index: int, space: BeamSpace) -> ComplexOperator:
    """Alternative construction of g_index as (sr, pr)^dag sigma_index (sr, pr)."""
    if index not in (0, 1, 2, 3):
        raise ValueError(f"index must be one of 0..3, got {index}")
    v = (sr_monomial().operator(space).matrix, pr_monomial().operator(space).matrix)
    sigma = PAULI[index]
    matrix = sum(
        complex(sigma[k, l]) * (v[k].conj().T @ v[l])
        for k in range(2)
        for l in range(2)
        if sigma[k, l] != 0
    )
    return ComplexOperator((space,), matrix.tocsr(), hermitian=True)


def block_eigenvalues(op: ComplexOperator) -> np.ndarray:
    """Eigenvalues of a Hermitian single-beam operator, solved per photon-number block.

    The g and Stokes operators conserve total photon number, so a dense
    eigensolve of each small block is exact and scales to large cutoffs.
    """
    values: list[np.ndarray] = []
    for total in range(op.domain[0].cutoff + 1):
        block = operator_block(op, total)
        if abs(block - block.conj().T).max() > HERMITIAN_BLOCK_ATOL:
            raise ValueError("block eigensolve expects a Hermitian operator")
        values.append(np.linalg.eigvalsh(block))
    return np.sort(np.concatenate(values))


def spectrum_deviation(op: ComplexOperator, targets: Iterable[float] = (-1.0, 0.0, 1.0)) -> float:
    """Largest distance of any eigenvalue of a one-beam operator from the target spectrum."""
    eigenvalues = block_eigenvalues(op)
    targets = np.asarray(tuple(targets))
    return float(np.abs(eigenvalues[:, None] - targets[None, :]).min(axis=1).max())


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
    chosen = direct if construction == "direct" else compact
    g = [op.matrix for op in chosen]
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
        details[f"commutator_{i}{j}"] = float(abs(comm).max())
        details[f"anticommutator_{i}{j}"] = float(abs(anti).max())
        details[f"product_{i}{j}"] = float(abs(product).max())
    max_comm, max_anti, max_prod = (
        max(details[f"{kind}_{i}{j}"] for i, j in pairs)
        for kind in ("commutator", "anticommutator", "product")
    )

    identity_residuals = {
        "g2_equals_minus_i_g3_g1": float(abs(g[2] - (-1j) * prod[3, 1]).max()),
    }
    for i in range(4):
        identity_residuals[f"g0_commutes_g{i}"] = float(abs(prod[0, i] - prod[i, 0]).max())
        identity_residuals[f"construction_cross_check_g{i}"] = float(
            abs(direct[i].matrix - compact[i].matrix).max()
        )

    max_dev = max(spectrum_deviation(op) for op in chosen)

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
