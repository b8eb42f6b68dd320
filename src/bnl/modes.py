"""Mode-basis rotations on the truncated Fock sector.

A 2x2 unitary u mixing the creation operators of one beam lifts to a
unitary on the Fock sector that conserves total photon number, so the
lift is computed one block T = n_a + n_b at a time.  Write u = exp(iX)
with X Hermitian, read off a closed-form 2x2 logarithm.  On the kets
|T-k, k> the operator N_X = sum X_lk a_l^dag a_k is tridiagonal and
Hermitian, and block T of the lift is exp(i N_X) from one tridiagonal
eigendecomposition (``fock.expi_tridiagonal``), unitary to rounding at
every T.  A number-conserving operator is given by its dense
photon-number blocks O_T, read in closed form from ``Monomial.block`` and
``stokes_block``, and is rotated block by block as U_T^dag O_T U_T, so no
sector-wide operator, lift or product is formed.

The point demonstrated by ``counterexample_report``: the Stokes
operators transform covariantly under such rotations, whereas the
swap/sign observables g1..g3 do not.  The rotated g3 restricted to the
two-photon block couples |2,0> and |0,2> to |1,1> with weight 1/sqrt(2)
(up to a global sign fixed by the rotation convention) and is far from
g1 on that block, although the two coincide on the one-photon block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import CrossCheckError, build_space, check_beam, expi_tridiagonal
from .gpauli import g_monomial, stokes_block

UNITARY_ATOL = 1e-12
# A counterexample whose Stokes distance or lift unitarity residual exceeds this raises CrossCheckError.
SELF_CHECK_ATOL = 1e-10

# Balanced rotation: new modes c = (a + b)/sqrt(2), d = (a - b)/sqrt(2).
# The alternative sign choice swaps which combination carries the minus.
BALANCED = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
BALANCED_FLIPPED = np.array([[1, 1], [-1, 1]], dtype=complex) / math.sqrt(2)


@dataclass(frozen=True, eq=False)
class ModeUnitary:
    """2x2 unitary acting on the (a, b) mode operators of one beam.

    Column k gives the expansion of the k-th rotated creation operator in
    the original ones: c_k^dag = sum_l matrix[l, k] (a^dag, b^dag)[l].
    This orientation makes the Fock lift a group homomorphism.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"mode unitary must be 2x2, got shape {m.shape}")
        residual = float(abs(m.conj().T @ m - np.eye(2)).max())
        if residual > UNITARY_ATOL:
            raise ValueError(f"matrix is not unitary (residual {residual:.3e})")
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other: "ModeUnitary") -> "ModeUnitary":
        return ModeUnitary(self.matrix @ other.matrix)


def lift_blocks(u: ModeUnitary, cutoff: int) -> list[np.ndarray]:
    """Blocks T = 0..cutoff of the lift, each sending |T-k,k> to the rotated-mode ket.

    The rotated kets are |n,m>' = (c^dag)^n (d^dag)^m |vac> / sqrt(n! m!), in
    the original occupation basis ordered by n_b.  With u = exp(iX), the lift
    exp(i N_X) satisfies exp(i N_X) a_k^dag exp(-i N_X) = sum_l u_lk a_l^dag
    and fixes the vacuum, so it is exactly that map.  X is a closed-form logarithm: u =
    e^{i phi} (a 1 + i h) with e^{2i phi} = det u and h = b.sigma gives X = phi 1 + atan2(|b|, a) h/|b|,
    or (phi + atan2(0, a)) 1 when b = 0.  Any X with exp(iX) = u gives the same lift.
    """
    phi = np.angle(np.linalg.det(u.matrix)) / 2
    v = u.matrix * np.exp(-1j * phi)
    h = (v - v.conj().T) / 2j
    norm = np.linalg.norm(h) / math.sqrt(2)
    theta = math.atan2(norm, np.trace(v).real / 2)
    x = (phi + theta) * np.eye(2) if norm == 0 else phi * np.eye(2) + theta / norm * h
    blocks = []
    for total in range(cutoff + 1):
        k = np.arange(total + 1)
        # a^dag b sends |T-k,k> to |T-k+1,k-1> with factor sqrt(k (T-k+1)).
        diagonal = x[0, 0].real * (total - k) + x[1, 1].real * k
        blocks.append(expi_tridiagonal(diagonal, np.sqrt(k[1:] * (total - k[:-1])), x[0, 1]))
    return blocks


def conjugate(blocks: list[np.ndarray], lift: list[np.ndarray]) -> list[np.ndarray]:
    """Blocks U_T^dag O_T U_T of a number-conserving operator, given its blocks O_T and the lift's U_T."""
    if len(blocks) != len(lift) or any(o.shape != w.shape for o, w in zip(blocks, lift)):
        raise ValueError(
            f"operator blocks {[o.shape for o in blocks]} do not match lift blocks {[w.shape for w in lift]}"
        )
    return [w.conj().T @ o @ w for o, w in zip(blocks, lift)]


@dataclass(frozen=True, eq=False)
class CounterexampleReport:
    """Distances separating the rotated sign observable from its naive relabeling."""

    sign_flip: bool
    g_distance_block2: float
    g_block2_matrix: np.ndarray
    g1_block2_matrix: np.ndarray
    matches_balanced_form: bool
    g_distance_block1: float
    stokes_distance: float
    lift_unitarity_residual: float

    def to_dict(self) -> dict:
        return {
            "sign_flip": self.sign_flip,
            "g_distance_block2": self.g_distance_block2,
            "g_distance_block1": self.g_distance_block1,
            "stokes_distance": self.stokes_distance,
            "lift_unitarity_residual": self.lift_unitarity_residual,
            "matches_balanced_form": self.matches_balanced_form,
            "g_block2_real": self.g_block2_matrix.real.tolist(),
            "g_block2_imag": self.g_block2_matrix.imag.tolist(),
            "g1_block2_real": self.g1_block2_matrix.real.tolist(),
            "g1_block2_imag": self.g1_block2_matrix.imag.tolist(),
        }


def expected_rotated_g3_block2() -> np.ndarray:
    """Two-photon block of the rotated g3 under the balanced convention.

    In the ordered block basis (|2,0>, |1,1>, |0,2>) the only couplings
    are |2,0>,|0,2> <-> |1,1> with weight 1/sqrt(2); the alternative
    rotation convention flips the overall sign.
    """
    w = 1.0 / math.sqrt(2)
    return np.array(
        [[0, w, 0],
         [w, 0, w],
         [0, w, 0]],
        dtype=complex,
    )


def counterexample_report(cutoff: int = 2, sign_flip: bool = False) -> CounterexampleReport:
    """Contrast how g3 and the Stokes S3 behave under the balanced mode rotation.

    The rotated S3 equals S1 on the whole sector (covariance).  The rotated
    g3 coincides with g1 only on the one-photon block; on the two-photon
    block it differs by more than 0.5 in max norm and takes the explicit
    1/sqrt(2) coupling form, up to a global sign set by the convention.
    Its self-check reads the rotated S3's distance from S1 and the worst
    |U_T^dag U_T - 1| of the lift blocks; either above SELF_CHECK_ATOL raises CrossCheckError.
    A space above the ``BNL_MAX_DIM`` cap is refused before anything is built.
    """
    if cutoff < 2:
        raise ValueError("the contrast needs the two-photon block, so cutoff >= 2")
    check_beam(build_space(cutoff))
    lift = lift_blocks(ModeUnitary(BALANCED_FLIPPED if sign_flip else BALANCED), cutoff)
    # Blocks 1 and 2 of g3 and g1 are the same at every cutoff >= 2.
    g3_rotated = conjugate([g_monomial(3).block(t) for t in range(3)], lift[:3])
    block2, g1_block2 = g3_rotated[2], g_monomial(1).block(2)
    expected = expected_rotated_g3_block2()
    matches = bool(min(abs(block2 - expected).max(), abs(block2 + expected).max()) <= UNITARY_ATOL)
    s3_rotated = conjugate([stokes_block(3, t) for t in range(cutoff + 1)], lift)
    stokes = max(float(abs(r - stokes_block(1, t)).max()) for t, r in enumerate(s3_rotated))
    unitarity = max(float(abs(w.conj().T @ w - np.eye(len(w))).max()) for w in lift)
    if max(stokes, unitarity) > SELF_CHECK_ATOL:
        raise CrossCheckError(f"counterexample self-check failed: stokes_distance {stokes:.3e}, "
                              f"lift_unitarity_residual {unitarity:.3e}, tolerance {SELF_CHECK_ATOL:g}")
    return CounterexampleReport(
        sign_flip=sign_flip,
        g_distance_block2=float(abs(block2 - g1_block2).max()),
        g_block2_matrix=block2,
        g1_block2_matrix=g1_block2,
        matches_balanced_form=matches,
        g_distance_block1=float(abs(g3_rotated[1] - g_monomial(1).block(1)).max()),
        stokes_distance=stokes,
        lift_unitarity_residual=unitarity,
    )
