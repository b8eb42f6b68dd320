"""Mode-basis rotations on the truncated Fock sector.

A 2x2 unitary mixing the creation operators of one beam lifts to a
unitary on the Fock sector, block diagonal in total photon number.  The
lift is built block by block by raising: each rotated number ket is a
rotated creation operator applied to one of the block below, so every
block is a few array operations, not a generator exponential or a sum
of binomial terms per ket.

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
import scipy

from .fock import (
    BeamSpace, ComplexOperator, DomainMismatchError, build_space, check_beam,
)
from .gpauli import g_operator, stokes_operator

UNITARY_ATOL = 1e-12

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

    def dagger(self) -> "ModeUnitary":
        return ModeUnitary(self.matrix.conj().T)


def fock_lift(u: ModeUnitary, space: BeamSpace) -> ComplexOperator:
    """Fock-sector unitary sending |n,m> to the rotated-mode number ket.

    Columns are the rotated kets |n,m>' = (c^dag)^n (d^dag)^m |vac> / sqrt(n! m!)
    in the original occupation basis.  Block T holds the kets with n + m = T,
    ordered by m as the basis is by n_b, and is raised from block T - 1:
    |n,m>' = c^dag |n-1,m>' / sqrt(n) for n >= 1, and
    |0,T>' = d^dag |0,T-1>' / sqrt(T).  The lift conserves total photon
    number, so each block is exactly unitary and no truncation error enters.
    """
    # c^dag = ca a^dag + cb b^dag, d^dag = da a^dag + db b^dag.
    (ca, da), (cb, db) = u.matrix

    def raised(below: np.ndarray, x: complex, y: complex) -> np.ndarray:
        # x a^dag + y b^dag on the columns of block T - 1: a^dag keeps n_b = k
        # with factor sqrt(T - k), b^dag moves it to k + 1 with factor sqrt(k + 1).
        total = len(below)
        out = np.zeros((total + 1, below.shape[1]), dtype=complex)
        out[:-1] = x * np.sqrt(np.arange(total, 0, -1))[:, None] * below
        out[1:] += y * np.sqrt(np.arange(1, total + 1))[:, None] * below
        return out

    blocks = [np.ones((1, 1), dtype=complex)]
    for total in range(1, space.cutoff + 1):
        below = blocks[-1]
        block = np.hstack([raised(below, ca, cb), raised(below[:, -1:], da, db)])
        blocks.append(block / np.sqrt(np.append(np.arange(total, 0, -1), total)))
    matrix = scipy.sparse.block_diag(blocks, format="csr")
    return ComplexOperator((space,), matrix)


def conjugate(op: ComplexOperator, u: ModeUnitary) -> ComplexOperator:
    """Basis change U^dag op U with U the Fock lift of the mode rotation."""
    if len(op.domain) != 1:
        raise DomainMismatchError("mode rotations act on single-beam operators")
    lift = fock_lift(u, op.domain[0])
    return lift.dagger() @ op @ lift


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

    def to_dict(self) -> dict:
        return {
            "sign_flip": self.sign_flip,
            "g_distance_block2": self.g_distance_block2,
            "g_distance_block1": self.g_distance_block1,
            "stokes_distance": self.stokes_distance,
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
    A space above the ``BNL_MAX_DIM`` cap is refused before anything is built.
    """
    if cutoff < 2:
        raise ValueError("the contrast needs the two-photon block, so cutoff >= 2")
    space = build_space(cutoff)
    check_beam(space)
    u = ModeUnitary(BALANCED_FLIPPED if sign_flip else BALANCED)
    g3_rotated = conjugate(g_operator(3, space), u)
    g1 = g_operator(1, space)

    block2 = g3_rotated.block(2)
    g1_block2 = g1.block(2)
    expected = expected_rotated_g3_block2()
    matches = bool(
        min(
            abs(block2 - expected).max(),
            abs(block2 + expected).max(),
        )
        <= UNITARY_ATOL
    )

    s3_rotated = conjugate(stokes_operator(3, space), u)
    s1 = stokes_operator(1, space)

    return CounterexampleReport(
        sign_flip=sign_flip,
        g_distance_block2=float(abs(block2 - g1_block2).max()),
        g_block2_matrix=block2,
        g1_block2_matrix=g1_block2,
        matches_balanced_form=matches,
        g_distance_block1=float(
            abs(g3_rotated.block(1) - g1.block(1)).max()
        ),
        stokes_distance=(s3_rotated - s1).max_abs(),
    )
