import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnl.fock import CrossCheckError, build_space, occupations
from bnl import modes
from bnl.gpauli import g_monomial, stokes_block
from bnl.modes import (
    BALANCED,
    BALANCED_FLIPPED,
    ModeUnitary,
    conjugate,
    counterexample_report,
    expected_rotated_g3_block2,
    lift_blocks,
)


def unitary_from_seed(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return ModeUnitary(q * (np.diag(r) / np.abs(np.diag(r))))


def test_mode_unitary_validation():
    with pytest.raises(ValueError):
        ModeUnitary(np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        ModeUnitary(np.eye(3))
    ModeUnitary(np.eye(2))


def g_blocks(index, cutoff):
    return [g_monomial(index).block(t) for t in range(cutoff + 1)]


def test_identity_lift_is_identity():
    for block in lift_blocks(ModeUnitary(np.eye(2)), 3):
        assert abs(block - np.eye(len(block))).max() < 1e-14


def test_lift_preserves_vacuum():
    vacuum_block = lift_blocks(ModeUnitary(BALANCED), 2)[0]
    assert vacuum_block.shape == (1, 1)
    assert vacuum_block[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_balanced_lift_one_photon_block():
    block = lift_blocks(ModeUnitary(BALANCED), 2)[1]
    want = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    assert np.allclose(block, want, atol=1e-14)


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=25, deadline=None)
def test_lift_is_unitary_per_block(seed):
    for block in lift_blocks(unitary_from_seed(seed), 3):
        assert np.allclose(block.conj().T @ block, np.eye(len(block)), atol=1e-12)


@pytest.mark.parametrize("cutoff", [80, 139])
@pytest.mark.parametrize("sign_flip", [False, True])
def test_lift_stays_unitary_and_stokes_covariant_at_high_cutoff(cutoff, sign_flip):
    report = counterexample_report(cutoff=cutoff, sign_flip=sign_flip)
    assert report.lift_unitarity_residual < 1e-12
    assert report.stokes_distance < 1e-10
    blocks = lift_blocks(unitary_from_seed(cutoff), cutoff)
    assert max(abs(b.conj().T @ b - np.eye(len(b))).max() for b in blocks) < 1e-12


@pytest.mark.parametrize("rephase", [False, True])
def test_report_reads_the_top_lift_block(monkeypatch, rephase):
    lift_blocks = modes.lift_blocks

    def corrupted(u, cutoff):
        blocks = lift_blocks(u, cutoff)
        top = blocks[-1]
        blocks[-1] = top @ np.diag(np.exp(0.1j * np.arange(len(top)))) if rephase else top * (1 + 1e-6)
        return blocks

    monkeypatch.setattr(modes, "lift_blocks", corrupted)
    with pytest.raises(CrossCheckError, match="^counterexample self-check failed: ") as failure:
        counterexample_report(cutoff=60)
    residuals = dict(re.findall(r"(stokes_distance|lift_unitarity_residual) (\S+),", str(failure.value)))
    if rephase:
        assert float(residuals["lift_unitarity_residual"]) < 1e-12 and float(residuals["stokes_distance"]) > 0.1
    else:
        assert residuals["lift_unitarity_residual"] == "2.000e-06"


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=25, deadline=None)
def test_lift_is_block_diagonal_in_total_photon_number(seed):
    # The lift conserves total photon number, so its blocks hold all of it.
    space = build_space(3)
    u = unitary_from_seed(seed)
    lift = binomial_lift(u, space)
    n_a, n_b = occupations(np.arange(space.dim))
    total = n_a + n_b
    assert not lift[total[:, None] != total[None, :]].any()
    assert [b.shape for b in lift_blocks(u, space.cutoff)] == [(t + 1, t + 1) for t in range(4)]


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=20, deadline=None)
def test_lift_is_a_homomorphism(seed):
    u = unitary_from_seed(seed)
    v = unitary_from_seed(seed + 1)
    blocks = zip(lift_blocks(u @ v, 6), lift_blocks(u, 6), lift_blocks(v, 6))
    for composed, first, second in blocks:
        assert abs(composed - first @ second).max() < 1e-12


def rotation(angle, axis):
    """exp(i angle axis.sigma), axis a unit 3-vector."""
    nx, ny, nz = axis
    return math.cos(angle) * np.eye(2) + 1j * math.sin(angle) * np.array(
        [[nz, nx - 1j * ny], [nx + 1j * ny, -nz]]
    )


LOGARITHM_CASES = {
    "identity": np.eye(2, dtype=complex),
    "minus-identity": -np.eye(2, dtype=complex),
    "i-identity": 1j * np.eye(2),
    "minus-identity-perturbed": -rotation(1e-12, (0.6, 0.0, 0.8)),
    "diagonal-gap-1e-9": np.diag(np.exp(1j * np.array([0.7, 0.7 + 1e-9]))),
    "diagonal-gap-1e-15": np.diag(np.exp(1j * np.array([0.7, 0.7 + 1e-15]))),
    "swap": np.array([[0, 1], [1, 0]], dtype=complex),
    "swap-times-i": np.array([[0, 1j], [1j, 0]]),
    "balanced": BALANCED,
    "balanced-flipped": BALANCED_FLIPPED,
    **{f"haar-{seed}": unitary_from_seed(seed).matrix for seed in range(4)},
}


@pytest.mark.parametrize("u", LOGARITHM_CASES.values(), ids=LOGARITHM_CASES.keys())
def test_lift_of_the_closed_form_logarithm_is_exact_at_every_branch(u):
    # Scalar, near-scalar and swap unitaries sit on the branches of the 2x2 logarithm:
    # |b| = 0, |b| near 0 with a near -1, and a = 0.
    blocks = lift_blocks(ModeUnitary(u), 60)
    assert abs(blocks[1] - u).max() < 1e-14
    assert max(abs(b.conj().T @ b - np.eye(len(b))).max() for b in blocks) < 1e-13


def test_conjugating_g0_fixes_one_photon_block():
    rotated = conjugate(g_blocks(0, 2), lift_blocks(ModeUnitary(BALANCED), 2))
    assert np.allclose(rotated[1], np.eye(2), atol=1e-12)


def test_stokes_covariance_under_balanced_rotation():
    s3 = [stokes_block(3, t) for t in range(5)]
    rotated = conjugate(s3, lift_blocks(ModeUnitary(BALANCED), 4))
    assert len(rotated) == 5
    for t, block in enumerate(rotated):
        assert abs(block - stokes_block(1, t)).max() < 1e-12


def test_rotated_g3_two_photon_block_structure():
    block = conjugate(g_blocks(3, 2), lift_blocks(ModeUnitary(BALANCED), 2))[2]
    expected = expected_rotated_g3_block2()
    assert min(abs(block - expected).max(), abs(block + expected).max()) < 1e-12
    assert abs(block - g_monomial(1).block(2)).max() > 0.5


@pytest.mark.parametrize(
    "blocks, cutoff",
    [
        (g_blocks(3, 2), 3),  # fewer operator blocks than lift blocks
        (g_blocks(3, 3), 2),  # more operator blocks than lift blocks
        (g_blocks(3, 3)[1:], 2),  # as many blocks, of the wrong sizes
    ],
)
def test_conjugate_refuses_mismatched_blocks(blocks, cutoff):
    with pytest.raises(ValueError, match="do not match lift blocks"):
        conjugate(blocks, lift_blocks(ModeUnitary(BALANCED), cutoff))


def test_counterexample_report_default():
    report = counterexample_report()
    assert report.g_distance_block2 > 0.5
    assert report.g_distance_block1 < 1e-12
    assert report.stokes_distance < 1e-12
    assert report.matches_balanced_form


def test_counterexample_report_sign_flip_is_qualitatively_stable():
    report = counterexample_report(sign_flip=True)
    assert report.g_distance_block2 > 0.5
    assert report.g_distance_block1 < 1e-12
    assert report.stokes_distance < 1e-12


def test_counterexample_requires_two_photon_block():
    with pytest.raises(ValueError):
        counterexample_report(cutoff=1)


def test_report_serializes():
    payload = counterexample_report().to_dict()
    assert payload["g_distance_block2"] > 0.5
    assert len(payload["g_block2_real"]) == 3


def binomial_lift(u, space):
    """The lift by expanding (c^dag)^n (d^dag)^m binomially, ket by ket: an oracle."""
    ca, da = u.matrix[0]
    cb, db = u.matrix[1]
    lift = np.zeros((space.dim, space.dim), dtype=complex)
    for col, (n, m) in enumerate(zip(*(k.tolist() for k in occupations(np.arange(space.dim))))):
        norm = math.sqrt(math.factorial(n) * math.factorial(m))
        for j, k in itertools.product(range(n + 1), range(m + 1)):
            n_a, n_b = j + k, (n - j) + (m - k)
            lift[space.position(n_a, n_b), col] += (
                math.comb(n, j) * ca**j * cb ** (n - j)
                * math.comb(m, k) * da**k * db ** (m - k)
                * math.sqrt(math.factorial(n_a) * math.factorial(n_b))
            ) / norm
    return lift


@given(seed=st.integers(min_value=0, max_value=10**9), cutoff=st.integers(min_value=0, max_value=5))
@settings(max_examples=30, deadline=None)
def test_lift_matches_binomial_expansion(seed, cutoff):
    space = build_space(cutoff)
    u = unitary_from_seed(seed)
    oracle = binomial_lift(u, space)
    for t, block in enumerate(lift_blocks(u, cutoff)):
        idx = space.block_indices(t)
        assert np.allclose(block, oracle[np.ix_(idx, idx)], rtol=0, atol=1e-13)
