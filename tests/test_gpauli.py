import math

import numpy as np
import pytest
import tensor_oracle
from tensor_oracle import (
    block_eigenvalues,
    g_operator_compact,
    monomial_adjoint,
    monomial_product,
    operator_block,
    spectrum_deviation,
    stokes_operator,
)

from bnl import gpauli
from bnl.fock import Monomial, basis_state, build_space, expectation
from bnl.gpauli import (
    ALGEBRA_ATOL,
    SPECTRUM_ATOL,
    diagonal_monomial,
    g_monomial,
    g_operator,
    pauli_restriction,
    pr_monomial,
    sr_monomial,
    stokes_block,
    verify_algebra,
)

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def test_g0_matrix_on_cutoff_one():
    space = build_space(1)
    dense = g_operator(0, space).matrix.toarray()
    assert np.array_equal(dense, np.diag([0.0, 1.0, 1.0]).astype(complex))


def test_g3_sign_structure():
    space = build_space(4)
    assert expectation(g_operator(3, space), basis_state(space, [(3, 1)])) == 1.0
    assert expectation(g_operator(3, space), basis_state(space, [(1, 3)])) == -1.0
    out = g_operator(3, space).matrix @ basis_state(space, [(2, 2)]).amplitudes
    assert np.all(out == 0)


def test_g2_action_and_identity():
    space = build_space(3)
    g1, g2, g3 = (g_operator(i, space).matrix for i in (1, 2, 3))
    out = g2 @ basis_state(space, [(1, 0)]).amplitudes
    expected = 1j * basis_state(space, [(0, 1)]).amplitudes
    assert np.array_equal(out, expected)
    assert abs(g2 - (-1j) * (g3 @ g1)).max() == 0.0


@pytest.mark.parametrize("cutoff", [1, 2, 4])
@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_compact_construction_matches_direct(cutoff, index):
    space = build_space(cutoff)
    residual = abs(g_operator(index, space).matrix - g_operator_compact(index, space).matrix).max()
    assert residual < 1e-14


def test_sr_pr_building_blocks():
    space = build_space(2)
    sr = sr_monomial().operator(space).matrix
    pr = pr_monomial().operator(space, hermitian=True).matrix
    b_heavy, a_heavy = (basis_state(space, [occ]).amplitudes for occ in [(0, 2), (2, 0)])
    # sr maps |2,0> -> |0,2> and kills |0,2>; pr projects onto mode-b-heavy kets
    assert np.allclose(sr @ a_heavy, b_heavy)
    assert np.all(sr @ b_heavy == 0)
    assert np.array_equal(pr @ b_heavy, b_heavy)
    assert np.all(pr @ a_heavy == 0)


@pytest.mark.parametrize("cutoff", [2, 4, 6])
def test_algebra_report(cutoff):
    report = verify_algebra(build_space(cutoff))
    assert report.passed
    assert report.max_commutator_residual < 1e-12
    assert report.max_anticommutator_residual < 1e-12
    assert report.max_product_residual < 1e-12
    assert report.spectrum_ok
    assert report.identity_residuals["g2_equals_minus_i_g3_g1"] < 1e-12


def test_algebra_report_vacuum_sector_is_trivial():
    report = verify_algebra(build_space(0))
    assert report.passed
    assert report.max_product_residual == 0.0
    assert report.max_spectrum_deviation == 0.0


def test_reports_agree_between_constructions():
    direct = verify_algebra(build_space(4), construction="direct")
    compact = verify_algebra(build_space(4), construction="compact")
    for key, value in direct.details.items():
        assert abs(value - compact.details[key]) < 1e-14
    assert abs(direct.max_spectrum_deviation - compact.max_spectrum_deviation) < 1e-14


@pytest.mark.parametrize("construction", ["direct", "compact"])
@pytest.mark.parametrize("index", [0, 3])
def test_verify_algebra_detects_corrupted_direct_construction(monkeypatch, index, construction):
    space = build_space(2)
    original = gpauli.g_monomial

    def corrupted(label):
        monomial = original(label)
        if label != index:
            return monomial
        # A diagonal g_i with the sign of its s = +1 sector flipped stays
        # Hermitian with spectrum {-1, 0, +1}, so only the identities expose it.
        phase = monomial.phase.copy()
        phase[1] *= -1
        return Monomial(monomial.swap, phase)

    monkeypatch.setattr(gpauli, "g_monomial", corrupted)
    report = verify_algebra(space, construction=construction)
    assert not report.passed
    assert report.spectrum_ok
    for kind in ("commutator", "anticommutator", "product"):
        worst = max(v for key, v in report.details.items() if key.startswith(f"{kind}_"))
        assert getattr(report, f"max_{kind}_residual") == worst
    cross_checks = [report.identity_residuals[f"construction_cross_check_g{i}"] for i in range(4)]
    assert cross_checks == [2.0 if i == index else 0.0 for i in range(4)]
    if construction == "direct":
        assert report.max_product_residual > ALGEBRA_ATOL
        if index == 0:
            assert report.identity_residuals["g0_commutes_g1"] > ALGEBRA_ATOL
    else:
        assert max(report.details.values()) == 0.0
        assert report.identity_residuals["g0_commutes_g1"] == 0.0


@pytest.mark.parametrize("construction", ["direct", "compact"])
def test_verify_algebra_detects_corrupted_half_swap(monkeypatch, construction):
    # sr acting on the s = -1 sector instead of s = +1 makes sr^dag sr = pr,
    # so the compact g0 reads 2 pr and g1..g3 vanish.
    monkeypatch.setattr(gpauli, "sr_monomial", lambda: Monomial(True, (0, 0, 1)))
    report = verify_algebra(build_space(2), construction=construction)
    assert not report.passed
    cross_checks = [report.identity_residuals[f"construction_cross_check_g{i}"] for i in range(4)]
    assert cross_checks == [1.0] * 4
    assert report.spectrum_ok == (construction == "direct")
    if construction == "compact":
        assert report.max_product_residual > ALGEBRA_ATOL
    else:
        assert max(report.details.values()) == 0.0


def test_verify_algebra_refuses_a_non_hermitian_observable(monkeypatch):
    # g1 with its s = -1 phase negated sends |0,1> to -|1,0> but |1,0> to |0,1>.
    original = gpauli.g_monomial
    monkeypatch.setattr(
        gpauli, "g_monomial", lambda label: Monomial(True, (0, 1, -1)) if label == 1 else original(label)
    )
    with pytest.raises(ValueError, match="Hermitian"):
        verify_algebra(build_space(2))


@pytest.mark.parametrize("construction", ["direct", "compact"])
def test_verify_algebra_matches_sparse_oracle(construction):
    for cutoff in [*range(14), 20, 32, 139]:
        space = build_space(cutoff)
        want = tensor_oracle.verify_algebra(space, construction).to_dict()
        assert verify_algebra(space, construction).to_dict() == want


@pytest.mark.parametrize("n,m", [(1, 0), (2, 0), (3, 1), (2, 1)])
def test_eigenvector_families(n, m):
    space = build_space(n + m)
    g1, g2, g3 = (g_operator(i, space).matrix for i in (1, 2, 3))
    up = basis_state(space, [(n, m)]).amplitudes
    dn = basis_state(space, [(m, n)]).amplitudes
    plus = (up + dn) / math.sqrt(2)
    minus = (up - dn) / math.sqrt(2)
    assert np.allclose(g1 @ plus, plus, atol=1e-14)
    assert np.allclose(g1 @ minus, -minus, atol=1e-14)
    # for the phase-sensitive pair take n > m as the reference component
    circ_plus = (up + 1j * dn) / math.sqrt(2)
    circ_minus = (up - 1j * dn) / math.sqrt(2)
    assert np.allclose(g2 @ circ_plus, circ_plus, atol=1e-14)
    assert np.allclose(g2 @ circ_minus, -circ_minus, atol=1e-14)
    assert np.allclose(g3 @ up, up, atol=1e-14)
    assert np.allclose(g3 @ dn, -dn, atol=1e-14)


def test_equal_occupations_are_null_vectors():
    space = build_space(4)
    for op_index in range(4):
        op = g_operator(op_index, space)
        for n in (0, 1, 2):
            out = op.matrix @ basis_state(space, [(n, n)]).amplitudes
            assert np.all(out == 0)


def test_g_minus_action():
    space = build_space(4)
    gm3 = g_operator(3, space, dichotomized=True).matrix
    out = gm3 @ basis_state(space, [(2, 2)]).amplitudes
    assert np.array_equal(out, -basis_state(space, [(2, 2)]).amplitudes)
    out = gm3 @ basis_state(space, [(2, 1)]).amplitudes
    assert np.array_equal(out, basis_state(space, [(2, 1)]).amplitudes)


def test_g_minus_spectrum_is_dichotomic():
    space = build_space(3)
    assert space.dim == 10
    for index in (1, 2, 3):
        op = g_operator(index, space, dichotomized=True)
        eigenvalues = np.linalg.eigvalsh(op.matrix.toarray())
        assert np.allclose(np.abs(eigenvalues), 1.0, atol=1e-12)
        eigenvalues_blocked = block_eigenvalues(op)
        assert np.allclose(np.sort(eigenvalues), eigenvalues_blocked, atol=1e-12)
    for cutoff in range(9):
        for index in (1, 2, 3):
            op = g_operator(index, build_space(cutoff), dichotomized=True)
            assert spectrum_deviation(op, targets=(-1.0, 1.0)) <= SPECTRUM_ATOL


@pytest.mark.parametrize("index", [1, 2, 3])
def test_g_minus_squares_to_identity(index):
    space = build_space(4)
    op = g_operator(index, space, dichotomized=True).matrix
    eye = diagonal_monomial().operator(space).matrix + g_operator(0, space).matrix
    assert abs(op @ op - eye).max() < 1e-12


def test_g_minus_rejects_index_zero():
    with pytest.raises(ValueError, match="g0 has no dichotomized variant"):
        g_monomial(0, dichotomized=True)
    assert np.array_equal(g_monomial(2, dichotomized=True).phase, [-1, 1j, -1j])


@pytest.mark.parametrize("index", [-1, 4])
def test_g_monomial_rejects_unknown_index(index):
    for dichotomized in (False, True):
        with pytest.raises(ValueError, match=f"index must be one of 0..3, got {index}"):
            g_monomial(index, dichotomized)


def test_dichotomized_selects_minus_variant():
    space = build_space(2)
    via_flag = g_operator(3, space, dichotomized=True).matrix
    projector = diagonal_monomial().operator(space).matrix
    assert abs(via_flag - (g_operator(3, space).matrix - projector)).max() == 0.0


def test_stokes_s3_is_half_number_difference():
    for total in range(4):
        k = np.arange(total + 1)
        # Column k is the ket |T-k, k>, so the diagonal reads (n_a - n_b) / 2.
        assert np.array_equal(stokes_block(3, total), np.diag((total - 2 * k) / 2))


def test_stokes_s1_ladder_arithmetic():
    # S1 sends |1,0> (column 0 of the one-photon block) to |0,1> / 2.
    assert np.allclose(stokes_block(1, 1) @ [1, 0], [0, 0.5])


def test_stokes_fail_anticommutation():
    anti = []
    for total in range(3):
        s1, s3 = 2.0 * stokes_block(1, total), 2.0 * stokes_block(3, total)
        anti.append(s1 @ s3 + s3 @ s1)
    # Applied to |2,0>, column 0 of the two-photon block.
    assert np.abs(anti[2][:, 0]).max() > 0
    assert max(abs(block).max() for block in anti) > 0.5


def test_stokes_spectrum_unbounded_with_cutoff():
    # spectrum of S3 grows with the sector, unlike the swap/sign observables
    eigenvalues = np.concatenate([np.linalg.eigvalsh(stokes_block(3, t)) for t in range(7)])
    assert eigenvalues.max() == pytest.approx(3.0)
    assert spectrum_deviation(g_operator(3, build_space(6))) < 1e-14


@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_stokes_blocks_match_occupation_oracle(index):
    for cutoff in range(31):
        oracle = stokes_operator(index, build_space(cutoff))
        for total in range(cutoff + 1):
            assert np.array_equal(stokes_block(index, total), operator_block(oracle, total))


def test_stokes_block_rejects_unknown_index():
    with pytest.raises(ValueError):
        stokes_block(4, 1)


def _monomials():
    singles = [gpauli.g_monomial(i) for i in range(4)]
    singles += [gpauli.g_monomial(i, dichotomized=True) for i in (1, 2, 3)]
    singles += [sr_monomial(), pr_monomial(), diagonal_monomial()]
    singles += [monomial_adjoint(m) for m in singles]
    return singles + [monomial_product(m, n) for m in singles for n in singles]


def test_monomial_blocks_match_sparse_operator():
    monomials = _monomials()
    for cutoff in range(9):
        space = build_space(cutoff)
        for m in monomials:
            op = m.operator(space)
            for total in range(cutoff + 1):
                assert np.array_equal(m.block(total), operator_block(op, total))


def test_pauli_restriction_is_exact():
    space = build_space(3)
    restricted = pauli_restriction(space)
    for got, want in zip(restricted, SIGMA):
        assert np.array_equal(got, want)


def test_pauli_restriction_needs_one_photon_sector():
    with pytest.raises(ValueError):
        pauli_restriction(build_space(0))
