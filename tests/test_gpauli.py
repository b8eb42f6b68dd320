import math

import numpy as np
import pytest

from bnl import gpauli
from bnl.fock import ComplexOperator, apply, basis_state, build_space, expectation, occupations
from bnl.gpauli import (
    ALGEBRA_ATOL,
    SPECTRUM_ATOL,
    GLabel,
    block_eigenvalues,
    diagonal_monomial,
    g_operator,
    g_operator_compact,
    pauli_restriction,
    pr_monomial,
    spectrum_deviation,
    sr_monomial,
    stokes_operator,
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
    out = apply(g_operator(3, space), basis_state(space, [(2, 2)]))
    assert np.all(out.amplitudes == 0)


def test_g2_action_and_identity():
    space = build_space(3)
    g1, g2, g3 = (g_operator(i, space) for i in (1, 2, 3))
    out = apply(g2, basis_state(space, [(1, 0)]))
    expected = 1j * basis_state(space, [(0, 1)]).amplitudes
    assert np.array_equal(out.amplitudes, expected)
    assert (g2 - (-1j) * (g3 @ g1)).max_abs() == 0.0


@pytest.mark.parametrize("cutoff", [1, 2, 4])
@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_compact_construction_matches_direct(cutoff, index):
    space = build_space(cutoff)
    residual = (g_operator(index, space) - g_operator_compact(index, space)).max_abs()
    assert residual < 1e-14


def test_sr_pr_building_blocks():
    space = build_space(2)
    sr = sr_monomial().operator(space)
    pr = pr_monomial().operator(space, hermitian=True)
    # sr maps |2,0> -> |0,2> and kills |0,2>; pr projects onto mode-b-heavy kets
    assert np.allclose(
        apply(sr, basis_state(space, [(2, 0)])).amplitudes,
        basis_state(space, [(0, 2)]).amplitudes,
    )
    assert np.all(apply(sr, basis_state(space, [(0, 2)])).amplitudes == 0)
    assert np.array_equal(
        apply(pr, basis_state(space, [(0, 2)])).amplitudes,
        basis_state(space, [(0, 2)]).amplitudes,
    )
    assert np.all(apply(pr, basis_state(space, [(2, 0)])).amplitudes == 0)
    assert np.all(apply(pr, basis_state(space, [(2, 0)])).amplitudes == 0)
    assert np.allclose(
        apply(pr, basis_state(space, [(0, 2)])).amplitudes,
        basis_state(space, [(0, 2)]).amplitudes,
    )


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
    original = gpauli.g_operator

    def corrupted(label, space):
        op = original(label, space)
        if label != index:
            return op
        # A diagonal g_i with the sign of its |2,0> column flipped stays
        # Hermitian with spectrum {-1, 0, +1}, so only the identities expose it.
        matrix = op.matrix.tolil()
        k = space.position(2, 0)
        matrix[k, k] *= -1
        return ComplexOperator((space,), matrix.tocsr(), hermitian=True)

    monkeypatch.setattr(gpauli, "g_operator", corrupted)
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
            out = apply(op, basis_state(space, [(n, n)]))
            assert np.all(out.amplitudes == 0)


def test_g_minus_action():
    space = build_space(4)
    gm3 = g_operator(GLabel(3, True), space)
    out = apply(gm3, basis_state(space, [(2, 2)]))
    assert np.array_equal(out.amplitudes, -basis_state(space, [(2, 2)]).amplitudes)
    out = apply(gm3, basis_state(space, [(2, 1)]))
    assert np.array_equal(out.amplitudes, basis_state(space, [(2, 1)]).amplitudes)


def test_g_minus_spectrum_is_dichotomic():
    space = build_space(3)
    assert space.dim == 10
    for index in (1, 2, 3):
        op = g_operator(GLabel(index, True), space)
        eigenvalues = np.linalg.eigvalsh(op.matrix.toarray())
        assert np.allclose(np.abs(eigenvalues), 1.0, atol=1e-12)
        eigenvalues_blocked = block_eigenvalues(op)
        assert np.allclose(np.sort(eigenvalues), eigenvalues_blocked, atol=1e-12)
    for cutoff in range(9):
        for index in (1, 2, 3):
            op = g_operator(GLabel(index, True), build_space(cutoff))
            assert spectrum_deviation(op, targets=(-1.0, 1.0)) <= SPECTRUM_ATOL


@pytest.mark.parametrize("index", [1, 2, 3])
def test_g_minus_squares_to_identity(index):
    space = build_space(4)
    op = g_operator(GLabel(index, True), space)
    eye = diagonal_monomial().operator(space) + g_operator(0, space)
    assert (op @ op - eye).max_abs() < 1e-12


def test_g_minus_rejects_index_zero():
    with pytest.raises(ValueError):
        GLabel(0, minus_variant=True)
    assert GLabel(2, minus_variant=True).index == 2


def test_glabel_selects_minus_variant():
    space = build_space(2)
    via_label = g_operator(GLabel(3, minus_variant=True), space)
    projector = diagonal_monomial().operator(space)
    assert (via_label - (g_operator(3, space) - projector)).max_abs() == 0.0


def test_stokes_s3_is_half_number_difference():
    space = build_space(3)
    s3 = stokes_operator(3, space)
    for n_a, n_b in zip(*(n.tolist() for n in occupations(np.arange(space.dim)))):
        value = expectation(s3, basis_state(space, [(n_a, n_b)]))
        assert value == pytest.approx((n_a - n_b) / 2, abs=1e-14)


def test_stokes_s1_ladder_arithmetic():
    space = build_space(2)
    out = apply(stokes_operator(1, space), basis_state(space, [(1, 0)]))
    assert np.allclose(out.amplitudes, 0.5 * basis_state(space, [(0, 1)]).amplitudes)


def test_stokes_fail_anticommutation():
    space = build_space(2)
    s1 = 2.0 * stokes_operator(1, space)
    s3 = 2.0 * stokes_operator(3, space)
    anti = s1 @ s3 + s3 @ s1
    applied = apply(anti, basis_state(space, [(2, 0)]))
    assert np.abs(applied.amplitudes).max() > 0
    assert anti.max_abs() > 0.5


def test_stokes_spectrum_unbounded_with_cutoff():
    # spectrum of S3 grows with the sector, unlike the swap/sign observables
    space = build_space(6)
    eigenvalues = block_eigenvalues(stokes_operator(3, space))
    assert eigenvalues.max() == pytest.approx(3.0)
    assert spectrum_deviation(g_operator(3, space)) < 1e-14


def test_pauli_restriction_is_exact():
    space = build_space(3)
    restricted = pauli_restriction(space)
    for got, want in zip(restricted, SIGMA):
        assert np.array_equal(got, want)


def test_pauli_restriction_needs_one_photon_sector():
    with pytest.raises(ValueError):
        pauli_restriction(build_space(0))
