import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from tensor_oracle import identity_operator, zero_operator

from bnl.fock import (
    MAX_JOINT_DIM,
    BeamSpace,
    ComplexOperator,
    DomainMismatchError,
    HermitianViolationError,
    MultiBeamState,
    basis_state,
    build_space,
    expectation,
    expi_tridiagonal,
    joint_index,
    occupations,
    product_state,
    tensor,
)
from bnl.gpauli import g_operator


def occupation_list(space):
    """The basis as a list of (n_a, n_b) pairs of Python ints."""
    return list(zip(*(n.tolist() for n in occupations(np.arange(space.dim)))))


def enumerated_basis(cutoff):
    """Reference order by explicit enumeration: total ascending, then n_a descending."""
    return [(total - n_b, n_b) for total in range(cutoff + 1) for n_b in range(total + 1)]


def test_vacuum_space():
    space = build_space(0)
    assert space.dim == 1
    assert occupation_list(space) == [(0, 0)]


def test_cutoff_one_canonical_order():
    space = build_space(1)
    assert space.dim == 3
    assert occupation_list(space) == [(0, 0), (1, 0), (0, 1)]


def test_cutoff_four_dimension_by_enumeration():
    # independent count of all (n_a, n_b) with n_a + n_b <= 4
    explicit = {(n, m) for n in range(5) for m in range(5) if n + m <= 4}
    space = build_space(4)
    assert len(explicit) == 15
    assert space.dim == 15
    assert set(occupation_list(space)) == explicit


@pytest.mark.parametrize("cutoff", range(8))
def test_dimension_formula(cutoff):
    assert build_space(cutoff).dim == (cutoff + 1) * (cutoff + 2) // 2


def test_index_is_inverse_of_basis():
    space = build_space(5)
    for k, occ in enumerate(occupation_list(space)):
        assert space.position(*occ) == k


@pytest.mark.parametrize("cutoff", range(13))
def test_closed_form_matches_enumeration(cutoff):
    space = build_space(cutoff)
    reference = enumerated_basis(cutoff)
    assert space.dim == len(reference)
    assert occupation_list(space) == reference
    for k, (n_a, n_b) in enumerate(reference):
        assert space.position(n_a, n_b) == k
    for total in range(cutoff + 1):
        block = [k for k, (n_a, n_b) in enumerate(reference) if n_a + n_b == total]
        assert list(space.block_indices(total)) == block
    assert list(space.block_indices(cutoff + 1)) == []


def test_occupations_invert_position_at_large_positions():
    # Positions up to the largest beam dimension whose two-beam joint space
    # has int64 positions, and above 2**53, where a float misses integers.
    # Just below a block start the float estimate of the total overshoots.
    two_beam = math.isqrt(MAX_JOINT_DIM)
    starts = [total * (total + 1) // 2 for total in (2**26 + 1, 2**31 + 7, 2**32 - 1)]
    positions = [two_beam - 2, two_beam - 1, 2**53 - 1, 2**53, 2**53 + 1, MAX_JOINT_DIM]
    positions += [start + shift for start in starts for shift in (-1, 0, 1)]
    n_a, n_b = occupations(np.array(positions, dtype=np.int64))
    for position, a, b in zip(positions, n_a.tolist(), n_b.tolist()):
        assert BeamSpace(a + b).position(a, b) == position


@pytest.mark.parametrize("occupation", [(-1, 0), (0, -1), (-1, 4), (4, 0), (0, 4), (2, 2), (5, -1)])
def test_position_rejects_occupations_outside_the_space(occupation):
    with pytest.raises(ValueError):
        build_space(3).position(*occupation)


def test_negative_cutoff_rejected():
    with pytest.raises(ValueError):
        build_space(-1)


def test_tensor_of_identities_is_identity():
    space = build_space(1)
    joint = tensor([identity_operator(space), identity_operator(space)])
    assert joint.dim == 9
    assert abs(joint.matrix - identity_operator((space, space)).matrix).max() == 0.0


def test_tensor_g3_g0_on_one_photon_kets():
    space = build_space(1)
    op = tensor([g_operator(3, space), g_operator(0, space)])
    ket = basis_state((space, space), [(1, 0), (1, 0)])
    out = op.matrix @ ket.amplitudes
    assert np.allclose(out, ket.amplitudes)
    assert expectation(op, ket) == pytest.approx(1.0, abs=1e-14)


def test_zero_operator_annihilates():
    space = build_space(2)
    state = basis_state(space, [(1, 1)])
    out = zero_operator(space).matrix @ state.amplitudes
    assert np.all(out == 0)
    assert expectation(zero_operator(space), state) == 0.0


def test_g0_annihilates_equal_occupations():
    space = build_space(4)
    out = g_operator(0, space).matrix @ basis_state(space, [(2, 2)]).amplitudes
    assert np.all(out == 0)


def test_g1_swaps_modes():
    space = build_space(2)
    out = g_operator(1, space).matrix @ basis_state(space, [(2, 0)]).amplitudes
    expected = basis_state(space, [(0, 2)])
    assert np.allclose(out, expected.amplitudes)


def test_expectation_examples():
    space = build_space(3)
    assert expectation(g_operator(0, space), basis_state(space, [(1, 1)])) == 0.0
    assert expectation(g_operator(3, space), basis_state(space, [(2, 1)])) == 1.0
    plus = MultiBeamState(
        (space,),
        (basis_state(space, [(1, 0)]).amplitudes + basis_state(space, [(0, 1)]).amplitudes)
        / np.sqrt(2),
    )
    assert expectation(g_operator(1, space), plus) == pytest.approx(1.0, abs=1e-14)


def test_expectation_rejects_unnormalized():
    space = build_space(1)
    bad = MultiBeamState((space,), np.array([0.5, 0, 0], dtype=complex))
    with pytest.raises(ValueError, match="normalized"):
        expectation(g_operator(0, space), bad)


def test_domain_mismatch_raises():
    op = g_operator(1, build_space(2))
    state = basis_state(build_space(3), [(1, 0)])
    with pytest.raises(DomainMismatchError):
        expectation(op, state)


def test_hermitian_flag_is_verified():
    space = build_space(1)
    matrix = g_operator(1, space).matrix * 1j  # anti-Hermitian
    with pytest.raises(HermitianViolationError):
        ComplexOperator((space,), matrix, hermitian=True)


def test_g_operators_pass_hermitian_check():
    space = build_space(3)
    for i in range(4):
        op = g_operator(i, space)
        assert op.hermitian
        assert abs(op.matrix - op.matrix.conj().T).max() == 0.0


@given(
    cutoff=st.integers(min_value=1, max_value=5),
    index=st.integers(min_value=0, max_value=3),
    pick=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_g_operators_conserve_total_photon_number(cutoff, index, pick):
    space = build_space(cutoff)
    occ = occupation_list(space)[pick % space.dim]
    out = g_operator(index, space).matrix @ basis_state(space, [occ]).amplitudes
    n_a, n_b = occupations(np.arange(space.dim))
    for k in np.flatnonzero(np.abs(out) > 0):
        assert n_a[k] + n_b[k] == sum(occ)


def _random_state(space, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return MultiBeamState((space,), amps / np.linalg.norm(amps))


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=25, deadline=None)
def test_tensor_expectation_factorizes(seed):
    space = build_space(2)
    s1 = _random_state(space, seed)
    s2 = _random_state(space, seed + 1)
    joint = product_state([s1, s2])
    a = g_operator(1, space)
    b = g_operator(3, space)
    lhs = expectation(tensor([a, b]), joint)
    rhs = expectation(a, s1) * expectation(b, s2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_tensor_is_associative_up_to_relabeling():
    space = build_space(1)
    a, b, c = (g_operator(i, space) for i in (1, 2, 3))
    nested_left = tensor([tensor([a, b]), c])
    nested_right = tensor([a, tensor([b, c])])
    flat = tensor([a, b, c])
    assert abs(nested_left.matrix - flat.matrix).max() == 0.0
    assert abs(nested_right.matrix - flat.matrix).max() == 0.0


def test_joint_index_first_beam_major():
    space = build_space(1)
    domain = (space, space)
    assert joint_index(domain, [(0, 0), (1, 0)]) == 1
    assert joint_index(domain, [(1, 0), (0, 0)]) == space.dim


def test_product_state_combines_deficits():
    space = build_space(1)
    a = MultiBeamState((space,), np.array([1, 0, 0], dtype=complex), norm_deficit=0.1)
    b = basis_state(space, [(0, 0)])
    combined = product_state([a, b])
    assert combined.norm_deficit == pytest.approx(0.1)


def test_support_is_stored_sorted_and_checked():
    domain = (build_space(1),) * 2
    state = MultiBeamState.from_support(domain, [5, 1], [2.0, 1.0j])
    assert state.index.tolist() == [1, 5]
    assert state.values.tolist() == [1.0j, 2.0]
    assert np.array_equal(state.amplitudes, [0, 1.0j, 0, 0, 0, 2.0, 0, 0, 0])
    dense = MultiBeamState(domain, state.amplitudes)
    assert dense.index.tolist() == [1, 5] and dense.values.tolist() == [1.0j, 2.0]
    with pytest.raises(ValueError, match="repeats"):
        MultiBeamState.from_support(domain, [4, 1, 4], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="outside"):
        MultiBeamState.from_support(domain, [9], [1.0])
    with pytest.raises(ValueError, match="differ"):
        MultiBeamState.from_support(domain, [1, 2], [1.0])


def test_joint_space_beyond_int64_positions_is_refused():
    # 4,504,501 kets per beam; three beams have more than 2^63 joint positions.
    with pytest.raises(ValueError, match="int64"):
        basis_state((build_space(3000),) * 3, [(0, 0)] * 3)


@pytest.mark.parametrize("size", [1, 2, 5, 12])
def test_expi_tridiagonal_matches_dense_exponential(size):
    rng = np.random.default_rng(size)
    diagonal = rng.standard_normal(size)
    magnitudes = rng.uniform(0.0, 2.0, size - 1)
    for coupling in (0.0, 0.7, -1.3, 0.4j, 0.6 - 0.8j):
        h = np.diag(diagonal).astype(complex)
        h += np.diag(coupling * magnitudes, 1) + np.diag(np.conj(coupling) * magnitudes, -1)
        want = scipy.linalg.expm(1j * h)
        assert np.abs(expi_tridiagonal(diagonal, magnitudes, coupling) - want).max() < 1e-13
