"""The monomial kernel against the Kronecker-built oracle.

``expectation_sums`` evaluates weighted sums of products of cutoff-free
sign-sector monomials on the stored support of a state; the oracle builds
the same sums as sparse operators on the joint space with ``tensor()`` and
evaluates them by ``expectation`` on the dense amplitude vector.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tensor_oracle import monomial_adjoint, monomial_product

from bnl.fock import (
    ComplexOperator,
    DomainMismatchError,
    HermitianViolationError,
    Monomial,
    MultiBeamState,
    build_space,
    expectation,
    expectation_sums,
    tensor,
)
from bnl.gpauli import diagonal_monomial, g_monomial, pr_monomial, sr_monomial

# name -> monomial; the oracle takes each one's sparse form on a space.
FACTORS = {
    **{f"g{i}": g_monomial(i) for i in range(4)},
    **{f"g{i}-": g_monomial(i, dichotomized=True) for i in (1, 2, 3)},
    "sr": sr_monomial(),
    "pr": pr_monomial(),
    "diagonal": diagonal_monomial(),
}


def random_state(cutoffs, seed):
    rng = np.random.default_rng(seed)
    domain = tuple(build_space(c) for c in cutoffs)
    dim = int(np.prod([space.dim for space in domain]))
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return MultiBeamState(domain, amps / np.linalg.norm(amps))


def chain(space, links, monomial):
    """Product of the named factors (optionally adjoint), left to right, as a
    monomial or, multiplied as sparse matrices on ``space``, as the oracle."""
    result = None
    for name, adjoint in links:
        if monomial:
            factor = monomial_adjoint(FACTORS[name]) if adjoint else FACTORS[name]
            result = factor if result is None else monomial_product(result, factor)
        else:
            matrix = FACTORS[name].operator(space).matrix
            factor = matrix.conj().T if adjoint else matrix
            result = factor if result is None else result @ factor
    return result if monomial else ComplexOperator((space,), result.tocsr())


links = st.lists(st.tuples(st.sampled_from(sorted(FACTORS)), st.booleans()), min_size=1, max_size=3)
weights = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    cutoffs=st.lists(st.integers(0, 4), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_kernel_matches_tensor_oracle(cutoffs, seed, data):
    state = random_state(cutoffs, seed)
    spec = data.draw(
        st.lists(st.tuples(weights, st.lists(links, min_size=len(cutoffs), max_size=len(cutoffs))),
                 min_size=1, max_size=4)
    )
    terms = [
        (w, tuple(chain(space, per_beam, True) for space, per_beam in zip(state.domain, beams)))
        for w, beams in spec
    ]
    oracle = sum(
        w * tensor([chain(space, per_beam, False) for space, per_beam in zip(state.domain, beams)]).matrix
        for w, beams in spec
    )
    [value] = expectation_sums([terms], state)
    assert abs(value - expectation(ComplexOperator(state.domain, oracle), state)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(
    cutoffs=st.lists(st.integers(0, 4), min_size=1, max_size=3),
    density=st.sampled_from([0.02, 0.1, 0.5, 1.0]),
    n_terms=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_support_kernel_matches_tensor_oracle(cutoffs, density, n_terms, seed):
    # Sparse supports in shuffled order, and random sign-sector monomials:
    # random swap bits and phases, some of them zero.  Most swapped targets
    # leave the support.
    rng = np.random.default_rng(seed)
    domain = tuple(build_space(c) for c in cutoffs)
    dim = math.prod(space.dim for space in domain)
    index = rng.permutation(np.flatnonzero(rng.random(dim) < density))
    if not index.size:
        index = rng.integers(dim, size=1)
    values = rng.standard_normal(index.size) + 1j * rng.standard_normal(index.size)
    positions = np.unravel_index(index, tuple(space.dim for space in domain))
    state = MultiBeamState.from_support(domain, positions, values / np.linalg.norm(values))

    def random_monomial():
        phase = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        phase[rng.random(3) < 0.3] = 0.0
        return Monomial(bool(rng.integers(2)), phase)

    terms = [
        (complex(*rng.standard_normal(2)), tuple(random_monomial() for _ in domain))
        for _ in range(n_terms)
    ]
    oracle = sum(
        w * tensor([factor.operator(space) for factor, space in zip(factors, domain)]).matrix
        for w, factors in terms
    )
    [value] = expectation_sums([terms], state)
    assert abs(value - expectation(ComplexOperator(domain, oracle), state)) <= 1e-12


def test_domain_mismatch_is_rejected():
    state = random_state((2, 3), 0)
    with pytest.raises(DomainMismatchError):
        expectation_sums([[(1.0, (g_monomial(0),))]], state)


def test_unnormalized_state_is_rejected():
    state = random_state((2, 2), 1)
    doubled = MultiBeamState(state.domain, 2.0 * state.amplitudes)
    factors = (g_monomial(0),) * 2
    with pytest.raises(ValueError, match="not normalized"):
        expectation_sums([[(1.0, factors)]], doubled)


def test_hermitian_sum_with_imaginary_value_is_rejected():
    state = random_state((2, 2), 2)
    factors = (g_monomial(0),) * 2
    assert isinstance(expectation_sums([[(1.0, factors)]], state, hermitian=True)[0], float)
    with pytest.raises(HermitianViolationError):
        expectation_sums([[(1j, factors)]], state, hermitian=True)

