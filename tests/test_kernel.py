"""The monomial kernel against the Kronecker-built oracle.

``expectations`` evaluates products of cutoff-free Hermitian sign-sector
monomials, one per beam, on the stored support of a state; the oracle
builds the same products as sparse operators on the joint space with
``tensor()`` and evaluates them by ``expectation`` on the dense amplitude
vector.  Each test forms its weighted sums of products on both sides.
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
    expectations,
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
# The Hermitian factors: all but the half swap.
HERMITIAN = sorted(set(FACTORS) - {"sr"})


def random_state(cutoffs, seed):
    rng = np.random.default_rng(seed)
    domain = tuple(build_space(c) for c in cutoffs)
    dim = int(np.prod([space.dim for space in domain]))
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return MultiBeamState(domain, amps / np.linalg.norm(amps))


def chain(space, links, monomial):
    """Product of the named factors (optionally adjoint), left to right, as a
    monomial or, multiplied as sparse matrices on ``space``, as the oracle's matrix."""
    result = None
    for name, adjoint in links:
        if monomial:
            factor = monomial_adjoint(FACTORS[name]) if adjoint else FACTORS[name]
            result = factor if result is None else monomial_product(result, factor)
        else:
            matrix = FACTORS[name].operator(space).matrix
            factor = matrix.conj().T if adjoint else matrix
            result = factor if result is None else result @ factor
    return result


def sandwich(space, centre, links, monomial):
    """C^dag H C for the Hermitian factor H named ``centre`` and the chain C of ``links``:
    a Hermitian monomial, or the oracle's sparse matrix on ``space``."""
    outer = chain(space, links, monomial)
    if monomial:
        return monomial_product(monomial_product(monomial_adjoint(outer), FACTORS[centre]), outer)
    return outer.conj().T @ FACTORS[centre].operator(space).matrix @ outer


def weighted_sum(weights, products, state):
    """sum_t w_t <product_t> from the kernel, one product per term."""
    return sum(w * v for w, v in zip(weights, expectations(products, state)))


def oracle_sum(weights, products, domain, state):
    """The same sum from the sparse tensor products of each product's factors, flagged
    Hermitian, which ``ComplexOperator`` verifies entrywise."""
    total = sum(w * tensor([ComplexOperator((space,), m.tocsr()) for space, m in zip(domain, product)]).matrix
                for w, product in zip(weights, products))
    return expectation(ComplexOperator(domain, total.tocsr(), hermitian=True), state)


links = st.lists(st.tuples(st.sampled_from(sorted(FACTORS)), st.booleans()), min_size=1, max_size=3)
weights = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    cutoffs=st.lists(st.integers(0, 4), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_kernel_matches_tensor_oracle(cutoffs, seed, data):
    state = random_state(cutoffs, seed)
    beam = st.tuples(st.sampled_from(HERMITIAN), links)
    spec = data.draw(
        st.lists(st.tuples(weights, st.lists(beam, min_size=len(cutoffs), max_size=len(cutoffs))),
                 min_size=1, max_size=4)
    )
    ws = [w for w, _ in spec]
    products = [
        tuple(sandwich(space, centre, path, True) for space, (centre, path) in zip(state.domain, beams))
        for _, beams in spec
    ]
    matrices = [
        [sandwich(space, centre, path, False) for space, (centre, path) in zip(state.domain, beams)]
        for _, beams in spec
    ]
    value = weighted_sum(ws, products, state)
    assert isinstance(value, float)
    assert abs(value - oracle_sum(ws, matrices, state.domain, state)) <= 1e-12


def random_hermitian_monomial(rng):
    """Without a swap, real phases; with one, a real phase at s = 0 and conjugate
    phases at s = +1 and -1.  Each sector (the pair +-1 together under a swap) is
    zeroed with probability 0.3."""
    swap = bool(rng.integers(2))
    phase = rng.standard_normal(3).astype(complex)
    kept = rng.random(3) >= 0.3
    if swap:
        phase[1] = complex(*rng.standard_normal(2))
        phase[2] = phase[1].conjugate()
        kept[2] = kept[1]
    return Monomial(swap, np.where(kept, phase, 0.0))


@settings(max_examples=100, deadline=None)
@given(
    cutoffs=st.lists(st.integers(0, 4), min_size=1, max_size=3),
    density=st.sampled_from([0.02, 0.1, 0.5, 1.0]),
    n_terms=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_support_kernel_matches_tensor_oracle(cutoffs, density, n_terms, seed):
    # Sparse supports in shuffled order, and random Hermitian sign-sector
    # monomials.  Most swapped targets leave the support.
    rng = np.random.default_rng(seed)
    domain = tuple(build_space(c) for c in cutoffs)
    dim = math.prod(space.dim for space in domain)
    index = rng.permutation(np.flatnonzero(rng.random(dim) < density))
    if not index.size:
        index = rng.integers(dim, size=1)
    values = rng.standard_normal(index.size) + 1j * rng.standard_normal(index.size)
    positions = np.unravel_index(index, tuple(space.dim for space in domain))
    state = MultiBeamState.from_support(domain, positions, values / np.linalg.norm(values))

    ws = rng.standard_normal(n_terms)
    products = [tuple(random_hermitian_monomial(rng) for _ in domain) for _ in range(n_terms)]
    matrices = [[f.operator(space).matrix for f, space in zip(product, domain)] for product in products]
    value = weighted_sum(ws, products, state)
    assert abs(value - oracle_sum(ws, matrices, domain, state)) <= 1e-12


def test_domain_mismatch_is_rejected():
    state = random_state((2, 3), 0)
    with pytest.raises(DomainMismatchError):
        expectations([(g_monomial(0),)], state)


def test_unnormalized_state_is_rejected():
    state = random_state((2, 2), 1)
    doubled = MultiBeamState(state.domain, 2.0 * state.amplitudes)
    with pytest.raises(ValueError, match="not normalized"):
        expectations([(g_monomial(0),) * 2], doubled)


def test_non_hermitian_product_is_rejected():
    # i times the identity on the first beam makes <i 1 x g0> = i <1 x g0>, imaginary.
    state = random_state((2, 2), 2)
    assert all(isinstance(v, float) for v in expectations([(g_monomial(0),) * 2], state))
    with pytest.raises(HermitianViolationError):
        expectations([(Monomial(False, (1j, 1j, 1j)), g_monomial(0))], state)
