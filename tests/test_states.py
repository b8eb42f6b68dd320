import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tensor_oracle import flat_position

from bnl.fock import (
    MultiBeamState,
    basis_state,
    build_space,
    expectation,
    occupations,
    tensor,
)
from bnl.gpauli import g_operator
from bnl.states import (
    BELL_STATES,
    GHZ3,
    BghzCoefficients,
    BsvParams,
    InputFileError,
    bghz_generator_state,
    bghz_state,
    bsv_state,
    load_bghz_coefficients,
    prob_diagonal,
    prob_diagonal_bounds,
    qubit_embed,
    random_beam_state,
    random_separable,
)

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def psi_nm_state(n, m):
    """(|n,m;n,m;n,m> + |m,n;m,n;m,n>)/sqrt(2) for n != m, at cutoff n + m."""
    space = build_space(n + m)
    kets = [space.position(n, m), space.position(m, n)]
    return MultiBeamState.from_support((space,) * 3, (kets,) * 3, [1 / math.sqrt(2)] * 2)


def bsv_amplitude(state, occ1, occ2):
    domain = state.domain
    return state.amplitudes[flat_position(domain, [occ1, occ2])]


class TestBsv:
    def test_zero_gain_is_vacuum(self):
        state = bsv_state(BsvParams(0.0, 3))
        assert bsv_amplitude(state, (0, 0), (0, 0)) == 1.0
        assert np.sum(np.abs(state.amplitudes)) == 1.0
        assert state.norm_deficit == 0.0

    def test_single_pair_component_signs(self):
        gamma = 0.7
        state = bsv_state(BsvParams(gamma, 5))
        scale = math.tanh(gamma) / math.cosh(gamma) ** 2
        assert bsv_amplitude(state, (1, 0), (0, 1)) == pytest.approx(scale, abs=1e-15)
        assert bsv_amplitude(state, (0, 1), (1, 0)) == pytest.approx(-scale, abs=1e-15)

    def test_norm_deficit_matches_analytic_tail(self):
        # 1 - (kept mass) loses the digits of a small tail: it read 1.52656e-13
        # at (0.3, 12) and 0.0 at (0.7, 40).
        for gamma, cutoff in ((1.0, 40), (0.3, 12), (0.7, 40)):
            state = bsv_state(BsvParams(gamma, cutoff))
            x = math.tanh(gamma) ** 2
            # closed form of the dropped tail: sech^4 sum_{n>cutoff} (n+1) x^n
            tail = x ** (cutoff + 1) * ((cutoff + 2) - (cutoff + 1) * x)
            assert state.norm_deficit == pytest.approx(tail, rel=1e-12)
            assert state.norm() ** 2 + state.norm_deficit == pytest.approx(1.0, abs=1e-12)
        assert bsv_state(BsvParams(1.0, 40)).norm_deficit < 1e-8

    def test_parity_structure_of_diagonal_terms(self):
        state = bsv_state(BsvParams(0.9, 8))
        space = state.domain[0]
        dim = space.dim
        diagonal_counts = {n: 0 for n in range(9)}
        n_a, n_b = occupations(np.arange(space.dim))
        diagonal = n_a == n_b
        for flat in np.flatnonzero(np.abs(state.amplitudes) > 0):
            k1, k2 = divmod(flat, dim)
            if diagonal[k1] or diagonal[k2]:
                assert diagonal[k1] and diagonal[k2]
                diagonal_counts[n_a[k1] + n_b[k1]] += 1
        for n in range(9):
            assert diagonal_counts[n] == (1 if n % 2 == 0 else 0)

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.89, 1.2])
    def test_prob_diagonal_matches_closed_form(self, gamma):
        state = bsv_state(BsvParams(gamma, 40))
        assert prob_diagonal(state) == pytest.approx(
            1.0 / math.cosh(2 * gamma), abs=1e-8 + state.norm_deficit
        )

    def test_bounds_bracket_closed_form(self):
        state = bsv_state(BsvParams(1.2, 30))
        lo, hi = prob_diagonal_bounds(state)
        assert lo <= 1.0 / math.cosh(2.4) <= hi

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BsvParams(-0.1, 4)
        with pytest.raises(ValueError):
            BsvParams(float("nan"), 4)
        with pytest.raises(ValueError):
            BsvParams(1.0, -1)

    @pytest.mark.parametrize("gamma", [354.0, 356.0, 1e3, 1e300])
    def test_huge_gain_leaves_all_mass_in_the_deficit(self, gamma):
        state = bsv_state(BsvParams(gamma, 3))
        assert np.abs(state.amplitudes).max() < 1e-150
        assert state.norm_deficit == 1.0


def test_prob_diagonal_trivial_cases():
    space = build_space(2)
    assert prob_diagonal(basis_state((space, space), [(1, 1), (2, 0)])) == 1.0
    assert prob_diagonal(basis_state((space, space), [(2, 0), (0, 1)])) == 0.0


@given(
    cutoffs=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
    deficit=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    zero_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_prob_diagonal_matches_brute_force(cutoffs, deficit, zero_share, seed):
    domain = tuple(build_space(cutoff) for cutoff in cutoffs)
    rng = np.random.default_rng(seed)
    dim = math.prod(space.dim for space in domain)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    # Zero entries leave the support, which is all that prob_diagonal reads.
    amps[rng.random(dim) < zero_share] = 0.0
    if np.any(amps):
        amps *= math.sqrt(1.0 - deficit) / np.linalg.norm(amps)
    state = MultiBeamState(domain, amps, norm_deficit=deficit)
    per_beam = [list(zip(*(n.tolist() for n in occupations(np.arange(s.dim))))) for s in domain]
    expected = 0.0
    for occs in itertools.product(*per_beam):
        if any(n_a == n_b for n_a, n_b in occs):
            expected += abs(amps[flat_position(domain, occs)]) ** 2
    assert prob_diagonal(state) == pytest.approx(expected, abs=1e-14)


def test_prob_diagonal_allocates_no_joint_space_array():
    # The cutoff-40 squeezed vacuum stores 861 amplitudes; its dense vector
    # over the joint space would take 11.3 MiB.
    state = bsv_state(BsvParams(0.7, 40))
    tracemalloc.start()
    try:
        prob_diagonal(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestBghz:
    def test_vacuum_coefficients(self):
        state = bghz_state(BghzCoefficients((1.0,)), 2)
        assert state.amplitudes[0] == 1.0

    def test_equal_weight_pair_component(self):
        state = bghz_state(BghzCoefficients((1.0, 1.0)), 2)
        domain = state.domain
        a_up = state.amplitudes[flat_position(domain, [(1, 0)] * 3)]
        a_dn = state.amplitudes[flat_position(domain, [(0, 1)] * 3)]
        assert a_up == a_dn
        assert a_up != 0

    def test_support_repeats_occupations_across_beams(self):
        rng = np.random.default_rng(11)
        coeffs = BghzCoefficients(tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        state = bghz_state(coeffs, 4)
        space = state.domain[0]
        dim = space.dim
        for flat in np.flatnonzero(np.abs(state.amplitudes) > 0):
            i3 = flat % dim
            i2 = (flat // dim) % dim
            i1 = flat // (dim * dim)
            assert i1 == i2 == i3

    def test_pair_amplitudes_coincide(self):
        rng = np.random.default_rng(5)
        coeffs = BghzCoefficients(tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        state = bghz_state(coeffs, 6)
        space = state.domain[0]
        for p, m in zip(*(n.tolist() for n in occupations(np.arange(space.dim)))):
            up = state.amplitudes[flat_position(state.domain, [(p, m)] * 3)]
            dn = state.amplitudes[flat_position(state.domain, [(m, p)] * 3)]
            assert up == pytest.approx(dn, abs=1e-14)

    def test_rejects_degenerate_coefficients(self):
        with pytest.raises(ValueError):
            BghzCoefficients(())
        with pytest.raises(ValueError):
            BghzCoefficients((0.0, 0.0))
        with pytest.raises(ValueError):
            BghzCoefficients((float("inf"),))

    def test_rejects_unrepresentable_truncation(self):
        coeffs = BghzCoefficients((0.0, 1.0))  # only the (1,1) term, needs cutoff >= 2
        with pytest.raises(ValueError, match="representable"):
            bghz_state(coeffs, 1)

    @pytest.mark.parametrize(
        "entries, cutoff, flow",
        [
            # (100! 80!)^(3/2) is past the largest double.
            ((1.0,) * 101, 180, "overflows"),
            ((1e200, 1.0), 2, "overflows"),
            ((1e100,), 0, "overflows"),
            ((1e-100,), 0, "underflows"),
            ((1e-80,), 0, "underflows"),  # 1e-320 is subnormal
        ],
    )
    def test_refuses_a_squared_norm_outside_the_doubles(self, entries, cutoff, flow):
        with pytest.raises(ValueError, match=f"squared norm of the weights .* {flow} a double"):
            bghz_state(BghzCoefficients(entries), cutoff)


class TestPsiNm:
    def test_explicit_form(self):
        state = psi_nm_state(1, 0)
        domain = state.domain
        root_half = 1 / math.sqrt(2)
        assert state.amplitudes[flat_position(domain, [(1, 0)] * 3)] == pytest.approx(root_half)
        assert state.amplitudes[flat_position(domain, [(0, 1)] * 3)] == pytest.approx(root_half)
        assert np.count_nonzero(state.amplitudes) == 2

    def test_is_plus_one_eigenvector_of_triple_swap(self):
        state = psi_nm_state(2, 1)
        space = state.domain[0]
        op = tensor([g_operator(1, space)] * 3)
        out = op.matrix @ state.amplitudes
        assert np.allclose(out, state.amplitudes, atol=1e-14)
        assert expectation(op, state) == pytest.approx(1.0, abs=1e-13)

    def test_double_sign_mechanism(self):
        state = psi_nm_state(2, 0)
        space = state.domain[0]
        op = tensor([g_operator(3, space), g_operator(3, space), g_operator(0, space)])
        assert expectation(op, state) == pytest.approx(1.0, abs=1e-13)


class TestQubitEmbed:
    def test_singlet_embedding(self):
        state = qubit_embed(BELL_STATES["singlet"])
        domain = state.domain
        root_half = 1 / math.sqrt(2)
        assert state.amplitudes[flat_position(domain, [(1, 0), (0, 1)])] == pytest.approx(root_half)
        assert state.amplitudes[flat_position(domain, [(0, 1), (1, 0)])] == pytest.approx(-root_half)

    def test_embedded_states_avoid_diagonal_subspace(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            state = qubit_embed(amps / np.linalg.norm(amps))
            assert prob_diagonal(state) == 0.0

    def test_ghz_is_the_single_pair_superposition(self):
        embedded = qubit_embed(GHZ3)
        reference = psi_nm_state(1, 0)
        assert np.allclose(embedded.amplitudes, reference.amplitudes)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            qubit_embed(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_expectations_match_qubit_paulis_exactly(self):
        rng = np.random.default_rng(17)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps /= np.linalg.norm(amps)
        state = qubit_embed(amps)
        space = state.domain[0]
        for i in range(4):
            for j in range(4):
                boson = expectation(tensor([g_operator(i, space), g_operator(j, space)]), state)
                qubit = np.vdot(amps, np.kron(SIGMA[i], SIGMA[j]) @ amps).real
                assert boson == pytest.approx(qubit, abs=1e-13)


class TestRandomSeparable:
    def test_degree_zero_is_vacuum(self):
        state = random_separable(0, 2, 3, 0)
        nonzero = np.flatnonzero(np.abs(state.amplitudes) > 0)
        assert list(nonzero) == [0]

    def test_deterministic_under_seed(self):
        a = random_separable(42, 2, 3, 2)
        b = random_separable(42, 2, 3, 2)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_degree_bounds_support(self):
        state = random_beam_state(np.random.default_rng(0), 5, 2)
        space = state.domain[0]
        n_a, n_b = occupations(np.arange(space.dim))
        for k in np.flatnonzero(np.abs(state.amplitudes) > 0):
            assert n_a[k] + n_b[k] <= 2

    def test_degree_above_cutoff_rejected(self):
        with pytest.raises(ValueError):
            random_separable(0, 2, 2, 3)

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=20, deadline=None)
    def test_diagonal_probability_factorizes(self, seed):
        rng = np.random.default_rng(seed)
        beams = [random_beam_state(rng, 3, 2) for _ in range(2)]
        joint = random_separable(seed, 2, 3, 2)
        # regenerate the same draws: random_separable consumes the rng identically
        per_beam = [prob_diagonal(b) for b in beams]
        expected = 1.0 - (1.0 - per_beam[0]) * (1.0 - per_beam[1])
        assert prob_diagonal(joint) == pytest.approx(expected, abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=20, deadline=None)
    def test_pair_expectations_factorize(self, seed):
        state = random_separable(seed, 2, 3, 2)
        space = state.domain[0]
        rng = np.random.default_rng(seed)
        beams = [random_beam_state(rng, 3, 2) for _ in range(2)]
        op1 = g_operator(1, space)
        op2 = g_operator(2, space)
        joint_value = expectation(tensor([op1, op2]), state)
        split = expectation(op1, beams[0]) * expectation(op2, beams[1])
        assert joint_value == pytest.approx(split, abs=1e-12)


LOG10_TOP_GAIN = math.log10(1.7e308)


class TestGeneratorState:
    def test_zero_gain_is_vacuum(self):
        state = bghz_generator_state(0.0, 4)
        assert state.amplitudes[0] == pytest.approx(1.0)

    def test_support_structure(self):
        state = bghz_generator_state(0.35, 6)
        space = state.domain[0]
        dim = space.dim
        for flat in np.flatnonzero(np.abs(state.amplitudes) > 1e-14):
            i3 = flat % dim
            i2 = (flat // dim) % dim
            i1 = flat // (dim * dim)
            assert i1 == i2 == i3

    def test_mode_exchange_symmetry(self):
        state = bghz_generator_state(0.4, 8)
        space = state.domain[0]
        for p, m in zip(*(n.tolist() for n in occupations(np.arange(space.dim)))):
            up = state.amplitudes[flat_position(state.domain, [(p, m)] * 3)]
            dn = state.amplitudes[flat_position(state.domain, [(m, p)] * 3)]
            assert up == pytest.approx(dn, abs=1e-10)

    def test_matches_dense_exponential_of_the_reduced_generator(self):
        for cutoff in range(13):
            # The two-ladder generator on the square of n = cutoff // 2 triples per ladder.
            n = cutoff // 2
            square = list(itertools.product(range(n + 1), repeat=2))
            where = {pm: k for k, pm in enumerate(square)}
            raising = np.zeros((len(square), len(square)))
            for col, (p, m) in enumerate(square):
                if p < n:
                    raising[where[p + 1, m], col] += (p + 1) ** 1.5
                if m < n:
                    raising[where[p, m + 1], col] += (m + 1) ** 1.5
            space = build_space(cutoff)
            i = np.array([space.position(p, m) for p, m in square])
            kets = [flat_position((space,) * 3, [(p, m)] * 3) for p, m in square]
            for gamma in (0.0, 0.05, 0.3, -0.45, 1.0):
                want = scipy.linalg.expm(gamma * (raising - raising.T))[:, where[0, 0]]
                state = bghz_generator_state(gamma, cutoff)
                assert np.array_equal(state.index, np.sort(kets))
                assert np.abs(state.lookup((i,) * 3) - want).max() < 1e-13

    def test_overflowing_gain_is_refused(self):
        # At cutoff 8 each ladder holds n = 4 triples, and 2 |gamma| 4^1.5 = 16 |gamma|
        # bounds the generator's eigenvalues.  A check on the largest entry alone,
        # 8 |gamma|, passes 2e307, whose eigenvalues then overflow.
        assert bghz_generator_state(1e307, 8).norm() == pytest.approx(1.0, abs=1e-12)
        for gamma in (2e307, -2e307, 1e308, -1e308):
            with pytest.raises(
                ValueError, match=r"ladder eigenvalue bound 2 \|gamma\| n\^1.5 with n = 4 overflows"
            ):
                bghz_generator_state(gamma, 8)
        # Cutoffs 0 and 1 hold no triple, so every finite gain gives the vacuum.
        for cutoff in (0, 1):
            assert bghz_generator_state(-1.7e308, cutoff).values.tolist() == [1]

    # Half the draws fall in the top four decades, where the eigenvalues of a
    # ladder of up to 99 triples can overflow although its entries do not.
    @settings(deadline=None)
    @given(
        exponent=st.one_of(st.floats(-12, LOG10_TOP_GAIN), st.floats(LOG10_TOP_GAIN - 4, LOG10_TOP_GAIN)),
        sign=st.sampled_from([1.0, -1.0]),
        cutoff=st.integers(0, 199),
    )
    @example(exponent=LOG10_TOP_GAIN, sign=-1.0, cutoff=199)
    @example(exponent=math.log10(1.5e305), sign=1.0, cutoff=199)
    def test_any_gain_gives_a_normalized_state_or_a_refusal(self, exponent, sign, cutoff):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                state = bghz_generator_state(sign * 10.0**exponent, cutoff)
            except ValueError as exc:
                assert "overflows a double" in str(exc)
                return
        assert abs(state.norm() - 1.0) < 1e-12

    def test_dimension_cap_from_environment(self, monkeypatch):
        # Cutoff 8 has 4 triples per ladder, so 5^2 = 25 amplitudes.
        cases = [
            ("5", "state needs 25 stored amplitudes, above the BNL_MAX_DIM cap 5"),
            ("10", "state needs 25 stored amplitudes, above the BNL_MAX_DIM cap 10"),
            ("abc", "BNL_MAX_DIM must be an integer, got 'abc'"),
            ("1e4", "BNL_MAX_DIM must be an integer, got '1e4'"),
            ("", "BNL_MAX_DIM must be an integer, got ''"),
            ("0", "BNL_MAX_DIM must be a positive integer, got '0'"),
            ("-5", "BNL_MAX_DIM must be a positive integer, got '-5'"),
        ]
        for value, message in cases:
            monkeypatch.setenv("BNL_MAX_DIM", value)
            with pytest.raises(ValueError, match=message):
                bghz_generator_state(0.2, 8)


class TestCoefficientFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("0,1.0,0.0\n1,0.25,-0.5\n2,0.0,0.125\n")
        coeffs = load_bghz_coefficients(path)
        assert coeffs.entries == (1.0 + 0j, 0.25 - 0.5j, 0.125j)

    def test_bad_field_count_names_line(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("0,1.0,0.0\n1,2.0\n")
        with pytest.raises(InputFileError, match=r":2:"):
            load_bghz_coefficients(path)

    def test_bad_number_names_line(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("0,one,0.0\n")
        with pytest.raises(InputFileError, match=r":1:"):
            load_bghz_coefficients(path)

    def test_non_consecutive_orders_rejected(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("0,1.0,0.0\n2,1.0,0.0\n")
        with pytest.raises(InputFileError, match="out of sequence"):
            load_bghz_coefficients(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("\n")
        with pytest.raises(InputFileError, match="no coefficient"):
            load_bghz_coefficients(path)

    @pytest.mark.parametrize("value", ["nan,0.0", "0.5,inf", "-inf,-inf"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "coeffs.csv"
        path.write_text(f"0,1.0,0.0\n1,{value}\n")
        with pytest.raises(InputFileError, match=rf":2: coefficient '{value}' is not finite"):
            load_bghz_coefficients(path)

    def test_all_zero_file_names_the_file(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("0,0.0,0.0\n1,-0.0,0.0\n")
        with pytest.raises(InputFileError, match=r"coeffs\.csv: all coefficients are zero"):
            load_bghz_coefficients(path)
