import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tensor_oracle import flat_position, gram_oracle, map_witness, pm_cells, pm_line_products, pm_operator

from bnl import indicators
from bnl.fock import (
    DomainMismatchError,
    MultiBeamState,
    basis_state,
    build_space,
    expectation,
    tensor,
)
from bnl.gpauli import g_operator
from bnl.indicators import (
    CYCLIC_PERMUTATIONS,
    GHZ3_WITNESS,
    PHI_PLUS_WITNESS,
    PM_CELL_LABELS,
    PM_LINES,
    SINGLET_WITNESS,
    DegenerateCertificateError,
    WitnessSpec,
    beam_gram,
    contextuality_threshold,
    contextuality_verdict,
    correlations,
    gram_certificate,
    lhv_bound_oracle,
    mermin_bell_value,
    mermin_lhv_value,
    nchv_bound_oracle,
    nchv_expression,
    ns_condition_family,
    pm_expectation,
    witness_expectation,
    witness_verdict,
)
from bnl.states import (
    BELL_STATES,
    GHZ3,
    BghzCoefficients,
    BsvParams,
    bghz_state,
    bsv_state,
    prob_diagonal,
    qubit_embed,
    random_separable,
)

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def random_two_beam_state(seed, cutoff=3):
    rng = np.random.default_rng(seed)
    space = build_space(cutoff)
    amps = rng.standard_normal(space.dim**2) + 1j * rng.standard_normal(space.dim**2)
    return MultiBeamState((space, space), amps / np.linalg.norm(amps))


def random_coefficients(seed, length):
    rng = np.random.default_rng(seed)
    return BghzCoefficients(
        tuple(rng.standard_normal(length) + 1j * rng.standard_normal(length))
    )


# The verdict records of each two-beam quantity, for the truncation-interval property.
TWO_BEAM_VERDICTS = {
    "peres_mermin_square": lambda state: [pm_expectation(state)],
    "singlet_witness": lambda state: [witness_verdict(SINGLET_WITNESS, state)],
    "phi_plus_witness": lambda state: [witness_verdict(PHI_PLUS_WITNESS, state)],
    "ns_condition": lambda state: ns_condition_family(state).members,
}


@st.composite
def tables_near_the_square(draw):
    """The square's cell table with one or two cells relabelled, and its line signs flipped at random."""
    labels = dict(PM_CELL_LABELS)
    for cell in draw(st.lists(st.sampled_from(sorted(labels)), min_size=1, max_size=2, unique=True)):
        labels[cell] = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    flips = draw(st.lists(st.booleans(), min_size=len(PM_LINES), max_size=len(PM_LINES)))
    lines = tuple((name, line, -sign if flip else sign) for (name, line, sign), flip in zip(PM_LINES, flips))
    return labels, lines


class TestPeresMerminSquare:
    def test_cell_table_matches_fixed_constants(self):
        assert PM_CELL_LABELS == {
            (1, 1): (3, 0), (2, 1): (0, 3), (3, 1): (3, 3),
            (1, 2): (0, 1), (2, 2): (1, 0), (3, 2): (1, 1),
            (1, 3): (3, 1), (2, 3): (1, 3), (3, 3): (2, 2),
        }

    def test_cells_are_the_declared_tensor_products(self):
        space = build_space(2)
        operator = pm_operator(space)
        for seed in range(20):
            state = random_two_beam_state(seed, cutoff=2)
            want = expectation(operator, state)
            assert pm_expectation(state).value == pytest.approx(want, abs=1e-12)

    @given(
        gamma=st.floats(min_value=0.0, max_value=1.2, exclude_min=True),
        cutoff=st.sampled_from([4, 10, 20, 40]),
        quantity=st.sampled_from(sorted(TWO_BEAM_VERDICTS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_interval_contains_the_value_at_twice_the_cutoff(self, gamma, cutoff, quantity):
        verdicts = TWO_BEAM_VERDICTS[quantity]
        coarse = verdicts(bsv_state(BsvParams(gamma, cutoff)))
        finer = verdicts(bsv_state(BsvParams(gamma, 2 * cutoff)))
        for record, fine in zip(coarse, finer, strict=True):
            assert record.interval_lo - 1e-13 <= fine.margin <= record.interval_hi + 1e-13

    def test_line_cells_commute(self):
        cells = pm_cells(build_space(3))
        for _, line, _ in PM_LINES:
            for a, b in itertools.combinations(line, 2):
                a_matrix, b_matrix = cells[a].matrix, cells[b].matrix
                comm = a_matrix @ b_matrix - b_matrix @ a_matrix
                assert abs(comm).max() < 1e-12

    def test_commutation_guard_rejects_a_mislabelled_cell(self, monkeypatch):
        labels = dict(PM_CELL_LABELS)
        labels[(1, 1)] = (1, 0)
        monkeypatch.setattr(indicators, "PM_CELL_LABELS", labels)
        with pytest.raises(indicators.CrossCheckError, match="fail to commute"):
            pm_expectation(random_two_beam_state(0))

    def test_shortcut_cross_check_rejects_a_wrong_line_sign(self, monkeypatch):
        lines = tuple((name, line, +1) for name, line, _ in PM_LINES)
        monkeypatch.setattr(indicators, "PM_LINES", lines)
        with pytest.raises(indicators.CrossCheckError, match="disagree"):
            pm_expectation(random_two_beam_state(0))

    def test_square_is_one_term_six_g0_g0(self):
        # The guard returns the weight w of w g0 x g0, and the value is w T_00.
        assert indicators._pm_terms(tuple(PM_CELL_LABELS.items()), PM_LINES) == 6

    @given(table=tables_near_the_square())
    @example(table=(dict(PM_CELL_LABELS), PM_LINES))
    @settings(max_examples=200, deadline=None)
    def test_guard_agrees_with_the_sparse_oracle_near_the_square(self, table):
        labels, lines = table
        space = build_space(3)
        cells = {key: cell.matrix for key, cell in pm_cells(space, labels).items()}
        commute = all(
            abs(cells[a] @ cells[b] - cells[b] @ cells[a]).max() <= 1e-12
            for _, line, _ in lines
            for a, b in itertools.combinations(line, 2)
        )
        products = pm_line_products(space, labels, lines)
        g00 = tensor([g_operator(0, space)] * 2).matrix
        ket = flat_position((space, space), [(1, 0), (1, 0)])  # where g0 x g0 is 1
        off = [
            name for name, product in products.items()
            if abs(product - product[ket, ket] * g00).max() > 1e-12
        ]
        indicators._pm_terms.cache_clear()
        args = (tuple(labels.items()), lines)
        if not commute:
            with pytest.raises(indicators.CrossCheckError, match="fail to commute"):
                indicators._pm_terms(*args)
        elif off:
            with pytest.raises(indicators.CrossCheckError, match=f"line {off[0]} multiplies to no multiple of g0 x g0"):
                indicators._pm_terms(*args)
        else:
            got = indicators._pm_terms(*args) * g00
            want = sum(sign * products[name] for name, _, sign in lines)
            assert abs(got - want).max() <= 1e-12

    def test_five_plus_lines_one_minus_line(self):
        space = build_space(3)
        products = pm_line_products(space)
        joint_projector = tensor([g_operator(0, space)] * 2).matrix
        for name, _, sign in PM_LINES:
            product = products[name]
            target = sign * joint_projector
            assert abs(product - target).max() < 1e-12
        signs = [sign for _, _, sign in PM_LINES]
        assert sorted(signs) == [-1, 1, 1, 1, 1, 1]

    def test_embedded_qubit_states_give_six(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            state = qubit_embed(amps / np.linalg.norm(amps))
            result = pm_expectation(state)
            assert result.value == pytest.approx(6.0, abs=1e-12)

    def test_bsv_value_matches_closed_form(self):
        state = bsv_state(BsvParams(1.0, 40))
        result = pm_expectation(state)
        want = 6.0 - 6.0 / math.cosh(2.0)
        assert result.value == pytest.approx(want, abs=1e-8 + 6 * state.norm_deficit)
        assert result.interval_lo <= want - 4.0 <= result.interval_hi

    def test_fully_diagonal_state_gives_zero(self):
        space = build_space(2)
        state = basis_state((space, space), [(1, 1), (1, 1)])
        assert pm_expectation(state).value == pytest.approx(0.0, abs=1e-14)

    def test_shortcut_consistency_on_random_states(self):
        for seed in range(100):
            state = random_two_beam_state(seed)
            result = pm_expectation(state)
            shortcut = 6.0 * (1.0 - result.details["p_diag"])
            assert result.value == pytest.approx(shortcut, abs=1e-10)

    def test_verdict_flip(self):
        not_violated = contextuality_verdict(bsv_state(BsvParams(0.5, 40)))
        assert not_violated.verdict == "not_violated"
        assert not_violated.value == pytest.approx(6 - 6 / math.cosh(1.0), abs=1e-8)
        violated = contextuality_verdict(bsv_state(BsvParams(1.0, 40)))
        assert violated.verdict == "violated"
        assert violated.margin > 0

    def test_threshold_bisection_hits_closed_form_root(self):
        root = contextuality_threshold(cutoff=40, tol=1e-6)
        assert abs(root - math.acosh(3.0) / 2.0) < 1e-6


class TestNchvOracle:
    def test_trichotomic_maximum_is_four(self):
        assert nchv_bound_oracle() == 4

    def test_dichotomic_maximum_is_four(self):
        assert nchv_bound_oracle(values=(-1, 1)) == 4

    def test_all_zero_assignment(self):
        assignment = {cell: 0 for cell in PM_CELL_LABELS}
        assert nchv_expression(assignment) == 0.0

    def test_expression_orientation(self):
        # all-ones scores the five plus lines against the minus line
        assignment = {cell: 1 for cell in PM_CELL_LABELS}
        assert nchv_expression(assignment) == 4.0


class TestWitnessMapping:
    def test_identity_spec_maps_to_joint_projector(self):
        spec = WitnessSpec(2, {(0, 0): 1.0})
        projector = tensor([g_operator(0, build_space(3))] * 2)
        for seed in range(10):
            state = random_two_beam_state(seed)
            want = expectation(projector, state)
            assert witness_expectation(spec, state) == pytest.approx(want, abs=1e-12)

    def test_witness_operator_is_hermitian(self):
        rng = np.random.default_rng(5)
        space = build_space(2)
        operator = map_witness(GHZ3_WITNESS, space)
        assert operator.hermitian
        for _ in range(10):
            amps = rng.standard_normal(space.dim**3) + 1j * rng.standard_normal(space.dim**3)
            state = MultiBeamState((space,) * 3, amps / np.linalg.norm(amps))
            want = expectation(operator, state)
            assert witness_expectation(GHZ3_WITNESS, state) == pytest.approx(want, abs=1e-12)

    def test_two_party_witness_matches_qubit_arithmetic(self):
        state = qubit_embed(BELL_STATES["singlet"])
        got = witness_expectation(PHI_PLUS_WITNESS, state)
        w_qubit = sum(
            weight * np.kron(SIGMA[a], SIGMA[b])
            for (a, b), weight in PHI_PLUS_WITNESS.coefficients.items()
        )
        amps = BELL_STATES["singlet"]
        want = np.vdot(amps, w_qubit @ amps).real
        assert got == pytest.approx(want, abs=1e-13)
        assert got == pytest.approx(0.5, abs=1e-13)

    def test_singlet_witness_detects_singlet(self):
        state = qubit_embed(BELL_STATES["singlet"])
        assert witness_expectation(SINGLET_WITNESS, state) == pytest.approx(-0.5, abs=1e-13)

    def test_ghz_witness_on_assembled_states(self):
        for seed in range(5):
            coeffs = random_coefficients(seed, 3)
            state = bghz_state(coeffs, 4)
            value = witness_expectation(GHZ3_WITNESS, state)
            projector = tensor([g_operator(0, state.domain[0])] * 3)
            assert value == pytest.approx(-expectation(projector, state), abs=1e-12)
            assert value < 0

    def test_ghz_witness_on_embedded_ghz(self):
        assert witness_expectation(GHZ3_WITNESS, qubit_embed(GHZ3)) == pytest.approx(
            -1.0, abs=1e-12
        )

    @pytest.mark.parametrize(
        "spec,n_beams",
        [(GHZ3_WITNESS, 3), (SINGLET_WITNESS, 2), (PHI_PLUS_WITNESS, 2)],
    )
    def test_separable_sampling_bound(self, spec, n_beams):
        for seed in range(200):
            state = random_separable(seed, n_beams, 4, 2)
            assert witness_expectation(spec, state) >= -1e-10

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WitnessSpec(2, {})
        with pytest.raises(ValueError):
            WitnessSpec(2, {(0, 0): 0.0})
        with pytest.raises(ValueError):
            WitnessSpec(2, {(0, 4): 1.0})
        with pytest.raises(ValueError):
            WitnessSpec(2, {(0, 0, 0): 1.0})
        with pytest.raises(DomainMismatchError):
            witness_expectation(SINGLET_WITNESS, qubit_embed(GHZ3))


def bsv_correlations(gamma):
    """Untruncated T_ij of the squeezed vacuum, in closed form with s = sech 2 gamma."""
    s = 1.0 / math.cosh(2.0 * gamma)
    table = {key: 0.0 for key in itertools.product(range(4), repeat=2)}
    table.update({(0, 0): 1.0 - s, (1, 1): -s * (1.0 - s), (2, 2): -s * (1.0 - s), (3, 3): -(1.0 - s)})
    return table


class TestCorrelations:
    # Cutoff 139 stores (140 * 141) / 2 = 9,870 amplitudes, under the default cap.
    @pytest.mark.parametrize("gamma", [0.05, 0.5, 0.9, 1.2])
    def test_bsv_matches_closed_form(self, gamma):
        state = bsv_state(BsvParams(gamma, 139))
        want = bsv_correlations(gamma)
        got = correlations(state, want)
        tol = 1e-13 + 2.0 * state.norm_deficit
        for key, value in want.items():
            assert abs(got[key] - value) <= tol, key
        matrix = sum(t * np.kron(SIGMA[i], SIGMA[j]) for (i, j), t in want.items()) / 4.0
        assert abs(gram_certificate(state).matrix - matrix).max() <= tol

    def test_only_the_given_keys_are_evaluated(self, monkeypatch):
        # One call, of one product per key: the square evaluates the one product g0 x g0.
        calls = []
        kernel = indicators.expectations

        def spy(products, state):
            calls.append(len(products))
            return kernel(products, state)

        monkeypatch.setattr(indicators, "expectations", spy)
        state = random_two_beam_state(0)
        assert list(correlations(state, [(3, 1), (0, 0)])) == [(3, 1), (0, 0)]
        pm_expectation(state)
        assert calls == [2, 1]

    def test_key_length_must_match_the_beams(self):
        with pytest.raises(DomainMismatchError):
            correlations(random_two_beam_state(0), [(0, 0, 0)])


class TestGramCertificate:
    @pytest.mark.parametrize("n_beams", [1, 2, 3])
    def test_matches_the_overlap_definition(self, n_beams):
        rng = np.random.default_rng(n_beams)
        for _ in range(5):
            domain = tuple(build_space(int(c)) for c in rng.integers(1, 4, size=n_beams))
            dim = math.prod(space.dim for space in domain)
            amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            state = MultiBeamState(domain, amps / np.linalg.norm(amps))
            assert abs(gram_certificate(state).matrix - gram_oracle(state)).max() <= 1e-12

    def test_embedded_states_reproduce_the_qubit_density_matrix(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            amps /= np.linalg.norm(amps)
            certificate = gram_certificate(qubit_embed(amps))
            rho = np.outer(amps, amps.conj())
            assert np.allclose(certificate.normalized, rho, atol=1e-12)
            assert certificate.trace == pytest.approx(1.0, abs=1e-12)

    def test_bsv_trace_identity(self):
        state = bsv_state(BsvParams(1.0, 40))
        certificate = gram_certificate(state)
        want = 1.0 - 1.0 / math.cosh(2.0)
        assert certificate.trace == pytest.approx(want, abs=1e-8 + state.norm_deficit)

    def test_psd_and_trace_on_random_states(self):
        space = build_space(3)
        projector = tensor([g_operator(0, space)] * 2)
        for seed in range(100):
            state = random_two_beam_state(seed)
            certificate = gram_certificate(state)
            assert certificate.min_eigenvalue >= -1e-10
            assert 0.0 < certificate.trace <= 1.0 + 1e-12
            assert certificate.trace == pytest.approx(
                expectation(projector, state), abs=1e-12
            )

    @pytest.mark.parametrize(
        "spec", [SINGLET_WITNESS, PHI_PLUS_WITNESS, WitnessSpec(2, {(3, 3): 1.0, (1, 0): 0.5})]
    )
    def test_homomorphism_identity(self, spec):
        w_qubit = sum(
            weight * np.kron(SIGMA[a], SIGMA[b])
            for (a, b), weight in spec.coefficients.items()
        )
        for seed in range(20):
            state = random_two_beam_state(seed)
            certificate = gram_certificate(state)
            qubit_side = np.trace(w_qubit @ certificate.normalized).real * certificate.trace
            boson_side = witness_expectation(spec, state)
            assert qubit_side == pytest.approx(boson_side, abs=1e-10)

    def test_product_states_factorize(self):
        for seed in range(10):
            state = random_separable(seed, 2, 3, 2)
            rng = np.random.default_rng(seed)
            from bnl.states import random_beam_state

            beams = [random_beam_state(rng, 3, 2) for _ in range(2)]
            joint = gram_certificate(state).matrix
            split = np.kron(beam_gram(beams[0]), beam_gram(beams[1]))
            assert np.allclose(joint, split, atol=1e-12)

    def test_diagonal_state_is_degenerate(self):
        space = build_space(2)
        state = basis_state((space, space), [(1, 1), (2, 0)])
        with pytest.raises(DegenerateCertificateError):
            gram_certificate(state)

    def test_three_beam_certificate_is_the_qubit_density_matrix(self):
        certificate = gram_certificate(qubit_embed(GHZ3))
        assert certificate.matrix.shape == (8, 8)
        rho = np.outer(GHZ3, GHZ3.conj())
        assert np.allclose(certificate.normalized, rho, atol=1e-12)
        assert certificate.trace == pytest.approx(1.0, abs=1e-12)


class TestNsFamily:
    def test_family_has_nine_members(self):
        report = ns_condition_family(bsv_state(BsvParams(0.4, 20)))
        assert len(report.members) == 9
        perms = {(m.perm_party1, m.perm_party2) for m in report.members}
        assert len(perms) == 9
        assert all(p1 in CYCLIC_PERMUTATIONS and p2 in CYCLIC_PERMUTATIONS for p1, p2 in perms)

    @pytest.mark.parametrize("gamma", [0.12, 0.5, 1.0, 1.2])
    def test_identity_member_matches_closed_form(self, gamma):
        state = bsv_state(BsvParams(gamma, 40))
        report = ns_condition_family(state)
        member = report.members[0]
        assert member.perm_party1 == (1, 2, 3) and member.perm_party2 == (1, 2, 3)
        want = 16.0 / math.cosh(2 * gamma) ** 4 * math.sinh(gamma) ** 4
        assert member.lhs_term1 == pytest.approx(
            want, abs=1e-10 + 16 * state.norm_deficit
        )

    def test_detection_for_positive_gain(self):
        for gamma in np.linspace(0.12, 1.2, 10):
            report = ns_condition_family(bsv_state(BsvParams(float(gamma), 40)))
            assert report.detected

    def test_separable_states_never_violate(self):
        for seed in range(50):
            state = random_separable(seed, 2, 3, 2)
            report = ns_condition_family(state)
            assert not report.detected

    def test_embedded_singlet_is_detected(self):
        report = ns_condition_family(qubit_embed(BELL_STATES["singlet"]))
        assert report.detected

    def test_member_details_read_as_attributes(self):
        member = ns_condition_family(bsv_state(BsvParams(0.4, 20))).members[4]
        assert member.quantity == "ns_condition"
        assert member.perm_party1 == member.details["perm_party1"] == (2, 3, 1)
        assert member.value == member.lhs_term1 + member.lhs_term2
        assert not hasattr(member, "rhs")
        # The guard on ``details`` lets a copy be rebuilt before its fields exist.
        assert pickle.loads(pickle.dumps(member)) == member

    def test_spread_is_twenty_four_deficits(self):
        state = bsv_state(BsvParams(0.55, 3))
        for member in ns_condition_family(state).members:
            assert member.interval_lo == member.margin - 24 * state.norm_deficit
            assert member.interval_hi == member.margin + 24 * state.norm_deficit


class TestMermin:
    def test_balanced_pair_coefficients_give_three(self):
        state = bghz_state(BghzCoefficients((1.0, 1.0)), 2)
        assert prob_diagonal(state) == pytest.approx(0.5, abs=1e-14)
        result = mermin_bell_value(state)
        assert result.value == pytest.approx(3.0, abs=1e-13)
        assert result.verdict == "violated"

    def test_embedded_ghz_matches_qubit_oracle(self):
        result = mermin_bell_value(qubit_embed(GHZ3))
        x, y = SIGMA[1], SIGMA[2]
        oracle_op = (
            np.kron(np.kron(x, x), x)
            - np.kron(np.kron(x, y), y)
            - np.kron(np.kron(y, x), y)
            - np.kron(np.kron(y, y), x)
        )
        want = np.vdot(GHZ3, oracle_op @ GHZ3).real
        assert want == pytest.approx(4.0, abs=1e-13)
        assert result.value == pytest.approx(want, abs=1e-12)
        assert result.details["structural_expected"] == pytest.approx(4.0, abs=1e-13)

    def test_product_ket_respects_local_bound(self):
        space = build_space(1)
        state = basis_state((space,) * 3, [(1, 0)] * 3)
        result = mermin_bell_value(state)
        assert abs(result.value) <= 2.0
        assert result.verdict == "not_violated"
        assert result.details["structural_expected"] is None

    def test_structural_identity_for_random_coefficients(self):
        for seed in range(10):
            state = bghz_state(random_coefficients(seed, 3), 4)
            result = mermin_bell_value(state)
            want = 4.0 - 2.0 * prob_diagonal(state)
            assert result.details["structural_expected"] == pytest.approx(want, abs=1e-14)
            assert result.value == pytest.approx(want, abs=1e-12)

    def test_undichotomized_variant(self):
        state = bghz_state(BghzCoefficients((1.0, 1.0)), 2)
        result = mermin_bell_value(state, dichotomized=False)
        assert result.value == pytest.approx(4.0 - 4.0 * 0.5, abs=1e-13)
        assert result.verdict == "not_violated"  # crossover sits exactly at P(d)=1/2

    def test_triple_swap_equals_projector_expectation(self):
        space = build_space(4)
        for seed in range(5):
            state = bghz_state(random_coefficients(seed + 100, 3), 4)
            swap3 = tensor([g_operator(1, space)] * 3)
            proj3 = tensor([g_operator(0, space)] * 3)
            assert expectation(swap3, state) == pytest.approx(
                expectation(proj3, state), abs=1e-12
            )


class TestLhvOracle:
    def test_maximum_is_two(self):
        assert lhv_bound_oracle() == 2

    def test_all_plus_assignment(self):
        assert mermin_lhv_value((1, 1, 1), (1, 1, 1)) == -2

    def test_maximizing_assignment_exists(self):
        best = max(
            mermin_lhv_value(v[:3], v[3:])
            for v in itertools.product((-1, 1), repeat=6)
        )
        assert best == 2
