"""Numerical laboratory for Pauli-like two-mode bosonic observables.

Exposes truncated Fock-space plumbing (bnl.fock), the observable set and
its algebra suite (bnl.gpauli), state generators (bnl.states), the
contextuality / entanglement / Bell indicators (bnl.indicators), mode
rotations (bnl.modes) and a CLI (bnl.cli, console script ``bnl``).
"""

from .fock import (
    BeamSpace,
    ComplexOperator,
    MultiBeamState,
    basis_state,
    build_space,
    expectation,
    product_state,
    tensor,
)
from .gpauli import (
    AlgebraReport,
    g_operator,
    pauli_restriction,
    verify_algebra,
)
from .states import (
    BghzCoefficients,
    BsvParams,
    bghz_generator_state,
    bghz_state,
    bsv_state,
    load_bghz_coefficients,
    prob_diagonal,
    prob_diagonal_bounds,
    qubit_embed,
    random_separable,
)
from .indicators import (
    GHZ3_WITNESS,
    PHI_PLUS_WITNESS,
    SINGLET_WITNESS,
    GramCertificate,
    WitnessSpec,
    contextuality_threshold,
    contextuality_verdict,
    gram_certificate,
    lhv_bound_oracle,
    mermin_bell_value,
    nchv_bound_oracle,
    ns_condition_family,
    pm_expectation,
    witness_expectation,
)
from .modes import ModeUnitary, conjugate, counterexample_report, lift_blocks

__version__ = "0.1.0"
