"""Truncated Fock-sector linear algebra for multi-beam bosonic fields.

A *beam* is a pair of orthogonal bosonic modes (a, b).  Everything here
lives in the per-beam sector with at most ``cutoff`` photons in total.
The occupation basis has one fixed canonical order, given in closed form:
total photon number T = n_a + n_b ascending, then photons in mode a
descending, so |n_a, n_b> sits at position T(T+1)/2 + n_b.  Serialized
operators and regression fixtures are therefore byte-stable across runs.

Every single-beam observable a verdict evaluates is a *sign-sector
monomial*: it either keeps each ket |n_a, n_b> or sends it to the swapped
|n_b, n_a>, times a phase that depends only on the sector
s = sign(n_a - n_b).  ``Monomial`` stores such an operator as a swap bit
and three phases, so it holds nothing that grows with the cutoff.  A state
over the tensored basis of one or more beams stores only its support and
is built from per-beam positions, each beam's basis position at every
nonzero amplitude; only ``MultiBeamState`` ravels them into joint
positions.  ``expectations`` evaluates tensor products of Hermitian
monomials, one per beam, on that support, so neither an operator nor a
vector on the joint space, nor an array over a beam's basis, is formed.
The sparse ``ComplexOperator`` is kept only as the independent
construction the acceptance suite compares that kernel against:
``Monomial.operator`` and ``tensor`` build it, ``expectation`` evaluates
it on a state's dense amplitudes, and it has no algebra of its own.
``expi_tridiagonal`` exponentiates the tridiagonal Hermitian generators
of the mode rotations and of the triple-emission ladder.  All containers
are immutable after construction, so evaluation is safe to run
concurrently over independent states and operators.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np
# Only the sparse reference construction (ComplexOperator, Monomial.operator,
# tensor) uses scipy, and scipy loads scipy.sparse on first use, so no command
# loads it.  perfbench/run.py reads the version from sys.modules["scipy"], so
# this import stays until that harness reads the package metadata (ROADMAP item 1).
import scipy

# Entrywise tolerance for verifying a declared Hermitian flag.
HERMITIAN_ATOL = 1e-14
# Slack allowed on |amplitudes|^2 + norm_deficit = 1 when taking expectations.
NORM_ATOL = 1e-8
# Imaginary part allowed in the expectation of a Hermitian-flagged operator.
HERMITIAN_IMAG_ATOL = 1e-12
# Cap on the amplitudes a state stores, overridable through BNL_MAX_DIM; it is
# checked against each constructor's closed-form count before any array exists.
MAX_DIM_ENV = "BNL_MAX_DIM"
DEFAULT_MAX_DIM = 10_000
# Flat positions on the joint space are int64.
MAX_JOINT_DIM = np.iinfo(np.int64).max


class DomainMismatchError(ValueError):
    """Raised when an operator or a product of monomials and a state live on different spaces."""


class HermitianViolationError(ValueError):
    """Raised when a Hermitian-flagged evaluation produces a non-real value."""


@dataclass(frozen=True)
class BeamSpace:
    """Two-mode occupation basis truncated at ``cutoff`` total photons.

    Basis state |n_a, n_b> with total T = n_a + n_b sits at position
    T(T+1)/2 + n_b, so the space has (cutoff+1)(cutoff+2)/2 states and
    each fixed-T block is a contiguous range.
    """

    cutoff: int

    def __post_init__(self) -> None:
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be non-negative, got {self.cutoff}")

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) * (self.cutoff + 2) // 2

    def position(self, n_a: int, n_b: int) -> int:
        """Basis position of |n_a, n_b>."""
        total = n_a + n_b
        if n_a < 0 or n_b < 0 or total > self.cutoff:
            raise ValueError(f"occupation ({n_a}, {n_b}) is outside the cutoff-{self.cutoff} space")
        return total * (total + 1) // 2 + n_b

    def block_indices(self, total: int) -> range:
        """Basis positions of the fixed total-photon-number block (empty outside the space)."""
        start = total * (total + 1) // 2
        return range(start, min(start + total + 1, self.dim))


def occupations(positions) -> tuple[np.ndarray, np.ndarray]:
    """Integer arrays (n_a, n_b) of the basis states at the given positions.

    The inverse of ``BeamSpace.position`` and exact for every int64 position.
    The float estimate of the total T = floor((sqrt(8p + 1) - 1) / 2) is
    never below T: rounding is monotone, and at a block start
    p = T(T+1)/2 the square root rounds to 2T+1 exactly.  Just below a
    block start it can exceed T by one, and one integer step corrects it.
    T stays below 2**32, so T(T+1) fits in uint64.
    """
    p = np.asarray(positions, dtype=np.int64).astype(np.uint64)
    total = ((np.sqrt(8.0 * p + 1.0) - 1.0) // 2.0).astype(np.uint64)
    total -= total * (total + 1) // 2 > p
    n_b = (p - total * (total + 1) // 2).astype(np.int64)
    return total.astype(np.int64) - n_b, n_b


def _sector(shift: np.ndarray) -> np.ndarray:
    """Index into a monomial's phases of s = sign(n_a - n_b), given n_a - n_b."""
    return np.sign(shift) % 3


@functools.lru_cache(maxsize=None)
def build_space(cutoff: int) -> BeamSpace:
    """The truncated beam space for the given total-photon cutoff, one instance per cutoff.

    Cutoff 0 yields the one-dimensional vacuum sector.
    """
    return BeamSpace(cutoff)


def _domain_dim(domain: Sequence[BeamSpace]) -> int:
    dim = math.prod(space.dim for space in domain)
    if dim > MAX_JOINT_DIM:
        raise ValueError(
            f"joint dimension {dim} of cutoffs {_cutoffs(domain)} exceeds int64 positions"
        )
    return dim


def amplitude_cap() -> int:
    """The cap on stored amplitudes, at least 1: ``BNL_MAX_DIM`` if set, else DEFAULT_MAX_DIM."""
    raw = os.environ.get(MAX_DIM_ENV, str(DEFAULT_MAX_DIM))
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_DIM_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{MAX_DIM_ENV} must be a positive integer, got {raw!r}")
    return cap


def check_stored(count: int) -> None:
    """Refuse, before allocating, a state that would store ``count`` amplitudes above the cap."""
    cap = amplitude_cap()
    if count > cap:
        raise ValueError(
            f"state needs {count} stored amplitudes, above the {MAX_DIM_ENV} cap {cap}"
        )


def check_beam(space: BeamSpace) -> None:
    """Refuse, before allocating, an operator over more beam basis states than the cap."""
    cap = amplitude_cap()
    if space.dim > cap:
        raise ValueError(
            f"cutoff {space.cutoff} gives a beam dimension of {space.dim}, "
            f"above the {MAX_DIM_ENV} cap {cap}"
        )


def expi_tridiagonal(diagonal, magnitudes, coupling: complex) -> np.ndarray:
    """exp(iH), H Hermitian tridiagonal: real ``diagonal``, H[k, k+1] = coupling * magnitudes[k].

    With coupling = |c| e^{i phi}, H = D R D^dag for D = diag(e^{-i k phi}) and the real
    symmetric R with off-diagonal |c| magnitudes, so exp(iH) = V exp(i Lambda) V^dag with
    V = D W from one dense real ``np.linalg.eigh`` of R's upper triangle, unitary to rounding
    however large Lambda is.
    """
    k = np.arange(len(diagonal))
    lam, w = np.linalg.eigh(np.diag(diagonal) + np.diag(abs(coupling) * magnitudes, 1), UPLO="U")
    v = np.exp(-1j * np.angle(coupling) * k)[:, None] * w
    return (v * np.exp(1j * lam)) @ v.conj().T


@dataclass(frozen=True, eq=False)
class ComplexOperator:
    """Sparse complex linear map on one or more tensored beam spaces.

    The reference form of an observable, built by ``Monomial.operator`` and
    ``tensor`` and read by ``expectation``; arithmetic on it is done on
    ``matrix``.  A set ``hermitian`` flag is verified entrywise at
    construction, so a Hermitian-flagged operator is guaranteed to satisfy
    matrix[r, c] == conj(matrix[c, r]) to within 1e-14.
    """

    domain: tuple[BeamSpace, ...]
    matrix: scipy.sparse.csr_matrix
    hermitian: bool = False

    def __post_init__(self) -> None:
        dim = _domain_dim(self.domain)
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match domain dimension {dim}"
            )
        if self.hermitian:
            residual = float(abs(self.matrix - self.matrix.getH()).max())
            if residual > HERMITIAN_ATOL:
                raise HermitianViolationError(
                    f"operator flagged Hermitian but max |A - A^dag| = {residual:.3e}"
                )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Monomial:
    """Single-beam sign-sector monomial, the same map on every cutoff.

    Basis ket |n_a, n_b> is sent to ``phase[s]`` times |n_b, n_a> if
    ``swap`` is set, else times itself, where s = sign(n_a - n_b) indexes
    the phases in the order 0, +1, -1, that of the basis states |0,0>,
    |1,0>, |0,1>.  A zero phase annihilates the sector.
    """

    swap: bool
    phase: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase", np.asarray(self.phase, dtype=complex))

    def operator(self, space: BeamSpace, hermitian: bool = False) -> ComplexOperator:
        """The same map as a sparse operator on ``space``, storing no explicit zeros."""
        n_a, n_b = occupations(np.arange(space.dim))
        shift = n_a - n_b
        phase = self.phase[_sector(shift)]
        cols = np.flatnonzero(phase)
        rows = cols + shift[cols] if self.swap else cols
        shape = (space.dim, space.dim)
        matrix = scipy.sparse.csr_matrix((phase[cols], (rows, cols)), shape=shape)
        return ComplexOperator((space,), matrix, hermitian=hermitian)

    def block(self, total: int) -> np.ndarray:
        """The same map on the kets |T-k, k> of total ``total``, as a dense matrix.

        Every monomial conserves total photon number, so this is its block
        at any cutoff >= ``total``; column k is the ket |T-k, k>.
        """
        k = np.arange(total + 1)
        block = np.zeros((total + 1, total + 1), dtype=complex)
        block[total - k if self.swap else k, k] = self.phase[_sector(total - 2 * k)]
        return block


def _cutoffs(domain: Sequence[BeamSpace]) -> tuple[int, ...]:
    return tuple(space.cutoff for space in domain)


@dataclass(frozen=True, eq=False, init=False)
class MultiBeamState:
    """Complex amplitudes over the tensored occupation basis of n beams, kept on their support.

    ``from_support`` takes each beam's basis position at every stored ket,
    and this class alone ravels them (first beam major) into ``index``, the
    sorted, distinct flat positions of the stored amplitudes; ``coordinates``
    keeps each beam's positions and ``values`` the amplitudes, both in that
    order.  Every other amplitude is zero.  The observables conserve each
    beam's photon number and the states studied are sparse, so the joint
    space is never stored.  ``MultiBeamState(domain, amplitudes)`` keeps the
    nonzero entries of a dense vector.

    ``norm_deficit`` carries the probability mass truncated away when the
    state has analytically infinite support; generators keep
    |amplitudes|^2 + norm_deficit = 1.  Renormalizing instead would
    silently bias diagonal-subspace probabilities, so the deficit is kept
    explicit and propagated into verdict intervals downstream.
    """

    domain: tuple[BeamSpace, ...]
    index: np.ndarray
    coordinates: tuple[np.ndarray, ...]
    values: np.ndarray
    norm_deficit: float

    def __init__(self, domain, amplitudes, norm_deficit: float = 0.0) -> None:
        amplitudes = np.asarray(amplitudes, dtype=complex)
        dim = _domain_dim(domain)
        if amplitudes.shape != (dim,):
            raise ValueError(
                f"amplitude vector of length {amplitudes.shape} does not match "
                f"domain dimension {dim}"
            )
        index = np.flatnonzero(amplitudes)
        coordinates = np.unravel_index(index, tuple(space.dim for space in domain))
        self._store(tuple(domain), index, coordinates, amplitudes[index], norm_deficit)

    @classmethod
    def from_support(cls, domain, positions, values, norm_deficit: float = 0.0) -> MultiBeamState:
        """Amplitudes ``values`` at the distinct kets (any order) whose basis
        position in beam k is ``positions[k]``, else zero."""
        _domain_dim(domain)  # refuses a space past int64 positions before converting
        domain = tuple(domain)
        positions = tuple(np.asarray(p, dtype=np.int64) for p in positions)
        values = np.asarray(values, dtype=complex)
        shapes = [p.shape for p in positions]
        if values.ndim != 1 or shapes != [values.shape] * len(domain):
            raise ValueError(
                f"support of shapes {shapes} on {len(domain)} beams and values of shape {values.shape} differ"
            )
        try:  # ravel_multi_index refuses a position outside its beam
            index = np.ravel_multi_index(positions, tuple(space.dim for space in domain))
        except ValueError:
            raise ValueError(f"support position outside the cutoffs-{_cutoffs(domain)} space") from None
        if (index[1:] <= index[:-1]).any():
            order = np.argsort(index)
            index, values = index[order], values[order]
            if (index[1:] == index[:-1]).any():
                raise ValueError("a support position repeats")
            positions = tuple(p[order] for p in positions)
        state = cls.__new__(cls)
        state._store(domain, index, positions, values, norm_deficit)
        return state

    def _store(self, domain, index, coordinates, values, norm_deficit: float) -> None:
        if norm_deficit < -1e-12:
            raise ValueError(f"norm_deficit must be non-negative, got {norm_deficit}")
        for name, value in zip(("domain", "index", "coordinates", "values", "norm_deficit"),
                               (domain, index, coordinates, values, norm_deficit)):
            object.__setattr__(self, name, value)

    @property
    def n_beams(self) -> int:
        return len(self.domain)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(space.dim for space in self.domain)

    @property
    def dim(self) -> int:
        return _domain_dim(self.domain)

    @functools.cached_property
    def occupations(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each beam's occupations (n_a, n_b) at every stored amplitude."""
        return tuple(occupations(coords) for coords in self.coordinates)

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense vector over the joint space, built on each access (for the tensor() oracle)."""
        dense = np.zeros(self.dim, dtype=complex)
        dense[self.index] = self.values
        return dense

    def lookup(self, positions) -> np.ndarray:
        """Amplitudes at the kets with basis position ``positions[k]`` in beam k, zero off the support."""
        flat = np.ravel_multi_index(positions, self.shape)
        if not self.index.size:
            return np.zeros(flat.shape, dtype=complex)
        at = np.minimum(np.searchsorted(self.index, flat), self.index.size - 1)
        return np.where(self.index[at] == flat, self.values[at], 0.0)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


def tensor(ops: Sequence[ComplexOperator]) -> ComplexOperator:
    """Kronecker product of operators on distinct beams (first factor major).

    Sparsity is preserved: structural zeros of the factors never appear as
    stored entries of the product.
    """
    if not ops:
        raise ValueError("tensor() needs at least one factor")
    domain = tuple(space for op in ops for space in op.domain)
    matrix = ops[0].matrix
    for op in ops[1:]:
        matrix = scipy.sparse.kron(matrix, op.matrix, format="csr")
    return ComplexOperator(domain, matrix.tocsr(), hermitian=all(op.hermitian for op in ops))


def expectation(op: ComplexOperator, state: MultiBeamState) -> complex | float:
    """<psi|op|psi> on a normalized state.

    For a Hermitian-flagged operator the imaginary part must stay below
    1e-12 (else HermitianViolationError) and the real part is returned as
    a float; otherwise the full complex value is returned.
    """
    _check_op_state(op.domain, state)
    _check_normalized(state)
    value = complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))
    return _hermitian_value(value, op.hermitian)


def expectations(products: Sequence[Sequence[Monomial]], state: MultiBeamState) -> list[float]:
    """<psi| A_1 x ... x A_n |psi> for each given product of Hermitian monomials, one per beam.

    Each beam's phase is gathered by sector at the stored coordinates and
    a swapping factor moves the coordinate by n_a - n_b; the state looks
    the per-beam targets up in its support, where a miss is a zero bra
    amplitude.  So no operator or vector on the joint space is formed.
    The checks are those of ``expectation`` on a Hermitian-flagged
    operator: one factor per beam, a normalized state and an imaginary
    part below 1e-12, the real part being returned (a -0.0 as 0.0).
    """
    if any(len(factors) != state.n_beams for factors in products):
        raise DomainMismatchError(f"a product's factor count differs from the {state.n_beams} beams")
    _check_normalized(state)
    # Each beam's coordinates, n_a - n_b and sector at the stored amplitudes.
    beams = [
        (coords, n_a - n_b, _sector(n_a - n_b))
        for coords, (n_a, n_b) in zip(state.coordinates, state.occupations)
    ]
    values = []
    for factors in products:
        ket, targets = state.values, []
        for factor, (coords, shift, sector) in zip(factors, beams):
            ket = ket * factor.phase[sector]
            targets.append(coords + shift if factor.swap else coords)
        values.append(_hermitian_value(complex(np.vdot(state.lookup(targets), ket)), True) + 0.0)
    return values


def _check_normalized(state: MultiBeamState) -> None:
    total = float(np.vdot(state.values, state.values).real) + state.norm_deficit
    if abs(total - 1.0) > NORM_ATOL:
        raise ValueError(
            f"state is not normalized: |amplitudes|^2 + deficit = {total!r}"
        )


def _hermitian_value(value: complex, hermitian: bool) -> complex | float:
    if not hermitian:
        return value
    if abs(value.imag) >= HERMITIAN_IMAG_ATOL:
        raise HermitianViolationError(
            f"Hermitian expectation has imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def _check_op_state(domain: tuple[BeamSpace, ...], state: MultiBeamState) -> None:
    if domain != state.domain:
        raise DomainMismatchError(
            f"operator domain {_cutoffs(domain)} does not match "
            f"state domain {_cutoffs(state.domain)}"
        )


def basis_state(
    domain: BeamSpace | Sequence[BeamSpace],
    occupations: Sequence[tuple[int, int]],
) -> MultiBeamState:
    """Unit-amplitude basis ket |occ_1; occ_2; ...> over the tensored domain."""
    domain = (domain,) if isinstance(domain, BeamSpace) else tuple(domain)
    if len(occupations) != len(domain):
        raise ValueError(
            f"{len(occupations)} occupations given for {len(domain)} beams"
        )
    positions = [[space.position(*occ)] for space, occ in zip(domain, occupations)]
    return MultiBeamState.from_support(domain, positions, [1.0])


def product_state(states: Sequence[MultiBeamState]) -> MultiBeamState:
    """Tensor product of per-beam (or per-group) states."""
    if not states:
        raise ValueError("product_state() needs at least one factor")
    sizes = [state.index.size for state in states]
    check_stored(math.prod(sizes))
    domain = tuple(space for state in states for space in state.domain)
    _domain_dim(domain)  # refuses a joint space whose positions overflow int64
    # Row f holds the stored ket of factor f at each stored ket of the product, first factor major.
    at = np.indices(sizes).reshape(len(states), -1)
    positions = [coords[j] for state, j in zip(states, at) for coords in state.coordinates]
    values = states[0].values
    for state in states[1:]:
        values = np.multiply.outer(values, state.values).ravel()
    kept = math.prod(1.0 - state.norm_deficit for state in states)
    return MultiBeamState.from_support(domain, positions, values, norm_deficit=1.0 - kept)
