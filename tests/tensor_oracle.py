"""Sparse reference operators: the independent oracle for the kernel.

``bnl`` evaluates every indicator with ``expectation_sums`` on per-beam
monomials.  The helpers here build the same observables as explicit sparse
operators on the joint space with ``tensor()``, so tests can compare the
two evaluation paths.  ``stokes_operator`` builds the Stokes operators
from the occupations of each basis ket, the oracle for the closed-form
blocks of ``gpauli.stokes_block``.
"""

import numpy as np
import scipy.sparse as sp

from bnl.fock import BeamSpace, ComplexOperator, occupations, tensor
from bnl.gpauli import g_operator
from bnl.indicators import PM_CELL_LABELS, PM_LINES


def _joint(domain) -> tuple[tuple[BeamSpace, ...], int]:
    domain = (domain,) if isinstance(domain, BeamSpace) else tuple(domain)
    return domain, int(np.prod([space.dim for space in domain]))


def identity_operator(domain) -> ComplexOperator:
    domain, dim = _joint(domain)
    return ComplexOperator(domain, sp.identity(dim, dtype=complex, format="csr"), hermitian=True)


def zero_operator(domain) -> ComplexOperator:
    domain, dim = _joint(domain)
    return ComplexOperator(domain, sp.csr_matrix((dim, dim), dtype=complex), hermitian=True)


def map_witness(spec, space: BeamSpace) -> ComplexOperator:
    """Boson image of the witness: sum_s w_s  g_{s_1} x ... x g_{s_n}."""
    total = None
    for key, weight in sorted(spec.coefficients.items()):
        term = float(weight) * tensor([g_operator(s, space) for s in key])
        total = term if total is None else total + term
    return total.with_hermitian_flag()


def pm_cells(space: BeamSpace) -> dict:
    """The nine two-beam cell operators g_p1 x g_p2 of the square."""
    g = [g_operator(i, space) for i in range(4)]
    return {key: tensor([g[p1], g[p2]]) for key, (p1, p2) in PM_CELL_LABELS.items()}


def pm_line_products(space: BeamSpace) -> dict:
    """Each context's product of its three cells, keyed by line name."""
    cells = pm_cells(space)
    return {
        name: cells[line[0]] @ cells[line[1]] @ cells[line[2]] for name, line, _ in PM_LINES
    }


def pm_operator(space: BeamSpace) -> ComplexOperator:
    """The square expression: signed sum of the six line products."""
    products = pm_line_products(space)
    total = None
    for name, _, sign in PM_LINES:
        term = products[name] if sign > 0 else -products[name]
        total = term if total is None else total + term
    return total.with_hermitian_flag()


def stokes_operator(index: int, space: BeamSpace) -> ComplexOperator:
    """S_i = (1/2) (a,b)^dag sigma_i (a,b) on one beam, built ket by ket from the occupations."""
    cols = np.arange(space.dim)
    n_a, n_b = occupations(cols)
    if index in (0, 3):
        rows, values = cols, (n_a + n_b if index == 0 else n_a - n_b) / 2.0
    else:
        # a^dag b / 2 sends |n,m> to |n+1,m-1>, one basis position back; the
        # b^dag a / 2 half is its adjoint.
        rows, values = cols - 1, np.sqrt(n_b * (n_a + 1)) / 2.0 * (1.0 if index == 1 else -1j)
    kept = np.flatnonzero(values)
    matrix = sp.csr_matrix(
        (values[kept].astype(complex), (rows[kept], kept)), shape=(space.dim, space.dim)
    )
    if index in (1, 2):
        matrix = (matrix + matrix.getH()).tocsr()
    return ComplexOperator((space,), matrix, hermitian=True)
