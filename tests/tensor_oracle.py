"""Sparse reference operators: the independent oracle for the kernel.

``bnl`` evaluates every indicator with ``expectation_sums`` on per-beam
monomials.  The helpers here build the same observables as explicit sparse
operators on the joint space with ``tensor()``, so tests can compare the
two evaluation paths.
"""

import numpy as np
import scipy.sparse as sp

from bnl.fock import BeamSpace, ComplexOperator, tensor
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
