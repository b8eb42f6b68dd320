"""Numerical laboratory for Pauli-like two-mode bosonic observables.

Exposes truncated Fock-space plumbing (bnl.fock), the observable set and
its algebra suite (bnl.gpauli), state generators (bnl.states), the
contextuality / entanglement / Bell indicators (bnl.indicators), mode
rotations (bnl.modes) and a CLI (bnl.cli, console script ``bnl``).  The
package itself exports no names: import them from those modules.
"""

__version__ = "0.1.0"
