"""Closed-form references for every command the workloads issue.

Each check takes the parsed JSON a command printed and the parameters the
workload generated, and returns None when the output is correct or a
one-line reason when it is not.  Nothing here imports ``bnl``: the
references are computed from the squeezed-vacuum and triple-emission
formulas directly, so a wrong program cannot agree with itself.
"""

from __future__ import annotations

import math

# Absolute slack for floating-point rounding in values of order one.
FLOAT_ATOL = 1e-10
# The separability bound and the Gram positivity bound.
WITNESS_ATOL = 1e-10
GRAM_PSD_ATOL = 1e-10
# The triple-emission identities are exact; only rounding separates them.
BGHZ_ATOL = 1e-9


def bsv_deficit(gamma: float, cutoff: int) -> float:
    """Tail mass of the squeezed vacuum beyond ``cutoff`` photon pairs.

    With x = tanh^2(gamma) the n-pair weight is (n+1) x^n (1-x)^2, and the
    tail sum past n = cutoff is x^(cutoff+1) ((cutoff+2) - (cutoff+1) x).
    """
    x = math.tanh(gamma) ** 2
    return x ** (cutoff + 1) * ((cutoff + 2) - (cutoff + 1) * x)


def pm_reference(gamma: float) -> float:
    """Untruncated square-expression margin 6(1 - sech 2gamma) - 4."""
    return 6.0 * (1.0 - 1.0 / math.cosh(2.0 * gamma)) - 4.0


def ns_identity_reference(gamma: float) -> float:
    """Identity member's first left-side term, 16 sech^4(2gamma) sinh^4(gamma)."""
    return 16.0 * math.sinh(gamma) ** 4 / math.cosh(2.0 * gamma) ** 4


def bghz_p_diag(coeffs: list[complex], cutoff: int) -> float:
    """P(diagonal) of the normalized triple-emission state, in closed form.

    The |p,m; p,m; p,m> amplitude is C_p C_m (p! m!)^(3/2) for p + m <= cutoff.
    """
    total = diagonal = 0.0
    for p, cp in enumerate(coeffs):
        for m, cm in enumerate(coeffs):
            if p + m > cutoff:
                continue
            weight = abs(cp * cm) ** 2 * float(math.factorial(p) * math.factorial(m)) ** 3
            total += weight
            if p == m:
                diagonal += weight
    return diagonal / total


def check_pm(out: dict, gamma: float, cutoff: int) -> str | None:
    rows = out["rows"]
    if len(rows) != 1 or rows[0]["gamma"] != gamma:
        return f"expected one row at gamma {gamma}"
    lo, hi = rows[0]["interval"]
    ref = pm_reference(gamma)
    if not lo - FLOAT_ATOL <= ref <= hi + FLOAT_ATOL:
        return f"pm interval [{lo!r}, {hi!r}] misses {ref!r}"
    return None


def check_ns(out: dict, gamma: float, cutoff: int) -> str | None:
    identity = [
        m for m in out["members"]
        if m["perm_party1"] == [1, 2, 3] and m["perm_party2"] == [1, 2, 3]
    ]
    if len(identity) != 1:
        return "ns-family has no single identity member"
    got = identity[0]["lhs_term1"]
    ref = ns_identity_reference(gamma)
    slack = 16.0 * bsv_deficit(gamma, cutoff) + FLOAT_ATOL
    if abs(got - ref) > slack:
        return f"ns identity lhs_term1 {got!r} is {abs(got - ref):.3e} from {ref!r}"
    return None


def check_gram(out: dict, gamma: float, cutoff: int) -> str | None:
    gap = (1.0 - 1.0 / math.cosh(2.0 * gamma)) - out["trace"]
    deficit = bsv_deficit(gamma, cutoff)
    if not -FLOAT_ATOL <= gap <= deficit + FLOAT_ATOL:
        return f"gram trace {out['trace']!r} sits {gap:.3e} below 1 - sech 2g, deficit {deficit:.3e}"
    if out["min_eigenvalue"] < -GRAM_PSD_ATOL:
        return f"gram min eigenvalue {out['min_eigenvalue']!r} is negative"
    return None


def check_algebra(out: dict, cutoff: int) -> str | None:
    if out["cutoff"] != cutoff or out["passed"] is not True:
        return f"verify-algebra at cutoff {cutoff} did not pass"
    return None


def check_separable(out: dict, witness: str) -> str | None:
    if out["witness"] != witness:
        return f"expected witness {witness}, got {out['witness']}"
    if out["value"] < -WITNESS_ATOL:
        return f"separable witness value {out['value']!r} is negative"
    return None


def check_mermin(out: dict, coeffs: list[complex], cutoff: int) -> str | None:
    ref = 4.0 - 2.0 * bghz_p_diag(coeffs, cutoff)
    if out["cutoff"] != cutoff or abs(out["value"] - ref) > BGHZ_ATOL:
        return f"mermin value {out['value']!r} differs from 4 - 2 P_d = {ref!r}"
    return None


def check_bghz_witness(out: dict, coeffs: list[complex], cutoff: int) -> str | None:
    ref = -(1.0 - bghz_p_diag(coeffs, cutoff))
    if out["witness"] != "ghz3" or abs(out["value"] - ref) > BGHZ_ATOL:
        return f"ghz3 witness value {out['value']!r} differs from -(1 - P_d) = {ref!r}"
    return None


CHECKS = {
    "pm": check_pm,
    "ns": check_ns,
    "gram": check_gram,
    "algebra": check_algebra,
    "separable": check_separable,
    "mermin": check_mermin,
    "bghz_witness": check_bghz_witness,
}


def check(kind: str, out: dict, params: tuple) -> str | None:
    """Run the named reference check; a malformed payload is a failure too."""
    try:
        return CHECKS[kind](out, *params)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"{kind} output malformed: {type(exc).__name__}: {exc}"


# One perturbation per check kind, each far outside that check's tolerance.
def _shift_interval(out: dict) -> None:
    lo, hi = out["rows"][0]["interval"]
    shift = 2.0 * (hi - lo) + 1e-3
    out["rows"][0]["interval"] = [lo + shift, hi + shift]


def _raise_identity_term(out: dict) -> None:
    # The slack is 16 * deficit with deficit <= 1, so 17 always exceeds it.
    for member in out["members"]:
        member["lhs_term1"] += 17.0


PERTURBATIONS = {
    "pm": _shift_interval,
    "ns": _raise_identity_term,
    "gram": lambda out: out.update(trace=out["trace"] + 1e-3),
    "algebra": lambda out: out.update(passed=False),
    "separable": lambda out: out.update(value=-1e-3),
    "mermin": lambda out: out.update(value=out["value"] + 1e-6),
    "bghz_witness": lambda out: out.update(value=out["value"] + 1e-6),
}
