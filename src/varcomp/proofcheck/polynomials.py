"""Exact integer polynomial certificates.

Each family is a frozen tuple of integer coefficients in ascending degree,
and the two operations on it run over Python's unbounded integers, so
evaluation and shifting are exact, with no overflow and no rounding.  A
polynomial rewritten as p(s + r) with every coefficient positive is a proof
that p > 0 for all arguments >= s; the keys of ``REFERENCE_EXPANSIONS`` name
that shift s for each family.
"""

from __future__ import annotations

import numbers

from ..errors import DomainError

__all__ = ["FAMILIES", "poly_value", "shifted_expansion"]


#: Certificate families used by the d1 = 3 and d1 = 4 step programs:
#: P3 / P4 decide where the lower endpoint image d overtakes c (their sign
#: equals the sign of d - c for d1 = 3, 4); T1, T2, U1, U2 certify the
#: derivative-sign bounds of the band-edge log forms; Q5 certifies the
#: square-root gap bound used in the closing-term sign analysis.
FAMILIES = {
    "P3": (-288, 192, 4, -25, 1),
    "P4": (-256, 192, -20, -16, 1),
    "T1": (2048, 1536, -1040, -368, 10, 3),
    "T2": (-2048, 3072, -112, -484, 8, 3),
    "U1": (-396, -87, 19),
    "U2": (-432, -528, 18, 3),
    "Q5": (-23543936, -8238032, 6438956, -489960, -70261, 2751),
}

#: Reference point values; evaluation must reproduce these bit-exactly.
REFERENCE_VALUES = {
    "P4": {11: -7219, 12: -7744, 13: -7731, 14: -6976, 15: -5251, 16: -2304},
    "P3": {15: -30258, 16: -33056, 17: -35172, 18: -36360, 19: -36350,
           20: -34848, 21: -31536, 22: -26072, 23: -18090, 24: -7200},
}

#: Reference shifted expansions (family, shift) -> ascending coefficients;
#: every list is all-positive, certifying positivity beyond the shift.
REFERENCE_EXPANSIONS = {
    ("T1", 12): (188672, 197760, 46192, 4432, 190, 3),
    ("T2", 12): (94720, 157632, 41216, 4220, 188, 3),
    ("U1", 12): (1296, 369, 19),
    ("U2", 12): (1008, 1200, 126, 3),
    ("P4", 17): (2141, 5292, 898, 52, 1),
    ("P3", 25): (7012, 16017, 1879, 75, 1),
    ("Q5", 30): (2233345504, 2608569328, 325703156, 15837720, 342389, 2751),
}


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{what} must be an exact integer, got {value!r}")
    return int(value)


def _coeffs(family: str) -> tuple:
    try:
        return FAMILIES[family]
    except KeyError:
        raise DomainError(
            f"unknown polynomial family {family!r}; known: {sorted(FAMILIES)}") from None


def poly_value(family: str, n) -> int:
    """Exact value of the named family at integer n (Horner's rule)."""
    coeffs = _coeffs(family)
    n = _as_int(n, "polynomial argument")
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def shifted_expansion(family: str, shift) -> tuple:
    """Ascending coefficients of the named family at (shift + r), by
    repeated synthetic division (Taylor shift)."""
    c = list(_coeffs(family))
    shift = _as_int(shift, "shift")
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += shift * c[j + 1]
    return tuple(c)
