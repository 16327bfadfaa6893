"""Exact integer primitives with explicit 64-bit range checking.

All quantities in this library (products of multiplicities, cutoffs, partial
sums of the delta function) are required to fit in a signed 64-bit integer.
Python integers never wrap, so the checks here turn a would-be overflow into
a visible error instead of silently escalating to big integers.  This keeps
the library honest about the ranges the bulk (numpy int64) code paths can
handle.
"""

import math

from .errors import NotInvertibleError

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


def check_int64(value: int) -> int:
    """Return value unchanged, raising OverflowError if outside int64."""
    if value > INT64_MAX or value < INT64_MIN:
        raise OverflowError(f"value {value} exceeds signed 64-bit range")
    return value


def checked_mul(a: int, b: int) -> int:
    return check_int64(a * b)


def checked_product(values) -> int:
    """Product of an iterable of integers; empty product is 1."""
    acc = 1
    for v in values:
        acc = checked_mul(acc, v)
    return acc


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m (m >= 2), in [0, m)."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertibleError(f"{a} is not invertible modulo {m}") from None


def pairwise_coprime(values) -> bool:
    """True iff every unordered pair of entries has gcd 1."""
    vals = list(values)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if math.gcd(vals[i], vals[j]) != 1:
                return False
    return True
