import math

import pytest

from floerrank import arith
from floerrank.errors import NotInvertibleError


def brute_inverse(a, m):
    for x in range(m):
        if (a * x) % m == 1:
            return x
    return None


def test_mod_inverse_examples():
    assert arith.mod_inverse(1, 2) == 1
    assert arith.mod_inverse(6, 7) == brute_inverse(6, 7) == 6
    assert arith.mod_inverse(2, 3) == brute_inverse(2, 3) == 2


def test_mod_inverse_matches_brute_force():
    for m in range(2, 40):
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                x = arith.mod_inverse(a, m)
                assert x == brute_inverse(a, m)
                assert (a * x) % m == 1
            else:
                with pytest.raises(NotInvertibleError):
                    arith.mod_inverse(a, m)


def test_pairwise_coprime():
    assert arith.pairwise_coprime([2, 3, 7])
    assert not arith.pairwise_coprime([2, 3, 6])
    assert arith.pairwise_coprime([])
    assert arith.pairwise_coprime([5])


def test_checked_product():
    assert arith.checked_product([2, 3, 7]) == 42
    assert arith.checked_product([]) == 1
    assert arith.checked_product([2, 3, 5, 7]) == 210


def test_checked_product_overflow():
    with pytest.raises(OverflowError):
        arith.checked_product([2**62, 4])
    # boundary: INT64_MAX itself is fine
    assert arith.checked_product([2**63 - 1]) == 2**63 - 1
    with pytest.raises(OverflowError):
        arith.check_int64(2**63)
    assert arith.checked_mul(-(2**31), 2**31) == -(2**62)
