import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from floerrank import seifert
from floerrank.errors import NonPositiveEntryError, NotCoprimeError

from conftest import random_tuple
from semigroup_oracle import membership, membership_k_array, normal_forms, semigroup_sieve
from walk_oracle import assert_matches_oracle, dense_delta, dense_tau, dense_walk


def test_make_tuple_canonicalizes():
    assert seifert.make_tuple([7, 3, 2]).multiplicities == (2, 3, 7)
    assert seifert.make_tuple([1, 5, 3, 2]).multiplicities == (2, 3, 5)
    assert seifert.make_tuple([]).multiplicities == ()
    assert seifert.make_tuple([1, 1]).multiplicities == ()


def test_make_tuple_rejects_bad_input():
    with pytest.raises(NotCoprimeError):
        seifert.make_tuple([2, 4, 5])
    with pytest.raises(NonPositiveEntryError):
        seifert.make_tuple([0, 3, 5])
    with pytest.raises(NotCoprimeError):
        seifert.make_tuple([3, 3])


def test_degenerate_flags():
    assert seifert.make_tuple([2, 3, 5]).is_degenerate
    assert seifert.make_tuple([7]).is_degenerate
    assert seifert.make_tuple([]).is_degenerate
    assert not seifert.make_tuple([2, 3, 7]).is_degenerate


def brute_normalized(ms):
    """Exhaustive search for the defining relation solution."""
    P = 1
    for p in ms:
        P *= p
    for combo in iproduct(*[range(p) for p in ms]):
        weighted = sum(pp * (P // p) for pp, p in zip(combo, ms))
        if (-1 - weighted) % P == 0:
            return (-1 - weighted) // P, combo
    raise AssertionError("no solution found")


def test_normalized_invariants_examples():
    ni = seifert.normalized_invariants(seifert.make_tuple([2, 3, 7]))
    assert ni.e0 == -1 and tuple(pp for pp, _ in ni.pairs) == (1, 1, 1)
    ni = seifert.normalized_invariants(seifert.make_tuple([2, 3, 5]))
    assert ni.e0 == -2 and tuple(pp for pp, _ in ni.pairs) == (1, 2, 4)
    ni = seifert.normalized_invariants(seifert.make_tuple([2]))
    assert ni.e0 == -1 and tuple(pp for pp, _ in ni.pairs) == (1,)


def test_normalized_invariants_against_brute_force():
    for ms in [(2,), (5,), (2, 3), (3, 4), (2, 3, 7), (2, 3, 5), (3, 4, 5),
               (2, 5, 9), (2, 3, 5, 7)]:
        t = seifert.make_tuple(list(ms))
        e0, combo = brute_normalized(t.multiplicities)
        ni = seifert.normalized_invariants(t)
        assert ni.e0 == e0
        assert tuple(pp for pp, _ in ni.pairs) == combo


def test_euler_number():
    assert seifert.euler_number(seifert.make_tuple([2, 3, 7])) == Fraction(-1, 42)
    assert seifert.euler_number(seifert.make_tuple([2, 3, 5])) == Fraction(-1, 30)
    assert seifert.euler_number(seifert.make_tuple([5])) == Fraction(-1, 5)


def test_euler_number_random(rng):
    for _ in range(25):
        t = random_tuple(rng, max_product=10**5)
        assert seifert.euler_number(t) == Fraction(-1, t.product)


def test_n_cutoff_examples():
    assert seifert.n_cutoff(seifert.make_tuple([2, 3, 7])) == 1
    assert seifert.n_cutoff(seifert.make_tuple([2, 3, 5])) == -1
    assert seifert.n_cutoff(seifert.make_tuple([2, 3, 5, 7])) == 173


def test_delta_examples():
    assert seifert.delta_array(seifert.make_tuple([2, 3, 7]), 1).tolist() == [1, -1]
    assert seifert.delta_array(seifert.make_tuple([2, 3, 13]), 6)[6] == 1


def test_membership_examples():
    t = seifert.make_tuple([2, 3, 7])
    nf = membership(t, 27)
    assert (nf.k, nf.x) == (0, (1, 0, 1)) and nf.is_member
    nf = membership(t, 42)
    assert (nf.k, nf.x) == (1, (0, 0, 0))
    nf = membership(t, 1)
    assert (nf.k, nf.x) == (-2, (1, 2, 6)) and not nf.is_member


def test_membership_reconstructs():
    t = seifert.make_tuple([3, 4, 5])
    P = t.product
    normal_form = normal_forms(t)
    for n in range(0, 200):
        nf = normal_form(n)
        assert P * nf.k + sum(x * (P // p) for x, p in
                              zip(nf.x, t.multiplicities)) == n


def test_membership_agrees_with_sieve(rng):
    for _ in range(10):
        t = random_tuple(rng, max_product=3 * 10**4)
        N = seifert.n_cutoff(t)
        sieve = semigroup_sieve(t, N)
        karr = membership_k_array(t, N)
        normal_form = normal_forms(t)
        for n in range(N + 1):
            assert bool(sieve[n]) == (karr[n] >= 0)
            assert normal_form(n).is_member == bool(sieve[n])


def test_delta_semigroup_examples():
    # delta(n) = 1 + k on members n of the semigroup
    for ms, n, want in (([2, 3, 7], 0, 1), ([2, 3, 35], 12, 1), ([2, 3, 7], 42, 2)):
        t = seifert.make_tuple(ms)
        assert 1 + membership(t, n).k == seifert.delta_array(t, n)[n] == want, (ms, n)


def test_semigroup_elements_examples():
    def elements(ms, bound):
        return np.flatnonzero(semigroup_sieve(seifert.make_tuple(ms), bound)).tolist()

    assert elements([2, 3, 7], 10) == [0, 6]
    assert elements([2, 3, 35], 29) == [0, 6, 12, 18, 24]
    assert elements([2, 3, 7], 0) == [0]


def test_tau_sequence():
    assert dense_tau(seifert.make_tuple([2, 3, 7])) == [0, 1, 0]
    tau = dense_tau(seifert.make_tuple([2, 3, 13]))
    assert min(tau) == 0 and tau[-1] == 0 and tau[0] == 0


def test_delta_symmetry_and_bounds(rng):
    for _ in range(15):
        t = random_tuple(rng, max_product=5 * 10**4)
        N = seifert.n_cutoff(t)
        l = t.fiber_count
        D = seifert.delta_array(t, 3 * N)
        sieve = semigroup_sieve(t, N)
        assert all(D[n] == -D[N - n] for n in range(N + 1))
        assert all(-(l - 2) <= D[n] <= l - 2 for n in range(N + 1))
        assert all((D[n] >= 1) == bool(sieve[n]) for n in range(N + 1))
        assert all(D[n] >= 0 for n in range(N + 1, 3 * N + 1))
        normal_form = normal_forms(t)
        assert all(D[n] == 1 + normal_form(n).k for n in np.flatnonzero(sieve).tolist())


def test_n_cutoff_positive_unless_exceptional(rng):
    assert seifert.n_cutoff(seifert.make_tuple([2, 3, 5])) < 0
    for _ in range(40):
        t = random_tuple(rng, max_product=10**5)
        assert seifert.n_cutoff(t) > 0


def test_walk_statistics_consistency(rng):
    for _ in range(20):
        t = random_tuple(rng, max_product=3 * 10**4)
        assert_matches_oracle(t)
        stats = seifert.walk_statistics(t)
        assert stats.rank_hat == 2 * stats.c + 1
        assert stats.rank_red >= 0


def test_walk_kernel_matches_dense_oracle():
    # criterion-4 corpus: 3, 4 and 5 fibers, small and large entries
    rng = random.Random(41)
    parities = set()
    for i in range(300):
        t = random_tuple(rng, lengths=(3, 3, 3, 4, 4, 5),
                         max_entry=50 if i % 3 else 400, max_product=10**6)
        assert_matches_oracle(t)
        parities.add(seifert.n_cutoff(t) % 2)
    for ms in ([2, 3, 7], [2, 3, 11], [2, 3, 13], [2, 3, 5, 7], [2, 3, 5, 11, 13]):
        assert_matches_oracle(seifert.make_tuple(ms))
    assert parities == {0, 1}


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_walk_kernel_chunk_boundaries(monkeypatch, chunk):
    monkeypatch.setattr(seifert, "_CHUNK", chunk)
    rng = random.Random(42)
    ends_on_zero = splits_change = False
    for _ in range(30):
        t = random_tuple(rng, lengths=(3, 3, 4, 5), max_product=6000)
        assert_matches_oracle(t)
        N = seifert.n_cutoff(t)
        half = seifert.delta_array(t, N)[:(N + 1) // 2]
        ends = np.arange(chunk - 1, len(half) - 1, chunk)   # last n of each chunk
        ends_on_zero |= bool((half[ends] == 0).any())
        # nonzero delta on either side of a boundary changes from - to +
        nz_at = np.flatnonzero(half)
        after = np.searchsorted(nz_at, ends, side="right")
        inside = (after > 0) & (after < len(nz_at))
        before_vals = half[nz_at[after[inside] - 1]]
        after_vals = half[nz_at[after[inside]]]
        splits_change |= bool(((before_vals < 0) & (after_vals > 0)).any())
    assert ends_on_zero and splits_change


def test_walk_statistics_degenerate():
    stats = seifert.walk_statistics(seifert.make_tuple([2, 3, 5]))
    assert (stats.rank_red, stats.rank_hat) == (0, 1)
    assert seifert.rank_pair(seifert.make_tuple([])) == (0, 1)


def test_delta_array_overflow_guard(monkeypatch):
    def no_delta(*args):
        raise AssertionError("delta evaluated before the overflow guard")

    # the guard runs before any table is built or any delta evaluated
    monkeypatch.setattr(seifert, "_subtract_ceilings", no_delta)
    t = seifert.make_tuple([2, 3, 7])
    with pytest.raises(OverflowError):
        seifert.delta_array(t, 2**62)
    # the chunked walk guards the whole of [0, N], not one chunk at a time
    with pytest.raises(OverflowError):
        seifert.walk_statistics(seifert.make_tuple([2, 3, 10**10 + 1]))


def _table_reads(t, stop):
    """(starts at a multiple of a tabulated period, chunks straddling one)."""
    inv = seifert.normalized_invariants(t)
    at_zero = straddles = 0
    for q, _ in seifert._fiber_groups(inv.pairs):
        if q > seifert._PERIOD or q + seifert._CHUNK >= stop:
            continue
        for start in range(0, stop, seifert._CHUNK):
            r, m = start % q, min(seifert._CHUNK, stop - start)
            at_zero += r == 0
            straddles += r > 0 and r + m > q
    return at_zero, straddles


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("period", [1, 50, 10**9])
def test_period_tables_match_division_formula(monkeypatch, period, chunk):
    # nothing tabulated (period 1), small fibers only (50), all that fits
    monkeypatch.setattr(seifert, "_PERIOD", period)
    monkeypatch.setattr(seifert, "_CHUNK", chunk)
    rng = random.Random(43)
    at_zero = straddles = tabulated = 0
    for _ in range(15):
        t = random_tuple(rng, lengths=(3, 4, 5), max_product=2000)
        N = seifert.n_cutoff(t)
        upto = 2 * N + t.product
        assert np.array_equal(seifert.delta_array(t, upto), dense_delta(t, upto)), t
        assert_matches_oracle(t)
        counts = Counter()
        for d in seifert._delta_chunks(seifert.normalized_invariants(t), upto + 1,
                                       counts=counts):
            pass
        assert counts["fibers_tabulated"] + counts["fibers_divided"] == t.fiber_count
        tabulated += counts["fibers_tabulated"]
        reads = _table_reads(t, upto + 1)
        at_zero, straddles = at_zero + reads[0], straddles + reads[1]
    if period == 1:
        assert tabulated == 0
    else:
        assert tabulated > 0 and at_zero > 0 and (straddles > 0 or chunk == 1)


@pytest.mark.parametrize("above", [0, 1])
def test_period_table_threshold(monkeypatch, above):
    # one group of period Q = P; the walk over half = (N + 1) // 2 tabulates
    # it only when half > Q + _CHUNK
    t = seifert.make_tuple([2, 3, 5, 7, 11, 13])
    N, Q = seifert.n_cutoff(t), t.product
    half = (N + 1) // 2
    monkeypatch.setattr(seifert, "_PERIOD", 10**9)
    monkeypatch.setattr(seifert, "_CHUNK", half - Q - above)
    counts = Counter()
    stats = seifert.walk_statistics(t, counts)
    assert counts["fibers_tabulated"] == (t.fiber_count if above else 0)
    assert counts["table_entries"] == (half - 1 if above else 0)
    assert counts["delta_entries"] == half
    want = dense_walk(t)
    assert (stats.kappa, stats.min_tau, stats.c) == (want.kappa, want.min_tau, want.c)
    upto = Q + seifert._CHUNK - 1 + above     # delta_array's walk is over upto + 1
    assert np.array_equal(seifert.delta_array(t, upto), dense_delta(t, upto))


@st.composite
def coprime_tuples(draw):
    """3 to 5 pairwise coprime entries below 40, product at most 20,000."""
    kept = []
    for m in draw(st.lists(st.integers(2, 40), min_size=3, max_size=8)):
        if all(math.gcd(m, k) == 1 for k in kept) and math.prod(kept) * m <= 20000:
            kept.append(m)
    t = seifert.make_tuple(kept[:5])
    assume(t.fiber_count >= 3 and not t.is_degenerate)
    return t


@settings(max_examples=60, deadline=None, derandomize=True)
@given(coprime_tuples(), st.sampled_from([1, 50, 10**9]), st.sampled_from([1, 7, 64]))
def test_delta_period_and_antisymmetry(t, period, chunk):
    # delta(n + P) = delta(n) + 1 and delta(N - n) = -delta(n) on [0, N]
    P, N = t.product, seifert.n_cutoff(t)
    with patch.object(seifert, "_PERIOD", period), patch.object(seifert, "_CHUNK", chunk):
        D = seifert.delta_array(t, N + P)
    assert np.array_equal(D, dense_delta(t, N + P))
    assert np.array_equal(D[P:], D[:N + 1] + 1)
    assert np.array_equal(D[N::-1], -D[:N + 1])
