import math
import random
from fractions import Fraction
from itertools import product as iproduct
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from floerrank import botany, deltaseq, seifert
from floerrank.errors import DegenerateTupleError, NonPositiveEntryError, NotCoprimeError

from conftest import random_tuple
from semigroup_oracle import membership, membership_k_array, normal_forms, semigroup_sieve
from walk_oracle import (assert_matches_oracle, chunked_walk, dense_delta, dense_tau,
                         dense_walk)


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


@pytest.mark.parametrize("chunk", [None, 1, 2, 7, 64])
def test_walk_kernel_chunk_boundaries(monkeypatch, chunk):
    # the kernel against the dense views and against the chunked loop it
    # replaced, at the default chunk and at chunks that split every carry
    if chunk:
        monkeypatch.setattr(seifert, "_CHUNK", chunk)
    if chunk and chunk < 16:    # 1/16 of a chunk this small holds no positive
        monkeypatch.setattr(seifert, "_SPARSE", 1 if chunk == 1 else 2)
    size, sparse = seifert._CHUNK, seifert._SPARSE
    rng = random.Random(42)
    corpus = [random_tuple(rng, lengths=(3, 3, 4, 5), max_product=6000) for _ in range(30)]
    if size >= 7:   # a zero run of 26
        corpus.append(seifert.make_tuple([13, 15, 17, 19]))
    if chunk is None:   # more chunks at the default
        corpus.append(seifert.make_tuple([2, 3, 5, 7, 11, 13]))
    # 6 and 7 fibers: positives are a few percent of delta, so chunks are
    # read off them (7 fibers walk 0.9M entries, too many for small chunks)
    corpus += [random_tuple(rng, lengths=(6,), max_product=50000) for _ in range(2)]
    if size >= 64:
        corpus.append(random_tuple(rng, lengths=(7,), max_product=600000))
    seen = set()
    for t in corpus:
        assert_matches_oracle(t)
        got = seifert.walk_statistics(t)
        assert (got.kappa, got.min_tau, got.c) == chunked_walk(t), t
        N = seifert.n_cutoff(t)
        half = seifert.delta_array(t, N)[:(N + 1) // 2]
        zero = half == 0
        if zero[::size].any():
            seen.add("starts on zero")
        if zero[size - 1::size].any():
            seen.add("ends on zero")
        if zero[:len(half) // size * size].reshape(-1, size).all(axis=1).any():
            seen.add("all zeros")
        ends = np.arange(size - 1, len(half) - 1, size)   # last n of each chunk
        # nonzero delta on either side of a boundary changes from - to +
        nz_at = np.flatnonzero(half)
        after = np.searchsorted(nz_at, ends, side="right")
        inside = (after > 0) & (after < len(nz_at))
        before_vals = half[nz_at[after[inside] - 1]]
        after_vals = half[nz_at[after[inside]]]
        if ((before_vals < 0) & (after_vals > 0)).any():
            seen.add("splits a change")
        # the chunks the kernel reads off their positives, by its rule
        starts = np.arange(0, len(half), size)
        positives = np.add.reduceat(half > 0, starts)
        read = (positives > 0) & (positives * sparse <= np.diff(starts, append=len(half)))
        if read.any():
            seen.add("read off positives")
        if (read & (half[starts] > 0)).any():
            seen.add("read chunk starts on a positive")
        if read.any() and (positives > 0).sum() > read.sum():
            seen.add("both paths in one walk")
        if (positives[1:-1] == 0).any():
            seen.add("positive-free mid-walk")
        # a positive read off its chunk whose previous nonzero, negative, is
        # in an earlier chunk: the change comes from the carried sign
        prev, cur = nz_at[:-1], nz_at[1:]
        if ((half[cur] > 0) & (half[prev] < 0) & (prev // size < cur // size)
                & read[cur // size]).any():
            seen.add("change carried into a read chunk")
    want = {"starts on zero", "ends on zero", "splits a change", "read off positives",
            "read chunk starts on a positive"}
    if size <= 7:   # the zero run of 26 holds a whole chunk of 7, not one of 64
        want.add("all zeros")
    if size > 1:    # a chunk of one entry has one path
        want.add("both paths in one walk")
    if chunk:       # chunks of the default size hold a positive or a carry
        want |= {"positive-free mid-walk", "change carried into a read chunk"}
    assert want <= seen, want - seen


@pytest.mark.parametrize("ms, kappa, min_tau, c", [
    ((2, 3, 5, 7, 11, 163), 405960, -349950, 53936),
    ((2, 3, 5, 7, 11, 13, 17), 922733, -825720, 81120),
    ((2, 3, 5, 344827), 1896541, -1206888, 678159),
    ((2, 3, 5, 7, 11, 13, 17, 19), 27286894, -25040582, 1663009),
])
def test_walk_kernel_large_records(ms, kappa, min_tau, c):
    # records of the rank benchmark's fixed tuples, cutoffs 1.0e6 to 4.4e7;
    # most chunks of the last are read off their few positives, or have none
    t = seifert.make_tuple(ms)
    got = seifert.walk_statistics(t)
    assert (got.kappa, got.min_tau, got.c) == (kappa, min_tau, c)
    assert chunked_walk(t) == (kappa, min_tau, c)


def _largest_fiber_tuples(rng, count, lengths, max_b, spread):
    """count tuples whose largest multiplicity p exceeds b = P/p: the others
    are drawn from 2..13 with product b <= max_b, p from (b, spread * b]."""
    out = []
    while len(out) < count:
        small, length = [], rng.choice(lengths)
        for q in rng.sample(range(2, 14), 12):
            if all(math.gcd(q, k) == 1 for k in small) and math.prod(small) * q <= max_b:
                small.append(q)
                if len(small) == length - 1:
                    break
        b = math.prod(small)
        p = rng.randint(b + 1, spread * b)
        if len(small) == length - 1 and all(math.gcd(p, q) == 1 for q in small):
            out.append(seifert.make_tuple(small + [p]))
    return out


def _walk_by(t, blocks: bool):
    """walk_statistics(t) by blocks of its largest fiber, or by chunks,
    whatever the rule would choose; the block walk is correct on every
    tuple, but it saves work only where the rule sends it."""
    period = t.product // t.multiplicities[-1] if blocks else 0
    with patch.object(seifert, "_period", lambda t: period):
        return seifert.walk_statistics(t)


def test_largest_fiber_identity():
    # b p' = -1 (mod p), so a/b = p'/p + 1/(bp) with a = (b p' + 1)/p, and
    # ceil(m p'/p) = ceil(m a/b) for m < p: delta is b-periodic on each
    # block [jp, (j+1)p)
    rng = random.Random(44)
    corpus = [random_tuple(rng, lengths=(3, 4, 5, 6), max_product=2 * 10**5) for _ in range(150)]
    corpus += _largest_fiber_tuples(rng, 150, (3, 4, 5), 420, 8)
    periodic = 0
    for t in corpus:
        pp, p = seifert.normalized_invariants(t).pairs[-1]
        b = t.product // p
        assert (b * pp + 1) % p == 0, t
        a = (b * pp + 1) // p
        m = np.arange(p, dtype=np.int64)
        assert np.array_equal(-(-m * pp // p), -(-m * a // b)), t
        N = seifert.n_cutoff(t)
        D = seifert.delta_array(t, N)
        n = np.arange(max(N + 1 - b, 0))
        same = n // p == (n + b) // p
        assert np.array_equal(D[n + b][same], D[n][same]), t
        periodic += bool(same.any())
    assert periodic > 150


@pytest.mark.parametrize("chunk, max_b", [(1, 42), (7, 105), (64, 210)])
def test_block_walk_matches_oracles(monkeypatch, chunk, max_b):
    # the walk by blocks against the dense views and the chunk walk, on
    # 1,000 seeded tuples with p > b at each chunk (3,000 in all), its
    # periods split across chunks and its remainders cut inside one; a
    # tuple the rule sends to the block walk is walked by walk_statistics
    rng = random.Random(45 + chunk)
    corpus = _largest_fiber_tuples(rng, 1000, (3, 3, 3, 4, 4, 5), max_b, 6)
    seen, fired = set(), 0
    for t in corpus:
        want = dense_walk(t)
        by_chunks = _walk_by(t, blocks=False)
        assert (by_chunks.kappa, by_chunks.min_tau, by_chunks.c) == \
            (want.kappa, want.min_tau, want.c), t
        N = seifert.n_cutoff(t)
        half, p = (N + 1) // 2, t.multiplicities[-1]
        b = t.product // p
        D = seifert.delta_array(t, N)[:half]
        with monkeypatch.context() as patched:
            # _PERIOD at max_b keeps p out of the other fibers' group, as
            # in a tuple too large for this corpus, so that group is read
            # from its table when the blocks revisit its period
            patched.setattr(seifert, "_CHUNK", chunk)
            patched.setattr(seifert, "_PERIOD", max_b)
            if seifert._period(t):
                fired += 1
                got = seifert.walk_statistics(t)
                if seifert.walk_counts(t)["fibers_tabulated"]:
                    seen.add("blocks read from tables")
            else:
                got = _walk_by(t, blocks=True)
        assert got == by_chunks, t
        if t.is_degenerate:
            continue
        if half < b:
            seen.add("half < b")
        seen.add("single block" if half <= p else "several blocks")
        if half > p and half % p:
            seen.add("final partial block")
        for start in range(0, half, p):
            r = min(p, half - start) // b
            nz = D[start:start + b][D[start:start + b] != 0]
            if not r:
                seen.add("r = 0")
            if not nz.size:
                seen.add("period with no nonzero")
            elif r >= 2 and nz[-1] < 0 < nz[0]:
                seen.add("seam change")
            if r and b > chunk:
                seen.add("period split across chunks")
            if r and min(p, half - start) % b % chunk:
                seen.add("remainder cut inside a chunk")
    want = {"half < b", "single block", "several blocks", "final partial block", "r = 0",
            "period with no nonzero", "seam change", "blocks read from tables"}
    if chunk > 1:
        want.add("remainder cut inside a chunk")
    if chunk < 64:
        want.add("period split across chunks")
    assert want <= seen, want - seen
    assert fired >= 300


def test_block_walk_six_fibers():
    # p = 16391 > _CHUNK and p >= 4b, b = 2310: 3,157 blocks, 7.3M of the
    # half's 51.7M entries evaluated, every fiber read from a table
    t = seifert.make_tuple([2, 3, 5, 7, 11, 16391])
    assert seifert._period(t) == 2310
    got = seifert.walk_statistics(t)
    assert got == _walk_by(t, blocks=False)
    assert got.rank_red > 0
    counts = seifert.walk_counts(t)
    assert (counts["blocks"], counts["delta_entries"], counts["fibers_tabulated"]) == \
        (3157, 7292670, 6)


def test_block_walk_counts_what_it_evaluates(monkeypatch):
    # walk_counts reports the blocks, the period b, and the entries,
    # chunks and tables the walk by blocks evaluated and built: a table
    # pays once the walk evaluates more than its period plus a chunk
    calls = _record_ceilings(monkeypatch)
    cases = {(2, 3, 5, 344827): (None, (1896541, -1206888, 678159)),
             (2, 3, 97): (7, None), (2, 5, 83): (7, None), (3, 4, 5, 241): (7, None),
             (2, 3, 5, 7, 853): (7, None)}
    tabulated = 0
    for ms, (chunk, record) in cases.items():
        t = seifert.make_tuple(ms)
        with monkeypatch.context() as patched:
            if chunk:
                patched.setattr(seifert, "_CHUNK", chunk)
            calls.clear()
            stats = seifert.walk_statistics(t)
            counts = seifert.walk_counts(t)
            size = seifert._CHUNK
        if record is None:
            want = dense_walk(t)
            record = (want.kappa, want.min_tau, want.c)
        assert (stats.kappa, stats.min_tau, stats.c) == record, ms
        half, p = (seifert.n_cutoff(t) + 1) // 2, ms[-1]
        assert (counts["blocks"], counts["period"]) == (-(-half // p), t.product // p), ms
        built = [(n, fibers) for n, fibers in calls if n > size]
        read = [(n, fibers) for n, fibers in calls if n <= size]
        assert counts["delta_entries"] == sum(n for n, _ in read), ms
        assert counts["chunks"] == len(read), ms
        assert {fibers for _, fibers in read} == {counts["fibers_divided"]}, ms
        assert counts["fibers_tabulated"] == sum(f for _, f in built), ms
        assert counts["table_entries"] == sum(n for n, _ in built), ms
        assert counts["fibers_tabulated"] + counts["fibers_divided"] == len(ms), ms
        tabulated += counts["fibers_tabulated"]
    assert list(counts) == ["delta_entries", "chunks", "fibers_tabulated", "fibers_divided",
                            "table_entries", "blocks", "period"]
    assert seifert.walk_counts(seifert.make_tuple([2, 3, 5, 344827]))["fibers_divided"] == 4
    assert tabulated > 0


def test_rule_sends_botany_and_the_benchmark_records_to_the_chunk_walk():
    # the walk by blocks needs p > _CHUNK, p >= 4b and b <= _PERIOD
    records = [(2, 3, 5, 7, 11, 13, 17, 19), (2, 3, 5, 7, 11, 13, 17), (2, 3, 5, 7, 11, 163)]
    for ms in records:
        t = seifert.make_tuple(ms)
        assert seifert._period(t) == 0 and "blocks" not in seifert.walk_counts(t), ms
    assert not any(seifert._period(seifert.make_tuple(ms)) for ms in botany.candidates(12))
    # each condition on its own: p <= _CHUNK, p < 4b, b > _PERIOD
    edge = {(2, 3, 16411): 6, (2, 3, 16381): 0, (4, 1023, 16385): 4092,
            (4, 1025, 16387): 0, (2, 3, 5, 7, 11, 13, 131101): 30030,
            (2, 3, 5, 7, 11, 13, 17, 2042041): 0}
    for ms, period in edge.items():
        assert seifert._period(seifert.make_tuple(ms)) == period, ms


@pytest.mark.parametrize("offset", [5, 7])
def test_brieskorn_families(offset):
    # (2,3,6k+5) has rank_red k and (2,3,6k+7) rank_red k + 1, with
    # rank_hat 2 rank_red + 1 and N = p - 6, by either walk; at k = 10^8
    # the walk by blocks evaluates six entries
    for k in (1, 2, 3, 10, 97, 2731, 2732, 10**5, 10**8):
        t = seifert.make_tuple([2, 3, 6 * k + offset])
        stats = seifert.walk_statistics(t)
        red = k if offset == 5 else k + 1
        assert (stats.rank_red, stats.rank_hat, seifert.n_cutoff(t)) == \
            (red, 2 * red + 1, 6 * k + offset - 6), k
        if k < 10**5:
            assert _walk_by(t, blocks=True) == _walk_by(t, blocks=False) == stats, k
    assert seifert.walk_counts(t)["delta_entries"] == 6


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
    # the chunked walk guards the whole of [0, N], not one chunk at a time,
    # and it does so at the walk, each time, not when the tuple is built
    wide = seifert.make_tuple([2, 3, 10**10 + 1])
    for _ in range(2):
        with pytest.raises(OverflowError):
            seifert.walk_statistics(wide)
        with pytest.raises(OverflowError):
            seifert.walk_counts(wide)


def test_tuple_keeps_only_its_invariants():
    # a walk, a delta array and a sequence leave on the tuple only what it
    # derives from its multiplicities; equality and hashing ignore them
    t = seifert.make_tuple([2, 3, 5, 7, 11])
    fresh = seifert.make_tuple([2, 3, 5, 7, 11])
    stats = seifert.walk_statistics(t)
    seifert.delta_array(t, 100)
    deltaseq.from_seifert(t)
    assert set(vars(t)) == {"multiplicities", "product", "_invariants", "_cutoff", "_half"}
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    assert seifert.walk_statistics(t) == stats == seifert.walk_statistics(fresh)
    assert seifert.normalized_invariants(t) is seifert.normalized_invariants(t)
    with pytest.raises(DegenerateTupleError):
        seifert.n_cutoff(seifert.make_tuple([]))
    with pytest.raises(OverflowError):
        seifert.SeifertTuple((2**32 + 1, 2**32 + 3))


def _record_ceilings(monkeypatch) -> list:
    """(entries, fibers) of each _subtract_ceilings call the walks make.  A
    call over more than _CHUNK entries builds a table of period entries -
    _CHUNK; each other call divides fibers out of one chunk."""
    calls = []
    subtract = seifert._subtract_ceilings

    def recording(acc, n, pairs, term):
        calls.append((n.size, len(pairs)))
        subtract(acc, n, pairs, term)

    monkeypatch.setattr(seifert, "_subtract_ceilings", recording)
    return calls


def _table_reads(periods, stop):
    """(starts at a multiple of a tabulated period, chunks straddling one)."""
    at_zero = straddles = 0
    for q in periods:
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
    calls = _record_ceilings(monkeypatch)
    rng = random.Random(43)
    at_zero = straddles = tabulated = 0
    linear = False      # a first table read across its period with |e0| >= 2
    for _ in range(15):
        t = random_tuple(rng, lengths=(3, 4, 5), max_product=2000)
        N = seifert.n_cutoff(t)
        upto = 2 * N + t.product
        calls.clear()
        assert np.array_equal(seifert.delta_array(t, upto), dense_delta(t, upto)), t
        # the tables the walk built, each for a period it revisits
        built = [(size - chunk, fibers) for size, fibers in calls if size > chunk]
        divided = {fibers for size, fibers in calls if size <= chunk}
        assert all(q <= period and q + chunk < upto + 1 for q, _ in built), t
        fibers = sum(f for _, f in built)
        assert divided == {t.fiber_count - fibers}, t
        groups, rest = seifert._plan(seifert.normalized_invariants(t).pairs, upto + 1)
        assert built == [(q, len(group)) for q, group in groups], t
        assert len(rest) == t.fiber_count - fibers, t
        assert_matches_oracle(t)
        tabulated += fibers
        reads = _table_reads([q for q, _ in built], upto + 1)
        at_zero, straddles = at_zero + reads[0], straddles + reads[1]
        # the first table carries |e0| x, shifted by |e0| (s - s mod Q)
        e0 = seifert.normalized_invariants(t).e0
        linear |= bool(built) and e0 <= -2 and _table_reads([built[0][0]], upto + 1)[1] > 0
    if period == 1:
        assert tabulated == 0
    else:
        assert tabulated > 0 and at_zero > 0 and (straddles > 0 or chunk == 1)
        assert linear or chunk == 1


@pytest.mark.parametrize("above", [0, 1])
def test_period_table_threshold(monkeypatch, above):
    # one group of period Q = P; the walk over half = (N + 1) // 2 tabulates
    # it only when half > Q + _CHUNK
    t = seifert.make_tuple([2, 3, 5, 7, 11, 13])
    N, Q = seifert.n_cutoff(t), t.product
    half = (N + 1) // 2
    monkeypatch.setattr(seifert, "_PERIOD", 10**9)
    monkeypatch.setattr(seifert, "_CHUNK", half - Q - above)
    calls = _record_ceilings(monkeypatch)
    stats = seifert.walk_statistics(t)
    counts = seifert.walk_counts(t)
    # walk_counts reports the tables and chunks the walk made
    chunk = seifert._CHUNK
    built = [(size, fibers) for size, fibers in calls if size > chunk]
    divided = [fibers for size, fibers in calls if size <= chunk]
    assert counts["fibers_tabulated"] == sum(f for _, f in built)
    assert counts["fibers_tabulated"] == (t.fiber_count if above else 0)
    assert counts["table_entries"] == sum(size for size, _ in built) == (half - 1 if above else 0)
    assert counts["chunks"] == len(divided) and set(divided) == {counts["fibers_divided"]}
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
