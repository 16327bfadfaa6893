import json
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floerrank import botany, deltaseq, seifert
from floerrank.deltaseq import DeltaSequence, from_seifert, from_values
from floerrank.errors import (
    DegenerateTupleError,
    FirstElementNegativeError,
    NotConsecutiveError,
    SignMismatchError,
    SumMismatchError,
)

from conftest import random_delta_values, random_tuple
from deltaseq_oracle import (rank_by_sign_gathers, refine_many_loop, searchsorted_find,
                             sieve_from_seifert)
from walk_oracle import assert_matches_oracle, dense_tau


def test_from_seifert_examples():
    ds = from_seifert(seifert.make_tuple([2, 3, 7]))
    assert ds.positions.tolist() == [0, 1] and ds.values.tolist() == [1, -1]
    ds = from_seifert(seifert.make_tuple([2, 3, 13]))
    assert ds.positions.tolist() == [0, 1, 6, 7] and ds.values.tolist() == [1, -1, 1, -1]
    ds = from_seifert(seifert.make_tuple([2, 3, 35]))
    assert ds.positions.tolist() == [0, 5, 6, 11, 12, 17, 18, 23, 24, 29]
    assert ds.values.tolist() == [1, -1] * 5


def test_from_seifert_matches_sieve_oracle(rng):
    tuples = [seifert.make_tuple(ms) for ms in botany.candidates(6)]
    tuples += [random_tuple(rng, lengths=(4, 5), max_product=5 * 10**4) for _ in range(40)]
    tuples.append(seifert.make_tuple([2, 3, 5, 7, 11]))
    assert {t.fiber_count for t in tuples} == {3, 4, 5}
    for t in tuples:
        if not t.is_degenerate:
            assert from_seifert(t) == sieve_from_seifert(t), t


def test_from_seifert_degenerate():
    with pytest.raises(DegenerateTupleError):
        from_seifert(seifert.make_tuple([2, 3, 5]))


def test_from_seifert_refuses_cutoff_above_limit(monkeypatch):
    t = seifert.make_tuple([2, 3, 13])          # N = 7
    monkeypatch.setattr(deltaseq, "MAX_CUTOFF", 7)
    assert len(from_seifert(t)) == 4
    monkeypatch.setattr(deltaseq, "MAX_CUTOFF", 6)
    with pytest.raises(ValueError, match=r"spans N = 7, more than the N = 6"):
        from_seifert(t)


def test_tau_prefix_sums():
    assert from_values([1, -1]).tau() == [0, 1, 0]
    assert from_values([1, -1, 1, -1]).tau() == [0, 1, 0, 1, 0]
    assert from_values([2, -1, 1, -2]).tau() == [0, 2, 1, 2, 0]


def test_rank_report_examples():
    rep = from_seifert(seifert.make_tuple([2, 3, 7])).rank()
    assert (rep.kappa, rep.min_tau, rep.c) == (1, 0, 1)
    assert (rep.rank_red, rep.rank_hat) == (1, 3)
    assert from_seifert(seifert.make_tuple([2, 3, 13])).rank().rank_red == 2
    assert from_seifert(seifert.make_tuple([2, 3, 35])).rank().rank_red == 5


def test_rank_empty_sequence():
    rep = from_values([]).rank()
    assert (rep.kappa, rep.min_tau, rep.c, rep.rank_red, rep.rank_hat) == (0, 0, 0, 0, 1)


def test_subsequence():
    ds = from_values([1, -1, 1, -1])
    assert ds.subsequence(ds.positions) == ds
    sub = ds.subsequence({0, 1})
    assert sub.values.tolist() == [1, -1]
    with pytest.raises(FirstElementNegativeError):
        ds.subsequence({1})


def test_complement():
    ds = from_values([1, -1, 1, -1])
    assert ds.complement(set()) == ds
    assert ds.complement({0, 1}).values.tolist() == [1, -1]
    # removing both positives leaves only negatives, all trimmed
    assert len(ds.complement({0, 2})) == 0


def test_refine():
    ds = DeltaSequence([5], [3])
    out = ds.refine(5, [1, 2])
    assert out.values.tolist() == [1, 2] and out.positions[0] == 0
    out = DeltaSequence([0, 4], [1, -2]).refine(4, [-1, -1])
    assert out.values.tolist() == [1, -1, -1]
    with pytest.raises(SignMismatchError):
        DeltaSequence([0], [2]).refine(0, [1, -1, 2])
    with pytest.raises(SumMismatchError):
        DeltaSequence([0], [2]).refine(0, [1, 2])
    with pytest.raises(SumMismatchError, match=r"parts \[\] must sum to 2"):
        DeltaSequence([0], [2]).refine(0, [])


def test_merge():
    assert from_values([1, 2]).merge([0, 1]).values.tolist() == [3]
    assert from_values([2, -1, -1, -1]).merge([1, 2, 3]).values.tolist() == [2, -3]
    with pytest.raises(SignMismatchError):
        from_values([1, -1]).merge([0, 1])
    with pytest.raises(NotConsecutiveError):
        from_values([1, 2, -1, 3]).merge([0, 3])
    with pytest.raises(NotConsecutiveError, match=r"^positions \[\] are not consecutive$"):
        from_values([1, 2]).merge([])


def test_canonical_values():
    assert from_values([1, 2, -1]).canonical_values() == [3, -1]
    assert from_values([3, -1]).canonical_values() == [3, -1]
    assert from_values([1, -1, -2, 4]).canonical_values() == [1, -3, 4]
    # idempotence: canonical of the canonical list is itself
    for vals in ([1, 2, -1], [1, -1, -2, 4], [5]):
        canon = from_values(vals).canonical_values()
        assert from_values(canon).canonical_values() == canon


def random_chain(rng, ds, steps=6):
    for _ in range(steps):
        if rng.random() < 0.5 and any(abs(v) >= 2 for v in ds.values):
            pos = rng.choice([p for p, v in zip(ds.positions, ds.values)
                              if abs(v) >= 2])
            v = ds.value_at(pos)
            cut = rng.randint(1, abs(v) - 1)
            sign = 1 if v > 0 else -1
            ds = ds.refine(pos, [sign * cut, v - sign * cut])
        else:
            runs = [(i, j) for i in range(len(ds)) for j in range(i + 1, len(ds) + 1)
                    if len({x > 0 for x in ds.values[i:j]}) == 1]
            i, j = rng.choice(runs)
            ds = ds.merge(list(ds.positions[i:j]))
    return ds


def test_refine_merge_invariance(rng):
    for _ in range(200):
        ds = from_values(random_delta_values(rng))
        before = ds.rank()
        after = random_chain(rng, ds).rank()
        assert (before.rank_red, before.rank_hat) == (after.rank_red, after.rank_hat)


def test_equivalence_preserves_ranks(rng):
    for _ in range(100):
        ds = from_values(random_delta_values(rng))
        canon = from_values(ds.canonical_values())
        assert (ds.rank().rank_red, ds.rank().rank_hat) == \
            (canon.rank().rank_red, canon.rank().rank_hat)


def test_subsequence_complement_inequalities(rng):
    tried = 0
    while tried < 200:
        ds = from_values(random_delta_values(rng, max_len=10))
        keep = {p for p in ds.positions if rng.random() < 0.5}
        try:
            sub = ds.subsequence(keep)
        except FirstElementNegativeError:
            continue
        tried += 1
        comp = ds.complement(keep)
        whole = ds.rank()
        assert sub.rank().rank_red + comp.rank().rank_red <= whole.rank_red
        assert sub.rank().rank_hat <= whole.rank_hat


def test_seifert_rank_matches_full_tau(rng):
    # recompute kappa / min tau from the full walk including delta zeros
    for _ in range(15):
        t = random_tuple(rng, max_product=3 * 10**4)
        tau = dense_tau(t)
        deltas = seifert.delta_array(t, seifert.n_cutoff(t))
        kappa = int(-sum(d for d in deltas if d < 0))
        rep = from_seifert(t).rank()
        assert rep.rank_red == kappa + min(tau)
        oracle = assert_matches_oracle(t)
        assert (oracle.red_total, 2 * oracle.leaf_count - 1) == (rep.rank_red, rep.rank_hat)


def test_json_round_trip():
    ds = from_seifert(seifert.make_tuple([2, 3, 13]))
    data = json.loads(json.dumps(ds.to_json()))
    assert DeltaSequence.from_json(data) == ds
    assert data == {"positions": [0, 1, 6, 7], "values": [1, -1, 1, -1]}
    refined = ds.refine(6, [1])  # a refinement re-indexes to 0..k-1
    assert refined.to_json() == {"positions": [0, 1, 2, 3], "values": [1, -1, 1, -1]}
    assert DeltaSequence.from_json(json.loads(json.dumps(refined.to_json()))) == refined


def test_arrays_are_read_only_int64():
    ds = from_seifert(seifert.make_tuple([2, 3, 13]))
    for seq in (ds, ds.refine(6, [1]), ds.merge([6]), ds.subsequence([0, 1]),
                ds.complement([0]), DeltaSequence([0, 2], [1, -1])):
        for arr in (seq.positions, seq.values):
            assert arr.dtype == np.int64 and not arr.flags.writeable
    with pytest.raises(ValueError):
        ds.values[0] = 2


def test_constructor_copies_the_callers_arrays():
    positions, values = np.array([0, 3, 5]), np.array([2, -1, -1])
    ds = DeltaSequence(positions, values)
    from_list = from_values(values)
    positions[1], values[0] = 4, 7
    assert ds.positions.tolist() == [0, 3, 5] and ds.values.tolist() == [2, -1, -1]
    assert from_list.values.tolist() == [2, -1, -1]


def test_adopt_checks_order_unless_it_builds_the_positions():
    # positions the library passes are checked for order; positions None
    # stand for 0..k-1, built by _adopt, and skip only that check
    for positions in ([0, 2, 1], [0, 0, 1], [3, 2, 1]):
        with pytest.raises(ValueError, match="strictly increasing"):
            DeltaSequence._adopt(np.array(positions), np.array([1, -1, 1]))
    seq = DeltaSequence._adopt(None, np.array([2, -1, 1]))
    assert seq == DeltaSequence([0, 1, 2], [2, -1, 1])
    assert seq.positions.dtype == np.int64 and not seq.positions.flags.writeable
    with pytest.raises(ValueError, match="nonzero"):
        DeltaSequence._adopt(None, np.array([1, 0]))
    with pytest.raises(FirstElementNegativeError):
        DeltaSequence._adopt(None, np.array([-1, 1]))


def test_from_seifert_keeps_its_arrays_without_a_copy():
    # the dense half n < N/2 beside the nonzeros' positions and values,
    # about 15.6 bytes per entry of [0, N]; the dense array over all of
    # [0, N] made about 19.6, and a copy of both arrays about 24
    t = seifert.make_tuple([2, 3, 5, 7, 11, 13, 19])
    N = seifert.n_cutoff(t)
    seifert.normalized_invariants(t)
    tracemalloc.start()
    try:
        ds = from_seifert(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == 1492334
    assert peak / (N + 1) < 17, peak / (N + 1)


def _half_range_corpus():
    """Seeded tuples of 3 to 6 fibers, with odd and even cutoffs."""
    rng = random.Random(11)
    tuples = [random_tuple(rng, lengths=(3, 4, 5, 6), max_entry=30, max_product=10**5)
              for _ in range(40)]
    tuples += [seifert.make_tuple(ms) for ms in ([2, 3, 7], [2, 3, 13], [2, 3, 5, 7, 11, 13])]
    assert {t.fiber_count for t in tuples} == {3, 4, 5, 6}
    assert {seifert.n_cutoff(t) % 2 for t in tuples} == {0, 1}
    return tuples


@pytest.mark.parametrize("chunk", [None, 5, 64])
def test_half_range_from_seifert_matches_full_delta_array(monkeypatch, chunk):
    # from_seifert evaluates n < N/2 and mirrors it; the reference is the
    # full delta_array over [0, N] at the default chunk size.  A small chunk
    # puts chunk boundaries (and period tables) all over the half.
    corpus = _half_range_corpus()
    full = [seifert.delta_array(t, seifert.n_cutoff(t)) for t in corpus]
    if chunk is not None:
        monkeypatch.setattr(seifert, "_CHUNK", chunk)
    for t, d in zip(corpus, full):
        ds = from_seifert(t)
        positions = np.flatnonzero(d)
        assert np.array_equal(ds.positions, positions), t
        assert np.array_equal(ds.values, d[positions]), t


def test_restrictions_and_merges_keep_labels():
    ds = DeltaSequence([3, 5, 8, 13], [2, 1, -1, -2])
    assert ds.subsequence([5, 8]).positions.tolist() == [5, 8]
    assert ds.complement([3]).positions.tolist() == [5, 8, 13]
    assert ds.complement([3, 5]).positions.tolist() == []
    merged = ds.merge([3, 5])
    assert merged.positions.tolist() == [3, 8, 13] and merged.values.tolist() == [3, -1, -2]
    assert ds.value_at(8) == -1
    with pytest.raises(ValueError, match="not positions"):
        ds.value_at(4)
    with pytest.raises(ValueError, match="not positions"):
        ds.refine_many({4: [1]})


@st.composite
def refine_merge_chains(draw):
    """A random sequence and a chain of refinements and merges on it."""
    ds = from_values(draw(st.lists(st.integers(1, 6) | st.integers(-6, -1), min_size=1,
                                   max_size=10).map(lambda vs: [abs(vs[0])] + vs[1:])))
    start = ds
    for _ in range(draw(st.integers(1, 8))):
        big = np.flatnonzero(np.abs(ds.values) >= 2)
        if big.size and draw(st.booleans()):
            i = int(big[draw(st.integers(0, big.size - 1))])
            v = int(ds.values[i])
            cut = draw(st.integers(1, abs(v) - 1)) * (1 if v > 0 else -1)
            ds = ds.refine(int(ds.positions[i]), [cut, v - cut])
            assert ds.positions.tolist() == list(range(len(ds)))
        else:
            i = draw(st.integers(0, len(ds) - 1))
            j = i + 1
            while j < len(ds) and (ds.values[j] > 0) == (ds.values[i] > 0) \
                    and draw(st.booleans()):
                j += 1
            ds = ds.merge(ds.positions[i:j])
    return start, ds


@settings(max_examples=200, deadline=None, derandomize=True)
@given(refine_merge_chains())
def test_refine_merge_chains_keep_ranks(chain):
    start, end = chain
    assert (start.rank().rank_red, start.rank().rank_hat) == \
        (end.rank().rank_red, end.rank().rank_hat)
    assert start.canonical_values() == end.canonical_values()


@st.composite
def split_dicts(draw):
    """A sequence at positions 0, 3, 6, ... and splits keyed by some of its
    positions (and now and then by the absent 3k): mostly a split of the
    value, valid or spoilt by a zero part, a part of the other sign or a
    missing part, else any short list of small integers, the empty list
    among them."""
    values = draw(st.lists(st.integers(1, 6) | st.integers(-6, -1), min_size=1,
                           max_size=8).map(lambda vs: [abs(vs[0])] + vs[1:]))
    ds = DeltaSequence(3 * np.arange(len(values)), values)
    splits = {}
    for i in draw(st.lists(st.integers(0, len(values)), unique=True, max_size=3)):
        if i == len(values) or draw(st.integers(0, 3)) == 0:
            splits[3 * i] = draw(st.lists(st.integers(-4, 4), max_size=3))
            continue
        v = values[i]
        cuts = draw(st.sets(st.integers(1, 5), max_size=2))
        bounds = [0] + sorted(c for c in cuts if c < abs(v)) + [abs(v)]
        parts = [(hi - lo) * (1 if v > 0 else -1) for lo, hi in zip(bounds, bounds[1:])]
        spoil = draw(st.sampled_from(["none", "zero", "flip", "drop"]))
        j = draw(st.integers(0, len(parts) - 1))
        if spoil == "zero":
            parts.insert(j, 0)
        elif spoil == "flip":
            parts[j] = -parts[j]
        elif spoil == "drop":
            del parts[j]
        splits[3 * i] = parts
    return ds, splits


def test_refine_many_matches_the_loop():
    outcomes = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(split_dicts())
    def check(case):
        ds, splits = case
        results = []
        for refine in (DeltaSequence.refine_many, refine_many_loop):
            try:
                results.append(refine(ds, splits))
            except ValueError as exc:
                results.append((type(exc), str(exc)))
        assert results[0] == results[1], (ds, splits, results)
        outcomes[results[0][0] if isinstance(results[0], tuple) else "refined"] += 1

    check()
    assert set(outcomes) == {"refined", ValueError, SignMismatchError, SumMismatchError}, outcomes


def _lookup_corpus(rng):
    """(sequence, queries) on both sides of _find's density rule: Seifert
    sequences of 3 to 6 fibers and sequences at 0..k-1 (dense), positions
    with wide gaps and negative positions (sparse), and empty sequences.
    The queries mix positions, repeats, absent positions, negatives and
    positions above the largest.  Each case says whether _find searches."""
    seqs = [(from_seifert(random_tuple(rng, lengths=(3, 4, 5), max_product=10**5)), False)
            for _ in range(12)]
    seqs += [(from_seifert(seifert.make_tuple(t)), False)
             for t in ((2, 3, 5, 7, 11, 13), (2, 3, 5, 7, 11, 19))]
    for _ in range(12):
        ds = from_values(random_delta_values(rng, max_len=30))
        big = np.flatnonzero(np.abs(ds.values) >= 2)
        if big.size:     # a refinement re-indexes to 0..k-1
            v = int(ds.values[big[0]])
            ds = ds.refine(int(ds.positions[big[0]]), [np.sign(v), v - np.sign(v)])
        seqs.append((ds, False))
    for _ in range(12):
        values = random_delta_values(rng, max_len=40)
        positions = sorted(rng.sample(range(10**6, 10**12), len(values)))
        seqs.append((DeltaSequence(positions, values), True))
    seqs += [(DeltaSequence([0, 10**12], [1, -1]), True),
             (DeltaSequence([-5, 3, 9], [1, -2, 1]), True), (DeltaSequence([], []), False)]
    corpus = []
    for ds, searched in seqs:
        pos = ds.positions.tolist()
        top = pos[-1] if pos else 0
        present = rng.sample(pos, min(len(pos), 50))
        absent = [q for q in rng.sample(range(top + 2), min(top + 2, 30)) if q not in set(pos)]
        queries = present + present[:5] + absent + [-1, -top - 3, top + 1, 2 * top + 7, 2**62]
        rng.shuffle(queries)
        corpus.append((ds, present, queries, searched))
    return corpus


def test_find_matches_searchsorted_on_both_paths(rng, monkeypatch):
    searches, original = [], np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **k: searches.append(1) or original(*a, **k))
    cases = [(ds.positions, queries, searched) for ds, _, queries, searched in _lookup_corpus(rng)]
    # the rule's edge: largest position one below and at _DENSE (positions + items)
    for top in (deltaseq._DENSE * 6 - 1, deltaseq._DENSE * 6):
        cases.append((np.array([0, 2, top], dtype=np.int64), [2, 1, top], top % 2 == 0))
    # sorted keys with repeats, as subsequence and complement pass them
    cases.append((np.array([0, 0, 3, 3, 3, 7], dtype=np.int64), [3, 0, 7, 5, -2, 8], False))
    # a 2-d block of queries, as the reflected witnesses pass them
    cases.append((np.arange(0, 40, 2, dtype=np.int64), np.arange(-4, 44).reshape(4, 12), False))
    for ordered, items, searched in cases:
        ref_idx, ref_found = searchsorted_find(ordered, items)
        before = len(searches)
        idx, found = deltaseq._find(ordered, items)
        assert (len(searches) > before) == searched, ordered
        items = np.asarray(items)
        assert idx.shape == found.shape == items.shape and idx.dtype == np.int64
        assert np.array_equal(found, ref_found), (ordered, items)
        # an index means something only where its item is found
        assert np.array_equal(ordered[idx[found]], items[found])
        if np.all(ordered[1:] > ordered[:-1]):
            assert np.array_equal(idx[found], ref_idx[found])


def test_dense_positions_fill_a_table_and_sparse_ones_are_searched(rng, monkeypatch):
    searches, original = [], np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **k: searches.append(1) or original(*a, **k))
    seifert_ds = from_seifert(seifert.make_tuple([2, 3, 5, 7, 11, 13]))
    seifert_ds.indices_of(seifert_ds.positions[::7])
    from_values([1, -2, 3, -1]).refine(2, [1, 2]).indices_of([0, 4])
    assert searches == []
    sparse = DeltaSequence([0, 10**12], [1, -1])
    tracemalloc.start()
    try:
        assert sparse.indices_of([10**12, 0]).tolist() == [1, 0]
        assert sparse.subsequence([0, 10**12, 0, 5]) == sparse
        assert sparse.complement([10**12, 10**12]).positions.tolist() == [0]
        with pytest.raises(ValueError, match=r"^\[5, -1\] are not positions"):
            sparse.indices_of([5, 0, -1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000 and len(searches) == 4


def _restricted(ds, mask):
    """The sequence at ds's positions where mask holds, or the error."""
    if mask.any() and ds.values[mask][0] < 0:
        return FirstElementNegativeError
    return DeltaSequence(ds.positions[mask], ds.values[mask])


def test_lookups_match_membership_oracle(rng):
    for ds, present, queries, _ in _lookup_corpus(rng):
        pos = ds.positions.tolist()
        assert ds.indices_of(present).tolist() == [pos.index(q) for q in present]
        missing = [q for q in queries if q not in set(pos)]
        with pytest.raises(ValueError) as exc:
            ds.indices_of(queries)
        assert str(exc.value) == f"{missing[:5]} are not positions of this sequence"
        for keep in (present, present + present[:5], queries, []):
            mask = np.isin(ds.positions, keep)
            expected = _restricted(ds, mask)
            try:
                got = ds.subsequence(keep)
            except FirstElementNegativeError:
                got = FirstElementNegativeError
            assert got == expected, (ds, keep)
            mask = ~mask & (np.cumsum(~mask & (ds.values > 0)) > 0)
            assert ds.complement(keep) == _restricted(ds, mask)


def test_rank_matches_sign_gather_formula(rng):
    corpus = [[], [3], [1, -1], [2, -1, -1], [1, -2, 3, -1, 2, -5]]
    corpus += [random_delta_values(rng, max_len=rng.choice((1, 2, 25))) for _ in range(400)]
    corpus += [from_seifert(random_tuple(rng, max_product=10**4)).values for _ in range(10)]
    assert sum(len(v) > 0 and v[-1] < 0 for v in corpus) >= 100
    assert sum(len(v) == 1 for v in corpus) >= 50
    for values in corpus:
        assert from_values(values).rank() == rank_by_sign_gathers(values), values
