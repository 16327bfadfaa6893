import json
import random
import tracemalloc

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
from deltaseq_oracle import sieve_from_seifert
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


def test_merge():
    assert from_values([1, 2]).merge([0, 1]).values.tolist() == [3]
    assert from_values([2, -1, -1, -1]).merge([1, 2, 3]).values.tolist() == [2, -3]
    with pytest.raises(SignMismatchError):
        from_values([1, -1]).merge([0, 1])
    with pytest.raises(NotConsecutiveError):
        from_values([1, 2, -1, 3]).merge([0, 3])


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


def test_from_seifert_keeps_its_arrays_without_a_copy():
    # the dense array beside the nonzeros' positions and values, about 20
    # bytes per entry of [0, N]; a copy of both arrays would make about 24
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
    assert peak / (N + 1) < 21, peak / (N + 1)


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
