import json
from collections import Counter
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from floerrank import botany, seifert
from floerrank.deltaseq import from_seifert

from botany_oracle import unpruned_ranks, unpruned_rows
from conftest import random_tuple

DATA = Path(__file__).parent / "data"


def golden_rows():
    rows = {}
    for line in (DATA / "table12.csv").read_text().splitlines():
        parts = line.split(",")
        n = int(parts[0])
        rows.setdefault(n, set()).add(tuple(parts[1:]) if parts[1] == "S3"
                                      else tuple(int(x) for x in parts[1:]))
    return rows


def test_bounds():
    assert botany.bounds(1) == (3, 12)
    assert botany.bounds(12) == (3, 78)
    assert botany.bounds(13) == (4, 84)
    with pytest.raises(ValueError):
        botany.bounds(0)


def test_solve_zero():
    res = botany.solve(0)
    assert res.includes_s3 and res.tuples == ((2, 3, 5),)


def test_solve_one():
    assert botany.solve(1).tuples == ((2, 3, 7), (2, 3, 11))


def test_solve_five():
    expected = {(4, 5, 7), (3, 4, 13), (3, 5, 11), (2, 3, 35), (2, 5, 17),
                (2, 3, 31), (2, 5, 19)}
    assert set(botany.solve(5).tuples) == expected


def test_table_row_two():
    rows = botany.table(2)
    assert set(rows[2].tuples) == {(3, 4, 5), (2, 3, 17), (3, 4, 7),
                                   (2, 3, 13), (2, 5, 9), (2, 5, 7)}
    assert rows[0].includes_s3
    assert set(rows.keys()) == {0, 1, 2}


def test_table_zero():
    rows = botany.table(0)
    assert list(rows.keys()) == [0]


def test_scaling_family_sample():
    for n in (0, 3, 10, 25, 60):
        t = seifert.make_tuple([2, 3, 6 * n + 7])
        assert seifert.rank_pair(t)[0] == n + 1


def test_rank_2357():
    assert seifert.rank_pair(seifert.make_tuple([2, 3, 5, 7]))[0] == 13


def test_fast_rank_matches_delta_sequence_path(rng):
    for _ in range(20):
        t = random_tuple(rng, max_product=3 * 10**4)
        rep = from_seifert(t).rank()
        assert botany.rank_red_of(t.multiplicities) == rep.rank_red


def test_csv_and_json_formats():
    rows = {1: botany.solve(1)}
    assert botany.table_csv(rows) == "1,2,3,7\n1,2,3,11\n"
    data = json.loads(botany.table_json(rows))
    assert data == [{"n": 1, "tuples": [[2, 3, 7], [2, 3, 11]]}]
    zero = botany.solve(0)
    assert zero.csv_rows() == ["0,S3", "0,2,3,5"]
    assert zero.to_json() == {"n": 0, "tuples": [[2, 3, 5]], "s3": True}


def test_solve_matches_golden_row(rng):
    golden = golden_rows()
    for n in (rng.choice([2, 3, 4]), rng.choice([6, 7])):
        assert set(botany.solve(n).tuples) == golden[n] - {("S3",)}


def test_bound_tightness_sample():
    # tuples realizing the cap multiplicity 6n+7 must have rank != n
    for n in (1, 2, 3):
        cap = 6 * n + 7
        for t in botany.candidates(n + 2):
            if t[-1] == cap:
                assert botany.rank_red_of(t) != n


def test_bound_tightness_from_golden_rows():
    # row n of the reference table never contains a tuple reaching 6n+7;
    # the scaling family pins the n=12 cap (multiplicity 79) separately
    golden = golden_rows()
    for n in range(1, 12):
        assert all(max(t) != 6 * n + 7 for t in golden[n] if t != ("S3",)), n
    assert seifert.rank_pair(seifert.make_tuple([2, 3, 79]))[0] == 13


def test_pruned_table_matches_unpruned_oracle():
    ranks = unpruned_ranks(8)
    for k in range(1, 9):
        rows = botany.table(k)
        assert {n: rows[n].tuples for n in range(1, k + 1)} == unpruned_rows(ranks, k), k


def test_pruned_table_prefixes_match_reference_rows():
    # the reference file is the unpruned scan's table(12); table(k) is its
    # first rows, byte for byte, for every k
    golden = (DATA / "table12.csv").read_text().splitlines(keepends=True)
    for k in range(13):
        expected = "".join(line for line in golden if int(line.split(",")[0]) <= k)
        assert botany.table_csv(botany.table(k)) == expected, k


@pytest.mark.slow
def test_pruned_three_fiber_rows_match_unpruned_scan_to_twenty():
    ranks = unpruned_ranks(20, max_fibers=3)
    for k in range(13, 21):
        rows = botany.table(k)
        pruned = {n: tuple(t for t in rows[n].tuples if len(t) == 3)
                  for n in range(1, k + 1)}
        assert pruned == unpruned_rows(ranks, k), k


def test_rows_above_twelve():
    rows = botany.table(30)
    assert sum(len(rows[n].tuples) for n in range(1, 21)) == 207
    assert sum(len(rows[n].tuples) for n in range(1, 31)) == 371
    four = {t: n for n in rows for t in rows[n].tuples if len(t) == 4}
    assert sorted(four) == [(2, 3, 5, 7), (2, 3, 5, 11), (2, 3, 5, 13),
                            (2, 3, 7, 11), (3, 4, 5, 7)]
    assert [t for n in rows for t in rows[n].tuples if len(t) > 4] == []
    for t, n in four.items():
        assert seifert.rank_pair(seifert.SeifertTuple(t))[0] == n
    assert [t for t in botany.table(20)[13].tuples if len(t) == 4] == [(2, 3, 5, 7)]
    assert botany.solve(13).tuples == rows[13].tuples


def test_scan_counts():
    counts = Counter()
    rows = botany.table(6, counts)
    stats = json.loads(botany.stats_json(counts))
    assert stats["rows"] == sum(len(rows[n].tuples) for n in range(1, 7))
    assert stats["rank_evals"] == sum(f["rank_evals"] for f in stats["fibers"].values())
    assert stats["rank_evals"] < 100
    three, four = stats["fibers"]["3"], stats["fibers"]["4"]
    assert three["order"] > 0 and three["prime_floor"] > 0
    # every 3-fiber row but (2,3,5) is too large to prefix a 4-fiber row of rank <= 6
    assert four["cover"] == three["rows"]


def test_prime_floor():
    assert botany._prime_floor((4, 5, 6)) == (2, 3, 5)
    assert botany._prime_floor((8, 9, 10)) == (3, 5, 7)
    assert botany._prime_floor((5, 6, 7, 8)) == (2, 3, 5, 7)
    assert botany._prime_floor((2, 3, 4)) is None
    primes = [p for p in range(2, 60) if all(p % d for d in range(2, p))]
    for t in botany.candidates(8):
        floor = botany._prime_floor(t)
        if floor is None:
            continue
        assert all(a in primes and a <= p for a, p in zip(floor, t)), t
        # greedy from the top: no prime fits between a_i and its cap
        caps = [min(p, nxt - 1) for p, nxt in zip(t, floor[1:] + (t[-1] + 1,))]
        assert all(not any(a < q <= c for q in primes) for a, c in zip(floor, caps)), t


def _coprime_above(lower, bumps):
    """Sorted pairwise-coprime tuple t with t_i >= lower_i + bumps_i."""
    out = []
    for m, b in zip(lower, bumps):
        v = max(m + b, out[-1] + 1 if out else 2)
        while any(gcd(v, q) != 1 for q in out):
            v += 1
        out.append(v)
    return tuple(out)


def coprime_triples(max_bump):
    return st.lists(st.integers(0, max_bump), min_size=3, max_size=3).map(
        lambda bumps: _coprime_above((2, 3, 5), bumps))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(coprime_triples(15), st.lists(st.integers(0, 8), min_size=3, max_size=3))
def test_reduced_rank_never_drops_under_the_partial_order(small, bumps):
    # the premise of cuts (a) and (b)
    large = _coprime_above(small, bumps)
    assert botany.rank_red_of(small) <= botany.rank_red_of(large)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(coprime_triples(6), st.integers(1, 12))
def test_regular_fiber_cover_bound(t, bump):
    # the premise of cut (c): p * rank(T) <= rank(T + (p,)) for coprime p > T[-1]
    p = _coprime_above(t + (t[-1],), (0, 0, 0, bump))[-1]
    assert p * botany.rank_red_of(t) <= botany.rank_red_of(t + (p,))
