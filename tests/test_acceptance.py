"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criterion 10 runs the hat-rank monotonicity scan at bound 25 and checks it
against an oracle built from the graded roots.  The hat rank is not
monotone under the componentwise order: violations first appear at bound
11, (5,8,11) <= (5,9,11) with hat ranks 35 > 31, and the lexicographically
smallest pair below 25 is (2,7,17) <= (2,9,17) with hat ranks 15 > 13.  The
reduced rank, which the partial-order inequality covers, never drops.
test_verify.py pins the scanner's output at smaller bounds.
"""

import math
import random
import time
from itertools import combinations
from pathlib import Path

import numpy as np

from floerrank import botany, morphism, seifert, verify
from floerrank.deltaseq import from_seifert, from_values
from floerrank.errors import FirstElementNegativeError
from floerrank.gradedroot import GradedRoot

import root_oracle
from conftest import random_delta_values, random_tuple
from morphism_oracle import assert_cover_identity_matches
from semigroup_oracle import membership_k_array, semigroup_sieve, two_generator
from walk_oracle import assert_matches_oracle

DATA = Path(__file__).parent / "data"


def _passed(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def test_criterion_01_table_reproduction():
    started = time.monotonic()
    rows = botany.table(12)
    produced = botany.table_csv(rows)
    golden = (DATA / "table12.csv").read_text()
    elapsed = time.monotonic() - started
    assert produced == golden
    _passed(1, f"botany table 0..12 identical to the reference rows "
               f"(104 lines, {elapsed:.1f}s)")


def test_criterion_02_rank_2357():
    started = time.monotonic()
    rank = seifert.rank_pair(seifert.make_tuple([2, 3, 5, 7]))[0]
    elapsed = time.monotonic() - started
    assert rank == 13
    assert elapsed < 1.0
    _passed(2, f"rank(Sigma(2,3,5,7)) = 13 ({elapsed * 1000:.0f}ms)")


def test_criterion_03_scaling_family():
    started = time.monotonic()
    for n in range(101):
        t = seifert.make_tuple([2, 3, 6 * n + 7])
        assert seifert.rank_pair(t)[0] == n + 1, f"failed at n={n}"
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _passed(3, f"rank(Sigma(2,3,6n+7)) = n+1 for n = 0..100 ({elapsed:.2f}s)")


def test_criterion_04_delta_property_suite():
    rng = random.Random(40)
    started = time.monotonic()
    for i in range(500):
        t = random_tuple(rng, lengths=(3, 3, 3, 4, 4, 5),
                         max_entry=50 if i % 3 else 400, max_product=10**6)
        N = seifert.n_cutoff(t)
        l = t.fiber_count
        D = seifert.delta_array(t, 3 * N)
        head = D[:N + 1]
        assert np.array_equal(head, -head[::-1]), t           # antisymmetry
        assert int(np.abs(head).max()) <= l - 2, t            # value bounds
        sieve = semigroup_sieve(t, N)
        assert np.array_equal(head >= 1, sieve), t            # member iff
        karr = membership_k_array(t, N)
        assert np.array_equal(sieve, karr >= 0), t            # residues = sieve
        assert int(D[N + 1:].min()) >= 0, t                   # nonneg after N
        members = sieve.nonzero()[0]
        assert np.array_equal(head[members], 1 + karr[members]), t  # both formulas
    elapsed = time.monotonic() - started
    _passed(4, f"delta/tau/semigroup identities on 500 random tuples ({elapsed:.1f}s)")


def _random_branched_cases(rng, count):
    cases = []
    while len(cases) < count:
        t = random_tuple(rng, lengths=(3, 3, 4), max_entry=50, max_product=5 * 10**4)
        ns = [n for n in range(2, 8)
              if all(math.gcd(n, p) == 1 for p in t.multiplicities[:-1])
              and n * t.product <= 5 * 10**5]
        if not ns:
            continue
        cases.append((t, rng.choice(ns)))
    return cases


def _random_comparable_pairs(rng, count):
    pairs = []
    while len(pairs) < count:
        t = random_tuple(rng, lengths=(3, 3, 4, 5), max_entry=40, max_product=10**5)
        bumped = list(t.multiplicities)
        for i in range(len(bumped)):
            bumped[i] += rng.choice([0, 0, 1, 2, 3])
        if bumped != sorted(bumped):
            continue
        try:
            t2 = seifert.make_tuple(bumped)
        except ValueError:
            continue
        if t2.multiplicities != tuple(bumped) or t2.is_degenerate:
            continue
        if t2.product > 10**6:
            continue
        pairs.append((t, t2))
    return pairs


def _random_pinch_cases(rng, count):
    cases = []
    while len(cases) < count:
        base = random_tuple(rng, lengths=(2, 2, 3), max_entry=15,
                            max_product=10**3, allow_degenerate=True)
        if base.fiber_count < 2:
            continue
        qr_pool = [(q, r) for q in range(2, 16) for r in range(q + 1, 20)
                   if math.gcd(q, r) == 1
                   and all(math.gcd(q * r, p) == 1 for p in base.multiplicities)
                   and base.product * q * r <= 10**6]
        if not qr_pool:
            continue
        q, r = rng.choice(qr_pool)
        source = seifert.make_tuple(base.multiplicities + (q * r,))
        target = seifert.make_tuple(base.multiplicities + (q, r))
        if source.is_degenerate or target.is_degenerate:
            continue
        cases.append((base, q, r))
    return cases


def test_criterion_05_morphism_witness_suite():
    rng = random.Random(50)
    started = time.monotonic()

    for t, n in _random_branched_cases(rng, 200):
        maps = morphism.branched_cover_embeddings(t, n)
        cover = seifert.make_tuple(t.multiplicities[:-1] + (n * t.multiplicities[-1],))
        for m in maps:
            assert m.is_embedding(), (t, n)
            assert m.preserves_values(), (t, n)
        images = [set(m.mapping.tolist()) for m in maps]
        assert all(not (images[i] & images[j])
                   for i in range(n) for j in range(i + 1, n)), (t, n)
        assert n * seifert.rank_pair(t)[0] <= seifert.rank_pair(cover)[0], (t, n)
        assert_cover_identity_matches(t, n, maps=maps)

    for t, t2 in _random_comparable_pairs(rng, 200):
        m = morphism.partial_order_immersion(t, t2)
        assert m.is_immersion(), (t, t2)
        assert seifert.rank_pair(t)[0] <= seifert.rank_pair(t2)[0], (t, t2)

    bad_cases = 0
    for base, q, r in _random_pinch_cases(rng, 100):
        m, theta = morphism.pinch_semi_immersion(base.multiplicities, q, r)
        assert m.is_injective() and m.is_semi_immersion(), (base, q, r)
        assert morphism.is_control_function(m, theta), (base, q, r)
        defects = m.defect_table()
        assert np.all(np.abs(defects) <= 1), (base, q, r)
        bad_cases += bool(np.any(defects > 0))
        _, _, fixed = morphism.fix_defects(m, theta)
        assert fixed.is_injective() and fixed.is_immersion(), (base, q, r)
        source = seifert.make_tuple(base.multiplicities + (q * r,))
        target = seifert.make_tuple(base.multiplicities + (q, r))
        assert seifert.rank_pair(source)[0] <= seifert.rank_pair(target)[0]

    elapsed = time.monotonic() - started
    _passed(5, f"200 cover families, 200 comparison immersions, 100 pinches "
               f"({bad_cases} with bad points) all verified ({elapsed:.1f}s)")


def test_criterion_06_structural_vs_formulaic():
    started = time.monotonic()
    # every tuple the table scan touches: the kernel against the dense walk's
    # formula and extrema views
    checked = 0
    for t in botany.candidates(12):
        assert_matches_oracle(seifert.SeifertTuple(t))
        checked += 1
    # explicit trees for every reference-table tuple and the witness examples
    sample = [row for rows in botany.table(12).values() for row in rows.tuples]
    sample += [(2, 3, 5, 7), (2, 3, 55), (2, 3, 5, 11), (2, 5, 21), (2, 3, 607)]
    sample = [ms for ms in sample if not seifert.make_tuple(list(ms)).is_degenerate]
    for ms in sample:
        t = seifert.make_tuple(list(ms))
        rep = from_seifert(t).rank()
        root = GradedRoot.from_delta_sequence(from_seifert(t))
        assert len(root_oracle.structural_leaves(root)) == rep.c + 1, ms
        assert sum(root_oracle.red_ranks_by_degree(root).values()) == rep.rank_red, ms
        assert sum(root.hat_ranks_by_degree().values()) == rep.rank_hat, ms
        assert root_oracle.structural_vertex_counts(root) == root.vertex_counts(), ms
        assert (root.vertices(), root.edges()) == \
            root_oracle.union_find_structure(root.extrema), ms
    elapsed = time.monotonic() - started
    _passed(6, f"leaf count = c+1, per-degree sums = (kappa+min tau, 2c+1) on "
               f"{checked} scanned tuples + {len(sample)} explicit trees, each equal to "
               f"the union-find tree ({elapsed:.1f}s)")


def test_criterion_07_two_generator_suite():
    # the semigroup, psi, the defects and theta read off the sieve, and the
    # library's psi, lower delta and theta against them on [0, 3qr]
    started = time.monotonic()
    pairs = [(q, r) for q in range(2, 40) for r in range(q + 1, 41)
             if math.gcd(q, r) == 1]
    for q, r in pairs:
        S = morphism.TwoGenSemigroup(q, r)
        qr, half, F = q * r, (q - 1) * (r - 1) // 2, q * r - q - r
        view = two_generator(q, r, 3 * qr + half)
        assert np.count_nonzero(~view.member[:F + 1]) == half, (q, r)
        assert np.array_equal(view.member[:F + 1], ~view.member[F::-1]), (q, r)
        assert view.psi[half] == (q - 1) * (r - 1), (q, r)
        x = np.arange(view.psi.size)
        assert x[-1] == 3 * qr, (q, r)
        assert np.array_equal(S.psi_array(x), view.psi), (q, r)
        assert np.array_equal(1 + x // qr - S._delta_lower(S.psi_array(x)),
                              view.defect), (q, r)
        bad = np.flatnonzero(view.defect > 0)
        k = bad // qr
        assert np.all((k >= 1) & (bad < k * qr + half)), (q, r)
        assert np.all(view.defect[bad] == 1), (q, r)
        partners = S.theta_array(bad)
        assert partners.tolist() == [view.theta[b] for b in bad.tolist()], (q, r)
        assert np.all(view.defect[partners] == -1), (q, r)
    elapsed = time.monotonic() - started
    _passed(7, f"gap count, symmetry, psi boundary, bad-point window and "
               f"control defects for {len(pairs)} coprime pairs ({elapsed:.1f}s)")


def test_criterion_08_figure_reproduction():
    root = GradedRoot.from_tau([-2, -1, -2, 0, -2])
    assert root.leaves() == 3
    assert root.vertex_counts() == {-2: 3, -1: 2, 0: 1}
    assert root.render("ascii") == (DATA / "figure_root_ascii.txt").read_text()
    _passed(8, "three-branch root: 3 leaves, counts {-2:3,-1:2,0:1}, ascii golden")


def test_criterion_09_refinement_invariance_and_splits():
    rng = random.Random(90)
    started = time.monotonic()
    for _ in range(1000):
        ds = from_values(random_delta_values(rng))
        before = ds.rank()
        seq = ds
        for _ in range(rng.randint(1, 5)):
            seq = _random_refine_or_merge(rng, seq)
        after = seq.rank()
        assert (before.rank_red, before.rank_hat) == (after.rank_red, after.rank_hat)
    splits = 0
    while splits < 1000:
        ds = from_values(random_delta_values(rng, max_len=10))
        keep = {p for p in ds.positions if rng.random() < 0.5}
        try:
            sub = ds.subsequence(keep)
        except FirstElementNegativeError:
            continue
        splits += 1
        comp = ds.complement(keep)
        whole = ds.rank()
        assert sub.rank().rank_red + comp.rank().rank_red <= whole.rank_red
        assert sub.rank().rank_hat <= whole.rank_hat
    elapsed = time.monotonic() - started
    _passed(9, f"1000 refine/merge chains invariant, 1000 splits satisfy the "
               f"subsequence inequalities ({elapsed:.1f}s)")


def _random_refine_or_merge(rng, ds):
    if rng.random() < 0.5 and any(abs(v) >= 2 for v in ds.values):
        pos = rng.choice([p for p, v in zip(ds.positions, ds.values) if abs(v) >= 2])
        v = ds.value_at(pos)
        cut = rng.randint(1, abs(v) - 1)
        sign = 1 if v > 0 else -1
        return ds.refine(pos, [sign * cut, v - sign * cut])
    runs = [(i, j) for i in range(len(ds)) for j in range(i + 1, len(ds) + 1)
            if len({x > 0 for x in ds.values[i:j]}) == 1]
    i, j = rng.choice(runs)
    return ds.merge(list(ds.positions[i:j]))


def _graded_root_ranks(bound, length):
    """(reduced, hat) ranks of every canonical tuple, read off its graded root."""
    ranks = {}
    for combo in combinations(range(2, bound + 1), length):
        if any(math.gcd(p, q) != 1 for p, q in combinations(combo, 2)):
            continue
        t = seifert.SeifertTuple(combo)
        if t.is_degenerate:
            root = GradedRoot.from_tau([0])     # the single stem of S^3
        else:
            root = GradedRoot.from_delta_sequence(from_seifert(t))
        ranks[combo] = (root.total_red(), root.total_hat())
    return ranks


def test_criterion_10_hat_monotonicity_scan():
    started = time.monotonic()
    violations = verify.scan_hat_monotonicity(25, length=3)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0

    ranks = _graded_root_ranks(25, 3)
    # keys come in lexicographic order, so a comparable pair has a <= b
    pairs = [(a, b) for a, b in combinations(ranks, 2)
             if all(p <= q for p, q in zip(a, b))]
    expected = sorted((small, large, ranks[small][1], ranks[large][1])
                      for small, large in pairs
                      if ranks[small][1] > ranks[large][1])
    assert violations == expected
    assert expected and expected[0] == ((2, 7, 17), (2, 9, 17), 15, 13)
    red_drops = [(small, large) for small, large in pairs
                 if ranks[small][0] > ranks[large][0]]
    assert red_drops == []
    _passed(10, f"scan(25) matches the graded-root oracle: {len(violations)} "
                f"hat drops, smallest {violations[0]}; reduced rank monotone "
                f"on all {len(pairs)} comparable pairs ({elapsed:.1f}s)")
