"""The index-array morphism validators against the dict-keyed oracle.

Every verdict of floerrank.morphism is compared with tests/morphism_oracle.py
on the witness families of acceptance criterion 5, on a perturbed corpus
that breaks those witnesses in four known ways, and on random maps between
random abstract delta sequences.  The pinch construction is compared with
the oracle's scalar one on criterion 5's pinches, a seeded corpus and the
pinches the degree-map verifier builds.  A map keeps its verdicts: on the
same families and corpus, each cached verdict is compared with a fresh
map's.  The indices the repairs and the three witness families build are
compared with a search of their image positions among the target's, and
the pinch repair with the two-part split it replaced.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from floerrank import morphism, seifert, verify
from floerrank.arith import pairwise_coprime
from floerrank.deltaseq import from_values
from floerrank.errors import NotSemiImmersionError
from floerrank.morphism import DeltaMorphism
from floerrank.verify import DegreeMove

import morphism_oracle
from semigroup_oracle import normal_forms
from conftest import random_tuple
from test_acceptance import (
    _random_branched_cases,
    _random_comparable_pairs,
    _random_pinch_cases,
)

VALIDATORS = ("is_injective", "is_morphism", "is_semi_immersion", "is_immersion",
              "is_embedding", "is_isomorphism", "is_isomorphism_onto_image",
              "is_right_veering")


def verdicts(m) -> dict:
    """Every validator's verdict, and the defects in source order where they exist."""
    out = {name: bool(getattr(m, name)()) for name in VALIDATORS}
    try:
        defects = m.defect_table()
    except NotSemiImmersionError:
        out["defects"] = None
    else:
        if not isinstance(defects, np.ndarray):     # the oracle's table
            defects = list(defects.defects.values())
        out["defects"] = np.asarray(defects).tolist()
    return out


def theta_dict(m, theta) -> dict:
    """The oracle's form of an index theta: bad position -> partner position."""
    bad = np.flatnonzero(m.defect_table() > 0)
    return dict(zip(m.source.positions[bad].tolist(), m.source.positions[theta].tolist()))


def assert_agrees(m):
    assert verdicts(m) == verdicts(morphism_oracle.from_morphism(m))


@pytest.fixture(scope="module")
def criterion_05_families():
    """(kind, map, theta) for the branched, comparison and pinch witnesses
    criterion 5 validates, built once for the three tests that read them
    (about 0.5 GB, held while this module runs).  No test changes a map, and
    every verdict a test asks of one is the same whether an earlier test
    cached it or not."""
    rng = random.Random(50)
    branched = _random_branched_cases(rng, 200)
    pairs = _random_comparable_pairs(rng, 200)
    pinches = _random_pinch_cases(rng, 100)
    families = [("branched", m, None)
                for t, n in branched for m in morphism.branched_cover_embeddings(t, n)]
    families += [("comparison", morphism.partial_order_immersion(t, t2), None)
                 for t, t2 in pairs]
    families += [("pinch", *morphism.pinch_semi_immersion(base.multiplicities, q, r))
                 for base, q, r in pinches]
    return families


def assert_same(m, oracle, *names):
    for name in names:
        assert getattr(m, name)() == getattr(oracle, name)(), name


def test_criterion_05_families_match_oracle(criterion_05_families):
    # the verdicts criterion 5 asks of each family
    checked = set()
    for kind, m, theta in criterion_05_families:
        oracle = morphism_oracle.from_morphism(m)
        if kind == "branched":
            assert_same(m, oracle, "is_embedding", "preserves_values")
        elif kind == "comparison":
            assert_same(m, oracle, "is_immersion")
        else:
            assert_same(m, oracle, "is_injective", "is_semi_immersion")
            assert (m.defect_table().tolist()
                    == list(oracle.defect_table().defects.values()))
            assert morphism.is_control_function(m, theta)
            assert morphism_oracle.is_control_function(oracle, theta_dict(m, theta))
            s2, t2, fixed = morphism.fix_defects(m, theta)
            assert_same(fixed, morphism_oracle.from_morphism(fixed),
                        "is_injective", "is_immersion")
            want = morphism_oracle.fix_defects_oracle(m, theta)
            assert (s2, t2) == want[:2] and np.array_equal(fixed.index, want[2])
        checked.add(kind)
    assert checked == {"branched", "comparison", "pinch"}


def test_comparison_images_match_scalar_membership():
    # criterion 5's comparison families: the normal forms computed at once
    # against the oracle's scalar normal form, one positive position at a time
    rng = random.Random(50)
    _random_branched_cases(rng, 200)
    positives = 0
    for t, t2 in _random_comparable_pairs(rng, 200):
        m = morphism.partial_order_immersion(t, t2)
        p2 = t2.product
        gens = [p2 // q for q in t2.multiplicities]
        normal_form = normal_forms(t)
        want = []
        for x in m.source.positive_positions.tolist():
            k, xs = normal_form(x)
            want.append(p2 * k + sum(xi * g for xi, g in zip(xs, gens)))
        assert m.mapping[m.source.values > 0].tolist() == want, (t, t2)
        positives += len(want)
    assert positives > 10**6


@st.composite
def comparable_pairs(draw):
    """Tuples t <= t2 componentwise, both of 3 or 4 fibers with cutoff at
    most 20,000: t's entries below 38 (3 fibers) or 16 (4), each raised by 0
    to 3 in t2."""
    small, large = [], []
    length = draw(st.integers(3, 4))
    for _ in range(length):
        p = draw(st.sampled_from([p for p in range(2, 38 if length == 3 else 16)
                                  if all(math.gcd(p, q) == 1 for q in small)]))
        small.append(p)
    small.sort()
    for p in small:
        raised = [q for q in range(p, p + 4)
                  if q > max(large, default=1) and all(math.gcd(q, u) == 1 for u in large)]
        assume(raised)
        large.append(draw(st.sampled_from(raised)))
    t, t2 = seifert.SeifertTuple(tuple(small)), seifert.SeifertTuple(tuple(large))
    assume(not t.is_degenerate and not t2.is_degenerate)
    assume(max(seifert.n_cutoff(t), seifert.n_cutoff(t2)) <= 20_000)
    return t, t2


@settings(max_examples=100, deadline=None, derandomize=True)
@given(comparable_pairs())
def test_comparison_witness_against_normal_forms(pair):
    # the witness is an immersion (also by the oracle's verdict), and its
    # index is the target index of each member's normal-form image, with
    # N - x sent to N' - y where x goes to y
    t, t2 = pair
    m = morphism.partial_order_immersion(t, t2)
    assert m.is_immersion() and morphism_oracle.from_morphism(m).is_immersion()
    n1, n2, p2 = seifert.n_cutoff(t), seifert.n_cutoff(t2), t2.product
    normal_form = normal_forms(t)
    image = {}
    for x in m.source.positive_positions.tolist():
        k, xs = normal_form(x)
        image[x] = p2 * k + sum(xi * (p2 // q) for xi, q in zip(xs, t2.multiplicities))
        image[n1 - x] = n2 - image[x]
    assert sorted(image) == m.source.positions.tolist()
    want = m.target.indices_of([image[x] for x in m.source.positions.tolist()])
    assert np.array_equal(m.index, want)


# -- the pinch construction against its scalar form -------------------------


def _criterion_05_pinches():
    rng = random.Random(50)
    _random_branched_cases(rng, 200)
    _random_comparable_pairs(rng, 200)
    return [(base.multiplicities, q, r) for base, q, r in _random_pinch_cases(rng, 100)]


def _seeded_pinches(count):
    """Random 3-entry bases with coprime (q, r) below 20; most have bad points."""
    rng = random.Random(10)
    cases = []
    while len(cases) < count:
        base = random_tuple(rng, lengths=(3,), max_entry=13, max_product=500,
                            allow_degenerate=True).multiplicities
        q, r = sorted(rng.sample(range(2, 20), 2))
        if not pairwise_coprime(base + (q, r)):
            continue
        target = seifert.make_tuple(base + (q, r))
        if target.is_degenerate or seifert.n_cutoff(target) > 300_000:
            continue
        cases.append((base, q, r))
    return cases


def _degree_map_pinches(monkeypatch):
    """The (base, q, r) of every pinch the degree-map verifier builds."""
    calls = []
    original = morphism.pinch_semi_immersion

    def recording(base, q, r):
        calls.append((tuple(base), q, r))
        return original(base, q, r)

    monkeypatch.setattr(morphism, "pinch_semi_immersion", recording)
    T = seifert.make_tuple
    chains = [(T([2, 3, 5, 7]), [DegreeMove("pinch", fibers=(5, 7))]),
              (T([2, 3, 7, 11]), [DegreeMove("branched_regular", n=11)]),
              (T([2, 3, 7, 11]), [DegreeMove("branched_fiber", n=11, fibers=(11,))]),
              (T([2, 3, 5, 7, 11]), [DegreeMove("pinch", fibers=(7, 11)),
                                     DegreeMove("pinch", fibers=(5, 77))]),
              (T([3, 4, 5, 7, 11]), [DegreeMove("pinch", fibers=(4, 11)),
                                     DegreeMove("branched_regular", n=5)])]
    for start, moves in chains:
        assert verify.verify_degree_map(start, moves).verdict == "holds", (start, moves)
    monkeypatch.undo()
    return calls


def test_pinch_matches_scalar_oracle(monkeypatch):
    # the degree map pinches only on pinch moves, as a cover move is
    # certified by the cover identity; ((2,3),7,11) and ((3,7),44,5) are
    # the pinches its regular covers once went through, kept in the corpus
    degree_map = _degree_map_pinches(monkeypatch)
    assert len(degree_map) == 4
    kept = [((2, 3), 7, 11), ((3, 7), 44, 5)]
    with_bad = 0
    for base, q, r in _criterion_05_pinches() + _seeded_pinches(40) + degree_map + kept:
        m, theta = morphism.pinch_semi_immersion(base, q, r)
        index, want = morphism_oracle.pinch_oracle(base, q, r)
        assert np.array_equal(m.index, index), (base, q, r)
        assert theta_dict(m, theta) == want, (base, q, r)
        with_bad += bool(theta.size)
    assert with_bad >= 80


# -- the perturbed corpus -----------------------------------------------------


def _across_sign(m, rng):
    """Move a negative's image past the image of a positive that follows it,
    onto an unused negative target with room: order breaks only backward."""
    src, tgt, index = m.source.values, m.target.values, m.index.copy()
    used = np.zeros(len(tgt), dtype=bool)
    used[index] = True
    for i in rng.sample(range(len(src)), len(src)):
        later = np.flatnonzero(src[i + 1:] > 0)
        if src[i] > 0 or not later.size:
            continue
        past = index[i + 1 + later[0]]
        spots = [j for j in range(past + 1, len(tgt))
                 if tgt[j] <= src[i] and not used[j]]
        if spots:
            index[i] = rng.choice(spots)
            return index
    return None


def _overloaded(m, rng):
    """Send a position to a same-sign target value too small for its fiber."""
    src, tgt, index = m.source.values, m.target.values, m.index.copy()
    load = np.zeros(len(tgt), dtype=np.int64)
    np.add.at(load, index, np.abs(src))
    for i in rng.sample(range(len(src)), len(src)):
        spots = [j for j in range(len(tgt)) if (tgt[j] > 0) == (src[i] > 0)
                 and j != index[i] and load[j] + abs(src[i]) > abs(tgt[j])]
        if spots:
            index[i] = rng.choice(spots)
            return index
    return None


def _flipped_sign(m, rng):
    """Send a position to a target value of the other sign."""
    src, tgt, index = m.source.values, m.target.values, m.index.copy()
    i = rng.randrange(len(src))
    spots = np.flatnonzero((tgt > 0) != (src[i] > 0))
    if not spots.size:
        return None
    index[i] = rng.choice(spots.tolist())
    return index


def _repeated_image(m, rng):
    """Give a position the image of another position of its sign."""
    src, index = m.source.values, m.index.copy()
    i = rng.randrange(len(src))
    same = [k for k in range(len(src)) if k != i and (src[k] > 0) == (src[i] > 0)]
    if not same:
        return None
    index[i] = index[rng.choice(same)]
    return index


PERTURBATIONS = {"across_sign": _across_sign, "overloaded": _overloaded,
                 "flipped_sign": _flipped_sign, "repeated_image": _repeated_image}


def _small_witnesses():
    T = seifert.make_tuple
    for ms, n in [((2, 3, 7), 5), ((2, 3, 13), 5), ((2, 5, 7), 3), ((3, 4, 5), 7),
                  ((2, 3, 11), 7), ((2, 3, 5, 7), 11)]:
        yield from morphism.branched_cover_embeddings(T(ms), n)
    for small, large in [((2, 3, 7), (2, 3, 13)), ((2, 3, 13), (2, 3, 17)),
                         ((2, 5, 7), (3, 5, 7)), ((2, 3, 5, 7), (2, 3, 5, 11))]:
        yield morphism.partial_order_immersion(T(small), T(large))
    for base, q, r in [((2, 3), 5, 7), ((2, 3, 7), 5, 13), ((2, 5), 3, 7)]:
        yield morphism.pinch_semi_immersion(base, q, r)[0]


def test_perturbed_corpus_matches_oracle():
    rng = random.Random(7)
    broke = {kind: 0 for kind in PERTURBATIONS}
    for m in _small_witnesses():
        assert_agrees(m)
        before = verdicts(m)
        for kind, perturb in PERTURBATIONS.items():
            for _ in range(6):
                index = perturb(m, rng)
                if index is None:
                    continue
                mutant = DeltaMorphism(m.source, m.target, index)
                assert_agrees(mutant)
                broke[kind] += verdicts(mutant) != before
    assert all(broke.values()), broke


def test_moved_image_breaks_only_backward_order():
    m = morphism.branched_cover_embeddings(seifert.make_tuple([2, 3, 13]), 5)[0]
    index = _across_sign(m, random.Random(1))
    mutant = DeltaMorphism(m.source, m.target, index)
    oracle = morphism_oracle.from_morphism(mutant)
    assert oracle.is_immersion() and not oracle.is_embedding()
    assert mutant.is_immersion() and not mutant.is_embedding()


# -- cached verdicts and maps built from indices --------------------------------


def _fresh(m):
    """The same map, its index searched afresh from its image positions."""
    return DeltaMorphism(m.source, m.target, m.target.indices_of(m.mapping))


def _non_control(m, theta):
    """A theta that is not a control function for the pinch map m."""
    if theta.size:
        other = theta.copy()
        other[0] = np.flatnonzero(m.defect_table() > 0)[0]   # a bad point paired with itself
        return other
    return np.array([0])                # a partner with no bad point


def assert_cached_verdicts_match_fresh(m, theta=None):
    fresh = _fresh(m)
    first = verdicts(m)
    m.preserves_values()
    assert verdicts(m) == first == verdicts(fresh)
    # every kept verdict, the private order and capacity parts among them
    assert {"is_injective", "is_morphism", "preserves_values"} <= set(m._verdicts)
    for name, verdict in m._verdicts.items():
        assert verdict == getattr(fresh, name)(), name
    if theta is None:
        return
    other = _non_control(m, theta)
    assert morphism.is_control_function(m, theta)
    assert not morphism.is_control_function(m, other)
    assert not morphism.is_control_function(fresh, other)
    assert morphism.is_control_function(m, theta)


def test_cached_verdicts_match_a_fresh_map(criterion_05_families):
    kinds = set()
    for kind, m, theta in criterion_05_families:
        assert_cached_verdicts_match_fresh(m, theta)
        kinds.add(kind)
    assert kinds == {"branched", "comparison", "pinch"}
    rng = random.Random(7)
    for m in _small_witnesses():
        for perturb in PERTURBATIONS.values():
            index = perturb(m, rng)
            if index is not None:
                assert_cached_verdicts_match_fresh(
                    DeltaMorphism(m.source, m.target, index))


def test_repairs_from_indices_match_the_public_constructor(criterion_05_families):
    repaired = 0
    for kind, m, theta in criterion_05_families:
        if kind == "pinch":
            result = morphism.fix_defects(m, theta)[2]
        elif kind == "branched":
            result = morphism.embed_to_subsequence(m)[2]
        else:
            continue
        assert np.array_equal(_fresh(result).index, result.index)
        assert not result.index.flags.writeable
        repaired += 1
    assert repaired > 400


@st.composite
def cover_cases(draw):
    """A 3- or 4-fiber tuple with entries at most 30 and cutoff at most
    20,000, one of its fibers and a degree n <= 7 coprime to the others."""
    entries = []
    for _ in range(draw(st.integers(3, 4))):
        entries.append(draw(st.sampled_from(
            [p for p in range(2, 31) if all(math.gcd(p, q) == 1 for q in entries)])))
    t = seifert.make_tuple(entries)
    assume(not t.is_degenerate and seifert.n_cutoff(t) <= 20_000)
    fiber = draw(st.sampled_from(t.multiplicities))
    n = draw(st.sampled_from([n for n in range(1, 8) if all(
        math.gcd(n, p) == 1 for p in t.multiplicities if p != fiber)]))
    return t, n, fiber


def assert_covers_match_the_search(t, n, fiber):
    maps = morphism.branched_cover_embeddings(t, n, fiber)
    shift = t.product // fiber
    for k, m in enumerate(maps):
        want = m.target.indices_of(n * m.source.positions + k * shift)
        assert np.array_equal(m.index, want), (t, n, fiber, k)
        assert m.is_embedding() and m.preserves_values(), (t, n, fiber, k)
        assert not m.index.flags.writeable
    # the n image sets are disjoint: no target index is hit twice
    assert np.bincount(np.concatenate([m.index for m in maps])).max() == 1, (t, n, fiber)


def test_reflected_maps_match_the_public_constructor():
    # the three witness families search only the positive positions' images
    # and place each reflection N - x -> N' - y by index (a branched cover's
    # map k from map n - 1 - k's images); a search of every image position
    # gives the same indices
    rng = random.Random(12)
    cases = [(t, t2, morphism.partial_order_immersion(t, t2))
             for t, t2 in _random_comparable_pairs(rng, 60)]
    for base, q, r in _random_pinch_cases(rng, 40):
        cases.append((seifert.make_tuple(base.multiplicities + (q * r,)),
                      seifert.make_tuple(base.multiplicities + (q, r)),
                      morphism.pinch_semi_immersion(base.multiplicities, q, r)[0]))
    for t, t2, m in cases:
        n_source, n_target = seifert.n_cutoff(t), seifert.n_cutoff(t2)
        positive = m.source.values > 0
        image = {}
        for x, y in zip(m.source.positions[positive].tolist(), m.mapping[positive].tolist()):
            image[x], image[n_source - x] = y, n_target - y
        assert sorted(image) == m.source.positions.tolist(), (t, t2)
        want = m.target.indices_of([image[x] for x in sorted(image)])
        assert np.array_equal(m.index, want), (t, t2)
        assert not m.index.flags.writeable
    assert {len(t.multiplicities) for t, _, _ in cases} == {3, 4, 5}

    # criterion 5's branched covers, then drawn tuples, fibers and degrees
    for t, n in _random_branched_cases(random.Random(50), 200):
        assert_covers_match_the_search(t, n, t.multiplicities[-1])
    drawn = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cover_cases())
    def covers(case):
        assert_covers_match_the_search(*case)
        t, n, fiber = case
        drawn[len(t.multiplicities), fiber == t.multiplicities[-1], n > 1] += 1

    covers()
    assert {(3, False, True), (4, False, True), (3, True, True), (4, True, True)} <= set(drawn)


# -- random maps between random sequences -----------------------------------


values_lists = st.lists(st.integers(1, 4) | st.integers(-4, -1), min_size=0, max_size=8).map(
    lambda vs: [abs(vs[0])] + vs[1:] if vs else vs)


@st.composite
def random_maps(draw):
    src = from_values(draw(values_lists))
    if len(src) and draw(st.integers(0, 2)) == 0:
        # an order- and sign-preserving injection into a target of random
        # magnitudes: a one-to-one semi-immersion, often with bad points
        values, index = [], []
        for i, v in enumerate(src.values.tolist()):
            if i:
                values += draw(st.lists(st.integers(-4, 4).filter(bool), max_size=2))
            index.append(len(values))
            values.append(draw(st.integers(1, 4)) * (1 if v > 0 else -1))
        tgt = from_values(values)
        return DeltaMorphism(src, tgt, index)
    roomy = draw(st.sampled_from([1, 8]))    # 8: fibers rarely overload
    tgt = from_values([roomy * v for v in draw(values_lists.filter(bool))])
    index = np.array(draw(st.lists(st.integers(0, len(tgt) - 1),
                                   min_size=len(src), max_size=len(src))), dtype=np.int64)
    if draw(st.booleans()):
        # land each position on a target of its own sign where there is one
        for i, v in enumerate(src.values.tolist()):
            same = np.flatnonzero((tgt.values > 0) == (v > 0))
            if same.size:
                index[i] = same[index[i] % same.size]
    if draw(st.booleans()):
        for sign in (src.values > 0, src.values < 0):
            index[sign] = np.sort(index[sign])
    return DeltaMorphism(src, tgt, index)


def test_random_maps_match_oracle():
    verdicts = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(random_maps())
    def check(m):
        assert_agrees(m)
        try:
            defects = m.defect_table()
        except NotSemiImmersionError:
            return
        oracle = morphism_oracle.from_morphism(m)
        # pair each bad index with a distinct good index on its allowed side,
        # the nearest free one of its sign that absorbs its defect, else the
        # nearest free one; a bad index with none is left out of both thetas,
        # so neither is a control function
        values, positions = m.source.values.tolist(), m.source.positions.tolist()
        good = np.flatnonzero(defects < 0).tolist()
        theta, by_position, used = [], {}, set()
        for b in np.flatnonzero(defects > 0).tolist():
            positive = values[b] > 0
            side = [g for g in (good[::-1] if positive else good)
                    if (g < b if positive else g > b) and g not in used]
            fits = [g for g in side
                    if (values[g] > 0) == positive and defects[b] <= -defects[g]]
            if side:
                g = (fits or side)[0]
                used.add(g)
                theta.append(g)
                by_position[positions[b]] = positions[g]
        verdict = morphism.is_control_function(m, np.array(theta, dtype=np.int64))
        assert verdict == morphism_oracle.is_control_function(oracle, by_position)
        verdicts[bool(theta), verdict] += 1

    check()
    # control functions with bad points, and pairings that are not one
    assert verdicts[True, True] and verdicts[True, False], verdicts
