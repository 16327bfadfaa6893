"""The index-array morphism validators against the dict-keyed oracle.

Every verdict of floerrank.morphism is compared with tests/morphism_oracle.py
on the witness families of acceptance criterion 5, on a perturbed corpus
that breaks those witnesses in four known ways, and on random maps between
random abstract delta sequences.
"""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from floerrank import morphism, seifert
from floerrank.deltaseq import from_values
from floerrank.errors import NotSemiImmersionError
from floerrank.morphism import DeltaMorphism

import morphism_oracle
from test_acceptance import (
    _random_branched_cases,
    _random_comparable_pairs,
    _random_pinch_cases,
)

VALIDATORS = ("is_injective", "is_morphism", "is_semi_immersion", "is_immersion",
              "is_embedding", "is_isomorphism", "is_isomorphism_onto_image",
              "is_right_veering")


def verdicts(m) -> dict:
    """Every validator's verdict, and the defect table where one exists."""
    out = {name: bool(getattr(m, name)()) for name in VALIDATORS}
    try:
        table = m.defect_table()
    except NotSemiImmersionError:
        out["defects"] = None
    else:
        defects = table.defects
        if isinstance(defects, dict):     # the oracle's, in source order
            defects = list(defects.values())
        out["defects"] = [np.asarray(part).tolist()
                          for part in (defects, table.bad, table.good, table.neutral)]
    return out


def assert_agrees(m):
    assert verdicts(m) == verdicts(morphism_oracle.from_morphism(m))


def criterion_05_families():
    """The branched, comparison and pinch witnesses criterion 5 validates."""
    rng = random.Random(50)
    branched = _random_branched_cases(rng, 200)
    pairs = _random_comparable_pairs(rng, 200)
    pinches = _random_pinch_cases(rng, 100)
    for t, n in branched:
        for m in morphism.branched_cover_embeddings(t, n):
            yield "branched", m, None
    for t, t2 in pairs:
        yield "comparison", morphism.partial_order_immersion(t, t2), None
    for base, q, r in pinches:
        yield "pinch", *morphism.pinch_semi_immersion(base.multiplicities, q, r)


def assert_same(m, oracle, *names):
    for name in names:
        assert getattr(m, name)() == getattr(oracle, name)(), name


def test_criterion_05_families_match_oracle():
    # the verdicts criterion 5 asks of each family
    checked = set()
    for kind, m, theta in criterion_05_families():
        oracle = morphism_oracle.from_morphism(m)
        if kind == "branched":
            assert_same(m, oracle, "is_embedding", "preserves_values")
        elif kind == "comparison":
            assert_same(m, oracle, "is_immersion")
        else:
            assert_same(m, oracle, "is_injective", "is_semi_immersion")
            assert (m.defect_table().defects.tolist()
                    == list(oracle.defect_table().defects.values()))
            assert (morphism.is_control_function(m, theta)
                    == morphism_oracle.is_control_function(oracle, theta))
            fixed = morphism.fix_defects(m, theta)[2]
            assert_same(fixed, morphism_oracle.from_morphism(fixed),
                        "is_injective", "is_immersion")
        checked.add(kind)
    assert checked == {"branched", "comparison", "pinch"}


def test_comparison_images_match_scalar_membership():
    # criterion 5's comparison families: the normal forms computed at once
    # against seifert.membership, one positive position at a time
    rng = random.Random(50)
    _random_branched_cases(rng, 200)
    positives = 0
    for t, t2 in _random_comparable_pairs(rng, 200):
        m = morphism.partial_order_immersion(t, t2)
        p2 = t2.product
        want = []
        for x in m.source.positive_positions.tolist():
            nf = seifert.membership(t, x)
            want.append(p2 * nf.k + sum(xi * (p2 // q)
                                        for xi, q in zip(nf.x, t2.multiplicities)))
        assert m.mapping[m.source.values > 0].tolist() == want, (t, t2)
        positives += len(want)
    assert positives > 10**6


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
                mutant = DeltaMorphism(m.source, m.target, m.target.positions[index])
                assert_agrees(mutant)
                broke[kind] += verdicts(mutant) != before
    assert all(broke.values()), broke


def test_moved_image_breaks_only_backward_order():
    m = morphism.branched_cover_embeddings(seifert.make_tuple([2, 3, 13]), 5)[0]
    index = _across_sign(m, random.Random(1))
    mutant = DeltaMorphism(m.source, m.target, m.target.positions[index])
    oracle = morphism_oracle.from_morphism(mutant)
    assert oracle.is_immersion() and not oracle.is_embedding()
    assert mutant.is_immersion() and not mutant.is_embedding()


# -- random maps between random sequences -----------------------------------


values_lists = st.lists(st.integers(1, 4) | st.integers(-4, -1), min_size=0, max_size=8).map(
    lambda vs: [abs(vs[0])] + vs[1:] if vs else vs)


@st.composite
def random_maps(draw):
    src = from_values(draw(values_lists))
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
    return DeltaMorphism(src, tgt, tgt.positions[index])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_maps())
def test_random_maps_match_oracle(m):
    assert_agrees(m)
    try:
        table = m.defect_table()
    except NotSemiImmersionError:
        return
    oracle = morphism_oracle.from_morphism(m)
    # pair each bad point with the nearest good point on its allowed side
    theta = {}
    for b in table.bad.tolist():
        positive = m.source.value_at(b) > 0
        side = table.good[table.good < b] if positive else table.good[table.good > b]
        if side.size:
            theta[b] = int(side[-1] if positive else side[0])
    assert (morphism.is_control_function(m, theta)
            == morphism_oracle.is_control_function(oracle, theta))
