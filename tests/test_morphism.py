import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from floerrank import morphism, seifert, verify
from floerrank.deltaseq import DeltaSequence, from_seifert, from_values
from floerrank.errors import (
    DegenerateTupleError,
    NotBadError,
    NotComparableError,
    NotControlledError,
    NotCoprimeError,
    NotEmbeddingError,
    NotRigidError,
    NotSemiImmersionError,
)
from floerrank.morphism import (
    DeltaMorphism,
    TwoGenSemigroup,
    branched_cover_embeddings,
    branched_cover_identity,
    embed_to_subsequence,
    fix_defects,
    is_control_function,
    partial_order_immersion,
    pinch_semi_immersion,
)

from conftest import random_tuple
from morphism_oracle import identity_verdicts, off_by, rigid_extend
from semigroup_oracle import membership, two_generator


def identity_morphism(ds):
    return DeltaMorphism(ds, ds, np.arange(len(ds)))


def test_identity_is_everything():
    ds = from_values([1, -2, 3, -2])
    m = identity_morphism(ds)
    assert m.is_morphism() and m.is_isomorphism()
    assert m.is_embedding() and m.is_immersion() and m.is_semi_immersion()
    assert m.is_right_veering()


def test_mapping_is_a_position_sequence_stored_as_target_indices():
    src = from_values([1, -1])
    tgt = DeltaSequence([4, 9, 12], [1, 1, -1])
    m = DeltaMorphism(src, tgt, tgt.indices_of([9, 12]))
    assert m.index.tolist() == [1, 2] and m.mapping.tolist() == [9, 12]
    assert m.image(1) == 12 and not m.index.flags.writeable
    with pytest.raises(ValueError, match="not positions"):
        tgt.indices_of([9, 10])
    with pytest.raises(ValueError, match="3 entries for 2 source positions"):
        DeltaMorphism(src, tgt, tgt.indices_of([4, 9, 12]))


def test_from_index_keeps_checked_indices():
    src = from_values([1, -1])
    tgt = DeltaSequence([4, 9, 12], [1, 1, -1])
    index = np.array([1, 2])
    m = DeltaMorphism(src, tgt, index)
    assert m.mapping.tolist() == [9, 12] and m.is_immersion()
    # the map's copy is read-only; the caller's array is neither shared nor frozen
    assert not m.index.flags.writeable and index.flags.writeable
    index[0] = 0
    assert m.index.tolist() == [1, 2]
    for bad in ([1, 3], [-1, 2]):
        with pytest.raises(ValueError, match=r"indices must lie in \[0, 3\)"):
            DeltaMorphism(src, tgt, bad)
    with pytest.raises(ValueError, match="3 entries for 2 source positions"):
        DeltaMorphism(src, tgt, [0, 1, 2])


def test_constant_map_not_morphism():
    ds = from_values([1, -1])
    m = DeltaMorphism(ds, ds, [0, 0])
    assert not m.is_morphism()


def test_value_change_breaks_isomorphism():
    src = from_values([1, -1])
    tgt = from_values([2, -1])
    m = DeltaMorphism(src, tgt, [0, 1])
    assert m.is_morphism() and not m.is_isomorphism()


def test_embedding_capacity():
    src = from_values([1, 1, -2])
    tgt = from_values([1, 1, -2])
    fold = DeltaMorphism(src, tgt, [0, 0, 2])
    assert fold.is_morphism() and not fold.is_embedding()  # 1+1 > capacity 1
    roomy = DeltaMorphism(src, from_values([2, 1, -2]), [0, 0, 2])
    assert roomy.is_embedding()


def test_branched_cover_embedding_is_embedding():
    m = branched_cover_embeddings(seifert.make_tuple([2, 3, 7]), 5)[0]
    assert m.is_embedding()
    assert m.preserves_values()


def test_semi_immersion_vs_immersion():
    # an order-preserving sign-preserving map with a capacity overload
    src = from_values([2, -1])
    tgt = from_values([1, -1])
    m = DeltaMorphism(src, tgt, [0, 1])
    assert m.is_semi_immersion() and not m.is_immersion()


def test_right_veering_swap():
    # adjacent (-,+) pair swapped to (+,-) with values carried
    src = from_values([1, -2, 3, -1])
    tgt = from_values([1, 3, -2, -1])
    m = DeltaMorphism(src, tgt, [0, 2, 1, 3])
    assert m.is_right_veering()
    assert not m.is_isomorphism()
    changed = DeltaMorphism(src, from_values([1, 3, -3, -1]), [0, 2, 1, 3])
    assert not changed.is_right_veering()


def test_defect_table():
    ds = from_values([1, -2, 3, -2])
    m = identity_morphism(ds)
    assert m.defect_table().tolist() == [0, 0, 0, 0]
    assert m.defect_table() is m.defect_table() and not m.defect_table().flags.writeable

    src = from_values([2, -1])
    tgt = from_values([1, -1])
    assert DeltaMorphism(src, tgt, [0, 1]).defect_table().tolist() == [1, 0]

    not_semi = DeltaMorphism(from_values([1, -1]), from_values([1, -1, 1]),
                             [2, 1])
    with pytest.raises(NotSemiImmersionError):
        not_semi.defect_table()


def identity_map(source_values, target_values):
    return DeltaMorphism(from_values(source_values), from_values(target_values),
                         np.arange(len(source_values)))


def test_control_function_checks():
    ds = from_values([1, -2, 3, -2])
    assert is_control_function(identity_morphism(ds), [])
    assert is_control_function(identity_morphism(ds), np.array([], dtype=np.int64))

    # bad index 1 controlled by the good index 0 (positive side)
    m = identity_map([1, 2, -3], [2, 1, -3])
    assert is_control_function(m, [0])
    # wrong direction: positive control must sit left of its bad point
    m2 = identity_map([2, 1, -3], [1, 2, -3])
    assert not is_control_function(m2, [1])
    # negative side: control must sit right of its bad point
    assert is_control_function(identity_map([3, -2, -1], [3, -1, -2]), [2])
    assert not is_control_function(identity_map([3, -1, -2], [3, -2, -1]), [1])


# hand-built one-to-one semi-immersions (identity index maps), a valid theta
# for each, and thetas that are not control functions for it
HAND_CONTROLLED = [
    ([1, 2, -3], [2, 1, -3], [0]),                  # defects -1, 1, 0
    ([1, 1, 2, 2, -6], [2, 2, 1, 1, -6], [1, 0]),   # -1, -1, 1, 1, 0
    ([1, 1, 2, -4], [1, 2, 1, -4], [1]),            # 0, -1, 1, 0
    ([3, -2, -1], [3, -1, -2], [2]),                # 0, 1, -1 (negative side)
]
HAND_REFUSED = [
    (0, [], "wrong length"),
    (0, [0, 0], "wrong length"),
    (0, [-1], "index below 0"),
    (0, [3], "index past the source"),
    (0, [0.0], "not an integer array"),
    (1, [0, 0], "repeated partner"),
    (1, [1, 2], "partner with positive defect"),
    (2, [0], "partner with zero defect"),
]


def test_hand_built_thetas_refused():
    maps = [identity_map(src, tgt) for src, tgt, _ in HAND_CONTROLLED]
    for m, (_, _, theta) in zip(maps, HAND_CONTROLLED):
        assert is_control_function(m, theta)
        assert fix_defects(m, np.array(theta))[2].is_immersion()
    for which, theta, why in HAND_REFUSED:
        assert not is_control_function(maps[which], theta), why
        with pytest.raises(NotControlledError):
            fix_defects(maps[which], theta)
    # a good partner on the wrong side (either sign class) or of the wrong sign
    for src, tgt, theta in [([2, 1, -3], [1, 2, -3], [1]), ([3, -1, -2], [3, -2, -1], [1]),
                            ([3, -1, 2, -4], [3, -2, 1, -4], [1])]:
        m = identity_map(src, tgt)
        assert not is_control_function(m, theta)
        with pytest.raises(NotControlledError):
            fix_defects(m, theta)


def refused_pinch_thetas(m, theta):
    """Thetas that break one condition each on a pinch map with bad points."""
    defects, values = m.defect_table(), m.source.values
    b = np.flatnonzero(defects > 0)[0]
    sign = values > 0 if values[b] > 0 else values < 0
    left, right = np.arange(len(values)) < b, np.arange(len(values)) > b
    on_side, off_side = (left, right) if values[b] > 0 else (right, left)

    def replaced(partner):
        out = theta.copy()
        out[0] = partner
        return out

    yield "wrong length", theta[:-1]
    yield "wrong length", np.append(theta, theta[0])
    yield "index below 0", replaced(-1)
    yield "index past the source", replaced(len(values))
    yield "repeated partner", replaced(theta[1])
    yield "partner with zero defect", replaced(np.flatnonzero((defects == 0) & sign & on_side)[-1])
    yield "partner is a bad point", replaced(b)
    yield "partner on the wrong side", replaced(np.flatnonzero((defects < 0) & sign & off_side)[0])


def test_pinch_thetas_refused():
    m, theta = pinch_semi_immersion((2, 3, 7), 5, 13)
    assert len(theta) == 2 and is_control_function(m, theta)
    with pytest.raises(ValueError, match="read-only"):
        theta[0] = 0
    refused = 0
    for why, bad_theta in refused_pinch_thetas(m, theta):
        assert not is_control_function(m, bad_theta), why
        with pytest.raises(NotControlledError):
            fix_defects(m, bad_theta)
        refused += 1
    assert refused == 8


def test_embed_to_subsequence_identity():
    ds = from_values([1, -2, 3, -2])
    s, t, iso = embed_to_subsequence(identity_morphism(ds))
    assert s == ds and t == ds and iso.is_isomorphism()


def test_embed_to_subsequence_fold():
    src = from_values([2, 1, -3])
    tgt = from_values([3, 1, -3])
    m = DeltaMorphism(src, tgt, [0, 0, 2])
    s, t, iso = embed_to_subsequence(m)
    assert iso.is_isomorphism_onto_image()
    assert s.rank().rank_red == src.rank().rank_red
    assert s.rank().rank_hat == src.rank().rank_hat
    assert t.rank().rank_red == tgt.rank().rank_red


def test_embed_to_subsequence_scrambled():
    src = from_values([1, 2, -3])
    tgt = from_values([2, 1, -3])
    m = DeltaMorphism(src, tgt, [1, 0, 2])
    assert m.is_embedding()
    s, t, iso = embed_to_subsequence(m)
    assert iso.is_isomorphism_onto_image()
    images = [iso.image(p) for p in s.positions]
    assert images == sorted(images)


def test_embed_to_subsequence_rejects_non_embedding():
    src = from_values([2, -1])
    tgt = from_values([1, -1])
    with pytest.raises(NotEmbeddingError):
        embed_to_subsequence(DeltaMorphism(src, tgt, [0, 1]))


def random_embedding(rng):
    """Random embedding: same-sign runs fold onto roomy fibers, scrambled."""
    from conftest import random_delta_values
    src = from_values(random_delta_values(rng, max_len=8, max_abs=3))
    runs = [[src.positions[0]]]
    for p in src.positions[1:]:
        if (src.value_at(runs[-1][-1]) > 0) == (src.value_at(p) > 0):
            runs[-1].append(p)
        else:
            runs.append([p])
    tgt_values, index = [], []
    for run in runs:
        sign = 1 if src.value_at(run[0]) > 0 else -1
        total = sum(abs(src.value_at(p)) for p in run)
        raw = [rng.randrange(len(run)) for _ in run]
        used = sorted(set(raw))
        base = len(tgt_values)
        index += [base + used.index(f) for f in raw]
        tgt_values.extend(sign * (total + rng.randint(0, 2)) for _ in used)
        if rng.random() < 0.4:
            tgt_values.append(sign * rng.randint(1, 3))  # decoy outside image
    return DeltaMorphism(src, from_values(tgt_values), index)


def test_embed_to_subsequence_random_round_trip(rng):
    for _ in range(300):
        m = random_embedding(rng)
        assert m.is_embedding()
        s2, t2, iso = embed_to_subsequence(m)
        assert iso.is_isomorphism_onto_image()
        assert (s2.rank().rank_red, s2.rank().rank_hat) == \
            (m.source.rank().rank_red, m.source.rank().rank_hat)
        assert (t2.rank().rank_red, t2.rank().rank_hat) == \
            (m.target.rank().rank_red, m.target.rank().rank_hat)
        # the upgraded map certifies both subsequence inequalities
        comp = t2.complement(iso.mapping)
        assert s2.rank().rank_red + comp.rank().rank_red <= t2.rank().rank_red
        assert s2.rank().rank_hat <= t2.rank().rank_hat


def test_fix_defects_no_bad_points():
    ds = from_values([1, -2, 3, -2])
    s, t, fixed = fix_defects(identity_morphism(ds), [])
    assert s == ds and t == ds and fixed.is_immersion()


def test_fix_defects_single_pair():
    src = from_values([1, 2, -3])
    tgt = from_values([2, 1, -3])
    m = DeltaMorphism(src, tgt, [0, 1, 2])
    s, t, fixed = fix_defects(m, np.array([0]))
    assert fixed.is_injective() and fixed.is_immersion()
    assert len(s) == len(src) + 1 and len(t) == len(tgt) + 1
    assert s.rank().rank_red == src.rank().rank_red


def test_fix_defects_needs_control():
    src = from_values([2, 1, -3])
    tgt = from_values([1, 2, -3])
    m = DeltaMorphism(src, tgt, [0, 1, 2])
    with pytest.raises(NotControlledError):
        fix_defects(m, np.array([1]))


def test_branched_cover_examples():
    maps = branched_cover_embeddings(seifert.make_tuple([2, 3, 7]), 5)
    assert maps[0].image(1) == 5
    assert maps[2].image(1) == 17
    assert membership(seifert.make_tuple([2, 3, 35]), 29 - 17).is_member
    single = branched_cover_embeddings(seifert.make_tuple([2, 3, 7]), 1)
    assert len(single) == 1 and single[0].is_isomorphism()
    with pytest.raises(NotCoprimeError):
        branched_cover_embeddings(seifert.make_tuple([2, 3, 7]), 6)


def test_branched_covers_make_one_search(monkeypatch):
    # all n maps' positive images are searched at once, whatever n is
    calls = []
    original = DeltaSequence.indices_of

    def counting(self, positions):
        calls.append(np.shape(positions))
        return original(self, positions)

    monkeypatch.setattr(DeltaSequence, "indices_of", counting)
    for n in (1, 5, 7, 11, 13):
        calls.clear()
        maps = branched_cover_embeddings(seifert.make_tuple([2, 3, 13]), n)
        assert len(maps) == n and calls == [(n, 2)], (n, calls)


def test_branched_cover_disjoint_images(rng):
    done = 0
    while done < 10:
        t = random_tuple(rng, lengths=(3,), max_entry=13, max_product=10**3)
        degrees = [k for k in range(2, 8)
                   if all(math.gcd(k, p) == 1 for p in t.multiplicities[:-1])]
        if not degrees:
            continue
        done += 1
        n = rng.choice(degrees)
        maps = branched_cover_embeddings(t, n)
        assert all(m.is_embedding() for m in maps)
        images = [set(m.mapping.tolist()) for m in maps]
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                assert not (images[i] & images[j])


@pytest.mark.parametrize("ms, n, fiber", [((2, 3, 7), 5, None), ((2, 3, 11), 5, None),
                                         ((2, 3, 5, 7), 2, 2), ((3, 4, 5, 7), 11, 5),
                                         ((2, 3, 7), 11, 1), ((3, 4, 5, 7), 13, 1),
                                         ((2, 3, 5, 7), 1, 1)])
def test_cover_identity_refuses_corrupted_invariants(ms, n, fiber):
    # a cover with one invariant off, e0'' or that of a fiber (the others
    # or n fiber) by -1, 1 or its multiplicity, fails both the premises and
    # the evaluation; the true cover passes both.  Fiber 1 is a regular
    # fiber: the cover's fiber n carries g'', and for n = 1 the cover is
    # the source itself
    t = seifert.make_tuple(ms)
    cover, _ = branched_cover_identity(t, n, fiber)
    assert identity_verdicts(t, n, fiber) == (True, True)
    shifts = [{"e0": -1}, {"e0": 1}] + [{p: d} for p in cover.multiplicities for d in (-1, 1, p)]
    for shift in shifts:
        assert identity_verdicts(t, n, fiber, cover=off_by(cover, shift)) == (False, False), shift


@pytest.mark.parametrize("ms, n, fiber, premise",
                         [((2, 3, 7), 11, 7, x) for x in "ABCDE"]
                         + [((3, 4, 5, 7), 11, 5, x) for x in "ABDE"])
def test_cover_identity_checks_each_premise(ms, n, fiber, premise):
    # On a true source, one wrong cover invariant breaks two premises or
    # more, as the source's own relation links them.  Each corruption here
    # leaves one premise the only one to fail: (A), (B) and (D) by moving a
    # source invariant, (C) by moving g'' by f and e0 by 1 (with s < n, or
    # (E) fails too) and (E) by moving e0'' by 1 and e0 by n, the ratio (D)
    # keeps.  Both verdicts must be False.
    t = seifert.make_tuple(ms)
    cover, _ = branched_cover_identity(t, n, fiber)
    p = min(q for q in ms if q != fiber)
    source, image = {"A": ({p: 1 - p}, {}), "B": ({fiber: 1 - fiber}, {}),
                     "C": ({"e0": 1}, {n * fiber: fiber}), "D": ({"e0": -1}, {}),
                     "E": ({"e0": -n}, {"e0": -1})}[premise]
    assert identity_verdicts(t, n, fiber, source=off_by(t, source),
                             cover=off_by(cover, image)) == (False, False)


def test_regular_cover_identity_matches_evaluation():
    # a seeded corpus of covers along a regular fiber (fiber 1, which adds
    # a fiber n to the tuple), n = 1 among them: the premises hold, as the
    # dense evaluation of delta over both cutoffs does
    rng = random.Random(28)
    for i in range(400):
        t = random_tuple(rng, lengths=(3, 4, 5), max_entry=30, max_product=5000)
        degrees = [k for k in range(2, 14) if all(math.gcd(k, p) == 1 for p in t.multiplicities)]
        n = 1 if i % 12 == 0 or not degrees else rng.choice(degrees)
        assert identity_verdicts(t, n, 1) == (True, True), (t, n)


def test_cover_identity_refuses_other_multiplicities():
    # (2,5,13) has the cutoff 29 of (2,3,35), the 5-fold cover of (2,3,7),
    # but not its multiplicities: False, not an error
    t = seifert.make_tuple([2, 3, 7])
    assert identity_verdicts(t, 5, cover=seifert.make_tuple([2, 5, 13])) == (False, False)


@pytest.mark.parametrize("ms, n, fiber, error, message", [
    ((2, 3, 7), 0, None, ValueError, "covering degree must be >= 1, got 0"),
    ((2, 3, 5), 7, None, DegenerateTupleError, "(2,3,5) has no delta sequence"),
    ((2, 3, 7), 5, 4, ValueError, "4 is not a multiplicity of (2,3,7)"),
    ((2, 3, 7), 6, None, NotCoprimeError, "degree 6 shares a factor with (2, 3)"),
    ((2, 3, 5, 7), 3, 2, NotCoprimeError, "degree 3 shares a factor with (3, 5, 7)"),
    ((2, 3, 7), 11, 0, ValueError, "0 is not a multiplicity of (2,3,7)"),
    ((2, 3, 7), 6, 1, NotCoprimeError, "degree 6 shares a factor with (2, 3, 7)"),
])
def test_cover_witnesses_share_their_errors(ms, n, fiber, error, message):
    # the embedding witness, the identity and the verifier (which answers a
    # degenerate source itself) refuse alike
    t = seifert.make_tuple(ms)
    calls = [lambda: branched_cover_embeddings(t, n, fiber),
             lambda: branched_cover_identity(t, n, fiber)]
    if not t.is_degenerate:
        calls.append(lambda: verify.verify_branched(t, n, fiber))
        if fiber is None:
            calls.append(lambda: verify.verify_branched_hat(t, n))
    for call in calls:
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == message


def test_partial_order_immersion_examples():
    m = partial_order_immersion(seifert.make_tuple([2, 3, 13]),
                                seifert.make_tuple([2, 3, 17]))
    assert m.is_immersion()
    assert m.image(6) == 6  # 78/13 -> 102/17
    same = partial_order_immersion(seifert.make_tuple([2, 3, 7]),
                                   seifert.make_tuple([2, 3, 7]))
    assert same.is_isomorphism()
    small = partial_order_immersion(seifert.make_tuple([2, 3, 7]),
                                    seifert.make_tuple([2, 3, 13]))
    assert small.is_immersion() and small.image(0) == 0
    with pytest.raises(NotComparableError):
        partial_order_immersion(seifert.make_tuple([2, 3, 11]),
                                seifert.make_tuple([2, 3, 7]))


def test_two_gen_psi():
    S = TwoGenSemigroup(2, 3)
    assert S.psi_array(np.arange(6)).tolist() == [0, 2, 3, 4, 5, 6]
    assert TwoGenSemigroup(5, 7).psi_array(np.array([0])).tolist() == [0]
    with pytest.raises(NotCoprimeError):
        TwoGenSemigroup(4, 6)


def test_two_gen_delta_functions():
    # the lower delta at hand members of <2, 3>, then against the sieve's
    # count of the ways to write each member
    S = TwoGenSemigroup(2, 3)
    members = np.array([0, 7, 6, 12])     # 7 = 2*2 + 3*1, 6 = 3*2 = 2*3
    assert S._delta_lower(members).tolist() == [1, 1, 2, 3]
    for q, r in [(2, 3), (3, 5), (4, 9), (5, 7)]:
        view = two_generator(q, r, 6 * q * r)
        x = np.arange(view.psi.size)
        lower = 1 + x // (q * r) - view.defect
        assert np.array_equal(TwoGenSemigroup(q, r)._delta_lower(view.psi), lower)


def test_two_gen_theta():
    S = TwoGenSemigroup(2, 3)
    # 6 and 12 are bad: psi(6) = 7 = 2*2 + 3*1 has lower delta 1 < 2
    assert S.theta_array(np.array([6, 12])).tolist() == [5, 11]
    assert two_generator(2, 3, 20).theta == {6: 5, 12: 11, 18: 17}
    with pytest.raises(NotBadError):
        S.theta_array(np.array([6, 5]))


def test_two_gen_gap_count_and_symmetry():
    # psi below the shift is the sieve's members below the Frobenius number
    for q, r in [(2, 3), (3, 5), (4, 9), (5, 7), (8, 13)]:
        S = TwoGenSemigroup(q, r)
        F = q * r - q - r
        member = two_generator(q, r, F).member
        assert np.count_nonzero(~member) == S.shift == (q - 1) * (r - 1) // 2
        assert np.array_equal(member, ~member[::-1])
        assert np.array_equal(S.psi_array(np.arange(S.shift)), np.flatnonzero(member))
        assert S.psi_array(np.array([S.shift])).tolist() == [F + 1]


def test_two_gen_psi_is_sorted_member_list():
    S = TwoGenSemigroup(5, 7)
    members = two_generator(5, 7, 100).psi
    assert np.array_equal(S.psi_array(np.arange(members.size)), members)
    assert S.psi_array(np.array([S.shift])).tolist() == [(5 - 1) * (7 - 1)]


def test_two_gen_bad_point_window():
    for q, r in [(2, 3), (3, 4), (5, 7), (4, 11)]:
        S = TwoGenSemigroup(q, r)
        qr = q * r
        view = two_generator(q, r, 4 * qr + S.shift)
        bad = np.flatnonzero(view.defect > 0)
        k = bad // qr
        assert np.all((k >= 1) & (bad < k * qr + S.shift))
        assert np.all(view.defect[bad] == 1)
        partners = S.theta_array(bad)
        assert partners.tolist() == [view.theta[b] for b in bad.tolist()]
        assert np.all((view.defect[partners] == -1) & (partners < bad))


def test_pinch_examples():
    for base, q, r in [((2, 3), 5, 7), ((2, 3), 5, 11), ((2, 5), 3, 7)]:
        m, theta = pinch_semi_immersion(base, q, r)
        assert m.is_injective() and m.is_semi_immersion()
        assert is_control_function(m, theta)
        _, _, fixed = fix_defects(m, theta)
        assert fixed.is_immersion()


def test_pinch_with_bad_points():
    # base (2,3,7) with (q,r)=(5,13): member 2730 = 42*65 has fiber
    # coordinate 65 = qr, and psi(65) - 65 = 24 is a semigroup gap
    m, theta = pinch_semi_immersion((2, 3, 7), 5, 13)
    defects = m.defect_table()
    assert 2730 in m.source.positions[defects > 0]
    assert m.is_semi_immersion() and not m.is_immersion()
    assert is_control_function(m, theta)
    assert np.all(np.abs(defects) <= 1)
    s2, t2, fixed = fix_defects(m, theta)
    assert fixed.is_injective() and fixed.is_immersion()
    # the repair refines but never changes either rank
    assert s2.rank() == m.source.rank()
    assert t2.rank() == m.target.rank()


def test_pinch_rejects_bad_inputs():
    with pytest.raises(NotCoprimeError):
        pinch_semi_immersion((2, 3), 5, 10)
    with pytest.raises(NotCoprimeError):
        pinch_semi_immersion((2, 4), 3, 5)
    with pytest.raises(DegenerateTupleError):
        pinch_semi_immersion((2,), 3, 5)  # source Sigma(2,15) is S^3-like


@st.composite
def pinch_cases(draw):
    """(base, q, r) pairwise coprime, each entry bumped up from a drawn
    floor; the unpinched cutoff is at most 200,000, well under MAX_CUTOFF.
    Three-entry bases make bad points, two-entry ones mostly do not."""
    entries = []
    for floor in draw(st.lists(st.integers(2, 13), min_size=4, max_size=5)):
        while any(math.gcd(floor, e) != 1 for e in entries):
            floor += 1
        entries.append(floor)
    q, r, *base = entries
    source = seifert.make_tuple(base + [q * r])
    target = seifert.make_tuple(base + [q, r])
    assume(not (source.is_degenerate or target.is_degenerate))
    assume(seifert.n_cutoff(target) <= 200_000)
    return tuple(base), q, r


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pinch_cases())
def test_pinch_witness_properties(case):
    base, q, r = case
    m, theta = pinch_semi_immersion(base, q, r)
    assert m.is_injective() and m.is_semi_immersion()
    assert is_control_function(m, theta)
    assert np.all(np.abs(m.defect_table()) <= 1)
    s2, t2, fixed = fix_defects(m, theta)
    assert fixed.is_injective() and fixed.is_immersion()
    # the repair refines without changing ranks, and the pinched rank is the smaller
    assert (s2.rank(), t2.rank()) == (m.source.rank(), m.target.rank())
    assert m.source.rank().rank_red <= m.target.rank().rank_red


def test_rigid_extend():
    t = seifert.make_tuple([2, 3, 13])
    ds = from_seifert(t)
    n = seifert.n_cutoff(t)
    identity = rigid_extend(ds, ds, {x: x for x in ds.positive_positions}, n, n)
    assert identity.is_isomorphism()
    with pytest.raises(NotRigidError):
        # moving a point by more than half the slack
        rigid_extend(ds, ds, {0: 0, 6: 7}, n, n)
    with pytest.raises(NotRigidError):
        rigid_extend(ds, ds, {0: 0}, n, n)  # not defined on all of S


def test_morphism_json():
    m = branched_cover_embeddings(seifert.make_tuple([2, 3, 7]), 5)[1]
    data = m.to_json()
    assert data["map"] == [[z, m.image(z)] for z in m.source.positions]
