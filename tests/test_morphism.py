import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from floerrank import morphism, seifert
from floerrank.deltaseq import DeltaSequence, from_seifert, from_values
from floerrank.errors import (
    DegenerateTupleError,
    NotBadError,
    NotComparableError,
    NotControlledError,
    NotCoprimeError,
    NotEmbeddingError,
    NotMemberError,
    NotRigidError,
    NotSemiImmersionError,
)
from floerrank.morphism import (
    DeltaMorphism,
    TwoGenSemigroup,
    branched_cover_embeddings,
    embed_to_subsequence,
    fix_defects,
    is_control_function,
    partial_order_immersion,
    pinch_semi_immersion,
    rigid_extend,
)

from conftest import random_tuple
from semigroup_oracle import membership


def identity_morphism(ds):
    return DeltaMorphism(ds, ds, ds.positions)


def test_identity_is_everything():
    ds = from_values([1, -2, 3, -2])
    m = identity_morphism(ds)
    assert m.is_morphism() and m.is_isomorphism()
    assert m.is_embedding() and m.is_immersion() and m.is_semi_immersion()
    assert m.is_right_veering()


def test_mapping_is_a_position_sequence_stored_as_target_indices():
    src = from_values([1, -1])
    tgt = DeltaSequence([4, 9, 12], [1, 1, -1])
    m = DeltaMorphism(src, tgt, [9, 12])
    assert m.index.tolist() == [1, 2] and m.mapping.tolist() == [9, 12]
    assert m.image(1) == 12 and not m.index.flags.writeable
    with pytest.raises(ValueError, match="not positions"):
        DeltaMorphism(src, tgt, [9, 10])
    with pytest.raises(ValueError, match="3 images for 2 source positions"):
        DeltaMorphism(src, tgt, [4, 9, 12])


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
    table = identity_morphism(ds).defect_table()
    assert not table.bad.size and not table.good.size
    assert set(table.neutral) == set(ds.positions)

    src = from_values([2, -1])
    tgt = from_values([1, -1])
    table = DeltaMorphism(src, tgt, [0, 1]).defect_table()
    assert table.bad.tolist() == [0] and table.defects.tolist() == [1, 0]

    not_semi = DeltaMorphism(from_values([1, -1]), from_values([1, -1, 1]),
                             [2, 1])
    with pytest.raises(NotSemiImmersionError):
        not_semi.defect_table()


def test_control_function_checks():
    ds = from_values([1, -2, 3, -2])
    assert is_control_function(identity_morphism(ds), {})

    # bad point at 1 controlled by the good point at 0 (positive side)
    src = from_values([1, 2, -3])
    tgt = from_values([2, 1, -3])
    m = DeltaMorphism(src, tgt, [0, 1, 2])
    assert is_control_function(m, {1: 0})
    # wrong direction: positive control must sit left of its bad point
    src2 = from_values([2, 1, -3])
    tgt2 = from_values([1, 2, -3])
    m2 = DeltaMorphism(src2, tgt2, [0, 1, 2])
    assert not is_control_function(m2, {0: 1})


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
    tgt_values, mapping = [], []
    for run in runs:
        sign = 1 if src.value_at(run[0]) > 0 else -1
        total = sum(abs(src.value_at(p)) for p in run)
        raw = [rng.randrange(len(run)) for _ in run]
        used = sorted(set(raw))
        base = len(tgt_values)
        mapping += [base + used.index(f) for f in raw]
        tgt_values.extend(sign * (total + rng.randint(0, 2)) for _ in used)
        if rng.random() < 0.4:
            tgt_values.append(sign * rng.randint(1, 3))  # decoy outside image
    return DeltaMorphism(src, from_values(tgt_values), mapping)


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
    s, t, fixed = fix_defects(identity_morphism(ds), {})
    assert s == ds and t == ds and fixed.is_immersion()


def test_fix_defects_single_pair():
    src = from_values([1, 2, -3])
    tgt = from_values([2, 1, -3])
    m = DeltaMorphism(src, tgt, [0, 1, 2])
    s, t, fixed = fix_defects(m, {1: 0})
    assert fixed.is_injective() and fixed.is_immersion()
    assert len(s) == len(src) + 1 and len(t) == len(tgt) + 1
    assert s.rank().rank_red == src.rank().rank_red


def test_fix_defects_needs_control():
    src = from_values([2, 1, -3])
    tgt = from_values([1, 2, -3])
    m = DeltaMorphism(src, tgt, [0, 1, 2])
    with pytest.raises(NotControlledError):
        fix_defects(m, {0: 1})


def test_branched_cover_examples():
    maps = branched_cover_embeddings(seifert.make_tuple([2, 3, 7]), 5)
    assert maps[0].image(1) == 5
    assert maps[2].image(1) == 17
    assert membership(seifert.make_tuple([2, 3, 35]), 29 - 17).is_member
    single = branched_cover_embeddings(seifert.make_tuple([2, 3, 7]), 1)
    assert len(single) == 1 and single[0].is_isomorphism()
    with pytest.raises(NotCoprimeError):
        branched_cover_embeddings(seifert.make_tuple([2, 3, 7]), 6)


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
    assert [S.psi(x) for x in range(3)] == [0, 2, 3]
    assert S.psi(5) == 6
    assert TwoGenSemigroup(5, 7).psi(0) == 0


def test_two_gen_delta_functions():
    S = TwoGenSemigroup(2, 3)
    assert S.delta_upper(0) == 1 and S.delta_upper(6) == 2 and S.delta_upper(5) == 1
    assert S.delta_lower(0) == 1
    assert S.delta_lower(7) == 1  # 7 = 2*2 + 3*1
    assert S.delta_lower(6) == 2  # 6 = 3*2
    with pytest.raises(NotMemberError):
        S.delta_lower(1)


def test_two_gen_theta():
    S = TwoGenSemigroup(2, 3)
    assert S.theta(6) == 5
    assert S.psi(5) == 6 and S.delta_lower(6) == 2 and S.delta_upper(5) == 1
    assert S.theta(12) == 11
    with pytest.raises(NotBadError):
        S.theta(5)


def test_two_gen_gap_count_and_symmetry():
    for q, r in [(2, 3), (3, 5), (4, 9), (5, 7), (8, 13)]:
        S = TwoGenSemigroup(q, r)
        assert len(S.gaps()) == (q - 1) * (r - 1) // 2
        F = S.frobenius
        for x in range(F + 1):
            assert (x in S) == (F - x not in S)


def test_two_gen_psi_is_sorted_member_list():
    S = TwoGenSemigroup(5, 7)
    members = S.members_upto(100)
    assert [S.psi(i) for i in range(len(members))] == members
    assert S.psi(S.shift) == (S.q - 1) * (S.r - 1)


def test_two_gen_bad_point_window():
    for q, r in [(2, 3), (3, 4), (5, 7), (4, 11)]:
        S = TwoGenSemigroup(q, r)
        qr, s0 = q * r, S.shift
        for b in S.bad_points_upto(4 * qr):
            k = b // qr
            assert k >= 1 and k * qr <= b < k * qr + s0
            assert S.defect(b) == 1
            g = S.theta(b)
            assert S.defect(g) == -1 and g < b


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
    table = m.defect_table()
    assert 2730 in table.bad
    assert m.is_semi_immersion() and not m.is_immersion()
    assert is_control_function(m, theta)
    assert all(abs(d) <= 1 for d in table.defects.tolist())
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
    assert np.all(np.abs(m.defect_table().defects) <= 1)
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
