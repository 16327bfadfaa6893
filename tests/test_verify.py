import math
import random

import pytest

import floerrank
from floerrank import deltaseq, morphism, seifert, verify
from floerrank.deltaseq import from_seifert
from floerrank.errors import IllegalMoveError, NotComparableError
from floerrank.gradedroot import GradedRoot
from floerrank.verify import DegreeMove

from conftest import random_tuple
from morphism_oracle import assert_cover_identity_matches


def T(*ms):
    return seifert.make_tuple(list(ms))


def test_verify_branched_equality_case():
    report = verify.verify_branched(T(2, 3, 7), 5)
    assert report.verdict == "holds"
    assert report.ranks["source"]["red"] == 1
    assert report.ranks["cover"]["red"] == 5  # 5 * 1 <= 5, tight


def test_verify_branched_degree_one():
    report = verify.verify_branched(T(2, 3, 7), 1)
    assert report.verdict == "holds"
    assert report.ranks["source"] == report.ranks["cover"]


def test_verify_branched_2_3_11():
    report = verify.verify_branched(T(2, 3, 11), 5)
    assert report.verdict == "holds"
    # (2,3,55) sits in the 6n+7 family at n=8, so its rank is 9
    assert report.ranks["cover"]["red"] == 9


def test_verify_branched_degenerate_source():
    report = verify.verify_branched(T(2, 3, 5), 7)
    assert report.verdict == "holds"


def test_verify_branched_hat():
    report = verify.verify_branched_hat(T(2, 3, 7), 5)
    assert report.verdict == "holds"
    assert report.ranks["source"]["hat"] == 3
    assert report.ranks["cover"]["hat"] == 11
    assert verify.verify_branched_hat(T(2, 3, 7), 1).verdict == "holds"
    assert verify.verify_branched_hat(T(2, 5, 7), 3).verdict == "holds"


@pytest.mark.parametrize("verifier", [verify.verify_branched, verify.verify_branched_hat])
@pytest.mark.parametrize("ms, n", [((2, 3, 7), 0), ((2, 3, 7), -1), ((2, 3, 5), 0)])
def test_branched_verifiers_refuse_degree_below_one(verifier, ms, n):
    # before the cover tuple (with an entry n * fiber < 1) is built, and
    # before a degenerate source is waved through
    with pytest.raises(ValueError, match=f"^covering degree must be >= 1, got {n}$"):
        verifier(T(*ms), n)


def test_verify_pinch_reference_case():
    report = verify.verify_pinch([2, 3], 5, 7)
    assert report.verdict == "holds"
    assert report.ranks["pinched"]["red"] == 5
    assert report.ranks["unpinched"]["red"] == 13


def test_verify_pinch_more_cases():
    assert verify.verify_pinch([2, 3], 5, 11).verdict == "holds"
    assert verify.verify_pinch([2, 7], 3, 5).verdict == "holds"


def test_verify_monotone():
    report = verify.verify_monotone(T(2, 3, 7), T(2, 3, 13))
    assert report.verdict == "holds"
    assert report.ranks["small"]["red"] == 1 and report.ranks["large"]["red"] == 2
    assert verify.verify_monotone(T(2, 3, 7), T(2, 3, 7)).verdict == "holds"
    assert verify.verify_monotone(T(2, 3, 5, 7), T(2, 3, 5, 11)).verdict == "holds"
    with pytest.raises(NotComparableError):
        verify.verify_monotone(T(2, 3, 11), T(2, 3, 7))


def test_degree_move_application():
    assert DegreeMove("pinch", fibers=(5, 7)).apply(T(2, 3, 5, 7)) == T(2, 3, 35)
    assert DegreeMove("branched_fiber", n=5, fibers=(35,)).apply(T(2, 3, 35)) == T(2, 3, 7)
    assert DegreeMove("branched_regular", n=7).apply(T(2, 3, 7)) == T(2, 3)
    with pytest.raises(IllegalMoveError):
        DegreeMove("pinch", fibers=(5, 11)).apply(T(2, 3, 7))
    with pytest.raises(IllegalMoveError):
        DegreeMove("branched_fiber", n=4, fibers=(35,)).apply(T(2, 3, 35))
    with pytest.raises(IllegalMoveError):
        DegreeMove("branched_fiber", n=0, fibers=(35,)).apply(T(2, 3, 35))
    with pytest.raises(IllegalMoveError):
        DegreeMove("pinch", fibers=(5,)).apply(T(2, 3, 35))
    with pytest.raises(IllegalMoveError):
        DegreeMove("squeeze", n=2).apply(T(2, 3, 35))


def test_verify_degree_map_pinch_chain():
    report = verify.verify_degree_map(T(2, 3, 5, 7), [DegreeMove("pinch", fibers=(5, 7))])
    assert report.verdict == "holds"
    assert report.ranks["degree"] == 1
    assert report.ranks["start"]["red"] == 13 and report.ranks["end"]["red"] == 5


def test_verify_degree_map_branched():
    report = verify.verify_degree_map(
        T(2, 3, 35), [DegreeMove("branched_fiber", n=5, fibers=(35,))])
    assert report.verdict == "holds"
    assert report.ranks["degree"] == 5
    assert report.ranks["start"]["red"] == 5 and report.ranks["end"]["red"] == 1


def test_verify_degree_map_empty():
    report = verify.verify_degree_map(T(2, 3, 7), [])
    assert report.verdict == "holds" and report.ranks["degree"] == 1


def test_verify_degree_map_regular_cover():
    report = verify.verify_degree_map(
        T(2, 3, 7, 11), [DegreeMove("branched_regular", n=11)])
    assert report.verdict == "holds" and report.ranks["degree"] == 11


def test_verify_degree_map_cover_of_non_largest_fiber():
    # dividing the 4 out of (3,4,5,7): the covered fiber is the smallest
    # multiplicity of the quotient, not the largest
    report = verify.verify_degree_map(
        T(3, 4, 5, 7), [DegreeMove("branched_fiber", n=2, fibers=(4,))])
    assert report.verdict == "holds"
    assert report.inputs["end"] == [2, 3, 5, 7]
    assert report.ranks["degree"] == 2


def test_verify_degree_map_fully_unwound_fiber():
    # dividing the 11 out of (2,3,7,11) by 11 removes it entirely; the
    # witness is the 11-fold cover of (2,3,7) along a fiber of multiplicity 1
    report = verify.verify_degree_map(
        T(2, 3, 7, 11), [DegreeMove("branched_fiber", n=11, fibers=(11,))])
    assert report.verdict == "holds"
    assert report.inputs["end"] == [2, 3, 7]
    assert report.ranks["degree"] == 11


def test_branched_verifiers_match_embedding_oracle():
    # a seeded corpus of 3 to 6 fibers: the designated fiber is drawn from
    # all of them and, for a third of the corpus, is a regular fiber (1);
    # n = 1, a non-largest fiber and n = 1 on a regular fiber are forced in
    rng = random.Random(26)
    seen = set()
    for i in range(60):
        t = random_tuple(rng, lengths=(3 + i % 4,), max_entry=30, max_product=10**5)
        if i % 3 == 2:
            fiber = 1
        else:
            fiber = rng.choice(t.multiplicities[:-1] if i % 4 == 0 else t.multiplicities)
        others = [p for p in t.multiplicities if p != fiber]
        degrees = [k for k in range(2, 30) if all(math.gcd(k, p) == 1 for p in others)
                   and k * t.product <= 6 * 10**5]
        n = 1 if i % 10 in (0, 5) or not degrees else rng.choice(degrees)
        assert_cover_identity_matches(t, n, fiber)
        seen.add((t.fiber_count, n, fiber == 1, fiber == t.multiplicities[-1]))
    assert {count for count, _, _, _ in seen} == {3, 4, 5, 6}
    assert not all(top for _, _, _, top in seen)
    assert {(n == 1, regular) for _, n, regular, _ in seen} == {
        (False, False), (True, False), (False, True), (True, True)}


def test_verify_branched_large_degree_family():
    # (2,3,7) covered 1,000,003 times is (2,3,6k+7) at k = 1,166,669, of
    # reduced rank k + 1; each of the maps carries the source's one point
    report = verify.verify_branched(T(2, 3, 7), 1000003)
    assert report.verdict == "holds"
    assert report.ranks["source"]["red"] == 1
    assert report.ranks["cover"]["red"] == 1166670


def test_verify_branched_designated_fiber():
    report = verify.verify_branched(T(2, 3, 5, 7), 2, fiber=2)
    assert report.verdict == "holds"
    assert report.ranks["cover"]["red"] >= 2 * report.ranks["source"]["red"]
    assert report.inputs["fiber"] == 2
    # fiber 1 is a regular fiber: the cover adds a fiber n, and for n = 1
    # it is the source itself
    regular = verify.verify_branched(T(2, 3, 7), 11, fiber=1)
    assert regular.verdict == "holds" and regular.inputs["fiber"] == 1
    assert regular.ranks == {"source": {"red": 1, "hat": 3}, "cover": {"red": 30, "hat": 61}}
    same = verify.verify_branched(T(3, 4, 5, 7), 1, fiber=1)
    assert same.verdict == "holds" and same.ranks["source"] == same.ranks["cover"]


def test_verify_degree_map_composition(rng):
    # two fiber covers compose with multiplied degrees
    report = verify.verify_degree_map(
        T(2, 3, 55),
        [DegreeMove("branched_fiber", n=5, fibers=(55,)),
         DegreeMove("branched_fiber", n=11, fibers=(11,))])
    assert report.verdict == "holds"
    assert report.ranks["degree"] == 55
    assert report.inputs["end"] == [2, 3]


def test_branched_composition_matches_product_degree():
    # covering by n then by m lands on the same manifold as covering by n*m,
    # and both chains certify the same composite inequality
    first = verify.verify_branched(T(2, 3, 7), 5)
    second = verify.verify_branched(T(2, 3, 35), 11)
    combined = verify.verify_branched(T(2, 3, 7), 55)
    assert first.verdict == second.verdict == combined.verdict == "holds"
    assert second.ranks["cover"] == combined.ranks["cover"]
    red_y = combined.ranks["source"]["red"]
    red_top = combined.ranks["cover"]["red"]
    assert 55 * red_y <= red_top
    assert 11 * second.ranks["source"]["red"] <= red_top
    assert 5 * red_y <= second.ranks["source"]["red"]


def test_report_json_shape():
    report = verify.verify_monotone(T(2, 3, 7), T(2, 3, 13))
    data = report.to_json()
    assert data["verdict"] == "holds"
    assert all(c["passed"] for c in data["checks"])
    assert data["inputs"]["small"] == [2, 3, 7]


def _labelled_tuples(report) -> dict:
    """The tuple behind each rank label of a report, rebuilt from its inputs."""
    ins = report.inputs
    if report.statement.startswith("branched cover"):
        fiber = ins.get("fiber", max(ins["tuple"]))     # the hat verifier covers the largest
        others = [p for p in ins["tuple"] if p != fiber]
        pairs = {"source": ins["tuple"], "cover": others + [ins["n"] * fiber]}
    elif report.statement == "vertical pinch rank inequality":
        pairs = {"pinched": ins["base"] + [ins["q"] * ins["r"]],
                 "unpinched": ins["base"] + [ins["q"], ins["r"]]}
    elif report.statement == "partial order rank inequality":
        pairs = {"small": ins["small"], "large": ins["large"]}
    else:
        pairs = {"start": ins["start"], "end": ins["end"]}
    return {label: seifert.make_tuple(ms) for label, ms in pairs.items()}


def _assert_ranks_match_oracles(report):
    labelled = _labelled_tuples(report)
    assert set(report.ranks) - {"degree"} == set(labelled), report.statement
    for label, t in labelled.items():
        if t.is_degenerate:
            want = {"red": 0, "hat": 1}
        else:
            ds = from_seifert(t)
            rank = ds.rank()
            root = GradedRoot.from_delta_sequence(ds)
            assert (root.total_red(), root.total_hat()) == (rank.rank_red, rank.rank_hat), t
            want = {"red": rank.rank_red, "hat": rank.rank_hat}
        assert report.ranks[label] == want, (report.statement, label, t)


def test_random_verifier_corpus(rng):
    reports = []
    for _ in range(8):
        t = random_tuple(rng, lengths=(3,), max_entry=30, max_product=2 * 10**4)
        n = next(k for k in (2, 3, 5, 7)
                 if all(math.gcd(k, p) == 1 for p in t.multiplicities[:-1]))
        reports.append(verify.verify_branched(t, n))
    for _ in range(8):
        t = random_tuple(rng, lengths=(3, 4), max_entry=20, max_product=10**4)
        bumped = list(t.multiplicities)
        bumped[-1] += rng.choice([0, 1, 2])
        try:
            t2 = seifert.make_tuple(bumped)
            if len(t2.multiplicities) != len(bumped):
                continue
        except ValueError:
            continue
        if list(t2.multiplicities) != sorted(bumped):
            continue
        reports.append(verify.verify_monotone(t, t2))
    # degree-map chains: a pinch then a regular cover down to a degenerate
    # two-fiber end, and a fiber cover between 3-fiber tuples
    for _ in range(4):
        t = random_tuple(rng, lengths=(4,), max_entry=20, max_product=5000)
        q, r, keep, drop = rng.sample(t.multiplicities, 4)
        base = [keep, drop]
        reports.append(verify.verify_pinch(base, q, r))
        reports.append(verify.verify_degree_map(
            t, [DegreeMove("pinch", fibers=(q, r)), DegreeMove("branched_regular", n=drop)]))
    for _ in range(4):
        t = random_tuple(rng, lengths=(3,), max_entry=20, max_product=3000)
        n = next(k for k in (2, 3, 5, 7, 11, 13)
                 if all(math.gcd(k, p) == 1 for p in t.multiplicities))
        fiber = n * t.multiplicities[-1]
        cover = seifert.make_tuple(list(t.multiplicities[:-1]) + [fiber])
        reports.append(verify.verify_degree_map(
            cover, [DegreeMove("branched_fiber", n=n, fibers=(fiber,))]))
    for report in reports:
        _assert_ranks_match_oracles(report)
        assert report.verdict == "holds", report.to_json()
    assert len({r.statement for r in reports}) == 4
    assert any(seifert.make_tuple(r.inputs["end"]).is_degenerate
               for r in reports if "end" in r.inputs)


def test_each_witness_builds_each_delta_sequence_once(monkeypatch):
    calls = []
    original = deltaseq.from_seifert

    def counting(t):
        calls.append(t)
        return original(t)

    # every module binding of from_seifert in the package
    for module in (floerrank, deltaseq, morphism, verify):
        if getattr(module, "from_seifert", None) is original:
            monkeypatch.setattr(module, "from_seifert", counting)
    assert verify.verify_pinch([2, 3], 5, 7).verdict == "holds"
    assert sorted(c.multiplicities for c in calls) == [(2, 3, 5, 7), (2, 3, 35)]
    calls.clear()
    assert verify.verify_monotone(T(2, 3, 7), T(2, 3, 13)).verdict == "holds"
    assert len(calls) == 2
    # the branched verifiers check the cover identity and build no
    # sequence, nor does a degree map's cover along a regular fiber
    calls.clear()
    assert verify.verify_branched(T(2, 3, 7), 5).verdict == "holds"
    assert verify.verify_branched_hat(T(2, 3, 11), 7).verdict == "holds"
    for move in (DegreeMove("branched_regular", n=11),
                 DegreeMove("branched_fiber", n=11, fibers=(11,))):
        assert verify.verify_degree_map(T(2, 3, 7, 11), [move]).verdict == "holds"
    assert calls == []


def _count_walks(monkeypatch):
    """Count the rank walks of non-degenerate tuples (degenerate ones walk nothing)."""
    walked = []
    original = seifert.walk_statistics

    def counting(t, *args, **kwargs):
        if not t.is_degenerate:
            walked.append(t.multiplicities)
        return original(t, *args, **kwargs)

    monkeypatch.setattr(seifert, "walk_statistics", counting)
    return walked


def test_verifiers_read_ranks_off_their_witnesses(monkeypatch):
    # pinch and comparison ranks come off the witness sequences; the
    # branched verifiers build none and walk source and cover in the kernel
    walked = _count_walks(monkeypatch)
    reports = [verify.verify_pinch([2, 3], 5, 7), verify.verify_monotone(T(2, 3, 7), T(2, 3, 13))]
    assert walked == []
    reports += [verify.verify_branched(T(2, 3, 7), 5), verify.verify_branched_hat(T(2, 3, 11), 7)]
    assert walked == [(2, 3, 7), (2, 3, 35), (2, 3, 11), (2, 3, 77)]
    monkeypatch.undo()
    for report in reports:
        assert report.verdict == "holds"
        _assert_ranks_match_oracles(report)


# (start, moves, the tuples whose ranks are walked, whether the end is degenerate)
DEGREE_CHAINS = [
    (T(2, 3, 5, 7), [DegreeMove("pinch", fibers=(5, 7))], [], False),
    # a cover move walks its source and its cover in the kernel
    (T(2, 3, 35), [DegreeMove("branched_fiber", n=5, fibers=(35,))],
     [(2, 3, 7), (2, 3, 35)], False),
    # a regular cover, or a fiber unwound to 1, is the cover along fiber 1
    (T(2, 3, 7, 11), [DegreeMove("branched_regular", n=11)],
     [(2, 3, 7), (2, 3, 7, 11)], False),
    (T(2, 3, 7, 11), [DegreeMove("branched_fiber", n=11, fibers=(11,))],
     [(2, 3, 7), (2, 3, 7, 11)], False),
    # each tuple of a chain is ranked once: a cover reads the ranks of a
    # tuple that an earlier move ranked, off its sequence or its walk
    (T(3, 4, 5, 7, 11), [DegreeMove("pinch", fibers=(4, 11)),
                         DegreeMove("branched_regular", n=5)], [(3, 7, 44)], False),
    # no sub-report: the empty chain ranks its start (= end) once
    (T(2, 3, 7), [], [(2, 3, 7)], False),
    (T(2, 3, 5), [], [], True),
    # a degenerate end needs no walk; a first move that ends degenerate
    # leaves the start to be ranked afresh
    (T(2, 3, 55), [DegreeMove("branched_fiber", n=5, fibers=(55,)),
                   DegreeMove("branched_fiber", n=11, fibers=(11,))],
     [(2, 3, 11), (2, 3, 55)], True),
    (T(2, 3, 7), [DegreeMove("branched_regular", n=7)], [(2, 3, 7)], True),
    # two cover moves in a row: the second reads its cover's ranks off the first
    (T(2, 3, 5, 77), [DegreeMove("branched_fiber", n=7, fibers=(77,)),
                      DegreeMove("branched_regular", n=5)],
     [(2, 3, 5, 11), (2, 3, 5, 77), (2, 3, 11)], False),
]


@pytest.mark.parametrize("start, moves, walks, degenerate_end", DEGREE_CHAINS)
def test_degree_map_ranks_match_rank_pair(monkeypatch, start, moves, walks, degenerate_end):
    walked = _count_walks(monkeypatch)
    report = verify.verify_degree_map(start, moves)
    assert walked == walks
    assert report.verdict == "holds"
    monkeypatch.undo()
    end = seifert.make_tuple(report.inputs["end"])
    assert end.is_degenerate == degenerate_end
    for label, t in (("start", start), ("end", end)):
        red, hat = seifert.rank_pair(t)
        assert report.ranks[label] == {"red": red, "hat": hat}, label


def test_scan_hat_monotonicity_small():
    assert verify.scan_hat_monotonicity(7) == []
    assert verify.scan_hat_monotonicity(9) == []


def test_scan_hat_monotonicity_refuses_too_many_candidates():
    # bound 25 at length 3 (2,024 candidates) and 13 at length 4 (495) run;
    # bound 34 at length 3 has 5,456 and a half-length scan of 10^9 has a
    # count the refusal never computes
    assert math.comb(24, 3) <= verify.MAX_SCAN_CANDIDATES < math.comb(33, 3)
    for bound, length in ((34, 3), (10**9, 5 * 10**8)):
        with pytest.raises(ValueError, match="candidate tuples a scan may have"):
            verify.scan_hat_monotonicity(bound, length=length)


def test_scan_hat_monotonicity_finds_known_violations():
    # The hat rank (2 * leaves - 1) is NOT monotone under the componentwise
    # order.  The first pair appears at bound 11; criterion 10 checks the
    # scan at bound 25 against hat ranks read off the graded roots.
    v11 = verify.scan_hat_monotonicity(11)
    assert v11 == [((5, 8, 11), (5, 9, 11), 35, 31)]
    v13 = verify.scan_hat_monotonicity(13)
    assert ((5, 7, 13), (5, 8, 13), 35, 33) in v13
    assert len(v13) == 8
    # the same phenomenon appears with four fibers
    assert verify.scan_hat_monotonicity(11, length=4) == []
    v13_4 = verify.scan_hat_monotonicity(13, length=4)
    assert ((3, 5, 7, 11), (3, 5, 7, 13), 175, 159) in v13_4
