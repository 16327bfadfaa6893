import time
import xml.etree.ElementTree as ET
from bisect import bisect_right
from pathlib import Path

import pytest

from floerrank import gradedroot, seifert
from floerrank.deltaseq import from_seifert, from_values
from floerrank.errors import EmptySequenceError, UnknownFormatError
from floerrank.gradedroot import GradedRoot, compress_extrema

import root_oracle
from conftest import random_delta_values, random_tuple
from walk_oracle import dense_tau

DATA = Path(__file__).parent / "data"


def test_compress_extrema():
    assert compress_extrema([0, 1, 0]) == [0, 1, 0]
    assert compress_extrema([-2, -1, -2, 0, -2]) == [-2, -1, -2, 0, -2]
    assert compress_extrema([0]) == [0]
    assert compress_extrema([0, 1, 2, 3]) == [0]
    assert compress_extrema([3, 2, 1]) == [1]
    assert compress_extrema([0, 0, 1, 1, 0, 0]) == [0, 1, 0]


def test_from_tau_three_branch_figure():
    root = GradedRoot.from_tau([-2, -1, -2, 0, -2])
    assert root.leaves() == 3
    assert root.vertex_counts() == {-2: 3, -1: 2, 0: 1}
    assert root_oracle.red_ranks_by_degree(root) == {-2: 2, -1: 1}
    assert root.total_red() == 3
    assert sum(root.hat_ranks_by_degree().values()) == 5
    assert root.total_hat() == 5


def test_from_tau_two_three_seven():
    root = GradedRoot.from_tau([0, 1, 0])
    assert root.leaves() == 2
    assert root.vertex_counts() == {0: 2, 1: 1}
    assert root_oracle.red_ranks_by_degree(root) == {0: 1}
    assert root.total_red() == 1 and root.total_hat() == 3


def test_bare_ray():
    root = GradedRoot.from_tau([0])
    assert root.leaves() == 1
    assert root.vertex_counts() == {0: 1}
    assert root_oracle.red_ranks_by_degree(root) == {}
    assert root.hat_ranks_by_degree() == {0: 1}
    assert root.total_red() == 0 and root.total_hat() == 1


def test_empty_sequence_rejected():
    with pytest.raises(EmptySequenceError):
        GradedRoot.from_tau([])


def test_constructor_rejects_non_alternating_extrema():
    for bad in ([0, 1], [0, 1, 2], [1, 0, 1]):
        with pytest.raises(ValueError):
            GradedRoot(bad)


def test_tail_invariance():
    base = GradedRoot.from_tau([-2, -1, -2, 0, -2])
    extended = GradedRoot.from_tau([-2, -1, -2, 0, -2, -1, -1, 0, 3, 7])
    assert base.extrema == extended.extrema
    assert base.render("dot") == extended.render("dot")


def test_tree_property():
    for tau in ([0, 1, 0], [-2, -1, -2, 0, -2], [0, 2, 1, 3, 0, 1, 0]):
        root = GradedRoot.from_tau(tau)
        assert len(root.edges()) == len(root.vertices()) - 1


def test_structural_counts_match_formulas(rng):
    for _ in range(60):
        vals = random_delta_values(rng, max_len=8, max_abs=3)
        tau = from_values(vals).tau()
        root = GradedRoot.from_tau(tau)
        assert root_oracle.structural_vertex_counts(root) == root.vertex_counts()
        assert len(root_oracle.structural_leaves(root)) == root.leaves()
        assert sum(root_oracle.red_ranks_by_degree(root).values()) == root.total_red()
        assert sum(root.hat_ranks_by_degree().values()) == root.total_hat()


def test_seifert_roots_match_rank_formulas(rng):
    for ms in [(2, 3, 7), (2, 3, 13), (2, 3, 35), (2, 3, 5, 7), (3, 4, 5)]:
        t = seifert.make_tuple(list(ms))
        ds = from_seifert(t)
        rep = ds.rank()
        root = GradedRoot.from_delta_sequence(ds)
        assert len(root_oracle.structural_leaves(root)) == rep.c + 1
        assert sum(root_oracle.red_ranks_by_degree(root).values()) == rep.rank_red
        assert sum(root.hat_ranks_by_degree().values()) == rep.rank_hat
    for _ in range(10):
        t = random_tuple(rng, max_product=10**4)
        rep = from_seifert(t).rank()
        root = GradedRoot.from_delta_sequence(from_seifert(t))
        assert root.leaves() == rep.c + 1
        assert root.total_red() == rep.rank_red
        assert root.total_hat() == rep.rank_hat


def _seeded_roots(rng):
    """The figure root, a bare ray, 300 random tau walks and 100 roots of
    random 3- and 4-fiber tuples."""
    taus = [[-2, -1, -2, 0, -2], [0]]
    taus += [from_values(random_delta_values(rng, max_len=14, max_abs=6)).tau()
             for _ in range(300)]
    roots = [GradedRoot.from_tau(tau) for tau in taus]
    tuples = [random_tuple(rng, lengths=(3, 4), max_product=2000) for _ in range(100)]
    assert {len(t.multiplicities) for t in tuples} == {3, 4}
    return roots + [GradedRoot.from_delta_sequence(from_seifert(t)) for t in tuples]


def test_structure_matches_union_find_oracle(rng):
    for root in _seeded_roots(rng):
        oracle = root_oracle.oracle_root(root.extrema)
        assert (root.vertices(), root.edges()) == \
            (oracle.vertices(), oracle.edges()), root.extrema
        assert root.render("ascii") == root_oracle.row_scan_ascii(oracle), root.extrema
        for fmt in ("dot", "svg"):
            assert root.render(fmt) == oracle.render(fmt), (root.extrema, fmt)
        assert root.hat_ranks_by_degree() == \
            root_oracle.per_grading_hat_ranks(root), root.extrema


def test_columns_match_dfs_layout(rng):
    roots = _seeded_roots(rng)
    roots += [GradedRoot.from_tau(dense_tau(seifert.make_tuple(ms)))
              for ms in ([2, 3, 5, 7, 11], [2, 3, 5, 7, 13])]
    for root in roots:
        assert root._build_structure()[2] == root_oracle.dfs_layout(root), root.extrema


def test_renders_read_one_structure_sweep(monkeypatch):
    root = GradedRoot.from_delta_sequence(from_seifert(seifert.make_tuple([2, 3, 5, 7])))
    searches = []

    def counted(*args):
        searches.append(args)
        return bisect_right(*args)

    # the sweep finds each edge's parent with one search
    monkeypatch.setattr(gradedroot, "bisect_right", counted)
    renders = {fmt: root.render(fmt) for fmt in ("ascii", "dot", "svg")}
    assert len(searches) == len(root.edges()) == len(root.vertices()) - 1
    # the renders draw the structure's own columns: shifted, they shift
    vertices, edges, columns = root._build_structure()
    root._structure = (vertices, edges, {v: c + 4 for v, c in columns.items()})
    label = max(len(str(min(root.minima))), len(str(root.stabilization))) + 1
    assert root.render("ascii") == "".join(
        line[:label] + "    " + line[label:] for line in renders["ascii"].splitlines(True))
    assert root.render("svg") != renders["svg"]
    assert root.render("dot") == renders["dot"]


def test_hat_ranks_by_degree_ignore_the_grading_span():
    started = time.monotonic()
    assert GradedRoot.from_tau([0, 10**8, 0]).hat_ranks_by_degree() == {0: 2, 10**8 - 1: 1}
    assert time.monotonic() - started < 1.0


def test_five_fiber_root_pinned():
    t = seifert.make_tuple([2, 3, 5, 7, 11])
    tau = dense_tau(t)
    root = GradedRoot.from_tau(tau)
    assert len(root.extrema) == 441
    assert len(root.vertices()) == 1115 and len(root.edges()) == 1114
    assert len(root_oracle.structural_leaves(root)) == 221
    # a vertex at grading h is a maximal run of tau values <= h
    runs = {}
    for h in range(min(tau), max(tau) + 1):
        below = [x <= h for x in tau]
        runs[h] = sum(1 for i, b in enumerate(below) if b and (i == 0 or not below[i - 1]))
    assert root_oracle.structural_vertex_counts(root) == runs == root.vertex_counts()


def test_explicit_tree_size_guard(monkeypatch):
    root = GradedRoot.from_tau([-2, -1, -2, 0, -2])  # 6 vertices
    monkeypatch.setattr(gradedroot, "MAX_VERTICES", 5)
    with pytest.raises(ValueError, match="6 vertices"):
        root.vertices()
    monkeypatch.setattr(gradedroot, "MAX_VERTICES", 6)
    assert len(root.vertices()) == 6


def test_ascii_golden_figure():
    root = GradedRoot.from_tau([-2, -1, -2, 0, -2])
    expected = (DATA / "figure_root_ascii.txt").read_text()
    assert root.render("ascii") == expected


def test_dot_golden():
    root = GradedRoot.from_delta_sequence(from_seifert(seifert.make_tuple([2, 3, 7])))
    assert root.render("dot") == (DATA / "root_2_3_7.dot").read_text()


def test_svg_golden():
    root = GradedRoot.from_delta_sequence(from_seifert(seifert.make_tuple([2, 3, 5, 7])))
    assert root.render("svg") == (DATA / "root_2_3_5_7.svg").read_text()


def test_dot_bare_ray_mentions_stabilization():
    dot = GradedRoot.from_tau([0]).render("dot")
    assert "stem" in dot and "stabilizes" in dot
    assert dot.count("label") >= 2  # window vertex plus stem vertex


def test_svg_well_formed():
    root = GradedRoot.from_delta_sequence(from_seifert(seifert.make_tuple([2, 3, 13])))
    svg = root.render("svg")
    tree = ET.fromstring(svg)
    assert tree.tag.endswith("svg")
    assert len([e for e in tree.iter() if e.tag.endswith("circle")]) == \
        len(root.vertices())


def test_renders_deterministic():
    t = seifert.make_tuple([2, 3, 35])
    a = GradedRoot.from_delta_sequence(from_seifert(t))
    b = GradedRoot.from_delta_sequence(from_seifert(t))
    for fmt in ("ascii", "dot", "svg"):
        assert a.render(fmt) == b.render(fmt)


def test_unknown_format():
    with pytest.raises(UnknownFormatError):
        GradedRoot.from_tau([0]).render("png")


def _u_action_ranks(tau):
    """Independent oracle: ker/coker of the explicit downward-sum map.

    Vertices are components of sublevel sets of the walk; the map sends a
    vertex to the sum of the components directly below it.  Returns
    (rank ker, rank coker) restricted to the non-stable range.
    """
    import numpy as np
    lo, hi = min(tau), max(tau)
    comp_at = {}
    for h in range(lo, hi + 2):
        comps = []
        i = 0
        while i < len(tau):
            if tau[i] <= h:
                j = i
                while j + 1 < len(tau) and tau[j + 1] <= h:
                    j += 1
                comps.append((i, j))
                i = j + 1
            else:
                i += 1
        comp_at[h] = comps
    ids = {(h, c): k for k, (h, c) in enumerate(
        (h, c) for h in comp_at for c in comp_at[h])}
    mat = np.zeros((len(ids), len(ids)))
    for h in range(lo + 1, hi + 2):
        for span in comp_at[h]:
            for child in comp_at[h - 1]:
                if span[0] <= child[0] and child[1] <= span[1]:
                    mat[ids[(h - 1, child)], ids[(h, span)]] = 1
    rank = np.linalg.matrix_rank(mat)
    ker = len(ids) - rank
    # in the stable range the map is an isomorphism grading by grading, so
    # cokernel generators below the top grading are the honest ones; the
    # extra kernel dimension at the truncation top does not exist: every
    # column corresponds to a vertex with children except the leaves
    coker = sum(len(comp_at[h]) for h in range(lo, hi + 1)) - rank
    return ker, coker


def test_hat_ranks_match_u_action_oracle():
    for tau in ([0, 1, 0], [-2, -1, -2, 0, -2], [0, 2, 1, 2, 0, 3, 1, 2, 0],
                [0, 1, -1, 2, -1]):
        root = GradedRoot.from_tau(tau)
        ker, coker = _u_action_ranks(tau)
        assert ker == root.leaves()
        assert ker + coker == root.total_hat()
        assert sum(root.hat_ranks_by_degree().values()) == ker + coker


def test_hat_ranks_match_u_action_oracle_seifert():
    for ms in [(2, 3, 7), (2, 3, 35), (2, 5, 9), (3, 4, 7)]:
        t = seifert.make_tuple(list(ms))
        tau = dense_tau(t)
        root = GradedRoot.from_tau(tau)
        ker, coker = _u_action_ranks(tau)
        assert ker == root.leaves()
        assert ker + coker == root.total_hat()
