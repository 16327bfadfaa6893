"""Tests of the benchmark itself: checkers, references, inputs and tracer.

    python3 -m pytest -q perfbench/test_perfbench.py

Every checker must reject a deliberately wrong output: a wrong rank, a
table row with one tuple missing, a root with one vertex too many, or a
verdict of "fails".
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

FR = run.load_floerrank()


def _table_text(n_max):
    lines = (wl.DATA / "table12.csv").read_text().splitlines()
    return "\n".join(l for l in lines if int(l.split(",")[0]) <= n_max) + "\n"


# -- botany_table -----------------------------------------------------------------


def test_botany_checker_accepts_reference_rows():
    w = wl.BotanyTable(FR)
    assert w.check(w.build(1), [_table_text(w.N_MAX)]) == []


def test_botany_checker_rejects_a_missing_tuple():
    w = wl.BotanyTable(FR)
    text = _table_text(w.N_MAX).replace("3,2,7,9\n", "")
    assert w.check(w.build(1), [text])


def test_botany_checker_rejects_a_wrong_rank():
    w = wl.BotanyTable(FR)
    text = _table_text(w.N_MAX).replace("1,2,3,11\n", "2,2,3,11\n")
    errors = w.check(w.build(1), [text])
    assert any("(2,3,11) missing from row 1" in e for e in errors)


# -- witness_suite ----------------------------------------------------------------


PINCH = {"kind": "pinch", "args": ((2, 3), 5, 7),
         "labels": {"pinched": (2, 3, 35), "unpinched": (2, 3, 5, 7)}}


def _pinch_report():
    return FR.verify.verify_pinch(*PINCH["args"])


def test_witness_checker_accepts_a_real_report():
    assert wl.WitnessSuite(FR).check([PINCH], [_pinch_report()]) == []


def test_witness_checker_rejects_a_failing_verdict():
    report = _pinch_report()
    report.check("deliberately broken", False)
    errors = wl.WitnessSuite(FR).check([PINCH], [report])
    assert any("verdict fails" in e for e in errors)


def test_witness_checker_rejects_a_wrong_rank():
    report = _pinch_report()
    report.ranks["unpinched"] = {"red": report.ranks["unpinched"]["red"] + 1,
                                 "hat": report.ranks["unpinched"]["hat"]}
    errors = wl.WitnessSuite(FR).check([PINCH], [report])
    assert any("unpinched" in e for e in errors)


def test_witness_corpus_is_seeded_and_banded():
    w = wl.WitnessSuite(FR)
    first, again, other = w.build(7), w.build(7), w.build(8)
    assert [c["args"] for c in first] == [c["args"] for c in again]
    assert [c["args"] for c in first] != [c["args"] for c in other]
    assert [c["kind"] for c in first] == list(w.KINDS) * (w.CALLS // len(w.KINDS))
    for i, case in enumerate(first):
        lo, hi = w.TIERS[i % 3 == 2]
        assert lo <= wl._estimate_ms(case) <= hi, case
    reports = [op() for op in w.ops(w.prepare(first[:4]))]
    assert w.check(first[:4], reports) == []


# -- root_render ------------------------------------------------------------------


def _root_output(ms):
    root = FR.gradedroot.GradedRoot.from_delta_sequence(
        FR.deltaseq.from_seifert(FR.seifert.make_tuple(ms)))
    return root.vertices(), root.edges(), {f: root.render(f) for f in wl.RootRender.FORMATS}


def test_root_checker_accepts_a_real_root():
    assert wl.check_root((2, 3, 5, 11), *_root_output((2, 3, 5, 11))) == []


def test_root_checker_rejects_one_vertex_too_many():
    vertices, edges, renders = _root_output((2, 3, 5, 11))
    top = max(vertices, key=lambda v: v.grading)
    extra = dataclasses.replace(top, vertex_id=(top.vertex_id[0] + 1000, top.grading))
    assert wl.check_root((2, 3, 5, 11), vertices + [extra], edges, renders)


def test_root_checker_rejects_renders_that_drop_an_edge():
    vertices, edges, renders = _root_output((2, 3, 5, 11))
    child, parent = edges[0]
    arrow = f'  "{wl._vname(child)}" -> "{wl._vname(parent)}";\n'
    renders = dict(renders, dot=renders["dot"].replace(arrow, ""))
    errors = wl.check_root((2, 3, 5, 11), vertices, edges, renders)
    assert errors == ["dot: edges differ from the root's"]
    svg = re.sub(r"<line [^>]*/>\n", "", renders["svg"], count=1)
    errors = wl.check_root((2, 3, 5, 11), vertices, edges, dict(renders, svg=svg))
    assert any(e.startswith("svg") for e in errors)


def test_root_inputs_are_eight_four_fiber_tuples_then_the_five_fiber_one():
    tuples = wl.RootRender(FR).build(3)
    assert tuples[-1] == (2, 3, 5, 7, 11)
    assert len(tuples) == 9 and all(len(ms) == 4 for ms in tuples[:-1])


# -- rank_large -------------------------------------------------------------------


def test_rank_checker_rejects_a_wrong_family_rank():
    case = {"tuple": (2, 3, 1000003), "family_rank": 166667}
    good = {"tuple": [2, 3, 1000003], "rank_red": 166667, "rank_hat": 333335,
            "n_cutoff": 999997}
    w = wl.RankLarge(FR)
    assert w.check([case], [json.dumps(good)]) == []
    bad = dict(good, rank_red=166666)
    assert w.check([case], [json.dumps(bad)])


def test_rank_checker_rejects_a_wrong_stored_field():
    entry = json.loads((wl.DATA / "rank_large.json").read_text())[0]
    case = {"tuple": tuple(entry["tuple"]), "expect": entry}
    w = wl.RankLarge(FR)
    assert w.check([case], [json.dumps(entry)]) == []
    assert w.check([case], [json.dumps(dict(entry, kappa=entry["kappa"] + 1))])


# -- reference --------------------------------------------------------------------


def test_reference_families_and_chunking(monkeypatch):
    for k in (1, 10, 1000):
        assert ref.walk((2, 3, 6 * k + 5))["rank_red"] == k
        assert ref.walk((2, 3, 6 * k + 7))["rank_red"] == k + 1
    whole = ref.walk((2, 3, 5, 7, 11))
    monkeypatch.setattr(ref, "CHUNK", 7)
    assert ref.walk((2, 3, 5, 7, 11)) == whole
    assert ref.walk((2, 3, 5)) == {"n_cutoff": -1, "kappa": 0, "min_tau": 0, "c": 0,
                                   "rank_red": 0, "rank_hat": 1}


def test_reference_sublevel_runs_of_a_small_walk():
    # tau = 0 1 0 1 0: three runs at grading 0, one from grading 1 up
    assert ref.sublevel_runs([0, 1, 0, 1, 0]) == {0: 3, 1: 1}
    assert ref.sublevel_runs([0, 2, -1, 1, 0]) == {-1: 1, 0: 3, 1: 2, 2: 1}


def test_stored_references_match_a_recomputation():
    assert ref.main([]) == 0


# -- tracer -----------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_it():
    originals = (FR.verify.from_seifert, FR.morphism.from_seifert,
                 FR.deltaseq.from_seifert, FR.deltaseq.DeltaSequence.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert FR.verify.from_seifert is FR.morphism.from_seifert
        assert FR.verify.from_seifert is not originals[0]
        report = FR.verify.verify_pinch((2, 3), 5, 7)
    finally:
        tracer.uninstall()
    assert (FR.verify.from_seifert, FR.morphism.from_seifert,
            FR.deltaseq.from_seifert, FR.deltaseq.DeltaSequence.__init__) == originals
    assert report.verdict == "holds"
    times = tracer.self_times()
    assert all(v >= 0 for v in times.values())
    wall = max(tracer.ends) - min(tracer.starts)
    layers = sum(v for k, v in times.items() if k.endswith(".self_s"))
    assert layers == pytest.approx(wall, rel=1e-6)
    # verify_pinch builds each of its two delta sequences twice
    assert tracer.counts["deltaseq.sequences_built"] >= 4
    assert tracer.counts["verify.checks"] == len(report.checks)


# -- the command ------------------------------------------------------------------


def test_runner_checks_each_round_and_keeps_only_its_errors():
    class Fake(wl.Workload):
        def ops(self, inputs):
            return [lambda: 1, lambda: 1 / 0]

        def check(self, cases, outputs):
            return [f"saw {outputs}"]

    runner = run.Runner(Fake(FR), None, None, [])
    runner.round()
    runner.round()
    assert runner.errors == ["saw [1, None]"] * 2
    assert (runner.attempted, runner.failed) == (4, 2)
    assert runner.first_failure.startswith("ZeroDivisionError")
    assert not hasattr(runner, "outputs")


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rank_large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
