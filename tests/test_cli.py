import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from floerrank import botany, cli, deltaseq, seifert

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rank_plain(capsys):
    code, out, _ = run(capsys, "rank", "2", "3", "7")
    assert code == 0
    assert "rank_red   1" in out
    assert "rank_hat   3" in out


def test_rank_json(capsys):
    code, out, _ = run(capsys, "rank", "2", "3", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rank_red"] == 0 and data["rank_hat"] == 1


def test_rank_csv(capsys):
    code, out, _ = run(capsys, "rank", "2", "3", "5", "7", "--csv")
    assert code == 0
    assert out.strip().split(",")[0] == "13"


def test_rank_large_cutoff_bounded_memory(capsys):
    # N = 44,080,457: a dense walk over [0, N] would allocate about 1.1 GB
    argv = ["rank"] + [str(p) for p in (2, 3, 5, 7, 11, 13, 17, 19)] + ["--json"]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (data["kappa"], data["min_tau"], data["c"]) == (27286894, -25040582, 1663009)
    assert (data["rank_red"], data["rank_hat"]) == (2246312, 3326019)
    assert data["n_cutoff"] == 44080457
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_rank_invalid_tuple(capsys):
    code, _, err = run(capsys, "rank", "2", "4", "6")
    assert code == 2
    assert "coprime" in err


def test_root_tau_matches_golden(capsys):
    code, out, _ = run(capsys, "root", "--tau", "-2", "-1", "-2", "0", "-2")
    assert code == 0
    assert out == (DATA / "figure_root_ascii.txt").read_text()


def test_root_dot_golden(capsys):
    code, out, _ = run(capsys, "root", "2", "3", "7", "--format", "dot")
    assert code == 0
    assert out == (DATA / "root_2_3_7.dot").read_text()


def test_root_svg(capsys):
    import xml.etree.ElementTree as ET
    code, out, _ = run(capsys, "root", "2", "3", "13", "--format", "svg")
    assert code == 0
    assert ET.fromstring(out).tag.endswith("svg")


def test_root_refuses_huge_explicit_tree(capsys):
    # 2 * 10^8 + 1 vertices: refused from the extrema before anything is built
    started = time.monotonic()
    code, out, err = run(capsys, "root", "--tau", "0", "100000000", "0")
    assert time.monotonic() - started < 5
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: graded root has 200000001 vertices")


def test_root_bad_input(capsys):
    code, _, err = run(capsys, "root", "2", "3", "5")
    assert code == 2


def test_botany_single(capsys):
    code, out, _ = run(capsys, "botany", "1")
    assert code == 0
    assert out == "1,2,3,7\n1,2,3,11\n"


def test_botany_zero_json(capsys):
    code, out, _ = run(capsys, "botany", "0", "--json")
    assert code == 0
    assert json.loads(out) == [{"n": 0, "tuples": [[2, 3, 5]], "s3": True}]


def test_botany_deterministic(capsys):
    _, first, _ = run(capsys, "botany", "2")
    _, second, _ = run(capsys, "botany", "2")
    assert first == second


def test_parser_reused_across_commands(capsys):
    # main builds its parser once per process; a reused parser keeps no state
    # from one command to the next
    first = run(capsys, "botany", "--table", "6")
    code, out, _ = run(capsys, "rank", "2", "3", "7", "--json")
    assert code == 0 and json.loads(out)["rank_red"] == 1
    assert run(capsys, "botany", "--table", "6") == first
    assert first[0] == 0 and first[1].startswith("0,S3\n")
    assert cli.build_parser() is cli.build_parser()


def test_botany_above_twelve_within_seconds(capsys):
    for argv, lines in ((["botany", "20"], 17), (["botany", "--table", "30"], 373)):
        botany.rank_red_of.cache_clear()
        started = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - started < 5, argv
        assert code == 0 and err == "", argv
        assert len(out.splitlines()) == lines, argv


def test_botany_stats_leaves_stdout_unchanged(capsys):
    for argv in (["--table", "6"], ["5"], ["--table", "3", "--json"]):
        plain = run(capsys, "botany", *argv)
        code, out, err = run(capsys, "botany", *argv, "--stats")
        assert plain == (0, out, "") and code == 0, argv
        assert len(err.splitlines()) == 1, argv
        stats = json.loads(err)
        assert stats["rank_evals"] > 0 and set(stats["fibers"]) >= {"3"}, argv


def test_rank_stats_leaves_stdout_unchanged(capsys):
    # (fibers tabulated, fibers divided) of each walk
    cases = {("2", "3", "7"): (0, 3), ("2", "3", "5", "344827", "--csv"): (3, 1),
             ("2", "3", "5", "7", "11", "13", "17", "--json"): (7, 0),
             ("2", "3", "5"): (0, 0)}
    for argv, split in cases.items():
        plain = run(capsys, "rank", *argv)
        code, out, err = run(capsys, "rank", *argv, "--stats")
        assert plain == (0, out, "") and code == 0, argv
        assert len(err.splitlines()) == 1, argv
        stats = json.loads(err)
        assert list(stats) == ["delta_entries", "chunks", "fibers_tabulated",
                               "fibers_divided", "table_entries"], argv
        assert (stats["fibers_tabulated"], stats["fibers_divided"]) == split, argv
        t = seifert.make_tuple([int(a) for a in argv if a.isdigit()])
        half = (seifert.n_cutoff(t) + 1) // 2 if split != (0, 0) else 0
        assert stats["delta_entries"] == half, argv
        assert stats["chunks"] == -(-half // seifert._CHUNK), argv
        assert (stats["table_entries"] > 0) == (split[0] > 0), argv


def test_dense_sequence_refused_under_memory_cap():
    # N = 44,080,457 and 35,431,817: the sequences would need gigabytes, so
    # both commands refuse before allocating, even under a 1.5 GB cap
    cap = 1500 * 2**20
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    for argv in (["root", "2", "3", "5", "7", "11", "13", "17", "19"],
                 ["verify", "branched", "2", "3", "5", "7", "11", "13", "17", "--n", "19"]):
        proc = subprocess.run(
            [sys.executable, "-m", "floerrank.cli", *argv], env=env, capture_output=True,
            text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == 2 and proc.stdout == "", argv
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: delta sequence of ("), proc.stderr


def test_oversize_verifier_input_refused_before_any_work(capsys, monkeypatch):
    # the cover (2,3,5,7,11,13,323) spans N = 35,431,817: the witness builds
    # the cover's sequence first and refuses it before any rank walk and
    # before the source sequence (N = 1,836,383) is built
    calls = {"walk_statistics": 0, "from_seifert": 0}
    package = [mod for name, mod in sys.modules.items()
               if name == "floerrank" or name.startswith("floerrank.")]
    for name, home in (("walk_statistics", seifert), ("from_seifert", deltaseq)):
        original = getattr(home, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # every module binding of the function in the package
        for module in package:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    code, out, err = run(capsys, "verify", "branched", "2", "3", "5", "7", "11", "13", "17",
                         "--n", "19")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: delta sequence of ("), err
    assert calls == {"walk_statistics": 0, "from_seifert": 1}


def test_verify_pinch_cli(capsys):
    code, out, _ = run(capsys, "verify", "pinch", "2", "3", "--", "5", "7")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "holds"
    assert data["ranks"]["pinched"]["red"] == 5
    assert data["ranks"]["unpinched"]["red"] == 13


def test_verify_branched_cli(capsys):
    code, out, _ = run(capsys, "verify", "branched", "2", "3", "7", "--n", "5")
    assert code == 0
    assert json.loads(out)["verdict"] == "holds"


def test_verify_monotone_cli(capsys):
    code, out, _ = run(capsys, "verify", "monotone", "2", "3", "7", "--", "2", "3", "13")
    assert code == 0
    assert json.loads(out)["verdict"] == "holds"


def test_verify_degree_cli(capsys):
    code, out, _ = run(capsys, "verify", "degree", "2", "3", "5", "7",
                       "--move", "pinch:5,7")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "holds" and data["ranks"]["degree"] == 1


GOLDEN = json.loads((DATA / "verify_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"][1:]) for c in GOLDEN])
def test_verify_output_matches_golden(capsys, case):
    # every verifier and degree-map shape, the empty chain and degenerate
    # ends among them: stdout and exit code byte for byte
    code, out, err = run(capsys, *case["argv"])
    assert (code, out, err) == (case["exit"], case["stdout"], "")


@pytest.mark.parametrize("argv", [("2", "3", "7", "--n", "0"), ("2", "3", "7", "--n", "-2"),
                                  ("2", "3", "5", "--n", "0")])
def test_verify_branched_refuses_degree_below_one(capsys, argv):
    code, out, err = run(capsys, "verify", "branched", *argv)
    assert code == 2 and out == ""
    assert err == f"error: covering degree must be >= 1, got {argv[-1]}\n"


def test_verify_bad_usage(capsys):
    code, _, err = run(capsys, "verify", "pinch", "2", "3")
    assert code == 2


@pytest.mark.parametrize("argv", [("verify", "branched", "2", "3", "7", "--n"),
                                  ("verify", "degree", "2", "3", "7", "--move")])
def test_verify_option_without_value(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == f"error: verify: {argv[-1]} needs a value"


@pytest.mark.parametrize("argv, option", [
    (("pinch", "2", "3", "--", "5", "7", "--n", "3"), "--n"),
    (("monotone", "2", "3", "7", "--", "2", "3", "11", "--move", "pinch:2,3"), "--move"),
    (("branched", "2", "3", "7", "--move", "pinch:2,3", "--n", "5"), "--move"),
    (("degree", "2", "3", "7", "--n", "9"), "--n"),
    (("degree", "2", "3", "7", "--n=9", "--move", "pinch:2,3"), "--n"),
])
def test_verify_refuses_option_it_does_not_take(capsys, argv, option):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: verify {argv[0]}: {option} applies only to verify "), err


@pytest.mark.parametrize("argv", [("branched", "2", "3", "7", "--", "5", "11"),
                                  ("degree", "2", "3", "7", "--", "9")])
def test_verify_refuses_second_tuple_it_does_not_take(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"error: verify {argv[0]}: takes one tuple, not a second after --\n"


def test_scan_cli(capsys):
    code, out, _ = run(capsys, "scan", "9")
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_scan_refuses_a_huge_bound_at_once():
    # scan 100000 has about 1.7e14 candidate tuples; it is refused before any
    # is ranked
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "floerrank.cli", "scan", "100000"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert time.monotonic() - started < 1.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: a scan to bound 100000 at length 3 has more "
                                  "than the "), proc.stderr


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "ranks.jsonl"
    code, _, _ = run(capsys, "botany", "1", "--cache", str(cache))
    assert code == 0
    lines = [json.loads(line) for line in cache.read_text().splitlines()]
    assert [e["tuple"] for e in lines] == [[2, 3, 7], [2, 3, 11]]
    code, out, _ = run(capsys, "botany", "--check-cache", str(cache))
    assert code == 0
    assert "0 stale" in out
    # append-only: a second write doubles the lines, check still passes
    code, _, _ = run(capsys, "botany", "1", "--cache", str(cache))
    assert len(cache.read_text().splitlines()) == 4
    code, out, _ = run(capsys, "botany", "--check-cache", str(cache))
    assert code == 0


def test_cache_detects_stale_and_malformed(tmp_path, capsys):
    cache = tmp_path / "ranks.jsonl"
    cache.write_text(json.dumps({"tuple": [2, 3, 7], "rank_red": 99,
                                 "rank_hat": 3, "n_cutoff": 1}) + "\n")
    code, out, err = run(capsys, "botany", "--check-cache", str(cache))
    assert code == 1 and "stale" in err
    cache.write_text("{not json\n")
    code, _, err = run(capsys, "botany", "--check-cache", str(cache))
    assert code == 2
    # an invalid tuple is malformed input, not a stale entry
    for bad in ([2, 4, 7], [7, 3, 2], [1, 3, 7]):
        cache.write_text(json.dumps({"tuple": bad, "rank_red": 1, "rank_hat": 3,
                                     "n_cutoff": 1}) + "\n")
        code, out, err = run(capsys, "botany", "--check-cache", str(cache))
        assert code == 2 and out == "", bad
        assert err.startswith("cache unreadable:") and len(err.splitlines()) == 1, bad


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
