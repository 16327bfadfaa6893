import json
import os
import random
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


def checkout_env() -> dict:
    """The environment of a subprocess that imports this checkout's floerrank."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    return env


def run_capped(*args, cap=1500 * 2**20, **kwargs):
    """python ARGS in a subprocess that imports this checkout's floerrank,
    under an address-space cap, so that a memory blow-up fails the test
    instead of exhausting the machine."""
    return subprocess.run(
        [sys.executable, *args], env=checkout_env(), capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)), **kwargs)


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


def test_rank_json_on_a_brieskorn_family_member(capsys):
    # (2,3,6k+5) has rank_red k: at k = 10^8 the walk reads one block of
    # the largest fiber, six entries, not the half's 3*10^8
    code, out, _ = run(capsys, "rank", "2", "3", "600000005", "--json")
    data = json.loads(out)
    assert code == 0
    assert (data["rank_red"], data["rank_hat"], data["n_cutoff"]) == \
        (100_000_000, 200_000_001, 599_999_999)


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


def test_root_refuses_a_tuple_with_tau(capsys):
    code, out, err = run(capsys, "root", "2", "3", "5", "7", "--tau", "1", "2")
    assert code == 2 and out == ""
    assert err == "error: root: give the tuple 2 3 5 7 or --tau 1 2, not both\n"


def test_rank_refuses_json_with_csv(capsys):
    # either order: one format, not the first one given
    for argv in (("--json", "--csv"), ("--csv", "--json")):
        code, out, err = run(capsys, "rank", "2", "3", "7", *argv)
        assert (code, out, err) == (2, "", "error: rank: give --json or --csv, not both\n")


def test_botany_refuses_a_negative_rank(capsys):
    code, out, err = run(capsys, "botany", "-5")
    assert code == 2 and out == ""
    assert err == "error: n must be >= 0, got -5\n"
    with pytest.raises(ValueError):
        botany.solve(-1)


def test_botany_refuses_a_rank_with_table(capsys):
    code, out, err = run(capsys, "botany", "5", "--table", "1")
    assert code == 2 and out == ""
    assert err == "error: botany: give the rank 5 or --table 1, not both\n"


def test_botany_refuses_neither_rank_nor_table(capsys):
    assert run(capsys, "botany") == (2, "", "error: botany: give a rank or --table NMAX\n")


def test_each_tuple_walked_once(capsys, monkeypatch):
    # the scan's own memo is the only one: every tuple it ranks is walked
    # once, and rank_evals counts those walks
    walked = []
    walk_statistics = seifert.walk_statistics

    def counting(t):
        walked.append(t.multiplicities)
        return walk_statistics(t)

    monkeypatch.setattr(seifert, "walk_statistics", counting)
    _, counts = botany.scan(12)
    assert len(walked) == len(set(walked)) == 132
    assert json.loads(botany.stats_json(counts))["rank_evals"] == 132
    walked.clear()
    code, _, err = run(capsys, "botany", "--table", "30", "--stats")
    assert code == 0
    assert len(walked) == len(set(walked)) == json.loads(err)["rank_evals"] == 436


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
    # (fibers tabulated, fibers divided) of each walk; (2,3,5,344827) is
    # walked in 15 blocks of its largest fiber, evaluating one period of 30
    # entries in each
    cases = {("2", "3", "7"): (0, 3), ("2", "3", "5", "344827", "--csv"): (0, 4),
             ("2", "3", "5", "7", "11", "13", "17", "--json"): (7, 0),
             ("2", "3", "5"): (0, 0)}
    for argv, split in cases.items():
        plain = run(capsys, "rank", *argv)
        code, out, err = run(capsys, "rank", *argv, "--stats")
        assert plain == (0, out, "") and code == 0, argv
        assert len(err.splitlines()) == 1, argv
        stats = json.loads(err)
        blocks = {"blocks": 15, "period": 30} if "344827" in argv else {}
        assert list(stats) == ["delta_entries", "chunks", "fibers_tabulated",
                               "fibers_divided", "table_entries", *blocks], argv
        assert {key: stats[key] for key in blocks} == blocks, argv
        assert (stats["fibers_tabulated"], stats["fibers_divided"]) == split, argv
        t = seifert.make_tuple([int(a) for a in argv if a.isdigit()])
        half = (seifert.n_cutoff(t) + 1) // 2 if split != (0, 0) else 0
        if blocks:
            assert (stats["delta_entries"], stats["chunks"]) == (15 * 30, 15), argv
        else:
            assert stats["delta_entries"] == half, argv
            assert stats["chunks"] == -(-half // seifert._CHUNK), argv
        assert (stats["table_entries"] > 0) == (split[0] > 0), argv


def test_stats_lines_match_golden(capsys):
    # the stderr line of each --stats command, byte for byte: the walk's
    # plan for four tuples, and the scan's counts for a table and a row
    golden = json.loads((DATA / "stats_golden.json").read_text())
    assert len(golden) == 6
    for command, line in golden.items():
        code, _, err = run(capsys, *command.split())
        assert (code, err) == (0, line + "\n"), command


def test_dense_sequence_refused_under_memory_cap():
    # N = 44,080,457: the sequence would need gigabytes, so the command
    # refuses before allocating, even under a 1.5 GB cap
    proc = run_capped("-m", "floerrank.cli", "root", "2", "3", "5", "7", "11", "13", "17", "19")
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: delta sequence of ("), proc.stderr


def test_large_covers_verified_under_memory_cap():
    # covers past the sequences' MAX_CUTOFF answer in flat memory: the cover
    # (2,3,5,7,11,13,323) spans N = 35,431,817, (2,3,700000049) is reached
    # by 10^8 maps of one source point each, and the degree map certifies
    # (2,...,19) as the 19-fold cover of (2,...,17) along a regular fiber
    for argv, ranks in (
            (["branched", "2", "3", "5", "7", "11", "13", "17", "--n", "19"],
             {"source": {"red": 97013, "hat": 162241}, "cover": {"red": 1844672, "hat": 3251287}}),
            (["branched", "2", "3", "7", "--n", "100000007"],
             {"source": {"red": 1, "hat": 3}, "cover": {"red": 116666674, "hat": 233333349}}),
            (["degree", "2", "3", "5", "7", "11", "13", "17", "19", "--move", "regular:19"],
             {"start": {"red": 2246312, "hat": 3326019}, "end": {"red": 97013, "hat": 162241},
              "degree": 19})):
        proc = run_capped("-m", "floerrank.cli", "verify", *argv)
        assert proc.returncode == 0 and proc.stderr == "", (argv, proc.stderr)
        report = json.loads(proc.stdout)
        assert report["verdict"] == "holds", argv
        assert report["ranks"] == ranks, argv


def test_wide_ascii_drawing_refused_under_memory_cap():
    # both trees are under MAX_VERTICES (500,366 vertices for the first), but
    # their drawings would take 121.7 GB and 4.5 GB: refused before the
    # output buffer is allocated, even under a 1.5 GB cap
    for argv, size in ((["root", "25", "29", "34", "39"], 121732108131),
                       (["root", "13", "17", "25", "36"], 4463407785)):
        proc = run_capped("-m", "floerrank.cli", *argv)
        assert proc.returncode == 2 and proc.stdout == "", argv
        assert proc.stderr == (f"error: ascii drawing of the graded root has {size} bytes, "
                               f"more than the {64 * 2**20} a drawing may have\n"), argv


def test_oversize_verifier_input_refused_before_any_work(capsys, monkeypatch):
    # the cover (2,3,5,7,11,13,17,19000057) has delta past the int64 range on
    # [0, N]: refused at the cover's guard, before any rank walk and with no
    # sequence built
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
                         "19", "--n", "1000003")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: value "), err
    assert err.endswith(" exceeds signed 64-bit range\n"), err
    assert calls == {"walk_statistics": 0, "from_seifert": 0}


def test_verify_pinch_cli(capsys):
    code, out, _ = run(capsys, "verify", "pinch", "2", "3", "--", "5", "7")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "holds"
    assert data["ranks"]["pinched"]["red"] == 5
    assert data["ranks"]["unpinched"]["red"] == 13


def test_verify_pinch_cli_degenerate_source(capsys):
    # Sigma(6,7) -> Sigma(2,3,7): the pinched source is degenerate, so the
    # inequality holds trivially, as for the other verifiers; bad factors
    # are still refused
    code, out, _ = run(capsys, "verify", "pinch", "7", "--", "2", "3")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "holds" and data["ranks"] == {}
    assert data["checks"] == [{"name": "degenerate source: inequality is trivial",
                               "passed": True}]
    for factors in (["2", "5"], ["1", "7"]):
        code, out, err = run(capsys, "verify", "pinch", "2", "3", "--", *factors)
        assert code == 2 and out == "" and err.startswith("error: "), factors
        assert len(err.splitlines()) == 1, factors


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
    for argv, message in ((("pinch", "2", "3"), "verify pinch: usage P1 P2 ... -- Q R"),
                          (("pinch", "2", "3", "--", "5"), "verify pinch: usage P1 P2 ... -- Q R"),
                          (("monotone", "2", "3", "7"), "verify monotone: usage P1 ... -- Q1 ...")):
        assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n"), argv


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


@pytest.mark.parametrize("option", ["--stats", "--format", "--table", "--json"])
def test_verify_refuses_an_unknown_option(capsys, option):
    code, out, err = run(capsys, "verify", "pinch", "2", "3", option, "--", "5", "7")
    assert (code, out, err) == (2, "", f"error: verify pinch: unknown option {option}\n")


@pytest.mark.parametrize("argv", [("branched", "2", "3", "7", "--", "5", "11"),
                                  ("degree", "2", "3", "7", "--", "9")])
def test_verify_refuses_second_tuple_it_does_not_take(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"error: verify {argv[0]}: takes one tuple, not a second after --\n"


@pytest.mark.parametrize("argv, message", [
    (("branched", "2", "3", "7", "--n="), "verify branched: --n must be an integer, not ''"),
    (("pinch", "2", "x", "--", "5", "7"),
     "verify pinch: a tuple entry must be an integer, not 'x'"),
    (("monotone", "2", "3", "7", "--", "2", "3", "y"),
     "verify monotone: a tuple entry must be an integer, not 'y'"),
    (("degree", "2", "3", "7", "--move", "regular:x"),
     "verify degree: an entry of --move regular:x must be an integer, not 'x'"),
], ids=["branched", "pinch", "monotone", "degree"])
def test_verify_names_a_token_that_is_not_an_integer(capsys, argv, message):
    # the verifier, the option or the tuple, and the token, on one line
    assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n")


def test_scan_cli(capsys):
    code, out, _ = run(capsys, "scan", "9")
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_scan_refuses_a_huge_bound_at_once():
    # scan 100000 has about 1.7e14 candidate tuples; it is refused before any
    # is ranked
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "floerrank.cli", "scan", "100000"],
                          env=checkout_env(), capture_output=True, text=True, timeout=60)
    assert time.monotonic() - started < 1.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: a scan to bound 100000 at length 3 has more "
                                  "than the "), proc.stderr


def test_closed_pipe_exits_141_without_a_traceback():
    # the read end of stdout is closed before the scan writes: the status
    # tells a closed reader (141, 128 + SIGPIPE) from a failing verdict (1)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "floerrank.cli", "scan", "25"],
                              env=checkout_env(), stdout=write, stderr=subprocess.PIPE,
                              timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_scan_refuses_a_negative_length(capsys):
    code, out, err = run(capsys, "scan", "9", "--length", "-1")
    assert code == 2 and out == ""
    assert err == "error: --length -1: a scan length must be non-negative\n"


# runs each argv it reads from stdin through cli.main in this one process,
# and writes [exit status, stdout length, stderr, escaped exception] for each
FUZZ_RUNNER = """
import contextlib, io, json, sys
from floerrank import cli

results = []
for argv in json.load(sys.stdin):
    out, err, escaped = io.StringIO(), io.StringIO(), None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:
            code, escaped = None, f"{type(exc).__name__}: {exc}"
    results.append([code, len(out.getvalue()), err.getvalue(), escaped])
json.dump(results, sys.stdout)
"""

FUZZ_JUNK = ["x", "-", "--", "1.5", "", "-0", "99999999999999999999", "--json", "--csv",
             "--stats", "--format", "bogus", "--tau", "--table", "--n", "--move", "--length",
             "--n=2", "--move=regular:5"]


def fuzz_argvs(rng: random.Random, count: int) -> list:
    """Command lines over the five subcommands: mostly well formed, with small
    entries so that each runs in milliseconds, then some tokens replaced,
    dropped or added."""
    def ints(lo, hi, pool=(-3, 0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 13)):
        k = rng.randint(lo, hi)
        if rng.random() < 0.6:      # distinct primes and 1s: a valid tuple
            return [str(p) for p in rng.sample((1, 2, 3, 5, 7, 11, 13), min(k, 7))]
        return [str(rng.choice(pool)) for _ in range(k)]

    def small(lo, hi):
        return str(rng.randint(lo, hi))

    argvs = []
    for _ in range(count):
        command = rng.choice(["rank", "root", "botany", "verify", "scan"])
        if command == "rank":
            argv = ["rank", *ints(0, 5), *rng.sample(["--json", "--csv", "--stats"], rng.randint(0, 2))]
        elif command == "root":
            argv = ["root", *ints(0, 5)]
            if rng.random() < 0.2:
                argv += ["--tau", *ints(0, 6, pool=range(-4, 5))]
            if rng.random() < 0.5:
                argv += ["--format", rng.choice(["ascii", "dot", "svg", "png"])]
        elif command == "botany":
            argv = ["botany", *rng.choice([[small(-3, 14)], ["--table", small(-2, 14)],
                                           [small(0, 3), "--table", small(0, 3)], []])]
            argv += rng.sample(["--json", "--stats"], rng.randint(0, 2))
        elif command == "verify":
            which = rng.choice(["branched", "pinch", "monotone", "degree", "hat"])
            argv = ["verify", which, *ints(1, 5)]
            if rng.random() < (0.9 if which in ("pinch", "monotone") else 0.1):
                argv += ["--", *(ints(2, 2) if which == "pinch" else ints(1, 5))]
            if rng.random() < (0.7 if which == "branched" else 0.1):
                argv += ["--n", small(-1, 5)]
            for _ in range(rng.choice([1, 2] if which == "degree" else [0] * 9 + [1])):
                argv += ["--move", rng.choice(["pinch:5,7", "pinch:2,3", "fiber:2,3", "fiber:3,9",
                                               "regular:5", "regular:1", "regular:x", "pinch:",
                                               "drop:2"])]
        else:
            argv = ["scan", small(-2, 14)]
            if rng.random() < 0.4:
                argv += ["--length", small(-1, 5)]
        for _ in range(rng.choice([0, 0, 0, 1, 2])):
            i = rng.randrange(len(argv) + 1)
            action = rng.choice(["replace", "drop", "insert"])
            if action == "insert" or i == len(argv):
                argv.insert(i, rng.choice(FUZZ_JUNK))
            elif action == "replace":
                argv[i] = rng.choice(FUZZ_JUNK)
            else:
                del argv[i]
        argvs.append(argv)
    return argvs


def test_cli_fuzz_exits_cleanly():
    # every command line gets an answer (0), a failing verdict (1) or one
    # error line (2; argparse's own usage message for what it rejects), with
    # no exception escaping main; the first five are inputs that once
    # escaped main or printed a bare message
    argvs = [["botany"], ["verify", "pinch", "2", "3", "--", "5"],
             ["verify", "monotone", "2", "3", "7"], ["root", "25", "29", "34", "39"],
             ["root", "13", "17", "25", "36"]] + fuzz_argvs(random.Random(20261019), 400)
    started = time.monotonic()
    proc = run_capped("-c", FUZZ_RUNNER, input=json.dumps(argvs))
    assert time.monotonic() - started < 10
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(argvs)
    for argv, (code, out_len, err, escaped) in zip(argvs, results):
        assert escaped is None, (argv, escaped)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, (argv, err)
        if code == 2 and err.startswith("usage: "):
            last = err.splitlines()[-1]
            assert last.startswith("floerrank") and ": error: " in last, (argv, err)
        elif code == 2:
            assert out_len == 0, argv
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert {code for code, *_ in results} == {0, 1, 2}


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
