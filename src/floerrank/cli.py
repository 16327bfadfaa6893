"""Command-line front end.

Subcommands:
    rank    P1 P2 ...            rank invariants of one tuple (--stats:
                                 walk counts as JSON on stderr)
    root    P1 P2 ... | --tau    render the graded root (ascii/dot/svg)
    botany  N | --table NMAX     tuples of a given reduced rank (--stats:
                                 scan counts as JSON on stderr)
    verify  branched|pinch|monotone|degree ...   inequality verifiers
    scan    BOUND                hat-rank monotonicity scan

Exit status: 0 on success, 1 when a verifier reports a failing verdict,
2 on invalid input or usage.
"""

import argparse
import functools
import json
import sys
from collections import Counter

from . import __version__, botany, seifert, verify
from .deltaseq import from_seifert
from .errors import DegenerateTupleError
from .gradedroot import GradedRoot

USAGE_ERROR = 2
VERDICT_ERROR = 1


def _tuple_from(args_list):
    return seifert.make_tuple([int(a) for a in args_list])


def _split_on_dashes(tokens):
    if "--" in tokens:
        i = tokens.index("--")
        return tokens[:i], tokens[i + 1:]
    return tokens, []


# the walk's counts rank --stats writes, in this order (see walk_statistics)
WALK_COUNTS = ("delta_entries", "chunks", "fibers_tabulated", "fibers_divided",
               "table_entries")


def cmd_rank(args) -> int:
    t = _tuple_from(args.multiplicities)
    counts = Counter() if args.stats else None
    stats = seifert.walk_statistics(t, counts)
    n_cut = seifert.n_cutoff(t) if t.fiber_count >= 1 else None
    record = {
        "tuple": list(t.multiplicities),
        "rank_red": stats.rank_red,
        "rank_hat": stats.rank_hat,
        "n_cutoff": n_cut,
        "kappa": stats.kappa,
        "min_tau": stats.min_tau,
        "c": stats.c,
    }
    if args.json:
        print(json.dumps(record))
    elif args.csv:
        print(",".join(str(record[k]) for k in
                       ("rank_red", "rank_hat", "n_cutoff", "kappa", "min_tau", "c")))
    else:
        print(f"tuple      {t}")
        for key in ("rank_red", "rank_hat", "n_cutoff", "kappa", "min_tau", "c"):
            print(f"{key:<10} {record[key]}")
    if counts is not None:
        print(json.dumps({key: counts[key] for key in WALK_COUNTS}), file=sys.stderr)
    return 0


def cmd_root(args) -> int:
    if args.tau is not None:
        root = GradedRoot.from_tau(args.tau)
    else:
        t = _tuple_from(args.multiplicities)
        if t.is_degenerate:
            raise DegenerateTupleError(f"{t} has a trivial root; pass --tau instead")
        root = GradedRoot.from_delta_sequence(from_seifert(t))
    sys.stdout.write(root.render(args.format))
    return 0


def cmd_botany(args) -> int:
    counts = Counter() if args.stats else None
    if args.table is not None:
        rows = botany.table(args.table, counts)
    else:
        if args.n is None:
            print("botany: give a rank or --table NMAX", file=sys.stderr)
            return USAGE_ERROR
        rows = {args.n: botany.solve(args.n, counts)}
    if args.cache:
        _write_cache(args.cache, rows)
    if args.json:
        sys.stdout.write(botany.table_json(rows))
    else:
        sys.stdout.write(botany.table_csv(rows))
    if counts is not None:
        print(botany.stats_json(counts), file=sys.stderr)
    return 0


def _write_cache(path: str, rows: dict):
    """Append one JSON line per tuple: append-only, last write wins."""
    with open(path, "a", encoding="utf-8") as fh:
        for n in sorted(rows):
            for t in rows[n].tuples:
                tup = seifert.SeifertTuple(t)
                entry = {
                    "tuple": list(t),
                    "rank_red": rows[n].n,
                    "rank_hat": seifert.rank_pair(tup)[1],
                    "n_cutoff": seifert.n_cutoff(tup),
                    "version": __version__,
                }
                fh.write(json.dumps(entry) + "\n")


def check_cache(path: str) -> int:
    """Recompute every cached entry; nonzero exit on any mismatch."""
    entries = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                tup = tuple(entry["tuple"])
                entries[tup] = (seifert.SeifertTuple(tup), entry)
    except (OSError, ValueError, OverflowError, KeyError, TypeError) as exc:
        # ValueError covers bad JSON and tuples that are not canonical
        print(f"cache unreadable: {exc}", file=sys.stderr)
        return USAGE_ERROR
    bad = 0
    for tup, (t, entry) in sorted(entries.items()):
        red, hat = seifert.rank_pair(t)
        ok = (entry.get("rank_red") == red and entry.get("rank_hat") == hat
              and entry.get("n_cutoff") == seifert.n_cutoff(t))
        if not ok:
            bad += 1
            print(f"stale cache entry for {tup}", file=sys.stderr)
    print(f"checked {len(entries)} cache entries, {bad} stale")
    return VERDICT_ERROR if bad else 0


def _extract_verify_options(tokens):
    """Pull --n and --move out of the raw remainder the parser handed us."""
    n, moves, rest = None, [], []
    tokens = iter(tokens)
    for tok in tokens:
        option, eq, value = tok.partition("=")
        if option not in ("--n", "--move"):
            rest.append(tok)
            continue
        if not eq and (value := next(tokens, None)) is None:
            raise ValueError(f"verify: {option} needs a value")
        if option == "--n":
            n = int(value)
        else:
            moves.append(value)
    return n, moves, rest


def cmd_verify(args) -> int:
    n, moves, tokens = _extract_verify_options(args.args)
    for option, given, taker in (("--n", n is not None, "branched"), ("--move", moves, "degree")):
        if given and args.which != taker:
            raise ValueError(f"verify {args.which}: {option} applies only to verify {taker}")
    head, tail = _split_on_dashes(tokens)
    if tail and args.which in ("branched", "degree"):
        raise ValueError(f"verify {args.which}: takes one tuple, not a second after --")
    if args.which == "branched":
        t = _tuple_from(head)
        report = verify.verify_branched(t, 1 if n is None else n)
    elif args.which == "pinch":
        if len(tail) != 2:
            print("verify pinch: usage P1 P2 ... -- Q R", file=sys.stderr)
            return USAGE_ERROR
        report = verify.verify_pinch([int(a) for a in head], int(tail[0]), int(tail[1]))
    elif args.which == "monotone":
        if not tail:
            print("verify monotone: usage P1 ... -- Q1 ...", file=sys.stderr)
            return USAGE_ERROR
        report = verify.verify_monotone(_tuple_from(head), _tuple_from(tail))
    else:   # degree; the parser admits no other verifier
        t = _tuple_from(head)
        report = verify.verify_degree_map(t, [_parse_move(text) for text in moves])
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.verdict == "holds" else VERDICT_ERROR


def _parse_move(text: str) -> verify.DegreeMove:
    kind, _, rest = text.partition(":")
    params = [int(x) for x in rest.split(",") if x]
    if kind == "pinch" and len(params) == 2:
        return verify.DegreeMove(kind="pinch", fibers=tuple(params))
    if kind == "fiber" and len(params) == 2:
        return verify.DegreeMove(kind="branched_fiber", n=params[0], fibers=(params[1],))
    if kind == "regular" and len(params) == 1:
        return verify.DegreeMove(kind="branched_regular", n=params[0])
    raise ValueError(
        f"bad move {text!r}; expected pinch:q,r or fiber:n,f or regular:n")


def cmd_scan(args) -> int:
    violations = verify.scan_hat_monotonicity(args.bound, length=args.length)
    print(json.dumps({"bound": args.bound, "length": args.length,
                      "violations": [list(map(list, v[:2])) + list(v[2:])
                                     for v in violations]}))
    return 0 if not violations else VERDICT_ERROR


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="floerrank",
        description="Rank invariants of Seifert fibered homology spheres")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="rank invariants of one tuple")
    p_rank.add_argument("multiplicities", nargs="+", type=int)
    p_rank.add_argument("--json", action="store_true")
    p_rank.add_argument("--csv", action="store_true")
    p_rank.add_argument("--stats", action="store_true",
                        help="write the walk's delta entries, chunks, tabulated "
                             "and divided fibers and table entries as one JSON "
                             "line to stderr")

    p_root = sub.add_parser("root", help="render the graded root")
    p_root.add_argument("multiplicities", nargs="*", type=int)
    p_root.add_argument("--tau", nargs="+", type=int,
                        help="build from an explicit tau sequence")
    p_root.add_argument("--format", choices=("ascii", "dot", "svg"), default="ascii")

    p_bot = sub.add_parser("botany", help="tuples of a given reduced rank")
    p_bot.add_argument("n", nargs="?", type=int)
    p_bot.add_argument("--table", type=int, metavar="NMAX")
    p_bot.add_argument("--cache", metavar="PATH")
    p_bot.add_argument("--check-cache", metavar="PATH", dest="check_cache")
    p_bot.add_argument("--json", action="store_true")
    p_bot.add_argument("--stats", action="store_true",
                       help="write the scan's rank evaluations, rows and cuts "
                            "as one JSON line to stderr")

    p_ver = sub.add_parser("verify", help="run an inequality verifier")
    p_ver.add_argument("which", choices=("branched", "pinch", "monotone", "degree"))
    p_ver.add_argument("args", nargs=argparse.REMAINDER,
                       help="tuple entries; options --n N (branched) and "
                            "--move pinch:q,r|fiber:n,f|regular:n (degree); "
                            "'--' separates the two tuples for pinch/monotone")

    p_scan = sub.add_parser("scan", help="hat-rank monotonicity scan")
    p_scan.add_argument("bound", type=int)
    p_scan.add_argument("--length", type=int, default=3)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up on each call: the cached parser binds no handler
    handler = {"rank": cmd_rank, "root": cmd_root, "botany": cmd_botany,
               "verify": cmd_verify, "scan": cmd_scan}[args.command]
    try:
        if args.command == "botany" and args.check_cache:
            return check_cache(args.check_cache)
        return handler(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
