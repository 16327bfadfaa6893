"""Command-line front end.

Subcommands:
    rank    P1 P2 ...            rank invariants of one tuple (--stats:
                                 the walk's plan, seifert.walk_counts, as
                                 JSON on stderr)
    root    P1 P2 ... | --tau    render the graded root (ascii/dot/svg)
    botany  N | --table NMAX     tuples of a given reduced rank (--stats:
                                 the finished scan's counts as JSON on stderr)
    verify  branched|pinch|monotone|degree ...   inequality verifiers; a
                                 token that is not an integer is refused
                                 with the verifier, the option or tuple
                                 and the token named
    scan    BOUND                hat-rank monotonicity scan

Exit status: 0 on success, 1 when a verifier reports a failing verdict,
2 on invalid input or usage, 141 (128 + SIGPIPE) with nothing on stderr
when the reader of stdout has gone, as in `floerrank scan 25 | head -c 10`.
"""

import argparse
import functools
import json
import os
import sys

from . import __version__, botany, seifert, verify
from .deltaseq import from_seifert
from .errors import DegenerateTupleError
from .gradedroot import GradedRoot

USAGE_ERROR = 2
VERDICT_ERROR = 1
BROKEN_PIPE = 141


def _integers(tokens, what: str) -> list:
    """The tokens as ints; a token int() refuses is named, with what it was."""
    out = []
    for token in tokens:
        try:
            out.append(int(token))
        except ValueError:
            raise ValueError(f"{what} must be an integer, not {token!r}") from None
    return out


def _split_on_dashes(tokens):
    if "--" in tokens:
        i = tokens.index("--")
        return tokens[:i], tokens[i + 1:]
    return tokens, []


def cmd_rank(args) -> int:
    if args.json and args.csv:
        raise ValueError("rank: give --json or --csv, not both")
    t = seifert.make_tuple(args.multiplicities)
    stats = seifert.walk_statistics(t)
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
    if args.stats:
        print(json.dumps(seifert.walk_counts(t)), file=sys.stderr)
    return 0


def cmd_root(args) -> int:
    if args.tau is not None and args.multiplicities:
        raise ValueError(f"root: give the tuple {' '.join(map(str, args.multiplicities))} "
                         f"or --tau {' '.join(map(str, args.tau))}, not both")
    if args.tau is not None:
        root = GradedRoot.from_tau(args.tau)
    else:
        t = seifert.make_tuple(args.multiplicities)
        if t.is_degenerate:
            raise DegenerateTupleError(f"{t} has a trivial root; pass --tau instead")
        root = GradedRoot.from_delta_sequence(from_seifert(t))
    sys.stdout.write(root.render(args.format))
    return 0


def cmd_botany(args) -> int:
    if args.table is not None and args.n is not None:
        raise ValueError(f"botany: give the rank {args.n} or --table {args.table}, not both")
    if args.table is None and args.n is None:
        raise ValueError("botany: give a rank or --table NMAX")
    rows, counts = botany.scan(args.n if args.table is None else args.table)
    if args.table is None:
        rows = {args.n: rows[args.n]}
    if args.json:
        sys.stdout.write(botany.table_json(rows))
    else:
        sys.stdout.write(botany.table_csv(rows))
    if args.stats:
        print(botany.stats_json(counts), file=sys.stderr)
    return 0


def _extract_verify_options(which, tokens):
    """Pull --n and --move out of the raw remainder; refuse any other option."""
    n, moves, rest = None, [], []
    tokens = iter(tokens)
    for tok in tokens:
        option, eq, value = tok.partition("=")
        if option not in ("--n", "--move"):
            if tok.startswith("--") and tok != "--":
                raise ValueError(f"verify {which}: unknown option {option}")
            rest.append(tok)
            continue
        if not eq and (value := next(tokens, None)) is None:
            raise ValueError(f"verify: {option} needs a value")
        if option == "--n":
            n, = _integers([value], f"verify {which}: --n")
        else:
            moves.append(value)
    return n, moves, rest


def cmd_verify(args) -> int:
    n, moves, tokens = _extract_verify_options(args.which, args.args)
    for option, given, taker in (("--n", n is not None, "branched"), ("--move", moves, "degree")):
        if given and args.which != taker:
            raise ValueError(f"verify {args.which}: {option} applies only to verify {taker}")
    head, tail = _split_on_dashes(tokens)
    if tail and args.which in ("branched", "degree"):
        raise ValueError(f"verify {args.which}: takes one tuple, not a second after --")
    head, tail = (_integers(part, f"verify {args.which}: a tuple entry") for part in (head, tail))
    if args.which == "branched":
        report = verify.verify_branched(seifert.make_tuple(head), 1 if n is None else n)
    elif args.which == "pinch":
        if len(tail) != 2:
            raise ValueError("verify pinch: usage P1 P2 ... -- Q R")
        report = verify.verify_pinch(head, *tail)
    elif args.which == "monotone":
        if not tail:
            raise ValueError("verify monotone: usage P1 ... -- Q1 ...")
        report = verify.verify_monotone(seifert.make_tuple(head), seifert.make_tuple(tail))
    else:   # degree; the parser admits no other verifier
        report = verify.verify_degree_map(seifert.make_tuple(head),
                                          [_parse_move(text) for text in moves])
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.verdict == "holds" else VERDICT_ERROR


def _parse_move(text: str) -> verify.DegreeMove:
    kind, _, rest = text.partition(":")
    params = _integers([x for x in rest.split(",") if x],
                       f"verify degree: an entry of --move {text}")
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
        status = handler(args)
        sys.stdout.flush()      # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the rest of stdout goes nowhere, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
