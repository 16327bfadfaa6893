"""The four workloads: inputs drawn from a seed, operations, output checks.

A workload draws its cases from the seed once (`build`, the benchmark's own
work), turns them into the program's input objects (`prepare`, timed as
part of set-up), exposes one round of operations (`ops`, each a no-argument
callable returning the output to check) and checks a round's outputs
(`check`, a list of error strings; an output of None marks an operation
that failed and is not checked).  The checks never trust the program: ranks
come from reference.py, which rebuilds them from the definitions, or from
properties the method must have.

Operations look floerrank functions up through their modules at call time,
so a traced round goes through the tracer's wrappers.
"""

import contextlib
import io
import json
import random
import re
from collections import Counter
from itertools import combinations
from math import gcd, prod
from pathlib import Path

import reference as ref

DATA = Path(__file__).resolve().parent / "data"


class CliError(RuntimeError):
    """The command exited with a nonzero status: a failed operation."""


def run_cli(cli, argv) -> str:
    """cli.main(argv) with stdout captured; a nonzero exit status raises."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    if status != 0:
        raise CliError(f"floerrank {' '.join(argv)} exited with status {status}")
    return buf.getvalue()


class Workload:
    name = ""

    def __init__(self, fr):
        self.fr = fr      # namespace of floerrank modules

    def build(self, seed: int):
        raise NotImplementedError

    def prepare(self, cases):
        """The program's input objects for the cases."""
        return cases

    def ops(self, inputs) -> list:
        raise NotImplementedError

    def check(self, cases, outputs) -> list:
        raise NotImplementedError

    def extra_counts(self, outputs) -> dict:
        """Per-layer counts read off a round's outputs (traced runs only)."""
        return {}


# -- botany_table ---------------------------------------------------------------


def parse_table(text: str) -> list:
    """CSV rows `rank,S3` / `rank,p1,...` as (rank, tuple or "S3")."""
    rows = []
    for line in text.splitlines():
        fields = line.split(",")
        rank = int(fields[0])
        rows.append((rank, "S3" if fields[1:] == ["S3"] else tuple(int(f) for f in fields[1:])))
    return rows


class BotanyTable(Workload):
    """`floerrank botany --table N_MAX`: the paper's botany table.

    Rows 0..6 scan the 3,022 pairwise-coprime 3-fiber tuples with entries
    below 6*6+7; most of the time goes to the dense walk in `seifert`.  The
    input does not depend on the seed.
    """

    name = "botany_table"
    N_MAX = 6

    def build(self, seed):
        return ["botany", "--table", str(self.N_MAX)]

    def ops(self, argv):
        cli = self.fr.cli
        return [lambda: run_cli(cli, argv)]

    def check(self, argv, outputs):
        errors = []
        reference = [row for row in parse_table((DATA / "table12.csv").read_text())
                     if row[0] <= self.N_MAX]
        for text in filter(None, outputs):
            try:
                rows = parse_table(text)
            except (ValueError, IndexError):
                errors.append(f"unparseable table output {text[:80]!r}")
                continue
            if rows != reference:
                missing = sorted(set(reference) - set(rows), key=str)[:3]
                extra = sorted(set(rows) - set(reference), key=str)[:3]
                errors.append(f"table differs from the reference rows: "
                              f"missing {missing}, extra {extra}")
            present = set(rows)
            for k in range(self.N_MAX + 1):
                if (k, (2, 3, 6 * k + 5)) not in present:
                    errors.append(f"(2,3,{6 * k + 5}) missing from row {k}")
                if k + 1 <= self.N_MAX and (k + 1, (2, 3, 6 * k + 7)) not in present:
                    errors.append(f"(2,3,{6 * k + 7}) missing from row {k + 1}")
        return errors

    def extra_counts(self, outputs):
        counts = Counter()
        for text in filter(None, outputs):
            counts["cli.output_bytes"] += len(text.encode())
            counts["botany.row_tuples"] += sum(1 for rank, t in parse_table(text)
                                               if rank >= 1)
        return counts


# -- witness_suite ----------------------------------------------------------------


def _cutoff_slope(prefix):
    """A with N(prefix + (x,)) = x * A - prod(prefix)."""
    Pp = prod(prefix)
    return (len(prefix) - 1) * Pp - sum(Pp // q for q in prefix)


def _in_band(rng, prefix, band, mult=1, above=1):
    """Random x > above, coprime to prefix, with N(prefix + (mult x,)) in band."""
    A, Pp = _cutoff_slope(prefix), prod(prefix)
    if A <= 0:
        return None
    lo, hi = band
    first = max(above + 1, -(-(lo + Pp) // (mult * A)))
    last = (hi + Pp) // (mult * A)
    choices = [x for x in range(first, last + 1) if gcd(mult * x, Pp) == 1]
    return rng.choice(choices) if choices else None


def _coprime_prefix(rng, k, hi=23):
    while True:
        ms = sorted(rng.sample(range(2, hi + 1), k))
        if ref.coprime(ms):
            return ms


def _degenerate(ms) -> bool:
    return len(ms) < 3 or tuple(ms) == (2, 3, 5)


def _coprime_degree(rng, prefix):
    choices = [n for n in (2, 3, 4, 5, 7) if all(gcd(n, p) == 1 for p in prefix)]
    return rng.choice(choices) if choices else None


def _estimate_ms(case) -> float:
    """Expected time of a verifier call, from the positions of its sequences.

    Microseconds per delta-sequence position, fitted on this corpus when the
    benchmark was defined (2-core x86 host).  They only steer which tuples
    are drawn; a faster program leaves the corpus unchanged.
    """
    p = {label: ref.positions(ms) for label, ms in case["labels"].items()}
    kind = case["kind"]
    if kind == "branched":
        us = 0.9 * p["source"] + 2.9 * p["cover"] + 1.8 * case["args"][1] * p["source"]
    elif kind == "monotone":
        us = 7.7 * p["small"] + 2.3 * p["large"]
    elif kind == "pinch":
        us = 9.8 * p["pinched"] + 2.7 * p["unpinched"]
    elif case["args"][1][0][0] == "pinch":
        us = 4.1 * p["start"] + 11.2 * p["end"]
    else:
        us = 6.1 * p["start"] + 2.4 * p["end"]
    return us / 1000


class WitnessSuite(Workload):
    """Verifier calls for the three inequalities and the degree-map bound.

    96 calls a round, the four kinds in turn, with 2- and 3-entry prefixes
    (and, for the degree map, pinch and fiber moves) alternating.  A call's
    cost is dominated by pure-Python delta-sequence and morphism validation,
    about linear in the positions of its sequences.  Every third call is
    large: its expected time lies in TIERS[1], the others' in TIERS[0].  So
    the seed changes the tuples but hardly the cost of a round, op_p50_ms
    falls among the small calls and op_p90_ms among the large ones.
    """

    name = "witness_suite"
    TIERS = ((31, 33), (62, 66))      # expected ms of a small and a large call
    CUTOFFS = (4_000, 40_000)         # where a first candidate is drawn
    KINDS = ("branched", "monotone", "pinch", "degree")
    CALLS = 96

    VERIFIERS = {"branched": "verify_branched", "monotone": "verify_monotone",
                 "pinch": "verify_pinch", "degree": "verify_degree_map"}

    def __init__(self, fr):
        super().__init__(fr)
        self._ranks = {}      # reference ranks per tuple, computed once

    # Each shape draws everything but the last entry and returns complete(band),
    # which draws that entry so that the cutoff of case["sized"] lies in band.

    def _branched(self, rng, k, variant):
        prefix = _coprime_prefix(rng, k)
        n = _coprime_degree(rng, prefix)

        def complete(band):
            f = _in_band(rng, prefix, band, mult=n, above=max(prefix))
            if not f or _degenerate(prefix + [f]):
                return None
            t, cover = tuple(prefix + [f]), tuple(sorted(prefix + [n * f]))
            return {"kind": "branched", "args": (t, n), "sized": cover,
                    "labels": {"source": t, "cover": cover}}

        return complete if n else None

    def _monotone(self, rng, k, variant):
        prefix = _coprime_prefix(rng, k)
        drops = [rng.choice([0, 0, 1, 2, 3]) for _ in range(k + 1)]

        def complete(band):
            p = _in_band(rng, prefix, band, above=max(prefix))
            if not p:
                return None
            large = prefix + [p]
            small = [m - d for m, d in zip(large, drops)]
            if (small == large or min(small) < 2 or small != sorted(set(small))
                    or not ref.coprime(small) or _degenerate(small)):
                return None
            return {"kind": "monotone", "args": (tuple(small), tuple(large)),
                    "sized": tuple(large),
                    "labels": {"small": tuple(small), "large": tuple(large)}}

        return complete

    def _pinch_shape(self, rng, k):
        base = _coprime_prefix(rng, k)
        qs = [q for q in range(2, 24) if q not in base and all(gcd(q, p) == 1 for p in base)]
        return base, rng.choice(qs)

    def _pinch(self, rng, k, variant):
        base, q = self._pinch_shape(rng, k)

        def complete(band):
            r = _in_band(rng, base + [q], band, above=q)
            if not r:
                return None
            unpinched = tuple(sorted(base + [q, r]))
            return {"kind": "pinch", "args": (tuple(base), q, r), "sized": unpinched,
                    "labels": {"pinched": tuple(sorted(base + [q * r])),
                               "unpinched": unpinched}}

        return complete

    def _degree(self, rng, k, variant):
        if variant == 0:
            base, q = self._pinch_shape(rng, k)

            def complete(band):
                r = _in_band(rng, base + [q], band, above=q)
                if not r:
                    return None
                start, end = tuple(sorted(base + [q, r])), tuple(sorted(base + [q * r]))
                return {"kind": "degree", "args": (start, (("pinch", 1, (q, r)),)),
                        "degree": 1, "sized": start, "labels": {"start": start, "end": end}}

            return complete
        others = _coprime_prefix(rng, k)
        n = _coprime_degree(rng, others)

        def complete(band):
            f = _in_band(rng, others, band, mult=n)
            if not f or _degenerate(sorted(others + [f])):
                return None
            start, end = tuple(sorted(others + [n * f])), tuple(sorted(others + [f]))
            return {"kind": "degree", "args": (start, (("branched_fiber", n, (n * f,)),)),
                    "degree": n, "sized": start, "labels": {"start": start, "end": end}}

        return complete if n else None

    def build(self, seed):
        rng = random.Random(f"witness_suite:{seed}")
        cases = []
        while len(cases) < self.CALLS:
            turn, kind_index = divmod(len(cases), len(self.KINDS))
            lo, hi = self.TIERS[int(len(cases) % 3 == 2)]
            complete = getattr(self, f"_{self.KINDS[kind_index]}")(rng, 2 + turn % 2, turn // 2 % 2)
            case = complete and complete(self.CUTOFFS)
            if case is None:
                continue
            # cost is about linear in the sized cutoff: aim the last entry at the tier
            scale = ref.cutoff(case["sized"]) / _estimate_ms(case)
            case = complete((int(scale * lo), int(scale * hi)))
            if case is not None and lo <= _estimate_ms(case) <= hi:
                cases.append(case)
        return cases

    def prepare(self, cases):
        make, move = self.fr.seifert.make_tuple, self.fr.verify.DegreeMove
        calls = []
        for case in cases:
            kind, args = case["kind"], case["args"]
            if kind == "branched":
                calls.append((kind, (make(args[0]), args[1])))
            elif kind == "monotone":
                calls.append((kind, (make(args[0]), make(args[1]))))
            elif kind == "pinch":
                calls.append((kind, args))
            else:
                moves = [move(kind=k, n=n, fibers=fib) for k, n, fib in args[1]]
                calls.append((kind, (make(args[0]), moves)))
        return calls

    def ops(self, calls):
        verify = self.fr.verify

        def call(kind, args):
            name = self.VERIFIERS[kind]
            return lambda: getattr(verify, name)(*args)

        return [call(kind, args) for kind, args in calls]

    def check(self, cases, outputs):
        errors, reference = [], self._ranks
        for case, report in zip(cases, outputs):
            if report is None:
                continue
            where = f"{case['kind']} {case['args']}"
            if report.verdict != "holds":
                failed = [name for name, ok in report.checks if not ok]
                errors.append(f"{where}: verdict {report.verdict} ({failed[:3]})")
            ranks = dict(report.ranks)
            degree = ranks.pop("degree", None)
            if case["kind"] == "degree" and degree != case["degree"]:
                errors.append(f"{where}: degree {degree}, expected {case['degree']}")
            if set(ranks) != set(case["labels"]):
                errors.append(f"{where}: ranks for {sorted(ranks)}, "
                              f"expected {sorted(case['labels'])}")
            for label, ms in case["labels"].items():
                if ms not in reference:
                    w = ref.walk(ms)
                    reference[ms] = {"red": w["rank_red"], "hat": w["rank_hat"]}
                if ranks.get(label) != reference[ms]:
                    errors.append(f"{where}: {label} {ms} ranks {ranks.get(label)}, "
                                  f"expected {reference[ms]}")
        return errors


# -- root_render ------------------------------------------------------------------


class RootRender(Workload):
    """Graded roots with their explicit vertices, edges and three renders.

    The eight 4-fiber tuples with entries up to 23 whose structure cost,
    window cells times vertices, lies in COST, then the smallest 5-fiber
    tuple (2,3,5,7,11), whose 441 extrema over 869 gradings take most of the
    round.  The seed changes nothing: a seeded draw from so small a pool
    moved op_p50_ms by 20% from seed to seed.
    """

    name = "root_render"
    COST = (7_500_000, 12_500_000)
    FIXED = (2, 3, 5, 7, 11)
    FORMATS = ("svg", "dot", "ascii")

    @staticmethod
    def cost(ms) -> int:
        """(2c + 1) extrema times gradings, the window, times its vertices."""
        runs = ref.sublevel_runs(ref.tau(ms))
        return (2 * ref.walk(ms)["c"] + 1) * len(runs) * sum(runs.values())

    def pool(self) -> list:
        found = []
        for ms in combinations(range(2, 24), 4):
            if ref.coprime(ms) and 0 <= ref.cutoff(ms) < 6000:
                cost = self.cost(ms)
                if self.COST[0] <= cost <= self.COST[1]:
                    found.append((cost, ms))
        return [ms for _, ms in sorted(found)]

    def build(self, seed):
        return self.pool() + [self.FIXED]

    def prepare(self, tuples):
        return [self.fr.seifert.make_tuple(ms) for ms in tuples]

    def ops(self, tuples):
        fr = self.fr

        def op(t):
            def run():
                root = fr.gradedroot.GradedRoot.from_delta_sequence(fr.deltaseq.from_seifert(t))
                return (root.vertices(), root.edges(),
                        {f: root.render(f) for f in self.FORMATS})
            return run

        return [op(t) for t in tuples]

    def check(self, tuples, outputs):
        errors = []
        for ms, out in zip(tuples, outputs):
            if out is not None:
                errors.extend(f"{ms}: {e}" for e in check_root(ms, *out))
        return errors


def check_root(ms, vertices, edges, renders) -> list:
    """Errors of one root's vertices, edges and renders against tau of ms."""
    errors = []
    counts = ref.sublevel_runs(ref.tau(ms))
    grading = {v.vertex_id: v.grading for v in vertices}
    if len(grading) != len(vertices):
        errors.append("repeated vertex ids")
    have = dict(sorted(Counter(grading.values()).items()))
    if have != counts:
        errors.append(f"vertices per grading {have} != sublevel runs {counts}")
    if len(edges) != len(vertices) - 1:
        errors.append(f"{len(edges)} edges for {len(vertices)} vertices")
    for child, parent in edges:
        if child not in grading or parent not in grading:
            errors.append(f"edge {child}->{parent} leaves the vertex set")
        elif grading[parent] != grading[child] + 1:
            errors.append(f"edge {child}->{parent} does not go up one grading")
    parents = {parent for _, parent in edges}
    leaves = sum(1 for vid in grading if vid not in parents)
    c = ref.walk(ms)["c"]
    if leaves != c + 1:
        errors.append(f"{leaves} leaves, expected c + 1 = {c + 1}")
    errors.extend(_check_dot(renders["dot"], grading, edges))
    errors.extend(_check_svg(renders["svg"], counts, len(edges)))
    errors.extend(_check_ascii(renders["ascii"], counts))
    return errors


def _vname(vid) -> str:
    return f"v{vid[0]}_{vid[1]}".replace("-", "m")


def _check_dot(text, grading, edges):
    nodes = {(m[1], int(m[2])) for m in re.finditer(r'^\s*"(v[^"]*)" \[label="(-?\d+)"\];$', text, re.M)}
    arrows = set(re.findall(r'^\s*"(v[^"]*)" -> "(v[^"]*)";$', text, re.M))
    errors = []
    if nodes != {(_vname(vid), h) for vid, h in grading.items()}:
        errors.append("dot: vertices differ from the root's")
    if arrows != {(_vname(a), _vname(b)) for a, b in edges}:
        errors.append("dot: edges differ from the root's")
    return errors


def _check_svg(text, counts, n_edges):
    centres = [(int(x), int(y)) for x, y in re.findall(r'<circle cx="(-?\d+)" cy="(-?\d+)"', text)]
    lines = [tuple(map(int, m)) for m in re.findall(
        r'<line x1="(-?\d+)" y1="(-?\d+)" x2="(-?\d+)" y2="(-?\d+)"', text)]
    levels = sorted({y for _, y in centres})          # top grading first
    per_level = [sum(1 for _, y in centres if y == level) for level in levels]
    expected = [counts[h] for h in sorted(counts, reverse=True)]
    errors = []
    if len(set(centres)) != len(centres) or per_level != expected:
        errors.append(f"svg: circles per level {per_level} != {expected}")
    if len(lines) != n_edges:
        errors.append(f"svg: {len(lines)} lines for {n_edges} edges")
    rank = {y: i for i, y in enumerate(levels)}
    spots = set(centres)
    for x1, y1, x2, y2 in lines:
        if (x1, y1) not in spots or (x2, y2) not in spots or rank[y1] != rank[y2] + 1:
            errors.append(f"svg: line {(x1, y1, x2, y2)} is not an edge one level up")
            break
    return errors


def _check_ascii(text, counts):
    rows = text.splitlines()[1:]        # below the stem marker
    marks, links = {}, []
    for row in rows:
        m = re.match(r"^\s*(-?\d+) (.*)$", row)
        if m:
            marks[int(m[1])] = m[2].count("o")
        else:
            links.append(sum(row.count(ch) for ch in "|/\\"))
    errors = []
    if marks != counts:
        errors.append(f"ascii: vertices per grading {marks} != {counts}")
    below = [counts[h] for h in sorted(counts, reverse=True)][1:]
    if links != below:
        errors.append(f"ascii: links per level {links} != {below}")
    return errors


# -- rank_large -------------------------------------------------------------------


class RankLarge(Workload):
    """`floerrank rank ... --json` on tuples with cutoffs from 1e6 to 4.4e7.

    Four fixed tuples, checked against data/rank_large.json (reference.py
    recomputes it), and three members of the families (2,3,6k+5), rank k,
    and (2,3,6k+7), rank k+1, drawn from the seed with cutoffs near 1e6 and
    1e7.  A few huge dense walks: the opposite of botany_table's many small
    ones.
    """

    name = "rank_large"
    FAMILY_K = ((166_000, 167_000), (166_000, 167_000), (1_660_000, 1_670_000))

    def build(self, seed):
        rng = random.Random(f"rank_large:{seed}")
        stored = json.loads((DATA / "rank_large.json").read_text())
        cases = [{"tuple": tuple(e["tuple"]), "expect": e} for e in stored]
        for (lo, hi), offset in zip(self.FAMILY_K, (5, 7, rng.choice((5, 7)))):
            k = rng.randint(lo, hi)
            cases.append({"tuple": (2, 3, 6 * k + offset),
                          "family_rank": k if offset == 5 else k + 1})
        cases.sort(key=lambda c: ref.cutoff(c["tuple"]))
        for case in cases:
            case["argv"] = ["rank", *map(str, case["tuple"]), "--json"]
        return cases

    def ops(self, cases):
        cli = self.fr.cli
        return [lambda argv=case["argv"]: run_cli(cli, argv) for case in cases]

    def check(self, cases, outputs):
        errors = []
        for case, text in zip(cases, outputs):
            if text is None:
                continue
            try:
                record = json.loads(text)
            except json.JSONDecodeError:
                errors.append(f"{case['tuple']}: output is not JSON: {text[:80]!r}")
                continue
            if tuple(record.get("tuple", ())) != case["tuple"]:
                errors.append(f"{case['tuple']}: output names tuple {record.get('tuple')}")
            if "expect" in case:
                expect = {k: v for k, v in case["expect"].items() if k != "tuple"}
                got = {k: record.get(k) for k in expect}
                if got != expect:
                    errors.append(f"{case['tuple']}: {got} != reference {expect}")
            else:
                red, p = case["family_rank"], case["tuple"][2]
                got = (record.get("rank_red"), record.get("rank_hat"), record.get("n_cutoff"))
                if got != (red, 2 * red + 1, p - 6):
                    errors.append(f"{case['tuple']}: (red, hat, N) {got} != "
                                  f"{(red, 2 * red + 1, p - 6)}")
        return errors

    def extra_counts(self, outputs):
        return {"cli.output_bytes": sum(len(text.encode()) for text in filter(None, outputs))}


WORKLOADS = {w.name: w for w in (BotanyTable, WitnessSuite, RootRender, RankLarge)}
