"""The botany problem: list every Seifert homology sphere of a given rank.

A reduced rank of n >= 1 forces l! < max(2n, 7) singular fibers and every
multiplicity strictly below 6n + 7 (bounds), so the candidate set is finite
(candidates).  Ranking every candidate is the test oracle
(tests/botany_oracle.py).  The scan here ranks far fewer tuples: it prunes
with the paper's own rank inequalities, each one certified by a verifier,
and combines them with the rank kernel (Nemethi's algorithm):

(a) Partial order, rank(T) <= rank(T') when T <= T' componentwise
    (verify_monotone).  For a fixed prefix the last multiplicity walks
    upward, and the walk stops at the first rank above n_max.
(b) Prime floor, the same inequality on distinct primes, which are always
    pairwise coprime.  The greedy largest primes a_1 < ... < a_l with
    a_i <= p_i form a tuple below (p_1, ..., p_l), so their rank bounds every
    tuple at or above (p_1, ..., p_l) from below (when (p_1, ..., p_l) is
    itself coprime, its own rank does).  A p_2 loop stops once the bound
    for (p_1, p_2, p_2 + 1) is above n_max, and the p_1 loop stops when
    that happens at its first head (p_1, p_1 + 1).
(c) Regular-fiber cover, p * rank(T) <= rank(T + (p,)) for p coprime to T
    (verify_degree_map with regular:p, which verify_branched certifies as
    the p-fold cover along a fiber of multiplicity 1).  Dropping the largest
    multiplicity p > T[-1] of an l-fiber tuple of rank <= n_max leaves an
    (l-1)-fiber tuple T with (T[-1] + 1) * rank(T) <= n_max, so l-fiber
    prefixes come only from such rows, and (2,3,5), the one of rank 0.
    This runs over the fiber count until no prefix is left.

Only the reduced rank prunes.  The hat rank is not monotone under the
partial order ((5,8,11) <= (5,9,11) has hat ranks 35 > 31), so a hat-rank
bound would cut branches that still hold rows.

Every rank goes through _Scan.rank, which walks each tuple once with the
walk_statistics kernel and keeps its rank for the rest of the scan.  scan
runs one and returns its rows with its own counts of walks, rows and cuts,
which botany --stats writes; solve and table keep the rows.
"""

from collections import Counter
from dataclasses import dataclass
from math import factorial, gcd

from . import seifert
from .arith import pairwise_coprime


def bounds(n: int):
    """(l_max, p_max): largest fiber count and multiplicity allowed for rank n."""
    if n < 1:
        raise ValueError("bounds are defined for n >= 1")
    cap = max(2 * n, 7)
    l_max = 3
    while factorial(l_max + 1) < cap:
        l_max += 1
    return l_max, 6 * n + 6


@dataclass(frozen=True)
class BotanyResult:
    n: int
    tuples: tuple           # canonical tuples, sorted lexicographically
    includes_s3: bool       # S^3 belongs to the rank-0 class

    def to_json(self) -> dict:
        out = {"n": self.n, "tuples": [list(t) for t in self.tuples]}
        if self.includes_s3:
            out["s3"] = True
        return out

    def csv_rows(self) -> list:
        rows = []
        if self.includes_s3:
            rows.append(f"{self.n},S3")
        rows.extend(f"{self.n}," + ",".join(str(p) for p in t) for t in self.tuples)
        return rows


def _coprime_tuples(length: int, p_max: int):
    """Canonical pairwise-coprime tuples 2 <= p_1 < ... < p_length <= p_max."""
    def extend(prefix, start):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for p in range(start, p_max + 1):
            if all(gcd(p, q) == 1 for q in prefix):
                prefix.append(p)
                yield from extend(prefix, p + 1)
                prefix.pop()

    yield from extend([], 2)


def candidates(n: int):
    """All candidate tuples for rank n, per the factorial and 6n+7 bounds."""
    l_max, p_max = bounds(n)
    for length in range(3, l_max + 1):
        yield from _coprime_tuples(length, p_max)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def _prime_floor(t: tuple):
    """Greedy largest primes a_1 < ... < a_l with a_i <= t_i, or None."""
    floor = []
    cap = t[-1] + 1
    for p in reversed(t):
        a = min(p, cap - 1)
        while a >= 2 and not _is_prime(a):
            a -= 1
        if a < 2:
            return None
        floor.append(a)
        cap = a
    return tuple(reversed(floor))


class _Scan:
    """One pruned scan for every tuple of reduced rank <= n_max.

    walk applies cut (a), the partial order (verify_monotone); floor_above
    cut (b), the same inequality on a floor of distinct primes; run cut (c),
    the regular-fiber cover p * rank(T) <= rank(T + (p,)) (verify_degree_map
    with regular:p).  Every cut reads the reduced rank: the hat rank is not
    monotone, so it bounds nothing.

    ranks holds every reduced rank the scan has read, so each tuple is walked
    once.  counts, the scan's own Counter, is keyed by (fiber count, name):
    rank_evals (kernel walks), rows (tuples of rank 1..n_max found), order
    (walks stopped by cut (a)), prime_floor (loops stopped by cut (b)) and
    cover (rows refused as prefixes by cut (c)); scan returns it with the
    rows, and botany --stats writes it (stats_json).
    """

    def __init__(self, n_max: int):
        self.n_max = n_max
        self.p_max = bounds(n_max)[1] if n_max else 0     # n_max 0: nothing to scan
        self.counts = Counter()
        self.ranks = {}

    def rank(self, t: tuple) -> int:
        if t not in self.ranks:
            self.counts[len(t), "rank_evals"] += 1
            self.ranks[t] = seifert.walk_statistics(seifert.SeifertTuple(t)).rank_red
        return self.ranks[t]

    def walk(self, prefix: tuple) -> dict:
        """Ranks <= n_max of prefix + (p,), p walking up from prefix[-1] + 1."""
        found = {}
        for p in range(prefix[-1] + 1, self.p_max + 1):
            if any(gcd(p, q) != 1 for q in prefix):
                continue
            t = prefix + (p,)
            r = self.rank(t)
            if r > self.n_max:                                  # cut (a)
                self.counts[len(t), "order"] += 1
                break
            found[t] = r
        return found

    def floor_above(self, t: tuple) -> bool:
        """True when every tuple at or above t has rank above n_max.

        The floor is t itself when t is pairwise coprime, else its prime floor.
        """
        floor = t if pairwise_coprime(t) else _prime_floor(t)
        if floor is None or self.rank(floor) <= self.n_max:
            return False
        self.counts[len(t), "prime_floor"] += 1                 # cut (b)
        return True

    def three_fibers(self) -> dict:
        found = {}
        for p1 in range(2, self.p_max + 1):
            for p2 in range(p1 + 1, self.p_max + 1):
                if gcd(p1, p2) != 1:
                    continue
                head = self.walk((p1, p2))
                found.update(head)
                # an empty head ranked its first tuple above n_max, so the
                # floor of (p1, p2, p2 + 1) may be too
                if not head and self.floor_above((p1, p2, p2 + 1)):
                    break
            else:
                continue
            if p2 == p1 + 1:
                # (p1, p1 + 1, p1 + 2) lies below every tuple with a larger p1
                break
        return found

    def run(self) -> dict:
        """{tuple: rank} for every tuple with 0 <= rank <= n_max."""
        found = {}
        level = self.three_fibers()
        while level:
            found.update(level)
            prefixes = []
            for t, r in level.items():
                if (t[-1] + 1) * r <= self.n_max:
                    prefixes.append(t)
                else:                                           # cut (c)
                    self.counts[len(t) + 1, "cover"] += 1
            level = {}
            for prefix in prefixes:
                level.update(self.walk(prefix))
        for t, r in found.items():
            if r >= 1:
                self.counts[len(t), "rows"] += 1
        return found


def scan(n_max: int) -> tuple:
    """(rows 0..n_max, counts) from one pruned scan: counts is the finished
    scan's own Counter (see stats_json); row 0, S^3 and (2,3,5), takes no scan."""
    if n_max < 0:
        raise ValueError(f"n must be >= 0, got {n_max}")
    finished = _Scan(n_max)
    buckets = {n: [] for n in range(1, n_max + 1)}
    for t, r in finished.run().items():
        if r >= 1:
            buckets[r].append(t)
    rows = {0: BotanyResult(n=0, tuples=((2, 3, 5),), includes_s3=True)}
    for n, tuples in buckets.items():
        rows[n] = BotanyResult(n=n, tuples=tuple(sorted(tuples)), includes_s3=False)
    return rows, finished.counts


def solve(n: int) -> BotanyResult:
    """Every Seifert homology sphere with reduced rank exactly n."""
    return scan(n)[0][n]


def table(n_max: int) -> dict:
    """Rows 0..n_max from one pruned scan."""
    return scan(n_max)[0]


def stats_json(counts: Counter) -> str:
    """One JSON line: total rank evaluations and rows, then per fiber count
    the rank evaluations, rows and the cuts that fired."""
    import json     # here, not at module level: import floerrank stays without it

    fibers = {}
    for (length, name), value in sorted(counts.items()):
        fibers.setdefault(str(length), {})[name] = value
    return json.dumps({
        "rank_evals": sum(v for (_, name), v in counts.items() if name == "rank_evals"),
        "rows": sum(v for (_, name), v in counts.items() if name == "rows"),
        "fibers": fibers,
    })


def table_csv(rows: dict) -> str:
    lines = []
    for n in sorted(rows):
        lines.extend(rows[n].csv_rows())
    return "\n".join(lines) + "\n"


def table_json(rows: dict) -> str:
    import json

    return json.dumps([rows[n].to_json() for n in sorted(rows)], indent=2) + "\n"
