"""The botany problem: list every Seifert homology sphere of a given rank.

A reduced rank of n >= 1 forces l! < max(2n, 7) singular fibers and every
multiplicity strictly below 6n + 7, so the candidate set is finite: rank n
at most 12 means exactly three fibers with multiplicities below 79.  The
scan enumerates canonical pairwise-coprime tuples inside those bounds,
evaluates the reduced rank of each, and buckets.

Rank evaluation is seifert.walk_statistics, which walks the delta function
over the first half of [0, N] in fixed-size numpy chunks; results are
memoized per canonical tuple.
"""

import json
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd

from . import seifert


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
    l_max: int
    p_max: int

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


@lru_cache(maxsize=200_000)
def rank_red_of(multiplicities: tuple) -> int:
    return seifert.rank_pair(seifert.SeifertTuple(multiplicities))[0]


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


def solve(n: int) -> BotanyResult:
    """Every Seifert homology sphere with reduced rank exactly n."""
    if n == 0:
        return BotanyResult(n=0, tuples=((2, 3, 5),), includes_s3=True,
                            l_max=3, p_max=5)
    l_max, p_max = bounds(n)
    hits = [t for t in candidates(n) if rank_red_of(t) == n]
    return BotanyResult(n=n, tuples=tuple(sorted(hits)), includes_s3=False,
                        l_max=l_max, p_max=p_max)


def table(n_max: int) -> dict:
    """Rows 0..n_max in one scan over the largest candidate set."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rows = {0: BotanyResult(n=0, tuples=((2, 3, 5),), includes_s3=True,
                            l_max=3, p_max=5)}
    if n_max == 0:
        return rows
    l_max, p_max = bounds(n_max)
    buckets = {n: [] for n in range(1, n_max + 1)}
    for length in range(3, l_max + 1):
        for t in _coprime_tuples(length, p_max):
            r = rank_red_of(t)
            if 1 <= r <= n_max:
                buckets[r].append(t)
    for n in range(1, n_max + 1):
        own_l, own_p = bounds(n)
        rows[n] = BotanyResult(n=n, tuples=tuple(sorted(buckets[n])),
                               includes_s3=False, l_max=own_l, p_max=own_p)
    return rows


def table_csv(rows: dict) -> str:
    lines = []
    for n in sorted(rows):
        lines.extend(rows[n].csv_rows())
    return "\n".join(lines) + "\n"


def table_json(rows: dict) -> str:
    return json.dumps([rows[n].to_json() for n in sorted(rows)], indent=2) + "\n"
