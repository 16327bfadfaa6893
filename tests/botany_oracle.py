"""The unpruned botany scan, kept as the oracle for botany.table and solve.

It ranks every candidate inside the paper's bounds (fewer than l_max + 1
fibers, every multiplicity at most 6n + 6) and buckets by reduced rank.  The
library ranks a few hundred tuples instead, pruning with the rank
inequalities; the tests compare the two.  Ranks are memoized for the test
session, since the oracle and the property tests rank the same tuples many
times over.
"""

from functools import cache
from itertools import takewhile

from floerrank import botany, seifert


@cache
def rank_red(multiplicities: tuple) -> int:
    """Reduced rank of a canonical tuple, from the walk_statistics kernel."""
    return seifert.walk_statistics(seifert.SeifertTuple(multiplicities)).rank_red


def unpruned_ranks(n_max: int, max_fibers: int = None) -> dict:
    """{tuple: reduced rank} for every candidate of rank n_max, optionally
    only those with at most max_fibers fibers."""
    tuples = botany.candidates(n_max)
    if max_fibers is not None:
        tuples = takewhile(lambda t: len(t) <= max_fibers, tuples)
    return {t: rank_red(t) for t in tuples}


def unpruned_rows(ranks: dict, n_max: int) -> dict:
    """{n: sorted tuples of rank n} for 1 <= n <= n_max, restricted to the
    candidates of n_max (ranks must come from a scan at least that wide)."""
    l_max, p_max = botany.bounds(n_max)
    rows = {n: [] for n in range(1, n_max + 1)}
    for t, r in ranks.items():
        if 1 <= r <= n_max and len(t) <= l_max and t[-1] <= p_max:
            rows[r].append(t)
    return {n: tuple(sorted(ts)) for n, ts in rows.items()}

