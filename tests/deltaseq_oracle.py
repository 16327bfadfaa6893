"""The sieve construction of a Seifert delta sequence, kept as the oracle for
deltaseq.from_seifert, and the per-split refinement loop, kept as the oracle
for DeltaSequence.refine_many.

sieve_from_seifert sieves the semigroup S on [0, N], takes S and its
reflections N - S as the positions and checks that delta is positive exactly
on S.  The library reads the same positions straight off the nonzeros of
delta; the tests compare the two.

refine_many_loop checks and splices one split at a time, in index order; the
library checks every split and builds the refined values with a few array
passes.

searchsorted_find places every item by binary search, the one path the
library keeps for sparse positions; the library reads dense positions off a
position -> index table.  rank_by_sign_gathers is the rank formula with a
boolean gather for kappa and two comparisons per sign change; the library
reads the changes off one comparison of the negative mask.
"""

import numpy as np

from floerrank import seifert
from floerrank.deltaseq import DeltaSequence
from floerrank.errors import DegenerateTupleError, SignMismatchError, SumMismatchError

from semigroup_oracle import semigroup_sieve
from walk_oracle import dense_delta


def sieve_from_seifert(t: seifert.SeifertTuple) -> DeltaSequence:
    if t.is_degenerate:
        raise DegenerateTupleError(f"{t} has no delta sequence (reduced rank 0)")
    N = seifert.n_cutoff(t)
    members = np.flatnonzero(semigroup_sieve(t, N))
    s_set = set(members.tolist())
    q_set = {N - x for x in s_set}
    assert not (s_set & q_set)
    positions = np.array(sorted(s_set | q_set), dtype=np.int64)
    deltas = dense_delta(t, N)
    values = deltas[positions]
    assert bool(((values > 0) == np.isin(positions, members)).all())
    return DeltaSequence(positions.tolist(), values.tolist())


def refine_many_loop(seq: DeltaSequence, splits: dict) -> DeltaSequence:
    idx = seq.indices_of(list(splits))
    pieces, prev = [], 0
    for i, parts in sorted(zip(idx.tolist(), splits.values())):
        parts = np.array(parts, dtype=np.int64)
        v = int(seq.values[i])
        if np.any((parts > 0) != (v > 0)) or not parts.all():
            raise SignMismatchError(f"parts {parts.tolist()} must share the sign of {v}")
        if int(parts.sum()) != v:
            raise SumMismatchError(f"parts {parts.tolist()} must sum to {v}")
        pieces += [seq.values[prev:i], parts]
        prev = i + 1
    values = np.concatenate(pieces + [seq.values[prev:]])
    return DeltaSequence(np.arange(values.size), values)


def searchsorted_find(ordered: np.ndarray, items):
    """Insertion indices of items in a sorted array, and which items it holds."""
    items = np.asarray(items, dtype=np.int64)
    idx = np.searchsorted(ordered, items)
    if not ordered.size:
        return idx, np.zeros(items.shape, dtype=bool)
    return idx, np.take(ordered, idx, mode="clip") == items


def rank_by_sign_gathers(values) -> seifert.WalkStatistics:
    vals = np.asarray(values, dtype=np.int64)
    c = np.count_nonzero((vals[:-1] < 0) & (vals[1:] > 0))
    c += vals.size > 0 and vals[-1] < 0
    return seifert.WalkStatistics(kappa=-int(vals[vals < 0].sum()),
                                  min_tau=int(np.cumsum(vals).min(initial=0)),
                                  c=int(c))
