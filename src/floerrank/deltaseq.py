"""Abstract delta sequences and the rank formulas they carry.

A delta sequence is a finite ordered set of positions with a nonzero integer
value at each, the first value positive.  Prefix sums of the values give a
tau walk whose graded root has

    rank(reduced) = kappa + min(tau),      kappa = sum of |negative values|,
    rank(hat)     = 2c + 1,                c = number of (-,+) sign changes
                                               plus one if the last value
                                               is negative.

min(tau) runs over all k+1 prefix sums including the endpoint; that is what
the tree construction computes, and it is what makes the subsequence +
complement inequality hold.  For sequences coming from Seifert tuples the
endpoint sum is 0, so the endpoint never changes the minimum there.

A sequence is two read-only int64 arrays, strictly increasing integer
positions and their values.  Restrictions and merges keep the positions
they retain; a refinement returns a sequence re-indexed to positions
0..k-1, since only the order of the positions matters to the ranks.
Positions become indices through one lookup, _find: a position -> index
table where they are dense, as from Seifert tuples, else a binary search.
"""

import numpy as np

from . import seifert
from .errors import (
    DegenerateTupleError,
    FirstElementNegativeError,
    NotConsecutiveError,
    SignMismatchError,
    SumMismatchError,
)

# Seifert delta sequences over a longer [0, N] are refused rather than built.
# from_seifert peaks at about 16 bytes per entry of [0, N]: the dense delta
# array of the half n < N/2 (4 bytes an entry of [0, N], filled chunk by
# chunk) beside the positions and values of the nonzeros on all of [0, N]
# (about 73% of entries), which the sequence keeps without a copy (traced
# by tracemalloc on (2,3,5,7,11,13,19), 15.6 bytes): about 62 MB here.
MAX_CUTOFF = 4_000_000

_DENSE = 4      # _find's table has fewer entries than this per position and item


def _find(ordered: np.ndarray, items):
    """Indices of items in a sorted array, and which items it holds; an index
    means something only where its item is found.  Non-negative positions,
    the largest below _DENSE times the positions plus the items (as from
    Seifert tuples and at 0..k-1), fill a position -> index table the items
    read; sparser ones are binary searched, so that memory stays bounded."""
    items = np.asarray(items, dtype=np.int64)
    if not ordered.size:
        return np.zeros(items.shape, dtype=np.int64), np.zeros(items.shape, dtype=bool)
    if ordered[0] >= 0 and ordered[-1] < _DENSE * (ordered.size + items.size):
        table = np.zeros(ordered[-1] + 1, dtype=np.int64)
        table[ordered] = np.arange(ordered.size)
        idx = table.take(items, mode="clip")
    else:
        idx = np.searchsorted(ordered, items)
    return idx, ordered.take(idx, mode="clip") == items


class DeltaSequence:
    """Immutable delta sequence: sorted positions with nonzero values."""

    def __init__(self, positions, values):
        """Copies positions and values: the caller's arrays may change later."""
        self._hold(np.array(positions, dtype=np.int64), np.array(values, dtype=np.int64))

    @classmethod
    def _adopt(cls, positions, values) -> "DeltaSequence":
        """The library's own fresh arrays, kept (made read-only), not copied;
        positions None stands for 0..k-1, whose order needs no check."""
        seq, values = cls.__new__(cls), np.asarray(values, dtype=np.int64)
        if positions is None:
            seq._hold(np.arange(values.size, dtype=np.int64), values, ordered=True)
        else:
            seq._hold(np.asarray(positions, dtype=np.int64), values)
        return seq

    def _hold(self, positions: np.ndarray, values: np.ndarray, ordered=False):
        positions.flags.writeable = values.flags.writeable = False
        if positions.ndim != 1 or positions.shape != values.shape:
            raise ValueError("positions and values must be 1-d of equal length")
        if not ordered and np.any(positions[1:] <= positions[:-1]):
            raise ValueError("positions must be strictly increasing")
        if not values.all():
            raise ValueError("values must be nonzero")
        if values.size and values[0] < 0:
            raise FirstElementNegativeError("first value must be positive")
        self.positions = positions
        self.values = values

    def __len__(self):
        return len(self.positions)

    def __eq__(self, other):
        return (isinstance(other, DeltaSequence)
                and np.array_equal(self.positions, other.positions)
                and np.array_equal(self.values, other.values))

    def __repr__(self):
        pairs = ", ".join(f"{p}:{v:+d}" for p, v in
                          zip(self.positions.tolist(), self.values.tolist()))
        return f"DeltaSequence({pairs})"

    def indices_of(self, positions) -> np.ndarray:
        """Indices of the given positions; ValueError if one is absent."""
        idx, found = _find(self.positions, positions)
        if not found.all():
            missing = np.asarray(positions)[~found]
            raise ValueError(f"{missing[:5].tolist()} are not positions of this sequence")
        return idx

    def value_at(self, position) -> int:
        return int(self.values[self.indices_of(position)])

    @property
    def positive_positions(self) -> np.ndarray:
        return self.positions[self.values > 0]

    def tau(self) -> list:
        """All k+1 prefix sums of the values; entry 0 is 0."""
        return [0] + np.cumsum(self.values).tolist()

    def rank(self) -> seifert.WalkStatistics:
        vals = self.values
        neg = vals < 0      # values are nonzero: the others are positive
        c = np.count_nonzero(neg[:-1] > neg[1:]) + np.count_nonzero(neg[-1:])
        return seifert.WalkStatistics(kappa=-int(np.minimum(vals, 0).sum()),
                                      min_tau=int(np.cumsum(vals).min(initial=0)),
                                      c=int(c))

    def _restrict(self, mask) -> "DeltaSequence":
        return DeltaSequence._adopt(self.positions[mask], self.values[mask])

    def subsequence(self, keep) -> "DeltaSequence":
        """Restriction to a subset of positions; must still start positive."""
        mask = _find(np.sort(np.fromiter(keep, dtype=np.int64)), self.positions)[1]
        if mask.any() and self.values[mask][0] < 0:
            raise FirstElementNegativeError(
                "restriction starts with a negative value; not a delta sequence")
        return self._restrict(mask)

    def complement(self, removed) -> "DeltaSequence":
        """Complementary sequence: drop removed, then trim leading negatives."""
        mask = ~_find(np.sort(np.fromiter(removed, dtype=np.int64)), self.positions)[1]
        mask &= np.cumsum(mask & (self.values > 0)) > 0
        return self._restrict(mask)

    def refine(self, at, parts) -> "DeltaSequence":
        """Split the value at a position into consecutive same-sign parts."""
        return self.refine_many({at: parts})

    def refine_many(self, splits: dict) -> "DeltaSequence":
        """Apply several refinements at once; the result sits at 0..k-1."""
        at, groups = self.indices_of(list(splits)), list(splits.values())
        order = np.argsort(at).tolist()
        counts = np.array([len(groups[j]) for j in order], dtype=np.int64)
        parts = np.array([p for j in order for p in groups[j]], dtype=np.int64)
        v, ends = self.values[at[order]], np.cumsum(counts)
        # per value: its parts off its sign, and their sum, as prefix differences
        off = np.concatenate(([0], np.cumsum(np.sign(parts) != np.repeat(np.sign(v), counts))))
        sums = np.concatenate(([0], np.cumsum(parts)))
        off, sums = off[ends] - off[ends - counts], sums[ends] - sums[ends - counts]
        wrong = (off > 0) | (sums != v)
        if wrong.any():
            j = int(np.argmax(wrong))
            group = parts[ends[j] - counts[j]:ends[j]].tolist()
            if off[j]:
                raise SignMismatchError(f"parts {group} must share the sign of {v[j]}")
            raise SumMismatchError(f"parts {group} must sum to {v[j]}")
        return self._refine(at[order], counts, parts)[0]

    def _refine(self, at, counts, parts):
        """Split the value at each index at[j] (sorted, distinct) into the next
        counts[j] of the flat parts (counts may be one number for all),
        unchecked.  Returns the refined sequence, at 0..k-1, and the new index
        of each old index's first part."""
        reps = np.ones(len(self), dtype=np.int64)
        reps[at] = counts
        split = np.zeros(len(self), dtype=bool)
        split[at] = True
        values = np.repeat(self.values, reps)
        values[np.repeat(split, reps)] = parts
        return DeltaSequence._adopt(None, values), np.cumsum(reps) - reps

    def merge(self, run) -> "DeltaSequence":
        """Replace a consecutive same-sign run of positions by their sum."""
        run = list(run)
        idxs = np.sort(self.indices_of(run))
        if not run or not np.array_equal(idxs, np.arange(idxs[0], idxs[-1] + 1)):
            raise NotConsecutiveError(f"positions {run} are not consecutive")
        i0, i1 = int(idxs[0]), int(idxs[-1])
        vals = self.values[i0:i1 + 1]
        if np.any((vals > 0) != (vals[0] > 0)):
            raise SignMismatchError(f"run values {vals.tolist()} are not of one sign")
        values = np.concatenate([self.values[:i0], [vals.sum()], self.values[i1 + 1:]])
        return DeltaSequence._adopt(np.delete(self.positions, np.s_[i0 + 1:i1 + 1]), values)

    def canonical_values(self) -> list:
        """Maximal same-sign runs merged; equal lists mean equivalent sequences."""
        signs = self.values > 0
        starts = np.flatnonzero(np.concatenate([[True], signs[1:] != signs[:-1]]))
        return np.add.reduceat(self.values, starts).tolist() if self.values.size else []

    def to_json(self) -> dict:
        return {"positions": self.positions.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "DeltaSequence":
        return cls(data["positions"], data["values"])


def from_values(values) -> DeltaSequence:
    """Sequence at positions 0..k-1 carrying the given values."""
    return DeltaSequence(np.arange(len(values)), values)


def from_seifert(t: seifert.SeifertTuple) -> DeltaSequence:
    """Delta sequence of a Seifert tuple: the nonzeros of delta on [0, N].

    delta is >= 1 exactly on the semigroup members S in [0, N] and is
    antisymmetric about N/2, so its nonzeros are S together with the
    reflections N - S, where it is negative.  Only n < N/2 is evaluated:
    the nonzeros there are mirrored to positions N - p with values -v.
    The zeros it drops do not affect the graded root.  A cutoff N above
    MAX_CUTOFF is refused with a ValueError before anything is allocated.
    """
    if t.is_degenerate:
        raise DegenerateTupleError(f"{t} has no delta sequence (reduced rank 0)")
    N = seifert.n_cutoff(t)
    if N > MAX_CUTOFF:
        raise ValueError(f"delta sequence of {t} spans N = {N}, more than "
                         f"the N = {MAX_CUTOFF} a sequence may span")
    d = seifert.delta_array(t, (N + 1) // 2 - 1)   # n < N/2; delta(N/2) = 0
    k = np.count_nonzero(d)
    positions = np.empty(2 * k, dtype=np.int64)
    positions[:k] = np.flatnonzero(d)
    values = np.empty(2 * k, dtype=np.int64)
    np.take(d, positions[:k], out=values[:k], mode="clip")   # "raise" buffers out
    del d   # the dense half is not alive while the mirror is written and checked
    np.subtract(N, positions[k - 1::-1], out=positions[k:])
    np.negative(values[k - 1::-1], out=values[k:])
    return DeltaSequence._adopt(positions, values)
