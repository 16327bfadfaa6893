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
# from_seifert peaks at about 20 bytes per entry of [0, N]: the dense delta
# array (8 bytes an entry, filled chunk by chunk) beside the positions and
# values of its nonzeros (about 73% of entries), which the sequence keeps
# without a copy (traced by tracemalloc on (2,3,5,7,11,13,19), 19.6 bytes):
# about 80 MB here.
MAX_CUTOFF = 4_000_000


def _find(ordered: np.ndarray, items):
    """Insertion indices of items in a sorted array, and which items it holds."""
    items = np.asarray(items, dtype=np.int64)
    idx = np.searchsorted(ordered, items)
    if not ordered.size:
        return idx, np.zeros(items.shape, dtype=bool)
    return idx, np.take(ordered, idx, mode="clip") == items


class DeltaSequence:
    """Immutable delta sequence: sorted positions with nonzero values."""

    def __init__(self, positions, values):
        """Copies positions and values: the caller's arrays may change later."""
        self._hold(np.array(positions, dtype=np.int64), np.array(values, dtype=np.int64))

    @classmethod
    def _adopt(cls, positions, values) -> "DeltaSequence":
        """The library's own fresh arrays, kept (made read-only), not copied."""
        seq = cls.__new__(cls)
        seq._hold(np.asarray(positions, dtype=np.int64), np.asarray(values, dtype=np.int64))
        return seq

    def _hold(self, positions: np.ndarray, values: np.ndarray):
        positions.flags.writeable = values.flags.writeable = False
        if positions.ndim != 1 or positions.shape != values.shape:
            raise ValueError("positions and values must be 1-d of equal length")
        if np.any(positions[1:] <= positions[:-1]):
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
        c = np.count_nonzero((vals[:-1] < 0) & (vals[1:] > 0))
        c += vals.size > 0 and vals[-1] < 0
        return seifert.WalkStatistics(kappa=-int(vals[vals < 0].sum()),
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
        idx = self.indices_of(list(splits))
        pieces, prev = [], 0
        for i, parts in sorted(zip(idx.tolist(), splits.values())):
            parts = np.array(parts, dtype=np.int64)
            v = int(self.values[i])
            if np.any((parts > 0) != (v > 0)) or not parts.all():
                raise SignMismatchError(f"parts {parts.tolist()} must share the sign of {v}")
            if int(parts.sum()) != v:
                raise SumMismatchError(f"parts {parts.tolist()} must sum to {v}")
            pieces += [self.values[prev:i], parts]
            prev = i + 1
        values = np.concatenate(pieces + [self.values[prev:]])
        return DeltaSequence._adopt(np.arange(values.size), values)

    def merge(self, run) -> "DeltaSequence":
        """Replace a consecutive same-sign run of positions by their sum."""
        idxs = np.sort(self.indices_of(list(run)))
        i0, i1 = int(idxs[0]), int(idxs[-1])
        if not np.array_equal(idxs, np.arange(i0, i1 + 1)):
            raise NotConsecutiveError(f"positions {list(run)} are not consecutive")
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
    reflections N - S, where it is negative.  The zeros it drops do not
    affect the graded root.  A cutoff N above MAX_CUTOFF is refused with a
    ValueError before anything is allocated.
    """
    if t.is_degenerate:
        raise DegenerateTupleError(f"{t} has no delta sequence (reduced rank 0)")
    N = seifert.n_cutoff(t)
    if N > MAX_CUTOFF:
        raise ValueError(f"delta sequence of {t} spans N = {N}, more than "
                         f"the N = {MAX_CUTOFF} a sequence may span")
    d = seifert.delta_array(t, N)
    positions = np.flatnonzero(d)
    values = d[positions]
    del d   # the dense array is not alive while the sequence is checked
    return DeltaSequence._adopt(positions, values)
