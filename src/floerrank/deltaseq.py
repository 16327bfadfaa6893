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

Positions are integers for Seifert-derived sequences; refinements introduce
Fraction positions between existing ones so that untouched positions keep
their identity.
"""

from fractions import Fraction

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
# from_seifert peaks at about 100 bytes per entry of [0, N] (the dense delta
# array, then the lists, tuples and dict of the sequence): about 400 MB here.
MAX_CUTOFF = 4_000_000


class DeltaSequence:
    """Immutable delta sequence: sorted positions with nonzero values."""

    def __init__(self, positions, values):
        positions = tuple(positions)
        values = tuple(int(v) for v in values)
        if len(positions) != len(values):
            raise ValueError("positions and values must have equal length")
        if any(positions[i] >= positions[i + 1] for i in range(len(positions) - 1)):
            raise ValueError("positions must be strictly increasing")
        if any(v == 0 for v in values):
            raise ValueError("values must be nonzero")
        if values and values[0] < 0:
            raise FirstElementNegativeError("first value must be positive")
        self.positions = positions
        self.values = values
        self._value_at = dict(zip(positions, values))

    def __len__(self):
        return len(self.positions)

    def __eq__(self, other):
        return (isinstance(other, DeltaSequence)
                and self.positions == other.positions
                and self.values == other.values)

    def __hash__(self):
        return hash((self.positions, self.values))

    def __repr__(self):
        pairs = ", ".join(f"{p}:{v:+d}" for p, v in zip(self.positions, self.values))
        return f"DeltaSequence({pairs})"

    def value_at(self, position):
        return self._value_at[position]

    @property
    def positive_positions(self):
        return tuple(p for p, v in zip(self.positions, self.values) if v > 0)

    @property
    def negative_positions(self):
        return tuple(p for p, v in zip(self.positions, self.values) if v < 0)

    def tau(self) -> list:
        """All k+1 prefix sums of the values; entry 0 is 0."""
        out = [0]
        for v in self.values:
            out.append(out[-1] + v)
        return out

    def rank(self) -> seifert.WalkStatistics:
        vals = self.values
        c = sum(1 for i in range(len(vals) - 1) if vals[i] < 0 < vals[i + 1])
        if vals and vals[-1] < 0:
            c += 1
        return seifert.WalkStatistics(kappa=-sum(v for v in vals if v < 0),
                                      min_tau=min(self.tau()), c=c)

    def subsequence(self, keep) -> "DeltaSequence":
        """Restriction to a subset of positions; must still start positive."""
        keep = set(keep)
        pairs = [(p, v) for p, v in zip(self.positions, self.values) if p in keep]
        if pairs and pairs[0][1] < 0:
            raise FirstElementNegativeError(
                "restriction starts with a negative value; not a delta sequence")
        return DeltaSequence([p for p, _ in pairs], [v for _, v in pairs])

    def complement(self, removed) -> "DeltaSequence":
        """Complementary sequence: drop removed, then trim leading negatives."""
        removed = set(removed)
        pairs = [(p, v) for p, v in zip(self.positions, self.values) if p not in removed]
        while pairs and pairs[0][1] < 0:
            pairs.pop(0)
        return DeltaSequence([p for p, _ in pairs], [v for _, v in pairs])

    def _fresh_positions(self, index: int, count: int):
        """count positions starting at positions[index], before the next one."""
        start = self.positions[index]
        if index + 1 < len(self.positions):
            gap = self.positions[index + 1] - start
        else:
            gap = count  # room past the end
        step = Fraction(gap, count)
        out = []
        for j in range(count):
            pos = start + j * step
            if isinstance(pos, Fraction) and pos.denominator == 1:
                pos = int(pos)
            out.append(pos)
        return out

    def refine(self, at, parts) -> "DeltaSequence":
        """Split the value at a position into consecutive same-sign parts."""
        if at not in self._value_at:
            raise ValueError(f"{at} is not a position of this sequence")
        return self.refine_many({at: parts})

    def refine_many(self, splits: dict) -> "DeltaSequence":
        """Apply several refinements at once (one pass over the sequence)."""
        new_pos, new_val = [], []
        for idx, (p, v) in enumerate(zip(self.positions, self.values)):
            parts = splits.get(p)
            if parts is None:
                new_pos.append(p)
                new_val.append(v)
                continue
            parts = [int(x) for x in parts]
            if any(x == 0 or (x > 0) != (v > 0) for x in parts):
                raise SignMismatchError(f"parts {parts} must share the sign of {v}")
            if sum(parts) != v:
                raise SumMismatchError(f"parts {parts} must sum to {v}")
            new_pos.extend(self._fresh_positions(idx, len(parts)))
            new_val.extend(parts)
        return DeltaSequence(new_pos, new_val)

    def merge(self, run) -> "DeltaSequence":
        """Replace a consecutive same-sign run of positions by their sum."""
        run = sorted(run, key=self.positions.index)
        idxs = [self.positions.index(p) for p in run]
        if idxs != list(range(idxs[0], idxs[0] + len(idxs))):
            raise NotConsecutiveError(f"positions {run} are not consecutive")
        vals = [self.values[i] for i in idxs]
        if len({v > 0 for v in vals}) != 1:
            raise SignMismatchError(f"run values {vals} are not of one sign")
        i0, i1 = idxs[0], idxs[-1]
        new_pos = list(self.positions[:i0]) + [self.positions[i0]] + list(self.positions[i1 + 1:])
        new_val = list(self.values[:i0]) + [sum(vals)] + list(self.values[i1 + 1:])
        return DeltaSequence(new_pos, new_val)

    def canonical_values(self) -> list:
        """Maximal same-sign runs merged; equal lists mean equivalent sequences."""
        out = []
        for v in self.values:
            if out and (out[-1] > 0) == (v > 0):
                out[-1] += v
            else:
                out.append(v)
        return out

    def to_json(self) -> dict:
        return {
            "positions": [position_to_json(p) for p in self.positions],
            "values": list(self.values),
        }

    @classmethod
    def from_json(cls, data: dict) -> "DeltaSequence":
        return cls([position_from_json(p) for p in data["positions"]], data["values"])


def position_to_json(p):
    """Integers stay integers; Fraction positions serialize as "num/den"."""
    if isinstance(p, Fraction):
        return f"{p.numerator}/{p.denominator}"
    return int(p)


def position_from_json(p):
    if isinstance(p, str):
        num, den = p.split("/")
        return Fraction(int(num), int(den))
    return int(p)


def from_values(values) -> DeltaSequence:
    """Sequence at positions 0..k-1 carrying the given values."""
    return DeltaSequence(range(len(values)), values)


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
    return DeltaSequence(positions.tolist(), d[positions].tolist())
