"""Seifert-invariant arithmetic for integral homology spheres over S^2.

A Seifert homology sphere Sigma(p_1,...,p_l) is determined by pairwise
coprime multiplicities p_i >= 2.  Its normalized invariants
(e_0, (p_i', p_i)) are the unique solution of

    e_0 * p_1...p_l + sum_i p_i' * (p_1...p_l / p_i) = -1,   0 <= p_i' < p_i.

From these we get the integer-valued delta function

    delta(n) = 1 + |e_0| n - sum_i ceil(n p_i' / p_i),

whose partial sums form the tau sequence that generates the graded root of
the manifold.  The delta function is controlled by the numerical semigroup
G generated by P/p_i: on [0, N] (N the cutoff below) delta is >= 1 exactly
on members of G, is antisymmetric about N/2, and vanishes or is positive
after N.  Only the formula is evaluated here; G's sieve and normal forms
are test oracles.  Everything here is exact integer arithmetic; numpy is
used only for bulk evaluation over ranges.

The ranks come from one kernel, walk_statistics.  It reads kappa, min tau
and the sign-change count off the tau walk (the formula view; the graded
root's extrema give the same numbers and are a test oracle).  By the
antisymmetry it walks only n < N/2, and it evaluates delta there in chunks
of fixed size, so its memory stays flat as N grows.  Between two positive
deltas tau only falls, so a chunk with few positives (at most 1/_SPARSE of
it) has its statistics read off the sums between its positives alone; any
other chunk is compacted to its nonzeros, and they are read off those.

Each ceiling term is quasi-periodic, ceil((n + p) p'/p) = ceil(n p'/p) + p',
so a group of fibers with period Q (the product of its multiplicities)
repeats its ceiling sum, shifted by a constant, every Q values.  The chunked
evaluator behind walk_statistics and delta_array groups the fibers
greedily in ascending order while Q stays at most _PERIOD, and tabulates a
group once over [0, Q + _CHUNK) only when the walk revisits its period
(Q + _CHUNK < the walk's length); a chunk then reads one slice per table,
and the first table also carries the linear term |e_0| n.  The other
fibers are divided out on every chunk by the formula the tables are built
with, so a walk of one chunk does the work it always did.
_plan makes that decision, and walk_counts reports it (rank --stats).
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import check_int64, checked_product, mod_inverse, pairwise_coprime
from .errors import DegenerateTupleError, NonPositiveEntryError, NotCoprimeError


@dataclass(frozen=True)
class SeifertTuple:
    """Canonical multiplicity tuple: sorted ascending, entries >= 2, coprime.

    The empty tuple and single-entry tuples denote S^3.  Construct through
    make_tuple, which drops entries equal to 1 and sorts.

    Construction also solves the product P, the normalized invariants and
    the cutoff N, and the first walk checks delta's int64 range over [0, N];
    each is kept in the instance's __dict__, outside the one field, so
    equality and hashing see only the multiplicities.
    """

    multiplicities: tuple

    def __post_init__(self):
        ms = self.multiplicities
        if any(m < 2 for m in ms):
            raise NonPositiveEntryError(f"multiplicities must be >= 2, got {ms}")
        if list(ms) != sorted(ms):
            raise ValueError(f"multiplicities must be sorted ascending, got {ms}")
        if not pairwise_coprime(ms):
            raise NotCoprimeError(f"multiplicities must be pairwise coprime, got {ms}")
        P = checked_product(ms)
        primes = [(-mod_inverse(P // p % p, p)) % p for p in ms]
        e0, rem = divmod(-1 - sum(pp * (P // p) for pp, p in zip(primes, ms)), P)
        assert rem == 0
        # N is range-checked where it is read (n_cutoff), so it raises there
        self.__dict__.update(product=P, _cutoff=(len(ms) - 2) * P - sum(P // p for p in ms),
                             _invariants=NormalizedInvariants(e0, tuple(zip(primes, ms))))

    @property
    def fiber_count(self) -> int:
        return len(self.multiplicities)

    @property
    def is_degenerate(self) -> bool:
        """True for S^3-like tuples (l <= 2) and (2,3,5): reduced rank 0."""
        return self.fiber_count <= 2 or self.multiplicities == (2, 3, 5)

    def __str__(self):
        if not self.multiplicities:
            return "S3"
        return "(" + ",".join(str(m) for m in self.multiplicities) + ")"


def make_tuple(raw) -> SeifertTuple:
    """Canonicalize a list of multiplicities: drop 1s, sort, validate."""
    entries = list(raw)
    if any(m < 1 for m in entries):
        raise NonPositiveEntryError(f"multiplicities must be >= 1, got {entries}")
    kept = tuple(sorted(m for m in entries if m > 1))
    return SeifertTuple(kept)


@dataclass(frozen=True)
class NormalizedInvariants:
    """Solution (e0, (p_i', p_i)) of the defining linear relation."""

    e0: int
    pairs: tuple  # of (p_prime, p)


def _require_fibers(t: SeifertTuple):
    if t.fiber_count < 1:
        raise DegenerateTupleError("operation needs at least one multiplicity")


def normalized_invariants(t: SeifertTuple) -> NormalizedInvariants:
    """Normalized invariants of the tuple (e0 P + sum p_i' P/p_i = -1)."""
    _require_fibers(t)
    return t._invariants


def euler_number(t: SeifertTuple) -> Fraction:
    """Orbifold Euler number e0 + sum p_i'/p_i; always equals -1/P."""
    inv = normalized_invariants(t)
    e = Fraction(inv.e0) + sum(Fraction(pp, p) for pp, p in inv.pairs)
    assert e == Fraction(-1, t.product)
    return e


def n_cutoff(t: SeifertTuple) -> int:
    """Cutoff N = P*((l-2) - sum 1/p_i), past which delta is nonnegative."""
    _require_fibers(t)
    return check_int64(t._cutoff)


def _check_delta_range(t: SeifertTuple, upto: int):
    # guard numpy intermediates: n * p_i' stays well inside int64 for n <= upto
    check_int64(4 * (upto + 1) * max(abs(t._invariants.e0), t.multiplicities[-1]))


def _half(t: SeifertTuple) -> int:
    """(N + 1) // 2, the walk's length, once delta's guard over [0, N] passes.

    It is kept in t's __dict__ as "_half" after the first pass, read and set
    there directly (a cached_property takes a lock on each first read); a
    guard that raises keeps nothing, so every walk of that tuple raises.
    """
    half = t.__dict__.get("_half")
    if half is None:
        N = n_cutoff(t)
        _check_delta_range(t, N)
        half = t.__dict__["_half"] = (N + 1) // 2
    return half


# delta values a walk evaluates at a time; a few int64 arrays of this
# length are alive at once, whatever N is
_CHUNK = 1 << 14
# largest fiber-group period tabulated: a table holds at most
# _PERIOD + _CHUNK int64 values, about 0.6 MB
_PERIOD = 1 << 16
# a walk reads a chunk off its positive entries, not its compacted
# nonzeros, when at most 1/_SPARSE of the chunk is positive
_SPARSE = 16


def _subtract_ceilings(acc: np.ndarray, n: np.ndarray, pairs, term: np.ndarray):
    """acc -= the sum of ceil(n p'/p) over the (p', p) pairs, in place; term is scratch.

    ceil(n p'/p) = -floor(-n p'/p), and numpy's // floors, so each fiber
    takes three passes."""
    for pp, p in pairs:
        np.multiply(n, -pp, out=term)
        term //= p
        acc += term


def _plan(pairs, stop: int) -> tuple:
    """(tabulated, divided) for delta over [0, stop), the one table-or-divide
    decision: the (p', p) pairs, in ascending p, are cut greedily into
    groups whose period (product of p) stays at most _PERIOD (a fiber above
    it is a group alone); a (period, pairs) group the walk revisits (period
    + _CHUNK < stop) is tabulated, and the other pairs are divided out."""
    if stop <= _CHUNK + 2:      # the walk revisits no period, as each is >= 2
        return [], pairs
    groups, tabulated, divided = [], [], []
    for pp, p in pairs:
        if groups and groups[-1][0] * p <= _PERIOD:
            period, group = groups[-1]
            groups[-1] = (period * p, group + [(pp, p)])
        else:
            groups.append((p, [(pp, p)]))
    for period, group in groups:
        if period <= _PERIOD and period + _CHUNK < stop:
            tabulated.append((period, group))
        else:
            divided.extend(group)
    return tabulated, divided


def _delta_chunks(inv: NormalizedInvariants, stop: int, out=None):
    """Yield delta(n) for 0 <= n < stop in consecutive int64 chunks of at
    most _CHUNK values; the caller guards the range.

    The chunks are views of out (length stop) when it is given, else of
    one buffer reused from chunk to chunk, so only the last chunk yielded
    is valid.  A fiber group G of period Q = prod p_i has
    F_G(n + Q) = F_G(n) + A_G, with F_G(n) the sum of its ceil(n p_i'/p_i)
    and A_G = sum (Q/p_i) p_i'.  For each group _plan tabulates, -F_G is
    tabulated once over [0, Q + _CHUNK), and a chunk at s reads the slice at
    r = s mod Q, less (s // Q) A_G.  The first table also carries the linear
    term, |e0| x - F_G(x), so its slice is shifted by |e0| (s - r) as well
    and no chunk multiplies n by |e0|.  Every other fiber is divided out on
    each chunk, by the formula the tables are built with; with no table,
    |e0| n is too.
    """
    tabulated, divided = _plan(inv.pairs, stop)
    e = abs(inv.e0)
    tables = []
    for period, group in tabulated:
        span = np.arange(period + _CHUNK, dtype=np.int64)
        table = np.zeros_like(span) if tables else span * e
        _subtract_ceilings(table, span, group, np.empty_like(span))
        tables.append((period, sum(period // p * pp for pp, p in group), table))
    # the chunk's n, advanced in place; only divided fibers read it, and
    # with no table every fiber is divided
    n = np.arange(min(_CHUNK, stop), dtype=np.int64)
    term = np.empty_like(n)
    buffer = np.empty_like(n) if out is None else None
    for start in range(0, stop, _CHUNK):
        if start and divided:
            n += _CHUNK
        m = n.size
        if start + m > stop:                # the last chunk is shorter
            m = stop - start
            n, term = n[:m], term[:m]
            if buffer is not None:
                buffer = buffer[:m]
        d = buffer if out is None else out[start:start + m]
        shift = 1
        for q, a, _ in tables:
            shift -= start // q * a
        if tables:
            q, _, table = tables[0]
            r = start % q
            np.add(table[r:r + m], shift + e * (start - r), out=d)
            for q, _, table in tables[1:]:
                r = start % q
                d += table[r:r + m]
        else:
            np.multiply(n, e, d)
            d += shift
        _subtract_ceilings(d, n, divided, term)
        yield d


def delta_array(t: SeifertTuple, upto: int) -> np.ndarray:
    """delta(n) = 1 + |e0| n - sum ceil(n p_i'/p_i) for n = 0..upto, as int64."""
    inv = normalized_invariants(t)
    _check_delta_range(t, upto)
    out = np.empty(upto + 1, dtype=np.int64)
    for _ in _delta_chunks(inv, upto + 1, out):
        pass
    return out


@dataclass(frozen=True)
class WalkStatistics:
    """Rank data read off the tau walk of a tuple.

    kappa is the sum of the walk's descents, min_tau its minimum and c the
    number of - to + sign changes of delta plus one for the final descent,
    so rank HF_red = kappa + min_tau and rank HF^ = 2c + 1.
    """

    kappa: int
    min_tau: int
    c: int

    @property
    def rank_red(self) -> int:
        return self.kappa + self.min_tau

    @property
    def rank_hat(self) -> int:
        return 2 * self.c + 1


def walk_statistics(t: SeifertTuple) -> WalkStatistics:
    """Rank data of the tau walk over [0, N]; degenerate tuples give rank 0/1.

    Only the half n < N/2 is walked.  delta(N - n) = -delta(n) gives
    tau(j) = tau(N + 1 - j), and delta(N/2) = 0 when N is even, so kappa is
    the sum of |delta| over the half and min tau is the half's minimum.  A
    - to + change in the half reappears mirrored in the second half, the
    junction of the halves is one more when the half's last nonzero delta
    is negative, and the final descent adds one: c = 2 c_half + [last < 0]
    + 1.  delta is evaluated _CHUNK values at a time, carrying tau, its
    minimum, the change count and the last nonzero sign from chunk to
    chunk, so memory is flat in N.  Each chunk first counts its positives.
    Between two positives tau only falls, so a chunk with none adds its
    sum, and one at most 1/_SPARSE positive is read off its positives: the
    sums before the first and from each positive to the next
    (np.add.reduceat) give tau's minimum, kappa (twice the positives' sum
    less the chunk's) and the changes (positives after a nonzero fall).
    Any other chunk is compacted to its nonzeros (compress, about half the
    cost of boolean indexing) and read off those.  The masks go into two
    boolean buffers allocated once per walk, so a chunk allocates only
    arrays of its positives' or its nonzeros' length (with compress's
    index array); an int64 buffer held for the walk would sit beside them
    and raise the walk's peak.  A fiber group whose period the half walks
    past more than once is read from a table of its period (see _plan)
    instead of being divided out on every chunk; a walk of one chunk
    builds no table.  walk_counts(t) reports the walk's plan.
    """
    if t.is_degenerate:
        return WalkStatistics(kappa=0, min_tau=0, c=0)
    half = _half(t)
    m = min(_CHUNK, half)
    mask, edge = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    kappa = tau = min_tau = changes = 0
    negative = False            # the last nonzero delta so far is negative
    for d in _delta_chunks(t._invariants, half):
        rises = np.greater(d, 0, out=mask[:d.size])
        k = int(np.count_nonzero(rises))
        if not k:                           # tau only falls
            fall = int(d.sum())
            kappa -= fall
            tau += fall
            min_tau = min(min_tau, tau)
            negative = negative or fall < 0
        elif k * _SPARSE <= d.size:         # read off the positives
            pos = np.flatnonzero(rises)
            head = int(d[:pos[0]].sum())    # the fall before the first positive
            seg = np.add.reduceat(d, pos)   # each positive and the fall after it
            up = d[pos]
            total = head + int(seg.sum())
            kappa += 2 * int(up.sum()) - total
            gap = np.subtract(seg, up, out=up)
            # a - to + change is a positive after a fall; the first one
            # falls from the head, or from the carried sign when head is 0
            changes += (head < 0 or negative) + int(np.count_nonzero(gap[:-1]))
            negative = bool(gap[-1] < 0)
            walk = np.cumsum(seg, out=seg)  # tau just before each next positive
            min_tau = min(min_tau, tau + head + min(0, int(walk.min())))
            tau += total
        else:                               # compact to the nonzeros
            nz = d.compress(np.not_equal(d, 0, out=mask[:d.size]))
            neg = np.less(nz, 0, out=mask[:nz.size])
            # a - to + change is a negative followed by a positive: True > False
            changes += negative and not neg[0]
            changes += int(np.count_nonzero(np.greater(neg[:-1], neg[1:], out=edge[:nz.size - 1])))
            negative = bool(neg[-1])
            kappa += int(np.abs(nz).sum())
            walk = np.cumsum(nz, out=nz)
            min_tau = min(min_tau, tau + int(walk.min()))
            tau += int(walk[-1])
    return WalkStatistics(kappa=kappa, min_tau=min_tau, c=2 * changes + negative + 1)


def walk_counts(t: SeifertTuple) -> dict:
    """walk_statistics(t)'s plan, as rank --stats writes it (see _plan);
    five zeros for a degenerate tuple, which is not walked."""
    half = 0 if t.is_degenerate else _half(t)
    tabulated, divided = _plan(t._invariants.pairs if half else (), half)
    return {"delta_entries": half, "chunks": -(-half // _CHUNK),
            "fibers_tabulated": sum(len(group) for _, group in tabulated),
            "fibers_divided": len(divided),
            "table_entries": sum(period + _CHUNK for period, _ in tabulated)}


def rank_pair(t: SeifertTuple) -> tuple:
    """(reduced rank, hat rank) of the tuple."""
    stats = walk_statistics(t)
    return stats.rank_red, stats.rank_hat
