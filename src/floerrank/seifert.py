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
of fixed size, so its memory stays flat as N grows.

Each ceiling term is quasi-periodic, ceil((n + p) p'/p) = ceil(n p'/p) + p',
so a group of fibers with period Q (the product of its multiplicities)
repeats its ceiling sum, shifted by a constant, every Q values.  The chunked
evaluator behind walk_statistics and delta_array groups the fibers
greedily in ascending order while Q stays at most _PERIOD, and tabulates a
group once over [0, Q + _CHUNK) only when the walk revisits its period
(Q + _CHUNK < the walk's length); a chunk then reads one slice per table.
The other fibers are divided out on every chunk by the formula the tables
are built with, so a walk of one chunk does the work it always did.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import check_int64, checked_product, mod_inverse, pairwise_coprime
from .errors import DegenerateTupleError, NonPositiveEntryError, NotCoprimeError


@dataclass(frozen=True)
class SeifertTuple:
    """Canonical multiplicity tuple: sorted ascending, entries >= 2, coprime.

    The empty tuple and single-entry tuples denote S^3.  Construct through
    make_tuple, which drops entries equal to 1 and sorts.
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
        checked_product(ms)

    @property
    def fiber_count(self) -> int:
        return len(self.multiplicities)

    @property
    def product(self) -> int:
        return checked_product(self.multiplicities)

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


@lru_cache(maxsize=4096)
def normalized_invariants(t: SeifertTuple) -> NormalizedInvariants:
    """Normalized invariants of the tuple; the defining relation is verified."""
    _require_fibers(t)
    ms = t.multiplicities
    P = t.product
    primes = []
    for p in ms:
        g = (P // p) % p
        primes.append((-mod_inverse(g, p)) % p)
    weighted = sum(pp * (P // p) for pp, p in zip(primes, ms))
    e0, rem = divmod(-1 - weighted, P)
    assert rem == 0
    assert e0 * P + weighted == -1
    return NormalizedInvariants(e0=e0, pairs=tuple(zip(primes, ms)))


def euler_number(t: SeifertTuple) -> Fraction:
    """Orbifold Euler number e0 + sum p_i'/p_i; always equals -1/P."""
    inv = normalized_invariants(t)
    e = Fraction(inv.e0) + sum(Fraction(pp, p) for pp, p in inv.pairs)
    assert e == Fraction(-1, t.product)
    return e


def n_cutoff(t: SeifertTuple) -> int:
    """Cutoff N = P*((l-2) - sum 1/p_i), past which delta is nonnegative."""
    _require_fibers(t)
    P = t.product
    return check_int64((t.fiber_count - 2) * P - sum(P // p for p in t.multiplicities))


def _check_delta_range(t: SeifertTuple, inv: NormalizedInvariants, upto: int):
    # guard numpy intermediates: n * p_i' stays well inside int64 for n <= upto
    check_int64(4 * (upto + 1) * max(abs(inv.e0), max(t.multiplicities)))


# delta values a walk evaluates at a time; a few int64 arrays of this
# length are alive at once, whatever N is
_CHUNK = 1 << 14
# largest fiber-group period tabulated: a table holds at most
# _PERIOD + _CHUNK int64 values, about 0.6 MB
_PERIOD = 1 << 16


def _subtract_ceilings(acc: np.ndarray, n: np.ndarray, pairs, term: np.ndarray):
    """acc -= the sum of ceil(n p'/p) over the (p', p) pairs, in place; term is scratch."""
    for pp, p in pairs:
        np.multiply(n, pp, out=term)
        term += p - 1
        term //= p
        acc -= term


def _fiber_groups(pairs) -> list:
    """(period, pairs) per group: the (p', p) pairs, in ascending p, cut
    greedily into groups whose period (product of p) stays at most
    _PERIOD; a fiber above _PERIOD is a group alone."""
    groups = []
    for pp, p in pairs:
        if groups and groups[-1][0] * p <= _PERIOD:
            period, group = groups[-1]
            groups[-1] = (period * p, group + [(pp, p)])
        else:
            groups.append((p, [(pp, p)]))
    return groups


def _delta_chunks(inv: NormalizedInvariants, stop: int, out=None, counts=None):
    """Yield delta(n) for 0 <= n < stop in consecutive int64 chunks of at
    most _CHUNK values; the caller guards the range.

    The chunks are views of out (length stop) when it is given, else of
    one buffer reused from chunk to chunk, so only the last chunk yielded
    is valid.  A fiber group G of period Q = prod p_i has
    F_G(n + Q) = F_G(n) + A_G, with F_G(n) the sum of its ceil(n p_i'/p_i)
    and A_G = sum (Q/p_i) p_i'.  When the walk revisits that period
    (Q + _CHUNK < stop), -F_G is tabulated once over [0, Q + _CHUNK), and a
    chunk at s reads the slice at s mod Q, less (s // Q) A_G.  Every other
    fiber is divided out on each chunk, by the formula the tables are
    built with.  counts, when given, receives the walk's counts (see
    walk_statistics).
    """
    tables, divided = [], list(inv.pairs)
    if stop > _CHUNK + 2:       # else the walk revisits no period, as each is >= 2
        divided = []
        for period, group in _fiber_groups(inv.pairs):
            if period <= _PERIOD and period + _CHUNK < stop:
                span = np.arange(period + _CHUNK, dtype=np.int64)
                table = np.zeros_like(span)
                _subtract_ceilings(table, span, group, np.empty_like(span))
                tables.append((period, sum(period // p * pp for pp, p in group), table))
            else:
                divided.extend(group)
    if counts is not None:
        counts["delta_entries"] += stop
        counts["chunks"] += -(-stop // _CHUNK)
        counts["fibers_tabulated"] += len(inv.pairs) - len(divided)
        counts["fibers_divided"] += len(divided)
        counts["table_entries"] += sum(table.size for _, _, table in tables)
    e = abs(inv.e0)
    n = np.arange(min(_CHUNK, stop), dtype=np.int64)    # the chunk's n, advanced in place
    term = np.empty_like(n)
    buffer = np.empty_like(n) if out is None else None
    for start in range(0, stop, _CHUNK):
        if start:
            n += _CHUNK
        m = n.size
        if start + m > stop:                # the last chunk is shorter
            m = stop - start
            n, term = n[:m], term[:m]
            if buffer is not None:
                buffer = buffer[:m]
        d = buffer if out is None else out[start:start + m]
        np.multiply(n, e, d)
        shift = 1
        for q, a, _ in tables:
            shift -= start // q * a
        d += shift
        _subtract_ceilings(d, n, divided, term)
        for q, _, table in tables:
            r = start % q
            d += table[r:r + m]
        yield d


def delta_array(t: SeifertTuple, upto: int) -> np.ndarray:
    """delta(n) = 1 + |e0| n - sum ceil(n p_i'/p_i) for n = 0..upto, as int64."""
    inv = normalized_invariants(t)
    _check_delta_range(t, inv, upto)
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


def walk_statistics(t: SeifertTuple, counts: Counter = None) -> WalkStatistics:
    """Rank data of the tau walk over [0, N]; degenerate tuples give rank 0/1.

    Only the half n < N/2 is walked.  delta(N - n) = -delta(n) gives
    tau(j) = tau(N + 1 - j), and delta(N/2) = 0 when N is even, so kappa is
    the sum of |delta| over the half and min tau is the half's minimum.  A
    - to + change in the half reappears mirrored in the second half, the
    junction of the halves is one more when the half's last nonzero delta
    is negative, and the final descent adds one: c = 2 c_half + [last < 0]
    + 1.  delta is evaluated _CHUNK values at a time, carrying tau, its
    minimum, the change count and the last nonzero sign from chunk to
    chunk, so memory is flat in N.  A fiber group whose period the half
    walks past more than once is read from a table of its period (see
    _delta_chunks) instead of being divided out on every chunk; a walk of
    one chunk builds no table.

    counts, when given, receives delta_entries (the half's length),
    chunks, fibers_tabulated, fibers_divided and table_entries.
    """
    if t.is_degenerate:
        return WalkStatistics(kappa=0, min_tau=0, c=0)
    inv = normalized_invariants(t)
    N = n_cutoff(t)
    _check_delta_range(t, inv, N)
    kappa = tau = min_tau = changes = last = 0
    for d in _delta_chunks(inv, (N + 1) // 2, counts=counts):
        kappa += int(np.abs(d).sum())
        walk = np.cumsum(d)
        min_tau = min(min_tau, tau + int(walk.min()))
        tau += int(walk[-1])
        nz = d[d != 0]
        if nz.size:
            changes += int(np.count_nonzero((nz[:-1] < 0) & (nz[1:] > 0)))
            changes += int(last < 0 and nz[0] > 0)
            last = int(nz[-1])
    return WalkStatistics(kappa=kappa, min_tau=min_tau, c=2 * changes + (last < 0) + 1)


def rank_pair(t: SeifertTuple) -> tuple:
    """(reduced rank, hat rank) of the tuple."""
    stats = walk_statistics(t)
    return stats.rank_red, stats.rank_hat
