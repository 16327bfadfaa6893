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
group once over [0, Q + _CHUNK) only when the table is shorter than the
entries the walk evaluates; a chunk then reads one slice per table, and
the first table also carries the linear term |e_0| n.  The other
fibers are divided out on every chunk by the formula the tables are built
with, so a walk of one chunk does the work it always did.
_plan makes that decision, and walk_counts reports it (rank --stats).
When a walk tabulates every fiber, its tables and chunks are int8, kept
mod 256: delta lies in [2 - l, l - 2] on [0, N] and l <= 15, so the
wrapped sums are delta itself (the proof is in _delta_chunks).

On a block [jp, (j+1)p) of the largest multiplicity p, delta is periodic
with period b = P/p, since the fraction p'/p may be replaced there by its
Farey neighbour a/b (see walk_statistics).  When p dwarfs b (p > _CHUNK,
p >= 4b and b <= _PERIOD) the walk evaluates one period per block, reads
it, and folds the block's repetitions of it in closed form; on
(2,3,600000005) that is 6 entries of the half's 3*10^8.
"""

from dataclasses import dataclass
from itertools import islice

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


def euler_number(t: SeifertTuple):
    """Orbifold Euler number e0 + sum p_i'/p_i, a Fraction; always equals -1/P."""
    from fractions import Fraction  # here, as import floerrank needs no fractions

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


# delta values a walk evaluates at a time; a few arrays of this length are
# alive at once, whatever N is: int8 chunks when every fiber is tabulated
# (see _delta_chunks), else int64 ones.  On a 2-core host the (2,...,19)
# walk took about 50 ms in int8 chunks of 2^15 against 74 ms in int64
# chunks of 2^14; 2^16 was about 10% faster again, but its table build
# raised the walk's peak of traced allocations from 1.09 to 1.68 MB.
_CHUNK = 1 << 15
# largest fiber-group period tabulated: a table holds at most
# _PERIOD + _CHUNK values, 96 kB as int8 and 0.8 MB as int64, and is built
# with two int64 scratch arrays of its length
_PERIOD = 1 << 16
# a walk reads a chunk off its positive entries, not its compacted
# nonzeros, when at most 1/_SPARSE of the chunk is positive
_SPARSE = 16


def _subtract_ceilings(acc: np.ndarray, n: np.ndarray, pairs, term: np.ndarray):
    """acc -= the sum of ceil(n p'/p) over the (p', p) pairs, in place; term is scratch.

    ceil(n p'/p) = -floor(-n p'/p), and numpy's // floors, so each fiber
    takes three passes.  The add runs in acc's dtype, so an int8 acc (a
    table of _delta_chunks) takes each term mod 256, and the cast needs
    no int64 buffer."""
    for pp, p in pairs:
        np.multiply(n, -pp, out=term)
        term //= p
        np.add(acc, term, out=acc, dtype=acc.dtype, casting="unsafe")


def _plan(pairs, work: int) -> tuple:
    """(tabulated, divided) for an evaluation of work delta entries, the one
    table-or-divide decision: the (p', p) pairs, in ascending p, are cut
    greedily into groups whose period (product of p) stays at most _PERIOD
    (a fiber above it is a group alone); a (period, pairs) group whose table
    is shorter than the work (period + _CHUNK < work; over [0, work) the
    walk then revisits the period) is tabulated, and the other pairs are
    divided out."""
    if work <= _CHUNK + 2:      # no table is shorter, as each period is >= 2
        return [], pairs
    groups, tabulated, divided = [], [], []
    for pp, p in pairs:
        if groups and groups[-1][0] * p <= _PERIOD:
            period, group = groups[-1]
            groups[-1] = (period * p, group + [(pp, p)])
        else:
            groups.append((p, [(pp, p)]))
    for period, group in groups:
        if period <= _PERIOD and period + _CHUNK < work:
            tabulated.append((period, group))
        else:
            divided.extend(group)
    return tabulated, divided


def _delta_chunks(inv: NormalizedInvariants, spans, work: int, out=None):
    """Yield delta(n) over each span first <= n < stop of spans, in turn, in
    consecutive chunks of at most _CHUNK values, none across two spans;
    work is the spans' total length, and the caller guards the range.

    The chunks are views of out (int64, length work) when it is given, else
    of one buffer reused from chunk to chunk, so only the last chunk yielded
    is valid.  A fiber group G of period Q = prod p_i has
    F_G(n + Q) = F_G(n) + A_G, with F_G(n) the sum of its ceil(n p_i'/p_i)
    and A_G = sum (Q/p_i) p_i'.  For each group _plan tabulates, -F_G is
    tabulated once over [0, Q + _CHUNK), and a chunk at s reads the slice at
    r = s mod Q, less (s // Q) A_G.  The first table also carries the linear
    term, |e0| x - F_G(x), so its slice is shifted by |e0| (s - r) as well
    and no chunk multiplies n by |e0|.  Every other fiber is divided out on
    each chunk, by the formula the tables are built with; with no table,
    |e0| n is too.

    When every fiber is tabulated and there is no out, the tables and the
    chunks are int8, each value kept mod 256 (casts and int8 adds wrap), so
    a chunk is its slice adds and a shift reduced into [-128, 127], with no
    int64 pass.  The sum is exact mod 256, and so is delta, because delta
    is in int8's range on [0, N]: ceil(x) = x + frac(-x) and
    sum p_i'/p_i = |e0| - 1/P give delta(n) = 1 + n/P - sum frac(-n p_i'/p_i),
    and 0 <= n/P <= N/P < l - 2 with each frac in [0, 1), so
    2 - l <= delta(n) <= l - 2, and a walk reads only n < N/2.  l
    pairwise coprime multiplicities have distinct least prime factors, so
    P is at least the product of the first l primes, which passes 2^63 at
    l = 16: checked_product refuses that, l <= 15 and |delta| <= 13.  A
    walk with a divided fiber, and every delta_array, stays int64.
    """
    tabulated, divided = _plan(inv.pairs, work)
    wrap = out is None and not divided
    dtype = np.int8 if wrap else np.int64
    e = abs(inv.e0)
    tables = []
    for period, group in tabulated:
        # one table of dtype and two int64 scratch arrays of its length
        span = np.arange(period + _CHUNK, dtype=np.int64)
        table = np.zeros(span.size, dtype)
        if not tables:
            np.multiply(span, e, out=table, dtype=table.dtype, casting="unsafe")
        _subtract_ceilings(table, span, group, np.empty_like(span))
        tables.append((period, sum(period // p * pp for pp, p in group), table))
    # the chunk's n, moved in place to each chunk's start (at); only divided
    # fibers read it, and with no table every fiber is divided, so with none
    # divided n and its scratch are a view of one zero, which allocates nothing
    size = min(_CHUNK, work)
    if divided:
        ns, terms = np.arange(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    else:
        ns = terms = np.broadcast_to(np.int64(0), size)
    buffers = np.empty(size, dtype) if out is None else None
    n, term, buffer = ns, terms, buffers
    at = done = 0
    for first, stop in spans:
        for start in range(first, stop, _CHUNK):
            m = min(size, stop - start)
            if m != n.size:                 # a span's last chunk is shorter
                n, term = ns[:m], terms[:m]
                if out is None:
                    buffer = buffers[:m]
            if divided and start != at:
                ns += start - at
                at = start
            d = buffer if out is None else out[done:done + m]
            done += m
            shift = 1
            for q, a, _ in tables:
                shift -= start // q * a
            if tables:
                q, _, table = tables[0]
                r = start % q
                shift += e * (start - r)
                if wrap:
                    shift = (shift + 128) % 256 - 128
                np.add(table[r:r + m], shift, out=d)
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
    for _ in _delta_chunks(inv, [(0, upto + 1)], upto + 1, out):
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


# A walk's summary is (kappa, its tau total, the minimum of its tau prefixes
# with the empty one, its - to + changes, its first and its last nonzero
# sign); a sign is -1 or 1, or 0 in a walk with no nonzero delta.
_EMPTY = (0, 0, 0, 0, 0, 0)


def _join(a: tuple, b: tuple) -> tuple:
    """The summary of walk a followed by walk b."""
    kappa, total, low, changes, first, last = a
    kappa_b, total_b, low_b, changes_b, first_b, last_b = b
    return (kappa + kappa_b, total + total_b, min(low, total + low_b),
            changes + changes_b + (last < 0 < first_b), first or first_b, last_b or last)


def _repeat(s: tuple, r: int) -> tuple:
    """The summary of walk s repeated r times, in closed form: the lowest
    prefix is in the first copy or the last, and each seam between copies
    is a change when s ends negative and starts positive."""
    if not r:
        return _EMPTY
    kappa, total, low, changes, first, last = s
    return (kappa * r, total * r, low + min(0, (r - 1) * total),
            changes * r + (r - 1) * (last < 0 < first), first, last)


def _read(d: np.ndarray, mask: np.ndarray, edge: np.ndarray) -> tuple:
    """The summary of a chunk d of delta, int8 or int64; mask and edge are
    boolean buffers at least as long as d.

    The chunk first counts its positives.  Between two positives tau only
    falls, so a chunk with none is read off its sum, and one at most
    1/_SPARSE positive off its positives: the sums before the first and
    from each positive to the next (np.add.reduceat) give tau's minimum,
    kappa (twice the positives' sum less the chunk's) and the changes
    (positives after a nonzero fall).  Any other chunk is compacted to its
    nonzeros (compress, about half the cost of boolean indexing) and read
    off those.  So a chunk allocates only arrays of its positives' or its
    nonzeros' length (with compress's index array).  Every sum, reduceat
    and cumsum is taken as int64, and the positives gathered off d are
    widened before any arithmetic, so an int8 chunk reads as its int64
    values would.
    """
    rises = np.greater(d, 0, out=mask[:d.size])
    k = int(np.count_nonzero(rises))
    if not k:                               # tau only falls
        fall = int(d.sum(dtype=np.int64))
        sign = -1 if fall < 0 else 0
        return -fall, fall, fall, 0, sign, sign
    if k * _SPARSE <= d.size:               # read off the positives
        pos = np.flatnonzero(rises)
        # the fall before the first positive, and each positive with the fall after it
        head = int(d[:pos[0]].sum(dtype=np.int64))
        seg = np.add.reduceat(d, pos, dtype=np.int64)
        up = d[pos].astype(np.int64, copy=False)
        total = head + int(seg.sum())
        kappa = 2 * int(up.sum()) - total
        gap = np.subtract(seg, up, out=up)
        # a - to + change is a positive after a fall; the first one's fall is the head
        changes = (head < 0) + int(np.count_nonzero(gap[:-1]))
        walk = np.cumsum(seg, out=seg)      # tau just before each next positive
        return (kappa, total, head + min(0, int(walk.min())), changes,
                -1 if head < 0 else 1, -1 if gap[-1] < 0 else 1)
    nz = d.compress(np.not_equal(d, 0, out=mask[:d.size]))
    neg = np.less(nz, 0, out=mask[:nz.size])
    # a - to + change is a negative followed by a positive: True > False
    changes = int(np.count_nonzero(np.greater(neg[:-1], neg[1:], out=edge[:nz.size - 1])))
    kappa = int(np.abs(nz).sum(dtype=np.int64))
    walk = np.cumsum(nz, dtype=np.int64)
    return (kappa, int(walk[-1]), min(0, int(walk.min())), changes,
            -1 if neg[0] else 1, -1 if neg[-1] else 1)


def _period(t: SeifertTuple) -> int:
    """b = P/p, the period of delta on each block of p = the largest
    multiplicity, when the walk reads t block by block, else 0.  The rule
    is p > _CHUNK, so there are fewer blocks than chunks, p >= 4b, so at
    most a quarter of the entries are evaluated, and b <= _PERIOD, so the
    other fibers make one group, of period b, and one table when it is
    built (see walk_statistics and _plan)."""
    p = t.multiplicities[-1]
    b = t.product // p
    return b if p > _CHUNK and 4 * b <= p and b <= _PERIOD else 0


def _block_entries(half: int, p: int, b: int) -> int:
    """The delta entries a walk by blocks evaluates: b in each block of the
    half, fewer in a last block shorter than b."""
    return half // p * b + min(b, half % p)


def walk_statistics(t: SeifertTuple) -> WalkStatistics:
    """Rank data of the tau walk over [0, N]; degenerate tuples give rank 0/1.

    Only the half n < N/2 is walked.  delta(N - n) = -delta(n) gives
    tau(j) = tau(N + 1 - j), and delta(N/2) = 0 when N is even, so kappa is
    the sum of |delta| over the half and min tau is the half's minimum.  A
    - to + change in the half reappears mirrored in the second half, the
    junction of the halves is one more when the half's last nonzero delta
    is negative, and the final descent adds one: c = 2 c_half + [last < 0]
    + 1.  delta is evaluated _CHUNK values at a time, each chunk is read
    into a summary (_read), and the summaries are joined left to right, so
    memory is flat in N.  The chunks are int8 when every fiber is
    tabulated (see _delta_chunks), so the reader's compares, compress and
    sums pass over one byte per entry.  The masks go into two boolean
    buffers allocated once per walk; an int64 buffer held for the walk
    would sit beside a chunk's arrays and raise the walk's peak.  A fiber
    group whose period the half walks past more than once is read from a
    table of its period (see _plan) instead of being divided out on every
    chunk; a walk of one chunk builds no table.

    The largest fiber gives a second path.  With p its multiplicity, p' its
    invariant and b = P/p, the defining relation taken mod p gives
    b p' = -1 (mod p), so a = (b p' + 1)/p is an integer and
    a/b = p'/p + 1/(bp) is the Farey neighbour of p'/p: no fraction of
    denominator below p + b lies strictly between them, so
    ceil(m p'/p) = ceil(m a/b) for 0 <= m < p.  The other multiplicities
    divide b, and the relation divided by p gives
    |e0| b - sum_{i<l} b p_i'/p_i = a, so delta(n + b) = delta(n) whenever
    n and n + b lie in one block [jp, (j+1)p).  A block of L entries of the
    half is then r = L // b copies of its first b entries followed by their
    first L mod b.  So the walk evaluates those b entries (all L when
    r = 0), reads them as two summaries, the first L mod b and the rest,
    and folds the r copies in closed form (_repeat); the blocks are joined
    left to right like chunks.  One evaluator serves all the blocks, so a
    table is built once per walk, when the entries evaluated pay for it.
    The walk takes this path by a rule on the tuple alone (_period): then
    it evaluates at most a quarter of the entries, in fewer blocks than the
    chunk walk has chunks.  Every other tuple, including all of botany's
    (p <= 6n + 6), is walked in chunks.  walk_counts(t) reports the walk's
    plan.
    """
    if t.is_degenerate:
        return WalkStatistics(kappa=0, min_tau=0, c=0)
    half = _half(t)
    m = min(_CHUNK, half)
    mask, edge = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    inv = t._invariants
    walk = _EMPTY
    b = _period(t)
    if b:
        p = t.multiplicities[-1]
        blocks = range(0, half, p)
        chunks = _delta_chunks(inv, ((s, min(s + b, half)) for s in blocks),
                               _block_entries(half, p, b))
        for start in blocks:
            r, cut = divmod(min(p, half - start), b)
            # a period's first cut entries (the block's remainder), and the rest
            head = rest = _EMPTY
            for d in islice(chunks, -(-min(b, half - start) // _CHUNK)):
                k = min(cut, d.size)
                if k:
                    head = _join(head, _read(d[:k], mask, edge))
                if k < d.size:
                    rest = _join(rest, _read(d[k:], mask, edge))
                cut -= k
            walk = _join(walk, _join(_repeat(_join(head, rest), r), head))
    else:
        for d in _delta_chunks(inv, [(0, half)], half):
            walk = _join(walk, _read(d, mask, edge))
    kappa, _, min_tau, changes, _, last = walk
    return WalkStatistics(kappa=kappa, min_tau=min_tau, c=2 * changes + (last < 0) + 1)


def walk_counts(t: SeifertTuple) -> dict:
    """walk_statistics(t)'s plan, as rank --stats writes it (see _plan):
    the delta entries evaluated, the chunks they came in, the fibers
    tabulated and divided and the table entries, and for a walk by blocks
    also the blocks and the period b; five zeros for a degenerate tuple,
    which is not walked."""
    half = 0 if t.is_degenerate else _half(t)
    b = _period(t) if half else 0
    entries, chunks = half, -(-half // _CHUNK)
    if b:
        p = t.multiplicities[-1]
        full, tail = divmod(half, p)
        entries = _block_entries(half, p, b)
        chunks = full * -(-b // _CHUNK) + -(-min(b, tail) // _CHUNK)
    tabulated, divided = _plan(t._invariants.pairs if half else (), entries)
    counts = {"delta_entries": entries, "chunks": chunks,
              "fibers_tabulated": sum(len(group) for _, group in tabulated),
              "fibers_divided": len(divided),
              "table_entries": sum(period + _CHUNK for period, _ in tabulated)}
    if b:
        counts.update(blocks=-(-half // p), period=b)
    return counts


def rank_pair(t: SeifertTuple) -> tuple:
    """(reduced rank, hat rank) of the tuple."""
    stats = walk_statistics(t)
    return stats.rank_red, stats.rank_hat
