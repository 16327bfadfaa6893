"""Morphisms between delta sequences, and the three concrete families.

A morphism maps positions of one delta sequence to positions of another,
sending positive positions to positive ones and negative to negative.  The
classes checked here, ordered by how much structure they preserve:

    isomorphism   order-preserving value-preserving bijection
    right-veering bijection, order-preserving on each sign separately,
                  never moves a positive past a negative it preceded
    embedding     mixed pairs keep their order both ways + target values
                  have capacity for their fibers
    immersion     mixed pairs keep their order forward + capacity
    semi-immersion mixed pairs keep their order forward only

Embeddings can be upgraded to an isomorphism onto a delta subsequence, and
a well-behaved one-to-one semi-immersion (one admitting a control function
pairing each positive-defect point with a compensating negative-defect
point) can be upgraded to a one-to-one immersion; both upgrades go through
refinements that do not change ranks.

The three concrete families: the degree-n covering maps z -> n z + k P/p_l,
the normal-form comparison map between componentwise-comparable tuples, and
the pinch map driven by the order bijection of a two-generator numerical
semigroup.
"""

from dataclasses import dataclass
from functools import wraps

import numpy as np

from . import seifert
from .arith import check_int64, gcd, mod_inverse, pairwise_coprime
from .deltaseq import DeltaSequence, from_seifert
from .errors import (
    DegenerateTupleError,
    NotBadError,
    NotComparableError,
    NotControlledError,
    NotCoprimeError,
    NotEmbeddingError,
    NotMemberError,
    NotRigidError,
    NotSemiImmersionError,
)


def _distinct(values: np.ndarray) -> bool:
    ordered = np.sort(values)
    return bool(np.all(ordered[1:] != ordered[:-1]))


def _cached(check):
    """A validator whose verdict the map keeps after its first call."""
    name = check.__name__

    @wraps(check)
    def cached(self) -> bool:
        verdict = self._verdicts.get(name)
        if verdict is None:
            verdict = self._verdicts[name] = check(self)
        return verdict

    return cached


class DeltaMorphism:
    """A total position map between two delta sequences.

    mapping lists the image of each source position, in source order; it is
    converted once into index, a read-only int64 array holding for each
    source position the index of its image among the target's positions.
    A position outside the target is refused.  The library's own
    constructions, which build target indices directly, go through
    _from_index instead: it checks that each index lies in the target and
    searches nothing.  Each validator is a few array operations over index
    and the two sequences' values.  The arrays are read-only, so a verdict
    cannot change: the map keeps each validator's verdict (and, like the
    defect table, the control-function verdict of the last theta, keyed by
    a copy of its contents), and a check repeated on the same map is
    answered from that cache.
    """

    def __init__(self, source: DeltaSequence, target: DeltaSequence, mapping):
        self._hold(source, target, target.indices_of(mapping))

    @classmethod
    def _from_index(cls, source: DeltaSequence, target: DeltaSequence,
                    index) -> "DeltaMorphism":
        """The library's own fresh target indices, range-checked, kept (made
        read-only) without a copy."""
        index = np.asarray(index, dtype=np.int64)
        if index.size and (index.min() < 0 or index.max() >= len(target)):
            raise ValueError(f"indices must lie in [0, {len(target)})")
        m = cls.__new__(cls)
        m._hold(source, target, index)
        return m

    def _hold(self, source: DeltaSequence, target: DeltaSequence, index: np.ndarray):
        if index.shape != source.positions.shape:
            raise ValueError(f"mapping has {index.size} images for "
                             f"{len(source)} source positions")
        index.flags.writeable = False
        self.source = source
        self.target = target
        self.index = index
        self._verdicts = {}
        self._control = None        # (copy of theta, verdict)
        self._defect_table = None

    @property
    def mapping(self) -> np.ndarray:
        """The image positions, in source order."""
        return self.target.positions[self.index]

    def image(self, position) -> int:
        return int(self.target.positions[self.index[self.source.indices_of(position)]])

    @_cached
    def is_injective(self) -> bool:
        return _distinct(self.index)

    @_cached
    def is_morphism(self) -> bool:
        """Positive positions land on positive values, negative on negative."""
        return np.array_equal(self.source.values > 0, self.target.values[self.index] > 0)

    @_cached
    def preserves_values(self) -> bool:
        return np.array_equal(self.source.values, self.target.values[self.index])

    @_cached
    def _mixed_order_forward(self) -> bool:
        # for x positive, y negative, x < y: image(x) < image(y)
        pos = self.source.values > 0
        prefix_max = np.maximum.accumulate(np.where(pos, self.index, -1))
        return bool(np.all(prefix_max[~pos] < self.index[~pos]))

    @_cached
    def _mixed_order_backward(self) -> bool:
        # for x positive, y negative, y < x: image(y) < image(x)
        pos = self.source.values > 0
        suffix_min = np.minimum.accumulate(
            np.where(pos, self.index, len(self.target))[::-1])[::-1]
        return bool(np.all(self.index[~pos] < suffix_min[~pos]))

    @_cached
    def _capacity_ok(self) -> bool:
        # |target value| covers the total |source value| of its fiber
        load = np.zeros(len(self.target), dtype=np.int64)
        np.add.at(load, self.index, np.abs(self.source.values))
        return bool(np.all(load <= np.abs(self.target.values)))

    def is_semi_immersion(self) -> bool:
        return self.is_morphism() and self._mixed_order_forward()

    def is_immersion(self) -> bool:
        return self.is_semi_immersion() and self._capacity_ok()

    def is_embedding(self) -> bool:
        return (self.is_morphism()
                and self._mixed_order_forward()
                and self._mixed_order_backward()
                and self._capacity_ok())

    def is_isomorphism(self) -> bool:
        return (len(self.source) == len(self.target)
                and np.array_equal(self.index, np.arange(len(self.target)))
                and self.preserves_values())

    @_cached
    def is_isomorphism_onto_image(self) -> bool:
        """Order-preserving value-preserving injection (image may be proper)."""
        return bool(np.all(np.diff(self.index) > 0)) and self.preserves_values()

    def is_right_veering(self) -> bool:
        # order inside each sign class and preserved values make it one-to-one
        pos = self.source.values > 0
        return (len(self.source) == len(self.target)
                and self.preserves_values()
                and bool(np.all(np.diff(self.index[pos]) > 0))
                and bool(np.all(np.diff(self.index[~pos]) > 0))
                and self._mixed_order_forward())

    def defect_table(self) -> "DefectTable":
        if self._defect_table is None:
            if not (self.is_injective() and self.is_semi_immersion()):
                raise NotSemiImmersionError("defects need a one-to-one semi-immersion")
            defects = np.abs(self.source.values) - np.abs(self.target.values[self.index])
            defects.flags.writeable = False
            positions = self.source.positions
            self._defect_table = DefectTable(defects=defects,
                                             bad=positions[defects > 0],
                                             good=positions[defects < 0],
                                             neutral=positions[defects == 0])
        return self._defect_table

    def to_json(self) -> dict:
        return {"map": np.column_stack([self.source.positions, self.mapping]).tolist()}


@dataclass(frozen=True, eq=False)
class DefectTable:
    """Capacity excess of a one-to-one semi-immersion at each source position.

    defects is in source order; bad, good and neutral are the source
    positions of positive, negative and zero defect.
    """

    defects: np.ndarray
    bad: np.ndarray
    good: np.ndarray
    neutral: np.ndarray


def is_control_function(m: DeltaMorphism, theta: dict) -> bool:
    """Check an injection of the bad set into the good set.

    It must preserve the sign class, point strictly left of its argument on
    the positive side and strictly right on the negative side, and every
    good image must absorb at least the defect of its bad point.
    """
    if m._control is not None and m._control[0] == theta:
        return m._control[1]
    verdict = _control_verdict(m, theta)
    m._control = (dict(theta), verdict)
    return verdict


def _control_verdict(m: DeltaMorphism, theta: dict) -> bool:
    table = m.defect_table()
    bad = np.fromiter(theta.keys(), dtype=np.int64, count=len(theta))
    good = np.fromiter(theta.values(), dtype=np.int64, count=len(theta))
    if not (np.array_equal(np.sort(bad), table.bad) and _distinct(good)
            and np.isin(good, table.good, assume_unique=True).all()):
        return False
    b, g = m.source.indices_of(bad), m.source.indices_of(good)
    positive = m.source.values[b] > 0
    return bool(np.array_equal(positive, m.source.values[g] > 0)
                and np.all(np.where(positive, good < bad, good > bad))
                and np.all(np.abs(table.defects[b]) <= np.abs(table.defects[g])))


def embed_to_subsequence(m: DeltaMorphism):
    """Turn an embedding into an isomorphism onto a delta subsequence.

    Each target value is refined into the values of its fiber, in source
    order, plus the remainder the fiber leaves, so the map becomes injective
    with matching values.  Order inside each sign class is then repaired by
    sorting the images inside every maximal same-sign run of the source,
    carrying the values: each swap of neighbours is a merge followed by the
    transposed refinement.  Returns (refined source, refined target,
    morphism between them); the refined target sits at positions 0..k-1,
    the morphism is an isomorphism onto its image and ranks are unchanged.
    """
    if not m.is_embedding():
        raise NotEmbeddingError("map is not an embedding")
    source, index = m.source, m.index
    counts = np.bincount(index, minlength=len(m.target))
    remainder = m.target.values.copy()
    np.subtract.at(remainder, index, source.values)
    has_rem = remainder != 0
    before = np.cumsum(has_rem) - has_rem      # remainders ahead of each fiber
    order = np.argsort(index, kind="stable")   # source indices fiber by fiber
    slot = np.empty_like(index)
    slot[order] = np.arange(index.size) + before[index[order]]
    values = np.empty(index.size + np.count_nonzero(has_rem), dtype=np.int64)
    values[slot] = source.values
    values[(np.cumsum(counts) + before)[has_rem]] = remainder[has_rem]
    target = DeltaSequence._adopt(np.arange(values.size), values)

    run = np.cumsum(np.diff(source.values > 0, prepend=source.values[:1] > 0))
    perm = np.lexsort((slot, run))
    refined_source = DeltaSequence._adopt(source.positions, source.values[perm])
    result = DeltaMorphism._from_index(refined_source, target, slot[perm])
    assert result.is_isomorphism_onto_image()
    return refined_source, target, result


def _split_in_two(seq: DeltaSequence, at, first) -> DeltaSequence:
    """Refine the value at each index in at into (first, the rest), at 0..k-1;
    fix_defects' control function gives both parts the value's sign."""
    values = seq.values.copy()
    values[at] = first
    values = np.insert(values, at + 1, seq.values[at] - first)
    return DeltaSequence._adopt(np.arange(values.size), values)


def _after_split(at, i):
    """Index of old index i once every index in at is split in two."""
    return i + np.searchsorted(np.sort(at), i)


def fix_defects(m: DeltaMorphism, theta: dict):
    """Upgrade a controlled one-to-one semi-immersion to an immersion.

    Each bad point b splits into (b1, b2) with b1 carrying exactly the value
    of its image; each matched good image g splits into (g1, g2) with g1
    carrying exactly the value of theta(b).  The map keeps b1 -> image(b)
    and theta(b) -> g1 and sends the excess b2 to the slack g2.
    Returns (refined source, refined target, one-to-one immersion), both
    sequences re-indexed to positions 0..k-1.
    """
    if not is_control_function(m, theta):
        raise NotControlledError("theta is not a control function for the map")
    source, target, index = m.source, m.target, m.index
    bad = m.defect_table().bad
    b = source.indices_of(bad)
    controls = source.indices_of([theta[x] for x in bad.tolist()])
    g = index[controls]
    new_source = _split_in_two(source, b, target.values[index[b]])
    new_target = _split_in_two(target, g, source.values[controls])
    mapping = np.empty(len(new_source), dtype=np.int64)
    mapping[_after_split(b, np.arange(len(source)))] = _after_split(g, index)
    mapping[_after_split(b, b) + 1] = _after_split(g, g) + 1
    result = DeltaMorphism._from_index(new_source, new_target, mapping)
    assert result.is_injective() and result.is_immersion()
    return new_source, new_target, result


# -- branched covers along a singular fiber ---------------------------------


def branched_cover_embeddings(t: seifert.SeifertTuple, n: int,
                              fiber: int = None) -> list:
    """The n disjoint value-preserving embeddings into the n-fold cover.

    The cover multiplies the designated multiplicity (the largest one by
    default) by n; the k-th map is z -> n z + k (P / fiber) for k = 0..n-1.
    The degree must be coprime to every other multiplicity.
    """
    if n < 1:
        raise ValueError(f"covering degree must be >= 1, got {n}")
    if t.is_degenerate:
        raise DegenerateTupleError(f"{t} has no delta sequence")
    if fiber is None:
        fiber = t.multiplicities[-1]
    if fiber not in t.multiplicities:
        raise ValueError(f"{fiber} is not a multiplicity of {t}")
    others = tuple(p for p in t.multiplicities if p != fiber)
    if any(gcd(n, p) != 1 for p in others):
        raise NotCoprimeError(f"degree {n} shares a factor with {others}")
    cover = seifert.make_tuple(others + (n * fiber,))
    target = from_seifert(cover)
    source = from_seifert(t)
    shift = t.product // fiber
    return [DeltaMorphism(source, target, n * source.positions + k * shift)
            for k in range(n)]


# -- the normal-form comparison map ------------------------------------------


def partial_order_immersion(t: seifert.SeifertTuple, t2: seifert.SeifertTuple) -> DeltaMorphism:
    """Immersion between comparable tuples of the same length.

    A member with normal form P (k + sum x_i/p_i) maps to the member of the
    larger tuple with the same coordinates, P' (k + sum x_i/q_i); negative
    positions follow by reflection.
    """
    ps, qs = t.multiplicities, t2.multiplicities
    if len(ps) != len(qs) or any(p > q for p, q in zip(ps, qs)):
        raise NotComparableError(f"{t} is not componentwise <= {t2}")
    if t.is_degenerate or t2.is_degenerate:
        raise DegenerateTupleError("both tuples must have delta sequences")
    target = from_seifert(t2)
    source = from_seifert(t)
    n1, p2 = seifert.n_cutoff(t), t2.product
    xs = source.positive_positions
    k, coords = _normal_forms(xs, t, n1)
    images = p2 * k + sum(coord * (p2 // q) for coord, q in zip(coords, qs))
    return _reflected(source, target, xs, images, n1, seifert.n_cutoff(t2))


def _normal_forms(xs: np.ndarray, t: seifert.SeifertTuple, n: int):
    """k and the coordinates x_i of each member x = P (k + sum x_i/p_i) in xs,
    members of t at most n, by one array pass per fiber of t."""
    full, ps = t.product, t.multiplicities
    check_int64((n + 1) * full)
    coords = [xs * mod_inverse(full // p % p, p) % p for p in ps]
    k, rem = np.divmod(xs - sum(c * (full // p) for c, p in zip(coords, ps)), full)
    assert not rem.any()
    return k, coords


# -- two-generator numerical semigroups (the pinch engine) -------------------


class TwoGenSemigroup:
    """The numerical semigroup {aq + br : a, b >= 0} for coprime q, r >= 2.

    Carries the two delta functions 1 + floor(x/qr) on the natural numbers
    and 1 + floor(a/r) + floor(b/q) on members, and the order bijection psi
    between them.  psi reads an int64 table of the members below the
    Frobenius number under the shift (half the gap count) and adds the
    shift above.  psi_array and theta_array map int64 arrays elementwise.
    """

    def __init__(self, q: int, r: int):
        if q < 2 or r < 2:
            raise ValueError(f"generators must be >= 2, got ({q}, {r})")
        if gcd(q, r) != 1:
            raise NotCoprimeError(f"({q}, {r}) are not coprime")
        self.q, self.r = q, r
        self.frobenius = q * r - q - r
        self.shift = (q - 1) * (r - 1) // 2
        self._q_inv_mod_r = mod_inverse(q % r, r)
        upto = np.arange(self.frobenius + 1)
        self._small = upto[upto * self._q_inv_mod_r % r * q <= upto]
        self._small.flags.writeable = False
        assert self._small.size == self.shift

    def _is_member(self, s: int) -> bool:
        # s = aq + br with 0 <= a < r, a member iff b >= 0
        return s >= 0 and s * self._q_inv_mod_r % self.r * self.q <= s

    def __contains__(self, s) -> bool:
        return self._is_member(int(s))

    def gaps(self) -> list:
        """The finitely many naturals outside the semigroup."""
        return [x for x in range(self.frobenius + 1) if not self._is_member(x)]

    def members_upto(self, bound: int) -> list:
        return [s for s in range(bound + 1) if self._is_member(s)]

    def psi(self, x: int) -> int:
        """The order-preserving bijection from the naturals onto the members."""
        if x < 0:
            raise ValueError("psi is defined on nonnegative integers")
        if x < self.shift:
            return int(self._small[x])
        return x + self.shift

    def psi_array(self, x: np.ndarray) -> np.ndarray:
        """psi of each entry of a nonnegative int64 array."""
        return np.where(x < self.shift, self._small.take(x, mode="clip"), x + self.shift)

    def delta_upper(self, x: int) -> int:
        """1 + floor(x / qr), the delta value on the natural numbers."""
        if x < 0:
            raise ValueError("needs x >= 0")
        return 1 + x // (self.q * self.r)

    def delta_lower(self, s: int) -> int:
        """1 + floor(a/r) + floor(b/q) for the canonical s = aq + br."""
        if not self._is_member(s):
            raise NotMemberError(f"{s} is not in S({self.q},{self.r})")
        return self._delta_lower(s)

    def _delta_lower(self, s):
        a = s * self._q_inv_mod_r % self.r
        return 1 + a // self.r + (s - a * self.q) // self.r // self.q

    def defect(self, x: int) -> int:
        """Defect of x under psi: delta_upper(x) - delta_lower(psi(x))."""
        return self.delta_upper(x) - self.delta_lower(self.psi(x))

    def bad_points_upto(self, bound: int) -> list:
        return [x for x in range(bound + 1) if self.defect(x) > 0]

    def theta(self, b: int) -> int:
        """Control partner 2kqr - b - 1 of a bad point in [kqr, (k+1)qr)."""
        if self.defect(b) <= 0:
            raise NotBadError(f"{b} has no positive defect under psi")
        qr = self.q * self.r
        return 2 * (b // qr) * qr - b - 1

    def theta_array(self, b: np.ndarray) -> np.ndarray:
        """theta of each entry of a nonnegative int64 array, all bad points."""
        qr = self.q * self.r
        bad = 1 + b // qr > self._delta_lower(self.psi_array(b))
        if not bad.all():
            raise NotBadError(f"{b[~bad][:5].tolist()} have no positive defect under psi")
        return 2 * (b // qr) * qr - b - 1


# -- rigid maps and the pinch morphism ---------------------------------------


def _reflected(source: DeltaSequence, target: DeltaSequence, xs: np.ndarray,
               ys: np.ndarray, n_source: int, n_target: int) -> DeltaMorphism:
    """xs -> ys elementwise, n_source - xs -> n_target - ys (int64 arrays)."""
    keys = np.concatenate([xs, n_source - xs])
    order = np.argsort(keys, kind="stable")
    if not np.array_equal(keys[order], source.positions):
        raise ValueError("the reflected map does not cover the source positions exactly")
    return DeltaMorphism(source, target, np.concatenate([ys, n_target - ys])[order])


def _rigid(source: DeltaSequence, target: DeltaSequence, xs: np.ndarray,
           ys: np.ndarray, n_source: int, n_target: int) -> DeltaMorphism:
    """The reflected extension of xs -> ys (xs the positive positions), once
    the map is checked rigid: injective, never moving a point left, and
    moving none by more than half the cutoff difference.  The extension is
    then a one-to-one semi-immersion."""
    if not _distinct(ys):
        raise NotRigidError("partial map is not injective")
    broken = (ys < xs) | (2 * (ys - xs) > n_target - n_source)
    if broken.any():
        i = np.argmax(broken)
        raise NotRigidError(f"{xs[i]} -> {ys[i]} moves left or by more than half "
                            "the cutoff difference")
    return _reflected(source, target, xs, ys, n_source, n_target)


def pinch_semi_immersion(base, q: int, r: int):
    """The pinch map from Sigma(base, qr) into Sigma(base, q, r).

    A positive position x = P (k + sum x_i/p_i + x_qr/qr) is unit z plus a
    base-fiber part, z = qr k + x_qr and unit = P/qr.  All positives have z
    replaced by psi(z) at once, psi the order bijection of the two-generator
    semigroup, and the rest extends by reflection.  Returns (morphism,
    theta): theta puts theta(z) for z at each positive-defect position,
    reflected on the negative side.
    """
    base = tuple(seifert.make_tuple(base).multiplicities)
    if q < 2 or r < 2:
        raise ValueError(f"pinch factors must be >= 2, got ({q}, {r})")
    if not pairwise_coprime(base + (q, r)):
        raise NotCoprimeError(f"{base} with ({q}, {r}) is not jointly coprime")
    t_source = seifert.make_tuple(base + (q * r,))
    t_target = seifert.make_tuple(base + (q, r))
    if t_source.is_degenerate or t_target.is_degenerate:
        raise DegenerateTupleError("pinch needs non-degenerate source and target")

    target = from_seifert(t_target)
    source = from_seifert(t_source)
    n1, n2 = seifert.n_cutoff(t_source), seifert.n_cutoff(t_target)
    unit = t_source.product // (q * r)
    semi = TwoGenSemigroup(q, r)

    xs = source.positive_positions
    k, coords = _normal_forms(xs, t_source, n1)
    z = q * r * k + coords[t_source.multiplicities.index(q * r)]
    morphism = _rigid(source, target, xs, xs + unit * (semi.psi_array(z) - z), n1, n2)

    table = morphism.defect_table()
    side = np.sign(source.values[table.defects > 0])    # -1: reflected from n1 - b
    zb = z[np.searchsorted(xs, np.where(side > 0, table.bad, n1 - table.bad))]
    partners = table.bad + side * unit * (semi.theta_array(zb) - zb)
    return morphism, dict(zip(table.bad.tolist(), partners.tolist()))
