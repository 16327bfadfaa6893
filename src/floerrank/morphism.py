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


class DeltaMorphism:
    """A total position map between two delta sequences.

    mapping lists the image of each source position, in source order; it is
    converted once into index, a read-only int64 array holding for each
    source position the index of its image among the target's positions.
    A position outside the target is refused.  Each validator is a few
    array operations over index and the two sequences' values.
    """

    def __init__(self, source: DeltaSequence, target: DeltaSequence, mapping):
        index = target.indices_of(mapping)
        if index.shape != source.positions.shape:
            raise ValueError(f"mapping has {index.size} images for "
                             f"{len(source)} source positions")
        index.flags.writeable = False
        self.source = source
        self.target = target
        self.index = index
        self._defect_table = None

    @property
    def mapping(self) -> np.ndarray:
        """The image positions, in source order."""
        return self.target.positions[self.index]

    def image(self, position) -> int:
        return int(self.target.positions[self.index[self.source.indices_of(position)]])

    def is_injective(self) -> bool:
        return _distinct(self.index)

    def is_morphism(self) -> bool:
        """Positive positions land on positive values, negative on negative."""
        return np.array_equal(self.source.values > 0, self.target.values[self.index] > 0)

    def preserves_values(self) -> bool:
        return np.array_equal(self.source.values, self.target.values[self.index])

    def _mixed_order_forward(self) -> bool:
        # for x positive, y negative, x < y: image(x) < image(y)
        pos = self.source.values > 0
        prefix_max = np.maximum.accumulate(np.where(pos, self.index, -1))
        return bool(np.all(prefix_max[~pos] < self.index[~pos]))

    def _mixed_order_backward(self) -> bool:
        # for x positive, y negative, y < x: image(y) < image(x)
        pos = self.source.values > 0
        suffix_min = np.minimum.accumulate(
            np.where(pos, self.index, len(self.target))[::-1])[::-1]
        return bool(np.all(self.index[~pos] < suffix_min[~pos]))

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
    target = DeltaSequence(np.arange(values.size), values)

    run = np.cumsum(np.diff(source.values > 0, prepend=source.values[:1] > 0))
    perm = np.lexsort((slot, run))
    refined_source = DeltaSequence(source.positions, source.values[perm])
    result = DeltaMorphism(refined_source, target, slot[perm])
    assert result.is_isomorphism_onto_image()
    return refined_source, target, result


def _split_in_two(seq: DeltaSequence, at, first) -> DeltaSequence:
    """Refine the value at each index in at into (first, the rest)."""
    parts = np.column_stack([first, seq.values[at] - first]).tolist()
    return seq.refine_many(dict(zip(seq.positions[at].tolist(), parts)))


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
    result = DeltaMorphism(new_source, new_target, mapping)
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
    n1, p1, p2 = seifert.n_cutoff(t), t.product, t2.product
    check_int64((n1 + 1) * p1)
    # the normal forms of all positives at once, as seifert.membership gives them
    xs = source.positive_positions
    k = xs.copy()
    images = np.zeros_like(xs)
    for (p, gen, inv), q in zip(_fiber_projection_data(ps, p1), qs):
        coord = xs * inv % p
        k -= coord * gen
        images += coord * (p2 // q)
    k, rem = np.divmod(k, p1)
    assert not rem.any()
    images += p2 * k
    return _reflected(source, target, xs, images, n1, seifert.n_cutoff(t2))


# -- two-generator numerical semigroups (the pinch engine) -------------------


class TwoGenSemigroup:
    """The numerical semigroup {aq + br : a, b >= 0} for coprime q, r >= 2.

    Carries the two delta functions 1 + floor(x/qr) on the natural numbers
    and 1 + floor(a/r) + floor(b/q) on members, and the order bijection psi
    between them.  Everything below the Frobenius regime is a small lookup
    table; above it psi is a constant shift by half the gap count.
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
        self._small = [s for s in range(self.frobenius + 1) if self._is_member(s)]
        assert len(self._small) == self.shift

    def _is_member(self, s: int) -> bool:
        if s < 0:
            return False
        a = (s * self._q_inv_mod_r) % self.r
        return a * self.q <= s

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
            return self._small[x]
        return x + self.shift

    def delta_upper(self, x: int) -> int:
        """1 + floor(x / qr), the delta value on the natural numbers."""
        if x < 0:
            raise ValueError("needs x >= 0")
        return 1 + x // (self.q * self.r)

    def delta_lower(self, s: int) -> int:
        """1 + floor(a/r) + floor(b/q) for the canonical s = aq + br."""
        if not self._is_member(s):
            raise NotMemberError(f"{s} is not in S({self.q},{self.r})")
        a = (s * self._q_inv_mod_r) % self.r
        b = (s - a * self.q) // self.r
        return 1 + a // self.r + b // self.q

    def defect(self, x: int) -> int:
        """Defect of x under psi: delta_upper(x) - delta_lower(psi(x))."""
        return self.delta_upper(x) - self.delta_lower(self.psi(x))

    def bad_points_upto(self, bound: int) -> list:
        return [x for x in range(bound + 1) if self.defect(x) > 0]

    def theta(self, b: int) -> int:
        """Control partner 2kqr - b - 1 of a bad point in [kqr, (k+1)qr)."""
        if self.defect(b) <= 0:
            raise NotBadError(f"{b} has no positive defect under psi")
        k = b // (self.q * self.r)
        return 2 * k * self.q * self.r - b - 1


# -- rigid maps and the pinch morphism ---------------------------------------


def _reflected(source: DeltaSequence, target: DeltaSequence, xs: np.ndarray,
               ys: np.ndarray, n_source: int, n_target: int) -> DeltaMorphism:
    """xs -> ys elementwise, n_source - xs -> n_target - ys (int64 arrays)."""
    keys = np.concatenate([xs, n_source - xs])
    order = np.argsort(keys, kind="stable")
    if not np.array_equal(keys[order], source.positions):
        raise ValueError("the reflected map does not cover the source positions exactly")
    return DeltaMorphism(source, target, np.concatenate([ys, n_target - ys])[order])


def rigid_extend(source: DeltaSequence, target: DeltaSequence, partial: dict,
                 n_source: int, n_target: int) -> DeltaMorphism:
    """Extend an injection on the positive positions by reflection.

    The partial map must be injective, never move a point left, and move no
    point by more than half the cutoff difference; the reflected extension
    is then a one-to-one semi-immersion.
    """
    if set(partial.keys()) != set(source.positive_positions.tolist()):
        raise NotRigidError("partial map must be defined exactly on the positive positions")
    if len(set(partial.values())) != len(partial):
        raise NotRigidError("partial map is not injective")
    for x, y in partial.items():
        if y < x:
            raise NotRigidError(f"image decreases at {x} -> {y}")
        if 2 * (y - x) > n_target - n_source:
            raise NotRigidError(f"shift at {x} -> {y} exceeds half the cutoff difference")
    xs = np.fromiter(partial.keys(), dtype=np.int64, count=len(partial))
    ys = np.fromiter(partial.values(), dtype=np.int64, count=len(partial))
    return _reflected(source, target, xs, ys, n_source, n_target)


def _fiber_projection_data(base, full_product: int):
    """(p, P/p, inverse of P/p mod p) per base fiber, computed once."""
    return [(p, full_product // p, mod_inverse((full_product // p) % p, p))
            for p in base]


def _fiber_projection(x: int, proj_data, base_product: int) -> int:
    """Coordinate z of x = P_t [z + qr sum x_i/p_i] in the source semigroup."""
    acc = x
    for p, gen, inv in proj_data:
        acc -= ((x * inv) % p) * gen
    z, rem = divmod(acc, base_product)
    assert rem == 0
    return z


def pinch_semi_immersion(base, q: int, r: int):
    """The pinch map from Sigma(base, qr) into Sigma(base, q, r).

    On positive positions the qr-fiber coordinate z is replaced by psi(z),
    the order bijection of the two-generator semigroup; the rest extends by
    reflection.  Returns (morphism, theta) where theta pairs every
    positive-defect position with a compensating one.
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
    base_product = 1
    for p in base:
        base_product *= p
    semi = TwoGenSemigroup(q, r)

    proj_data = _fiber_projection_data(base, t_source.product)
    partial = {}
    projections = {}
    for x in source.positive_positions.tolist():
        z = _fiber_projection(x, proj_data, base_product)
        projections[x] = z
        partial[x] = x + base_product * (semi.psi(z) - z)
    morphism = rigid_extend(source, target, partial, n1, n2)

    theta = {}
    table = morphism.defect_table()
    for b in table.bad.tolist():
        if b in projections:  # positive side
            z = projections[b]
            theta[b] = b + base_product * (semi.theta(z) - z)
        else:                 # reflected side
            x = n1 - b
            z = projections[x]
            theta[b] = n1 - (x + base_product * (semi.theta(z) - z))
    return morphism, theta
