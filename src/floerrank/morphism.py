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

Positions are integers and maps are read-only int64 index arrays: a morphism
into its target, a control function theta into its source (the partner of
each positive-defect index, in source order).  The witnesses compute image
positions, which deltaseq's position -> index table turns into indices.

The three concrete families: the degree-n covering maps z -> n z + k P/p_l,
the normal-form comparison map between componentwise-comparable tuples, and
the pinch map driven by the order bijection of a two-generator numerical
semigroup, each placing its negative positions' images by reflection.  The
covering maps are the witness API and the test oracle of
branched_cover_identity, which checks the premises of their affine identity
in integers, with no sequence.
"""

from functools import wraps
from math import gcd

import numpy as np

from . import seifert
from .arith import check_int64, mod_inverse, pairwise_coprime
from .deltaseq import DeltaSequence, _find, from_seifert
from .errors import (
    DegenerateTupleError,
    NotBadError,
    NotComparableError,
    NotControlledError,
    NotCoprimeError,
    NotEmbeddingError,
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
    """A total position map between two delta sequences, held as indices.

    index holds, for each source position in source order, the index of its
    image among the target's positions (target.indices_of finds them).  The
    map keeps a range-checked, read-only int64 copy, so the caller's array is
    neither shared nor frozen.  Each validator is a few array operations over
    index and the two sequences' values; as the arrays are read-only, the map
    keeps each validator's verdict and its defects, and answers a repeated
    check from that cache.
    """

    def __init__(self, source: DeltaSequence, target: DeltaSequence, index):
        index = np.array(index, dtype=np.int64)
        if index.shape != source.positions.shape:
            raise ValueError(f"index has {index.size} entries for "
                             f"{len(source)} source positions")
        if index.size and (index.min() < 0 or index.max() >= len(target)):
            raise ValueError(f"indices must lie in [0, {len(target)})")
        index.flags.writeable = False
        self.source = source
        self.target = target
        self.index = index
        self._verdicts = {}
        self._defects = None

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
        return self.is_immersion() and self._mixed_order_backward()

    def is_isomorphism(self) -> bool:
        # n strictly increasing indices into n positions are 0..n-1
        return len(self.source) == len(self.target) and self.is_isomorphism_onto_image()

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

    def defect_table(self) -> np.ndarray:
        """|source value| - |image value| at each source index, read-only
        (> 0 bad, < 0 good); only a one-to-one semi-immersion has defects."""
        if self._defects is None:
            if not (self.is_injective() and self.is_semi_immersion()):
                raise NotSemiImmersionError("defects need a one-to-one semi-immersion")
            defects = np.abs(self.source.values) - np.abs(self.target.values[self.index])
            defects.flags.writeable = False
            self._defects = defects
        return self._defects

    def to_json(self) -> dict:
        return {"map": np.column_stack([self.source.positions, self.mapping]).tolist()}


def is_control_function(m: DeltaMorphism, theta) -> bool:
    """Check an injection of the bad set into the good set.

    theta is an integer array of source indices, the partner of each bad
    index (defect > 0) in source order.  The partners must be distinct
    indices of the source with defect < 0; each must have its bad point's
    sign, lie strictly left of it on the positive side and strictly right on
    the negative side, and absorb at least its defect.
    """
    defects = m.defect_table()
    b = np.flatnonzero(defects > 0)
    g = np.asarray(theta)
    if g.shape != b.shape:
        return False
    if not b.size:
        return True
    if g.dtype.kind not in "iu" or g.min() < 0 or g.max() >= len(defects) or not _distinct(g):
        return False
    positive = m.source.values[b] > 0
    return bool(np.all(defects[g] < 0)
                and np.array_equal(positive, m.source.values[g] > 0)
                and np.all(np.where(positive, g < b, g > b))
                and np.all(defects[b] <= -defects[g]))


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
    target = DeltaSequence._adopt(None, values)

    run = np.cumsum(np.diff(source.values > 0, prepend=source.values[:1] > 0))
    perm = np.lexsort((slot, run))
    refined_source = DeltaSequence._adopt(source.positions, source.values[perm])
    result = DeltaMorphism(refined_source, target, slot[perm])
    assert result.is_isomorphism_onto_image()
    return refined_source, target, result


def fix_defects(m: DeltaMorphism, theta):
    """Upgrade a controlled one-to-one semi-immersion to an immersion.

    theta is a control function for m (is_control_function): the source
    index of each bad point's partner, in source order.  Each bad point b
    splits into (b1, b2) with b1 carrying exactly the value of its image;
    the image g of each partner splits into (g1, g2) with g1 carrying
    exactly the partner's value.  The map keeps b1 -> image(b) and
    theta(b) -> g1 and sends the excess b2 to the slack g2.
    Returns (refined source, refined target, one-to-one immersion), both
    sequences re-indexed to positions 0..k-1.
    """
    if not is_control_function(m, theta):
        raise NotControlledError("theta is not a control function for the map")
    source, target, index = m.source, m.target, m.index
    b = np.flatnonzero(m.defect_table() > 0)
    controls = np.asarray(theta, dtype=np.int64)
    g = index[controls]
    b1, g1, order = target.values[index[b]], source.values[controls], np.argsort(g)
    new_source, moved = source._refine(b, 2, np.column_stack((b1, source.values[b] - b1)).ravel())
    new_target, landed = target._refine(
        g[order], 2, np.column_stack((g1, target.values[g] - g1))[order].ravel())
    new_index = np.empty(len(new_source), dtype=np.int64)
    new_index[moved] = landed[index]
    new_index[moved[b] + 1] = landed[g] + 1
    result = DeltaMorphism(new_source, new_target, new_index)
    assert result.is_injective() and result.is_immersion()
    return new_source, new_target, result


# -- branched covers along a singular fiber ---------------------------------


def _branched_cover(t: seifert.SeifertTuple, n: int, fiber):
    """(the n-fold cover along fiber, the largest by default and 1 for a
    regular fiber, which adds a fiber n to t, and the shift P / fiber), once
    the degree, source, fiber and coprimality are checked."""
    if n < 1:
        raise ValueError(f"covering degree must be >= 1, got {n}")
    if t.is_degenerate:
        raise DegenerateTupleError(f"{t} has no delta sequence")
    if fiber is None:
        fiber = t.multiplicities[-1]
    if fiber != 1 and fiber not in t.multiplicities:
        raise ValueError(f"{fiber} is not a multiplicity of {t}")
    others = tuple(p for p in t.multiplicities if p != fiber)
    if any(gcd(n, p) != 1 for p in others):
        raise NotCoprimeError(f"degree {n} shares a factor with {others}")
    return seifert.make_tuple(others + (n * fiber,)), t.product // fiber


def branched_cover_embeddings(t: seifert.SeifertTuple, n: int,
                              fiber: int = None) -> list:
    """The n disjoint value-preserving embeddings into the n-fold cover.

    The cover multiplies the designated multiplicity (the largest one by
    default, 1 for a regular fiber) by n; the k-th map is z -> n z + k P/fiber
    for k = 0..n-1.  The degree must be coprime to every other multiplicity.
    As the cover's cutoff is n N + (n - 1) P / fiber, map k sends N - x to
    the reflection of map n - 1 - k's image of x: one lookup places all n.
    """
    cover, shift = _branched_cover(t, n, fiber)
    target = from_seifert(cover)
    source = from_seifert(t)
    images = n * source.positive_positions + shift * np.arange(n)[:, None]
    return [DeltaMorphism(source, target, row) for row in _reflected(source, target, images)]


def branched_cover_identity(t: seifert.SeifertTuple, n: int,
                            fiber: int = None) -> tuple:
    """(cover, whether delta_cover(n z + k s) = delta(z) for all z >= 0 and
    0 <= k < n), s = P / fiber: the cover and its errors are
    branched_cover_embeddings', and its cutoff must be n N + (n - 1) s, its
    multiplicities t's with fiber (1 if regular) times n, and verify_branched's
    premises (A)-(E) hold.  The cover's int64 guard runs before the premises,
    so a cover too large to walk is refused before a verifier walks."""
    cover, s = _branched_cover(t, n, fiber)
    f = t.product // s
    if seifert.n_cutoff(cover) != n * seifert.n_cutoff(t) + (n - 1) * s:
        return cover, False
    seifert._half(cover)
    inv, inv2 = seifert.normalized_invariants(t), seifert.normalized_invariants(cover)
    source, image = ({p: pp for pp, p in i.pairs} for i in (inv, inv2))
    # fiber 1, a regular one, has no pair and invariant 0; a missing n f > 1 fails (C)
    f1, g2 = source.pop(f, 0), image.pop(n * f, 0)
    if image.keys() != source.keys():
        return cover, False
    m = [divmod(n * image[p] - source[p], p) for p in source]     # (A)
    u, u_rem = divmod(g2 - f1, f)                                   # (B)
    j, j_rem = divmod(g2 * s + 1, n * f)                            # (C)
    e, e2 = abs(inv.e0), abs(inv2.e0)
    return cover, (not any(rem for _, rem in m) and not u_rem and not j_rem
                   and n * e2 - sum(mi for mi, _ in m) - u == e                 # (D)
                   and s * e2 - sum(s // p * pp for p, pp in image.items()) == j)  # (E)


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
    return DeltaMorphism(source, target, _reflected(source, target, [images])[0])


def _normal_forms(xs: np.ndarray, t: seifert.SeifertTuple, n: int):
    """k and the coordinates x_i of each member x = P (k + sum x_i/p_i) in xs,
    members of t at most n, by one array pass per fiber of t.  x_i is x
    times the inverse of P/p_i mod p_i, which is -p_i' mod p_i."""
    full, ps = t.product, t.multiplicities
    check_int64((n + 1) * full)
    coords = [_residue(xs * (-pp % p), p) for pp, p in seifert.normalized_invariants(t).pairs]
    rest = xs - sum(c * (full // p) for c, p in zip(coords, ps))
    assert not _residue(rest, full).any()
    return rest // full, coords


def _residue(y: np.ndarray, p: int) -> np.ndarray:
    """y mod p by a floor division, which numpy runs about 3x faster than %."""
    return y - y // p * p


# -- two-generator numerical semigroups (the pinch engine) -------------------


class TwoGenSemigroup:
    """The numerical semigroup {aq + br : a, b >= 0} for coprime q, r >= 2.

    The pinch compares 1 + floor(x/qr) at x with 1 + floor(a/r) + floor(b/q)
    at psi(x) = aq + br (0 <= a < r), psi the order bijection from the
    naturals onto the members: an int64 table of the shift = (q-1)(r-1)/2
    members below the Frobenius number, then x + shift.  psi_array and
    theta_array map int64 arrays elementwise.
    """

    def __init__(self, q: int, r: int):
        if q < 2 or r < 2:
            raise ValueError(f"generators must be >= 2, got ({q}, {r})")
        if gcd(q, r) != 1:
            raise NotCoprimeError(f"({q}, {r}) are not coprime")
        self.q, self.r = q, r
        self.shift = (q - 1) * (r - 1) // 2
        self._q_inv_mod_r = mod_inverse(q % r, r)
        # s = aq + br with 0 <= a < r is a member iff b >= 0
        upto = np.arange(q * r - q - r + 1)
        self._small = upto[_residue(upto * self._q_inv_mod_r, r) * q <= upto]
        self._small.flags.writeable = False
        assert self._small.size == self.shift

    def psi_array(self, x: np.ndarray) -> np.ndarray:
        """psi, the x-th member, of each entry of a nonnegative int64 array."""
        return np.where(x < self.shift, self._small.take(x, mode="clip"), x + self.shift)

    def _delta_lower(self, s):
        """1 + floor(a/r) + floor(b/q) for each member s = aq + br, 0 <= a < r:
        floor(a/r) is 0 and floor(b/q) = floor(br/(qr)), one division."""
        a = _residue(s * self._q_inv_mod_r, self.r)
        return 1 + (s - a * self.q) // (self.r * self.q)

    def theta_array(self, b: np.ndarray) -> np.ndarray:
        """Control partner 2kqr - b - 1 of each b in [kqr, (k+1)qr) of a
        nonnegative int64 array, all bad points (positive defect under psi)."""
        qr = self.q * self.r
        bad = 1 + b // qr > self._delta_lower(self.psi_array(b))
        if not bad.all():
            raise NotBadError(f"{b[~bad][:5].tolist()} have no positive defect under psi")
        return 2 * (b // qr) * qr - b - 1


# -- rigid maps and the pinch morphism ---------------------------------------


def _reflected(source: DeltaSequence, target: DeltaSequence, images) -> np.ndarray:
    """Target indices of maps between Seifert sequences, one row per row of
    the n rows of images: row k sends each positive x to images[k] and N - x
    to N' - y, y the image of x in row n - 1 - k.  Seifert sequences hold
    N - p at index len - 1 - i where they hold p at i: one lookup places all."""
    pos = np.flatnonzero(source.values > 0)
    found = target.indices_of(images)
    index = np.full((len(found), len(source)), -1, dtype=np.int64)  # a hole is refused
    index[:, pos] = found
    index[:, len(source) - 1 - pos] = len(target) - 1 - found[::-1]
    return index


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
    return DeltaMorphism(source, target, _reflected(source, target, [ys])[0])


def pinch_semi_immersion(base, q: int, r: int):
    """The pinch map from Sigma(base, qr) into Sigma(base, q, r).

    A positive position x = P (k + sum x_i/p_i + x_qr/qr) is unit z plus a
    base-fiber part, z = qr k + x_qr and unit = P/qr.  All positives have z
    replaced by psi(z) at once, psi the order bijection of the two-generator
    semigroup, and the rest extends by reflection.  Returns (morphism,
    theta): theta is the control function, a read-only int64 array holding,
    for each positive-defect source index in source order, the index of the
    position with z replaced by theta(z), reflected on the negative side.
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

    bad = np.flatnonzero(morphism.defect_table() > 0)
    x, side = source.positions[bad], np.sign(source.values[bad])  # -1: reflected from n1 - x
    zb = z[_find(xs, np.where(side > 0, x, n1 - x))[0]]
    theta = source.indices_of(x + side * unit * (semi.theta_array(zb) - zb))
    theta.flags.writeable = False
    return morphism, theta
