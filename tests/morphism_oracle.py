"""The dict-keyed morphism validators, kept as the oracle for
floerrank.morphism.

DictMorphism stores a morphism as a dict from source positions to target
positions and checks every property with one pass over the positions in
Python.  The library stores the same map as an index array into the target
and checks each property with a few array operations; the tests compare
the two verdict by verdict.  Values are looked up in dicts built once per
sequence, so the oracle stays fast enough to replay the acceptance suite's
witness families.

pinch_oracle builds the pinch map and its control function one position at
a time, from a scalar fiber projection and the two-generator semigroup's
psi and theta as semigroup_oracle.two_generator reads them off the sieve;
the library builds both with array passes over all positions and closed
formulas.

rigid_extend is the dict front end of the library's rigid extension, which
the pinch map is built with; the tests drive that extension through it.

assert_cover_identity_matches is the oracle of the branched-cover
verifiers: branched_cover_embeddings builds the n maps between the two
sequences, and each must send every source position z to n z + k P/fiber,
be an embedding and preserve values; identity_by_evaluation reads
delta_cover(n z + k P/fiber) = delta(z) off both tuples' dense deltas for
every z in [0, N] and k < n; and the verifiers, which check the affine
identity's integer premises and build no sequence, must hold with the ranks
of those sequences.  identity_verdicts compares the premises with the
evaluation on any source and cover; off_by moves a tuple's invariants off
the solution of its defining relation, and the tests corrupt either side
with it.

fix_defects_oracle is the defect repair with its own two-part split: it
inserts each second part with np.insert and moves every old index past the
splits before it by a search; the library refines through
DeltaSequence's refinement core, which reports where each old index landed.
"""

from dataclasses import dataclass
from math import prod
from unittest import mock

import numpy as np

from floerrank import morphism, seifert, verify
from floerrank.deltaseq import DeltaSequence, from_seifert
from floerrank.errors import FirstElementNegativeError, NotRigidError, NotSemiImmersionError

from semigroup_oracle import two_generator
from walk_oracle import dense_delta


_recent = []    # (sequence, its position -> value dict), newest first


def _values(seq) -> dict:
    for known, values in _recent:
        if known is seq:
            return values
    values = dict(zip(seq.positions.tolist(), seq.values.tolist()))
    _recent[:] = [(seq, values)] + _recent[:3]
    return values


def from_morphism(m) -> "DictMorphism":
    """The oracle's view of a library morphism."""
    return DictMorphism(m.source, m.target,
                        dict(zip(m.source.positions.tolist(), m.mapping.tolist())))


class DictMorphism:
    """A total position map between two delta sequences, keyed by position."""

    def __init__(self, source, target, mapping: dict):
        self._src, self._tgt = _values(source), _values(target)
        missing = self._src.keys() - mapping.keys()
        if missing:
            raise ValueError(f"mapping not total; missing {sorted(missing)[:5]}")
        extra = mapping.keys() - self._src.keys()
        if extra:
            raise ValueError(f"mapping has unknown source positions {sorted(extra)[:5]}")
        bad_targets = set(mapping.values()) - self._tgt.keys()
        if bad_targets:
            raise ValueError(f"mapping leaves target positions {sorted(bad_targets)[:5]}")
        self.source = source
        self.target = target
        self.mapping = mapping
        self._positions = list(self._src)
        self._defect_table = None

    def is_injective(self) -> bool:
        return len(set(self.mapping.values())) == len(self.mapping)

    # the loops below bind the dicts to locals only to run faster

    def is_morphism(self) -> bool:
        src, tgt, mapping = self._src, self._tgt, self.mapping
        return all((src[z] > 0) == (tgt[mapping[z]] > 0) for z in self._positions)

    def preserves_values(self) -> bool:
        src, tgt, mapping = self._src, self._tgt, self.mapping
        return all(src[z] == tgt[mapping[z]] for z in self._positions)

    def _mixed_order_forward(self) -> bool:
        # for x positive, y negative, x < y: image(x) < image(y)
        src, mapping = self._src, self.mapping
        running_max = None
        for z in self._positions:
            if src[z] > 0:
                img = mapping[z]
                if running_max is None or img > running_max:
                    running_max = img
            elif running_max is not None and not running_max < mapping[z]:
                return False
        return True

    def _mixed_order_backward(self) -> bool:
        # for x positive, y negative, y < x: image(y) < image(x)
        src, mapping = self._src, self.mapping
        running_min = None
        for z in reversed(self._positions):
            if src[z] > 0:
                img = mapping[z]
                if running_min is None or img < running_min:
                    running_min = img
            elif running_min is not None and not mapping[z] < running_min:
                return False
        return True

    def _capacity_ok(self) -> bool:
        # |target value| covers the total |source value| of its fiber
        src, tgt, mapping = self._src, self._tgt, self.mapping
        load = {}
        for z in self._positions:
            img = mapping[z]
            load[img] = load.get(img, 0) + abs(src[z])
        return all(abs(tgt[img]) >= total for img, total in load.items())

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
        if not self.is_morphism():
            return False
        if len(self.mapping) != len(self.target.positions) or not self.is_injective():
            return False
        images = [self.mapping[z] for z in self._positions]
        if any(images[i] >= images[i + 1] for i in range(len(images) - 1)):
            return False
        return all(self._src[z] == self._tgt[self.mapping[z]] for z in self._positions)

    def is_isomorphism_onto_image(self) -> bool:
        try:
            sub = self.target.subsequence(set(self.mapping.values()))
        except FirstElementNegativeError:
            return False
        return DictMorphism(self.source, sub, self.mapping).is_isomorphism()

    def is_right_veering(self) -> bool:
        if not self.is_morphism():
            return False
        if len(self.mapping) != len(self.target.positions) or not self.is_injective():
            return False
        for sign in (True, False):
            images = [self.mapping[z] for z in self._positions if (self._src[z] > 0) == sign]
            if any(images[i] >= images[i + 1] for i in range(len(images) - 1)):
                return False
        if not self._mixed_order_forward():
            return False
        return all(self._src[z] == self._tgt[self.mapping[z]] for z in self._positions)

    def defect_table(self) -> "DictDefectTable":
        if self._defect_table is not None:
            return self._defect_table
        if not (self.is_injective() and self.is_semi_immersion()):
            raise NotSemiImmersionError("defects need a one-to-one semi-immersion")
        defects = {z: abs(self._src[z]) - abs(self._tgt[self.mapping[z]])
                   for z in self._positions}
        self._defect_table = DictDefectTable(
            defects=defects,
            bad=tuple(z for z in self._positions if defects[z] > 0),
            good=tuple(z for z in self._positions if defects[z] < 0),
            neutral=tuple(z for z in self._positions if defects[z] == 0),
        )
        return self._defect_table


@dataclass(frozen=True)
class DictDefectTable:
    defects: dict
    bad: tuple
    good: tuple
    neutral: tuple


def is_control_function(m: DictMorphism, theta: dict) -> bool:
    table = m.defect_table()
    bad, good = set(table.bad), set(table.good)
    if set(theta.keys()) != bad:
        return False
    if len(set(theta.values())) != len(theta):
        return False
    if not set(theta.values()) <= good:
        return False
    for b, g in theta.items():
        if (m._src[b] > 0) != (m._src[g] > 0):
            return False
        if m._src[b] > 0:
            if not g < b:
                return False
        elif not g > b:
            return False
        if abs(table.defects[b]) > abs(table.defects[g]):
            return False
    return True


def pinch_oracle(base, q: int, r: int):
    """The pinch map Sigma(base, qr) -> Sigma(base, q, r), one position at a time.

    Returns (index, theta): for each source position the index of its image
    among the target's positions, and the control function on the map's
    bad points (positive defect), a dict from each bad position to its
    partner's position.
    """
    base = seifert.make_tuple(base).multiplicities
    t_source = seifert.make_tuple(base + (q * r,))
    t_target = seifert.make_tuple(base + (q, r))
    source, target = from_seifert(t_source), from_seifert(t_target)
    n1, n2 = seifert.n_cutoff(t_source), seifert.n_cutoff(t_target)
    full, unit = t_source.product, prod(base)

    def project(x):
        # x = full (k + sum x_i/p_i + x_qr/qr) = unit z with z = qr k + x_qr
        rest = x
        for p in base:
            gen = full // p
            rest -= x * pow(gen, -1, p) % p * gen
        z, rem = divmod(rest, unit)
        assert rem == 0
        return z

    positives = source.positive_positions.tolist()
    semigroup = two_generator(q, r, max(map(project, positives)) + q * r)

    def moved(x, along):
        # x with its coordinate z replaced by along[z]
        z = project(x)
        return x + unit * (int(along[z]) - z)

    image = {}
    for x in positives:
        image[x] = moved(x, semigroup.psi)
        image[n1 - x] = n2 - image[x]
    index = target.indices_of([image[x] for x in source.positions.tolist()])
    target_values = dict(zip(target.positions.tolist(), target.values.tolist()))
    theta = {}
    for x, v in zip(source.positions.tolist(), source.values.tolist()):
        if abs(v) > abs(target_values[image[x]]):
            theta[x] = (moved(x, semigroup.theta) if v > 0
                        else n1 - moved(n1 - x, semigroup.theta))
    return index, theta


def rigid_extend(source, target, partial: dict, n_source: int, n_target: int):
    """Extend an injection on the positive positions by reflection.

    The partial map must be injective, never move a point left, and move no
    point by more than half the cutoff difference; the reflected extension
    is then a one-to-one semi-immersion.
    """
    xs = np.fromiter(partial.keys(), dtype=np.int64, count=len(partial))
    if not np.array_equal(np.sort(xs), source.positive_positions):
        raise NotRigidError("partial map must be defined exactly on the positive positions")
    ys = np.fromiter(partial.values(), dtype=np.int64, count=len(partial))
    return morphism._rigid(source, target, xs, ys, n_source, n_target)


def _split_in_two(seq, at, first):
    """Refine the value at each index in at into (first, the rest), at 0..k-1."""
    values = seq.values.copy()
    values[at] = first
    values = np.insert(values, at + 1, seq.values[at] - first)
    return DeltaSequence(np.arange(values.size), values)


def _after_split(at, i):
    """Index of old index i once every index in at is split in two."""
    return i + np.searchsorted(np.sort(at), i)


def fix_defects_oracle(m, theta):
    """(refined source, refined target, index) of the repaired map: each bad
    point b splits into (image value, rest), the image g of its partner into
    (partner value, rest), and the second part of b maps to the second part
    of g."""
    source, target, index = m.source, m.target, m.index
    b = np.flatnonzero(m.defect_table() > 0)
    controls = np.asarray(theta, dtype=np.int64)
    g = index[controls]
    new_source = _split_in_two(source, b, target.values[index[b]])
    new_target = _split_in_two(target, g, source.values[controls])
    new_index = np.empty(len(new_source), dtype=np.int64)
    new_index[_after_split(b, np.arange(len(source)))] = _after_split(g, index)
    new_index[_after_split(b, b) + 1] = _after_split(g, g) + 1
    return new_source, new_target, new_index


def off_by(t, shifts: dict):
    """A copy of t whose invariants are moved by shifts: e0 by shifts["e0"]
    and the invariant of each multiplicity p by shifts[p].  It equals t,
    as only the multiplicities count, but is evaluated and checked by the
    invariants it holds."""
    inv = seifert.normalized_invariants(t)
    moved = seifert.SeifertTuple(t.multiplicities)
    moved.__dict__["_invariants"] = seifert.NormalizedInvariants(
        inv.e0 + shifts.get("e0", 0), tuple((pp + shifts.get(p, 0), p) for pp, p in inv.pairs))
    return moved


def identity_by_evaluation(t, cover, n: int, fiber: int) -> bool:
    """Whether delta_cover(n z + k s) = delta(z), s = P/fiber, for every z in
    [0, N] and k < n, read off dense_delta over [0, N] and over the cover's
    [0, n N + (n - 1) s], which must be its cutoff."""
    s, N = t.product // fiber, seifert.n_cutoff(t)
    if seifert.n_cutoff(cover) != n * N + (n - 1) * s:
        return False
    source, image = dense_delta(t, N), dense_delta(cover, n * N + (n - 1) * s)
    z = np.arange(N + 1)
    return all(np.array_equal(image[n * z + k * s], source) for k in range(n))


def identity_verdicts(t, n: int, fiber: int = None, source=None, cover=None) -> tuple:
    """(branched_cover_identity's verdict, identity_by_evaluation's) on the
    n-fold cover of t along fiber (the largest by default), with source in
    place of t and cover in place of the cover when given."""
    fiber = fiber or t.multiplicities[-1]
    true_cover, s = morphism._branched_cover(t, n, fiber)
    source, cover = source or t, cover or true_cover
    with mock.patch.object(morphism, "_branched_cover", lambda *_: (cover, s)):
        premises = morphism.branched_cover_identity(source, n, fiber)[1]
    return premises, identity_by_evaluation(source, cover, n, fiber)


def assert_cover_identity_matches(t, n: int, fiber: int = None, maps=None):
    """The branched-cover verifiers and the identity's premises on
    (t, n, fiber) against the evaluation and the embedding witness (maps,
    when the caller has built it)."""
    assert identity_verdicts(t, n, fiber) == (True, True), (t, n, fiber)
    maps = maps or morphism.branched_cover_embeddings(t, n, fiber)
    shift = t.product // (fiber or t.multiplicities[-1])
    for k, m in enumerate(maps):
        assert m.is_embedding() and m.preserves_values(), (t, n, fiber, k)
        assert np.array_equal(m.mapping, n * m.source.positions + k * shift), (t, n, fiber, k)
    ranks = {label: {"red": stats.rank_red, "hat": stats.rank_hat} for label, stats
             in (("source", maps[0].source.rank()), ("cover", maps[0].target.rank()))}
    reports = [verify.verify_branched(t, n, fiber)]
    if fiber in (None, t.multiplicities[-1]):
        reports.append(verify.verify_branched_hat(t, n))
    for report in reports:
        assert report.verdict == "holds" and report.ranks == ranks, (t, n, fiber, report.checks)
