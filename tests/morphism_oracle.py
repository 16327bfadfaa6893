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
"""

from dataclasses import dataclass
from math import prod

import numpy as np

from floerrank import morphism, seifert
from floerrank.deltaseq import from_seifert
from floerrank.errors import FirstElementNegativeError, NotRigidError, NotSemiImmersionError

from semigroup_oracle import two_generator


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
