"""The semigroup views of delta, kept as oracles for seifert's formula and
for the pinch engine.

On [0, N] delta is >= 1 exactly on the numerical semigroup generated by the
P/p_i, and there it equals 1 + k, k the integer part of the member's normal
form n = P (k + sum x_i/p_i) with 0 <= x_i < p_i.  The library evaluates
only the ceiling formula; the tests check it against the three views here:
the unbounded-coin sieve, the normal form one position at a time, and the
normal form of a whole range at once.

two_generator reads the pinch's two-generator semigroup <q, r>, its order
bijection psi, its defects and a control function off the sieve alone; the
library's TwoGenSemigroup computes them by modular arithmetic and closed
formulas.
"""

from typing import NamedTuple

import numpy as np

from floerrank.arith import mod_inverse
from floerrank.seifert import SeifertTuple


class NormalForm(NamedTuple):
    """Unique expression n = P*(k + sum x_i/p_i) with 0 <= x_i < p_i.

    k >= 0 exactly when n is a member of the semigroup.
    """

    k: int
    x: tuple

    @property
    def is_member(self) -> bool:
        return self.k >= 0


def _fibers(t: SeifertTuple) -> list:
    """(p, P/p, inverse of P/p mod p) per fiber."""
    P = t.product
    return [(p, P // p, mod_inverse(P // p % p, p)) for p in t.multiplicities]


def normal_forms(t: SeifertTuple):
    """The scalar normal form n -> NormalForm of t, with P and the per-fiber
    inverses computed once for the tuple."""
    P, fibers = t.product, _fibers(t)

    def normal_form(n: int) -> NormalForm:
        xs = tuple(n * inv % p for p, _, inv in fibers)
        k, rem = divmod(n - sum(x * gen for x, (_, gen, _) in zip(xs, fibers)), P)
        assert rem == 0
        return NormalForm(k, xs)

    return normal_form


def membership(t: SeifertTuple, n: int) -> NormalForm:
    """Normal form of n; n is a member iff the result has k >= 0."""
    return normal_forms(t)(n)


def membership_k_array(t: SeifertTuple, upto: int) -> np.ndarray:
    """Normal-form k for n = 0..upto; k >= 0 marks semigroup members."""
    P = t.product
    assert 4 * (upto + 1) * max(t.multiplicities) < 2**63
    assert 4 * (upto + 1 + t.fiber_count * P) < 2**63
    n = np.arange(upto + 1, dtype=np.int64)
    acc = n.copy()
    for p, gen, inv in _fibers(t):
        acc -= n * inv % p * gen
    k, rem = np.divmod(acc, P)
    assert not rem.any()
    return k


def semigroup_sieve(t: SeifertTuple, bound: int) -> np.ndarray:
    """Boolean membership table for [0, bound], seeded at 0, generators P/p_i.

    Each generator is closed off with a cumulative-or along its residue
    classes, which is the usual unbounded-coin dynamic program.
    """
    P = t.product
    size = bound + 1
    dp = np.zeros(size, dtype=bool)
    dp[0] = True
    for p in sorted(set(t.multiplicities), reverse=True):
        g = P // p
        if g > bound:
            continue
        pad = (-size) % g
        padded = np.concatenate([dp, np.zeros(pad, dtype=bool)])
        cols = padded.reshape(-1, g)
        np.logical_or.accumulate(cols, axis=0, out=cols)
        dp = padded[:size]
    return dp


class TwoGenerator(NamedTuple):
    """The semigroup <q, r> on [0, bound], read off the sieve."""

    member: np.ndarray      # membership of 0..bound
    psi: np.ndarray         # psi[x]: the x-th member, every member up to bound
    defect: np.ndarray      # defect[x] = 1 + floor(x/qr) - delta_lower(psi[x])
    theta: dict             # bad x (defect > 0) -> its control partner


def two_generator(q: int, r: int, bound: int) -> TwoGenerator:
    """<q, r>, the semigroup of the Seifert tuple (q, r) (generators qr/q and
    qr/r), by the sieve alone.

    psi is the sorted member list.  delta_lower(s) = 1 + floor(a/r) +
    floor(b/q) at the canonical s = aq + br (0 <= a < r) counts the ways to
    write s as aq + br with a, b >= 0, which is the number of j >= 0 with
    s - j qr a member: a running count along each residue class mod qr.
    theta matches brackets: in increasing order each good point (defect < 0)
    opens one, and each bad point closes the latest one still open.
    """
    qr = q * r
    member = semigroup_sieve(SeifertTuple(tuple(sorted((q, r)))), bound)
    psi = np.flatnonzero(member)
    padded = np.zeros(-(-(bound + 1) // qr) * qr, dtype=np.int64)
    padded[:bound + 1] = member
    ways = padded.reshape(-1, qr).cumsum(axis=0).ravel()
    x = np.arange(psi.size)
    defect = 1 + x // qr - ways[psi]
    theta, open_goods = {}, []
    for point in np.flatnonzero(defect).tolist():
        if defect[point] < 0:
            open_goods.append(point)
        else:
            theta[point] = open_goods.pop()
    return TwoGenerator(member, psi, defect, theta)
