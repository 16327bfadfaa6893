"""The dense two-view tau walk, kept as the oracle for seifert.walk_statistics.

It builds delta over the whole of [0, N] by the division formula, one
ceiling per fiber over the whole range, and reads the ranks off it twice:
the formula view (kappa, min tau, c) and the graded-root extrema view
(leaf_count, red_total).  The library keeps only the formula view, walked
in chunks over half of [0, N] with some fibers read from period tables;
the tests compare it with both views here.
"""

from dataclasses import dataclass

import numpy as np

from floerrank import seifert
from floerrank.seifert import SeifertTuple


def dense_delta(t: SeifertTuple, upto: int) -> np.ndarray:
    """delta(n) = 1 + |e0| n - sum ceil(n p_i'/p_i) for n = 0..upto, as int64."""
    inv = seifert.normalized_invariants(t)
    assert 4 * (upto + 1) * max(abs(inv.e0), max(t.multiplicities)) < 2**63
    n = np.arange(upto + 1, dtype=np.int64)
    acc = n * abs(inv.e0) + 1
    for pp, p in inv.pairs:
        acc -= (n * pp + p - 1) // p
    return acc


def dense_tau(t: SeifertTuple) -> list:
    """tau(0..N+1) with tau(0) = 0 and tau(n+1) = tau(n) + delta(n)."""
    return [0] + np.cumsum(dense_delta(t, seifert.n_cutoff(t))).tolist()


@dataclass(frozen=True)
class DenseWalk:
    """kappa, min_tau, c from the formula view; leaf_count, red_total from
    the walk's local extrema.  The two views must agree:
    red_total == kappa + min_tau and leaf_count == c + 1.
    """

    kappa: int
    min_tau: int
    c: int
    leaf_count: int
    red_total: int

    @property
    def rank_red(self) -> int:
        return self.kappa + self.min_tau

    @property
    def rank_hat(self) -> int:
        return 2 * self.c + 1


def dense_walk(t: SeifertTuple) -> DenseWalk:
    """Both rank views of the tau walk; degenerate tuples give rank 0/1."""
    if t.is_degenerate:
        return DenseWalk(kappa=0, min_tau=0, c=0, leaf_count=1, red_total=0)
    deltas = dense_delta(t, seifert.n_cutoff(t))
    nz = deltas[deltas != 0]
    assert nz[0] > 0 and nz[-1] < 0
    kappa = int(-nz[nz < 0].sum())
    tau = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(nz)])
    min_tau = int(tau.min())
    neg_to_pos = (nz[:-1] < 0) & (nz[1:] > 0)
    c = int(neg_to_pos.sum()) + (1 if nz[-1] < 0 else 0)
    # extrema view: walk maxima at +/- sign flips, minima at -/+ flips
    pos_to_neg = (nz[:-1] > 0) & (nz[1:] < 0)
    inner = tau[1:-1]
    maxima = inner[pos_to_neg]
    minima = np.concatenate([tau[:1], inner[neg_to_pos], tau[-1:]])
    leaf_count = len(minima)
    red_total = int(maxima.sum() - minima.sum() + minima.min())
    return DenseWalk(kappa=kappa, min_tau=min_tau, c=c,
                     leaf_count=leaf_count, red_total=red_total)


def assert_matches_oracle(t: SeifertTuple) -> DenseWalk:
    """Check walk_statistics against both dense views; return the oracle."""
    want = dense_walk(t)
    assert want.red_total == want.rank_red, t
    assert want.leaf_count == want.c + 1, t
    got = seifert.walk_statistics(t)
    assert (got.kappa, got.min_tau, got.c, got.rank_red, got.rank_hat) == \
        (want.kappa, want.min_tau, want.c, want.rank_red, want.rank_hat), t
    return want
