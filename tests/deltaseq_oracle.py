"""The sieve construction of a Seifert delta sequence, kept as the oracle for
deltaseq.from_seifert.

It sieves the semigroup S on [0, N], takes S and its reflections N - S as the
positions and checks that delta is positive exactly on S.  The library reads
the same positions straight off the nonzeros of delta; the tests compare the
two.
"""

import numpy as np

from floerrank import seifert
from floerrank.deltaseq import DeltaSequence
from floerrank.errors import DegenerateTupleError

from semigroup_oracle import semigroup_sieve
from walk_oracle import dense_delta


def sieve_from_seifert(t: seifert.SeifertTuple) -> DeltaSequence:
    if t.is_degenerate:
        raise DegenerateTupleError(f"{t} has no delta sequence (reduced rank 0)")
    N = seifert.n_cutoff(t)
    members = np.flatnonzero(semigroup_sieve(t, N))
    s_set = set(members.tolist())
    q_set = {N - x for x in s_set}
    assert not (s_set & q_set)
    positions = np.array(sorted(s_set | q_set), dtype=np.int64)
    deltas = dense_delta(t, N)
    values = deltas[positions]
    assert bool(((values > 0) == np.isin(positions, members)).all())
    return DeltaSequence(positions.tolist(), values.tolist())
