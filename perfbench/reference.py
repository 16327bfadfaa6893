"""Rank invariants computed from the definitions, apart from floerrank.

The benchmark checks the program's outputs against these functions.  They
import nothing from floerrank: every quantity is rebuilt from the defining
relations of a Seifert homology sphere Sigma(p_1, ..., p_l):

    e0 * P + sum_i b_i * P / p_i = -1,      0 <= b_i < p_i,   P = prod p_i
    N      = (l - 2) * P - sum_i P / p_i
    Delta(n) = 1 + |e0| n - sum_i ceil(n b_i / p_i),          n = 0..N
    tau(0) = 0,  tau(n + 1) = tau(n) + Delta(n)
    rank_red = kappa + min tau,  kappa = sum of |negative Delta|
    rank_hat = 2c + 1,  c = (-,+) sign changes of the nonzero Delta, plus
                              one if the last nonzero Delta is negative

Tuples with at most two fibers are S^3 (ranks 0 and 1).  The walk is
evaluated in fixed-size chunks, so memory stays flat in N.

Run as a script to recompute the stored references of the rank_large
workload (data/rank_large.json) and compare them with the file.  On a
mismatch it prints the recomputed entries, to be reviewed before any of
them replaces the stored file.
"""

import json
import sys
from math import gcd, prod
from pathlib import Path

import numpy as np

CHUNK = 1 << 20
RANK_LARGE_FILE = Path(__file__).resolve().parent / "data" / "rank_large.json"


def coprime(ms) -> bool:
    return all(gcd(a, b) == 1 for i, a in enumerate(ms) for b in ms[i + 1:])


def cutoff(ms) -> int:
    P = prod(ms)
    return (len(ms) - 2) * P - sum(P // p for p in ms)


def invariants(ms):
    """(e0, [b_i]) solving e0 P + sum b_i P/p_i = -1 with 0 <= b_i < p_i."""
    P = prod(ms)
    bs = [(-pow(P // p, -1, p)) % p for p in ms]
    weighted = sum(b * (P // p) for b, p in zip(bs, ms))
    e0, rem = divmod(-1 - weighted, P)
    if rem:
        raise ArithmeticError(f"no normalized invariants for {ms}")
    return e0, bs


def _delta_chunk(e0, bs, ms, lo, hi):
    n = np.arange(lo, hi, dtype=np.int64)
    out = 1 + (-e0) * n
    for b, p in zip(bs, ms):
        out -= -((-n * b) // p)  # ceil(n b / p)
    return out


def walk(ms) -> dict:
    """kappa, min tau, c, N and both ranks of the tuple, from the definitions."""
    ms = tuple(sorted(ms))
    N = cutoff(ms) if len(ms) >= 3 else -1
    out = {"n_cutoff": N, "kappa": 0, "min_tau": 0, "c": 0}
    if N >= 0:
        e0, bs = invariants(ms)
        tau, min_tau, kappa, c, last_sign = 0, 0, 0, 0, 0
        for lo in range(0, N + 1, CHUNK):
            d = _delta_chunk(e0, bs, ms, lo, min(lo + CHUNK, N + 1))
            prefix = tau + np.cumsum(d)
            min_tau = min(min_tau, int(prefix.min()))
            tau = int(prefix[-1])
            kappa += int(-d[d < 0].sum())
            signs = np.sign(d[d != 0])
            if len(signs):
                seq = np.concatenate([[last_sign], signs]) if last_sign else signs
                c += int(((seq[:-1] < 0) & (seq[1:] > 0)).sum())
                last_sign = int(signs[-1])
        c += 1 if last_sign < 0 else 0
        out.update(kappa=kappa, min_tau=min_tau, c=c)
    out["rank_red"] = out["kappa"] + out["min_tau"]
    out["rank_hat"] = 2 * out["c"] + 1
    return out


def tau(ms) -> np.ndarray:
    """tau(0..N+1) of a tuple with at least three fibers (small N only)."""
    ms = tuple(sorted(ms))
    N = cutoff(ms)
    e0, bs = invariants(ms)
    d = _delta_chunk(e0, bs, ms, 0, N + 1)
    return np.concatenate([[0], np.cumsum(d)])


def positions(ms) -> int:
    """Length of the delta sequence: the n in [0, N] with Delta(n) != 0."""
    return int(np.count_nonzero(np.diff(tau(ms))))


def sublevel_runs(t) -> dict:
    """Grading h -> number of maximal index runs with tau <= h.

    These are the vertices of the graded root at grading h.  The window runs
    from min tau up to the highest grading that still has two runs, plus
    one: the stabilization grading, where exactly one vertex remains.
    """
    t = np.asarray(t, dtype=np.int64)
    lo = int(t.min())
    desc = np.flatnonzero(t[1:] < t[:-1]) + 1    # a run starts at i iff t[i] <= h < t[i-1]
    top = int(t[desc - 1].max()) if len(desc) else lo
    diff = np.zeros(top - lo + 2, dtype=np.int64)
    diff[int(t[0]) - lo] += 1
    np.add.at(diff, t[desc] - lo, 1)
    np.add.at(diff, t[desc - 1] - lo, -1)
    counts = np.cumsum(diff)[:top - lo + 1]
    return {lo + i: int(v) for i, v in enumerate(counts)}


def _stored_tuples():
    return [tuple(entry["tuple"]) for entry in json.loads(RANK_LARGE_FILE.read_text())]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        print("usage: python3 perfbench/reference.py", file=sys.stderr)
        return 2
    entries = [dict(tuple=list(ms), **walk(ms)) for ms in _stored_tuples()]
    text = "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"
    same = text == RANK_LARGE_FILE.read_text()
    print(f"{len(entries)} stored references recomputed: "
          f"{'match' if same else 'MISMATCH'}")
    if not same:
        print(text, end="")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
