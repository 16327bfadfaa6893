"""End-to-end verifiers for the rank inequalities.

The pinch and partial-order verifiers construct their witness morphisms and
validate every property the construction promises; the inequality itself is
then a comparison of the two sides' ranks, read off the witness sequences
(the source and target of a witness map).  The branched-cover verifiers
check the integer premises of the cover maps' affine identity, build no
sequence and take both ranks from the kernel.  The degree-map verifier
certifies each move by the pinch or the branched-cover verifier and takes
its start and end ranks from its sub-reports.  A "fails" verdict on a
valid input would mean an implementation bug, never new mathematics.

Degenerate inputs (S^3-like tuples and (2,3,5)) have reduced rank 0 and hat
rank 1, so the inequalities hold trivially and no witness is built.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import morphism, seifert
from .errors import DegenerateTupleError, IllegalMoveError, NotComparableError

# scans of more candidate tuples are refused: a scan ranks every candidate and
# compares every pair, so its time and its list of violations grow as the
# square of the count.  On a 2-core host, bound 25 at length 3 (2,024
# candidates) takes 0.4 s and bound 33 (4,960) 2 s.
MAX_SCAN_CANDIDATES = 5_000


@dataclass
class VerificationReport:
    statement: str
    inputs: dict
    checks: list = field(default_factory=list)
    ranks: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool):
        self.checks.append((name, bool(passed)))

    @property
    def verdict(self) -> str:
        return "holds" if all(ok for _, ok in self.checks) else "fails"

    def to_json(self) -> dict:
        return {
            "statement": self.statement,
            "inputs": self.inputs,
            "checks": [{"name": n, "passed": ok} for n, ok in self.checks],
            "ranks": self.ranks,
            "verdict": self.verdict,
        }


def _ranks(stats: seifert.WalkStatistics, report: VerificationReport, label: str):
    """(reduced, hat) ranks of a walk's statistics, recorded under label."""
    report.ranks[label] = {"red": stats.rank_red, "hat": stats.rank_hat}
    return stats.rank_red, stats.rank_hat


def _walk(t: seifert.SeifertTuple, report: VerificationReport, label: str, known: dict):
    """(reduced, hat) ranks of t under label, walked unless known has them."""
    if t not in known:
        stats = seifert.walk_statistics(t)
        known[t] = {"red": stats.rank_red, "hat": stats.rank_hat}
    report.ranks[label] = dict(known[t])
    return known[t]["red"], known[t]["hat"]


def verify_branched(t: seifert.SeifertTuple, n: int,
                    fiber: int = None) -> VerificationReport:
    """n * rank(Y) <= rank(Y') for the n-fold cover along a designated fiber.

    The largest multiplicity f is covered unless another one is designated;
    f = 1 designates a regular fiber, and the cover adds a fiber n.
    With s = P/f, each map z -> n z + k s (k < n) has
    delta_cover(n z + k s) = delta(z) for all z >= 0.  Proof, with p_i the
    other multiplicities (s = prod p_i), p_i' and f' the source's invariants,
    p_i'' and g'' the cover's for p_i and n f, e = |e0| and e'' = |e0''|:
    branched_cover_identity checks that (A) m_i = (n p_i'' - p_i')/p_i,
    (B) u = (g'' - f')/f and (C) j = (g'' s + 1)/(n f) are integers.  As p_i
    divides k s, (A) gives ceil((n z + k s) p_i''/p_i) = k s p_i''/p_i +
    z m_i + ceil(z p_i'/p_i); (B) and (C) give ceil((n z + k s) g''/(n f)) =
    z u + k j + ceil(z f'/f - k/(n f)) = z u + k j + ceil(z f'/f), as
    0 <= k/(n f) < 1/f.  The terms left are z (n e'' - sum m_i - u - e) and
    k (s e'' - sum (s/p_i) p_i'' - j), and it checks that (D) the first
    factor and (E) the second are 0.  The defining relations give all five:
    n p_i'' = p_i' (mod p_i) and g'' s = -1 (mod n f), so g'' = f' (mod f);
    (D) is the difference of the two relations divided by P, and (E) the
    cover's relation divided by n f.  A regular fiber is f = 1 with f' = 0:
    Sigma(T, 1) has T's relation, P and N, the ceiling step is
    ceil(-k/n) = 0, and for n = 1 the cover is T, with g'' = 0.

    The identity makes each map a strictly increasing value-preserving
    injection, so an embedding, into [0, N_cover] (N_cover = n N + (n - 1) s),
    with images k s mod n: disjoint, as gcd(n, s) = 1.  Both ranks come from
    the kernel.
    """
    return _verify_branched(t, n, fiber, {})


def _verify_branched(t: seifert.SeifertTuple, n: int, fiber, known: dict) -> VerificationReport:
    """verify_branched, walking only the tuples whose ranks known lacks (see _walk)."""
    report = VerificationReport(
        statement="branched cover rank inequality",
        inputs={"tuple": list(t.multiplicities), "n": n})
    try:
        cover, holds = morphism.branched_cover_identity(t, n, fiber)
    except DegenerateTupleError:    # refused after the degree's check
        report.check("degenerate source: inequality is trivial", True)
        return report
    if fiber is None:
        fiber = t.multiplicities[-1]
    report.inputs["fiber"] = fiber
    report.check("each map z -> n z + k P/fiber carries delta into the cover", holds)
    report.check("images pairwise disjoint", math.gcd(n, t.product // fiber) == 1)
    red, _ = _walk(t, report, "source", known)
    red_cover, _ = _walk(cover, report, "cover", known)
    report.check(f"{n} * rank(source) <= rank(cover)", n * red <= red_cover)
    return report


def verify_branched_hat(t: seifert.SeifertTuple, n: int) -> VerificationReport:
    """hat rank(Y) <= hat rank(Y') via the first cover map, z -> n z."""
    report = VerificationReport(
        statement="branched cover hat-rank inequality",
        inputs={"tuple": list(t.multiplicities), "n": n})
    try:
        cover, holds = morphism.branched_cover_identity(t, n)
    except DegenerateTupleError:    # refused after the degree's check
        report.check("degenerate source: inequality is trivial", True)
        return report
    report.check("the map z -> n z carries delta into the cover", holds)
    _, hat = _walk(t, report, "source", {})
    _, hat_cover = _walk(cover, report, "cover", {})
    report.check("hat rank(source) <= hat rank(cover)", hat <= hat_cover)
    return report


def verify_pinch(base, q: int, r: int) -> VerificationReport:
    """rank(Sigma(base, qr)) <= rank(Sigma(base, q, r)) via the pinch map."""
    base_t = seifert.make_tuple(base)
    report = VerificationReport(
        statement="vertical pinch rank inequality",
        inputs={"base": list(base_t.multiplicities), "q": q, "r": r})
    try:
        m, theta = morphism.pinch_semi_immersion(base_t.multiplicities, q, r)
    except DegenerateTupleError:    # refused after the factors' checks
        report.check("degenerate source: inequality is trivial", True)
        return report
    red_src, _ = _ranks(m.source.rank(), report, "pinched")
    red_tgt, _ = _ranks(m.target.rank(), report, "unpinched")
    report.check("pinch map is a one-to-one semi-immersion",
                 m.is_injective() and m.is_semi_immersion())
    report.check("theta is a control function", morphism.is_control_function(m, theta))
    report.check("all defects within one unit", np.all(np.abs(m.defect_table()) <= 1))
    _, _, fixed = morphism.fix_defects(m, theta)
    report.check("defect repair yields a one-to-one immersion",
                 fixed.is_injective() and fixed.is_immersion())
    report.check("rank(pinched) <= rank(unpinched)", red_src <= red_tgt)
    return report


def verify_monotone(t: seifert.SeifertTuple, t2: seifert.SeifertTuple) -> VerificationReport:
    """rank(t) <= rank(t2) for componentwise comparable tuples."""
    report = VerificationReport(
        statement="partial order rank inequality",
        inputs={"small": list(t.multiplicities), "large": list(t2.multiplicities)})
    if len(t.multiplicities) != len(t2.multiplicities) or \
            any(p > q for p, q in zip(t.multiplicities, t2.multiplicities)):
        raise NotComparableError(f"{t} is not componentwise <= {t2}")
    if t.is_degenerate:
        report.check("degenerate source: inequality is trivial", True)
        return report
    m = morphism.partial_order_immersion(t, t2)
    red_small, _ = _ranks(m.source.rank(), report, "small")
    red_large, _ = _ranks(m.target.rank(), report, "large")
    report.check("normal-form map is an immersion", m.is_immersion())
    report.check("rank(small) <= rank(large)", red_small <= red_large)
    return report


@dataclass(frozen=True)
class DegreeMove:
    """One step of a map chain, applied to the current (covering) tuple.

    pinch:            merge the two multiplicities `fibers` into their
                      product (degree 1)
    branched_fiber:   divide the multiplicity fibers[0] by n (degree n)
    branched_regular: remove a fiber of multiplicity exactly n (degree n)
    """

    kind: str
    n: int = 1
    fibers: tuple = ()

    @property
    def degree(self) -> int:
        return 1 if self.kind == "pinch" else self.n

    def apply(self, t: seifert.SeifertTuple) -> seifert.SeifertTuple:
        if self.n < 1:
            raise IllegalMoveError(f"move degree must be >= 1, got {self.n}")
        ms = list(t.multiplicities)
        if self.kind == "pinch":
            if len(self.fibers) != 2:
                raise IllegalMoveError(f"pinch needs two fibers, got {self.fibers}")
            q, r = self.fibers
            if q not in ms or r not in ms or q == r:
                raise IllegalMoveError(f"pinch {self.fibers} not applicable to {t}")
            ms.remove(q)
            ms.remove(r)
            return seifert.make_tuple(ms + [q * r])
        if self.kind == "branched_fiber":
            if len(self.fibers) != 1:
                raise IllegalMoveError(f"fiber cover needs one fiber, got {self.fibers}")
            (fiber,) = self.fibers
            if fiber not in ms or fiber % self.n != 0:
                raise IllegalMoveError(f"fiber {fiber} / {self.n} not applicable to {t}")
            rest = list(ms)
            rest.remove(fiber)
            if any(math.gcd(self.n, p) != 1 for p in rest):
                raise IllegalMoveError(f"degree {self.n} not coprime to {rest}")
            return seifert.make_tuple(rest + [fiber // self.n])
        if self.kind == "branched_regular":
            if self.n not in ms:
                raise IllegalMoveError(f"no fiber of multiplicity {self.n} in {t}")
            rest = list(ms)
            rest.remove(self.n)
            return seifert.make_tuple(rest)
        raise IllegalMoveError(f"unknown move kind {self.kind!r}")


def verify_degree_map(start: seifert.SeifertTuple, moves) -> VerificationReport:
    """|deg| * rank(end) <= rank(start) along a chain of covering/pinch moves.

    Each move is certified with its own witness inequality: a pinch through
    the pinch verifier, a cover through verify_branched on the move's result
    along fibers[0] // n for a fiber move (1 if it unwinds the fiber) and
    fiber 1, a regular fiber, for a regular move; no cover builds a sequence.
    Each tuple is ranked once, by the first move that meets it, and the start
    and end ranks are the sub-reports' ranks of those tuples.  Only the empty
    chain, or one whose first move ends degenerate, ranks its start afresh.
    """
    report = VerificationReport(
        statement="composite degree-map rank inequality",
        inputs={"start": list(start.multiplicities),
                "moves": [[mv.kind, mv.n, list(mv.fibers)] for mv in moves]})
    current, degree, ranks = start, 1, {}     # ranks: tuple -> its ranks in a sub-report
    for step, mv in enumerate(moves):
        nxt = mv.apply(current)
        degree *= mv.degree
        label = f"move {step} ({mv.kind})"
        if nxt.is_degenerate:
            report.check(f"{label}: degenerate result, inequality trivial", True)
            current = nxt
            continue
        if mv.kind == "pinch":
            sub = verify_pinch(sorted(set(current.multiplicities) - set(mv.fibers)), *mv.fibers)
            ranks[current], ranks[nxt] = sub.ranks["unpinched"], sub.ranks["pinched"]
        else:
            fiber = mv.fibers[0] // mv.n if mv.kind == "branched_fiber" else 1
            sub = _verify_branched(nxt, mv.n, fiber, ranks)
        report.check(f"{label}: witness verified", sub.verdict == "holds")
        current = nxt
    red_start, _ = _walk(start, report, "start", ranks)
    red_end, _ = _walk(current, report, "end", ranks)
    report.inputs["end"] = list(current.multiplicities)
    report.ranks["degree"] = degree
    report.check("|deg| * rank(end) <= rank(start)", degree * red_end <= red_start)
    return report


def scan_hat_monotonicity(bound: int, length: int = 3) -> list:
    """Hat ranks against the componentwise partial order; returns violations.

    Scans every canonical tuple of the given length with multiplicities up
    to the bound and compares every comparable pair.  The hat rank is not
    monotone in general: for three fibers the first violation appears at
    bound 11, (5,8,11) <= (5,9,11) with hat ranks 35 > 31.  The reduced rank
    is the monotone one (the partial-order inequality, see verify_monotone).
    A negative length, or a scan of more than MAX_SCAN_CANDIDATES candidate
    tuples, is refused with a ValueError before anything is ranked.
    """
    from itertools import combinations
    if length < 0:
        raise ValueError(f"--length {length}: a scan length must be non-negative")
    n, k = max(bound - 1, 0), length
    # once min(k, n - k) > 8, comb(n, k) >= comb(18, 9) = 48,620: refused
    # without computing a count that may run to millions of digits
    if min(k, n - k) > 8 or math.comb(n, k) > MAX_SCAN_CANDIDATES:
        raise ValueError(f"a scan to bound {bound} at length {length} has more than "
                         f"the {MAX_SCAN_CANDIDATES} candidate tuples a scan may have")
    tuples = []
    for combo in combinations(range(2, bound + 1), length):
        try:
            t = seifert.SeifertTuple(combo)
        except ValueError:
            continue
        tuples.append((combo, seifert.rank_pair(t)[1]))
    violations = []
    for (small, hat_small), (large, hat_large) in combinations(tuples, 2):
        if all(p <= q for p, q in zip(small, large)):
            if hat_small > hat_large:
                violations.append((small, large, hat_small, hat_large))
        elif all(q <= p for p, q in zip(small, large)):
            if hat_large > hat_small:
                violations.append((large, small, hat_large, hat_small))
    return sorted(violations)
