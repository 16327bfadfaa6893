"""Rank invariants of Seifert fibered integral homology spheres.

Computes reduced and hat rank invariants through delta sequences and graded
roots, validates the morphism families behind the branched-cover, pinch and
partial-order rank inequalities, and solves the botany problem (all tuples
of a given reduced rank).
"""

__version__ = "0.1.0"

from .botany import BotanyResult, bounds, solve, table
from .deltaseq import DeltaSequence, from_seifert
from .gradedroot import GradedRoot
from .morphism import (
    DeltaMorphism,
    TwoGenSemigroup,
    branched_cover_embeddings,
    embed_to_subsequence,
    fix_defects,
    is_control_function,
    partial_order_immersion,
    pinch_semi_immersion,
    rigid_extend,
)
from .seifert import (
    NormalizedInvariants,
    SeifertTuple,
    euler_number,
    make_tuple,
    n_cutoff,
    normalized_invariants,
    rank_pair,
    walk_statistics,
)
from .verify import (
    DegreeMove,
    VerificationReport,
    scan_hat_monotonicity,
    verify_branched,
    verify_branched_hat,
    verify_degree_map,
    verify_monotone,
    verify_pinch,
)

__all__ = [
    "BotanyResult", "DegreeMove", "DeltaMorphism", "DeltaSequence",
    "GradedRoot", "NormalizedInvariants", "SeifertTuple", "TwoGenSemigroup",
    "VerificationReport", "bounds", "branched_cover_embeddings",
    "embed_to_subsequence", "euler_number", "fix_defects", "from_seifert",
    "is_control_function", "make_tuple", "n_cutoff", "normalized_invariants",
    "partial_order_immersion", "pinch_semi_immersion", "rank_pair",
    "rigid_extend", "scan_hat_monotonicity", "solve", "table",
    "verify_branched", "verify_branched_hat", "verify_degree_map",
    "verify_monotone", "verify_pinch", "walk_statistics",
]
