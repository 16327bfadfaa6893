"""Exception types shared across the library.

Everything derives from ValueError so callers that do not care about the
fine-grained reason can catch a single class.  Arithmetic overflow uses the
builtin OverflowError instead.
"""


class NotInvertibleError(ValueError):
    """Modular inverse requested for a non-coprime pair."""


class NotCoprimeError(ValueError):
    """Multiplicities (or a covering degree) fail pairwise coprimality."""


class NonPositiveEntryError(ValueError):
    """A multiplicity below 1 was supplied."""


class DegenerateTupleError(ValueError):
    """Operation needs a tuple with a positive cutoff (not S^3 or (2,3,5))."""


class EmptySequenceError(ValueError):
    """A nonempty sequence is required."""


class FirstElementNegativeError(ValueError):
    """Restriction would start with a negative value."""


class SignMismatchError(ValueError):
    """Refinement parts or merge run do not share the required sign."""


class SumMismatchError(ValueError):
    """Refinement parts do not sum to the value being split."""


class NotConsecutiveError(ValueError):
    """Merge run is not a consecutive block of positions."""


class NotSemiImmersionError(ValueError):
    """Defect analysis needs a one-to-one semi-immersion."""


class NotEmbeddingError(ValueError):
    """Subsequence extraction needs an embedding."""


class NotControlledError(ValueError):
    """Supplied pairing of bad to good points is not a control function."""


class NotBadError(ValueError):
    """Point has no positive defect."""


class NotRigidError(ValueError):
    """Partial semigroup map violates a rigidity condition."""


class NotComparableError(ValueError):
    """Tuples are not comparable in the componentwise partial order."""


class IllegalMoveError(ValueError):
    """A degree move cannot be applied to the current tuple."""


class UnknownFormatError(ValueError):
    """Unsupported rendering format."""
