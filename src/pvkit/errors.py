"""Exception taxonomy.

Every error carries a stable ``code`` string so the CLI can map failures to
exit codes and JSON diagnostics without string-matching messages.
"""
from __future__ import annotations


class PvkitError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class ZeroScale(PvkitError):
    """The q-shift scale factor is zero."""

    code = "zero-scale"


class RootOfUnityScale(PvkitError):
    """The q-shift scale factor is a root of unity (degenerate operator)."""

    code = "root-of-unity-scale"


class ZeroInput(PvkitError):
    """A multiplier, right-hand side, or generator that must be nonzero is zero."""

    code = "zero-input"


class NonRationalCoefficients(PvkitError):
    """Integer-root extraction was asked for a polynomial with irrational coefficients."""

    code = "non-rational-coefficients"


class DimensionTooLarge(PvkitError):
    """A bounded relation search covers up to n = 3 characters, the
    hypothesis of the saturation lemma at ``solve._residue_rows``."""

    code = "dimension-too-large"


class UnsupportedShape(PvkitError):
    """The operation does not apply to this system shape."""

    code = "unsupported-shape"


class NoExplicitIdempotents(PvkitError):
    """A decomposition was requested but the idempotent orbit is not explicit.

    For a single component (``ell == 1``) ``decompose`` returns the one
    trivial component rather than raising. This error fires only on degraded
    presentations that report multiple components without carrying their
    idempotents (a state engine builds never produce).
    """

    code = "no-explicit-idempotents"


class NotSigmaStable(PvkitError):
    """An ideal expected to be stable under the endomorphism is not, or
    nothing certified its stability (a relation lattice built by hand)."""

    code = "not-sigma-stable"


class UnsupportedSubstitutionShape(PvkitError):
    """The group-coordinate substitution is not defined for this presentation."""

    code = "unsupported-substitution-shape"


class NotFundamental(PvkitError):
    """A proposed solution matrix is not invertible in the residue ring."""

    code = "not-fundamental"


class NotConstant(PvkitError):
    """A connection matrix fails to be fixed by the endomorphism."""

    code = "not-constant"


class ShapeMismatch(PvkitError):
    """Two presentations being compared have different system shapes."""

    code = "shape-mismatch"


class ParseError(PvkitError):
    """Expression text could not be parsed; ``position`` points at the offender."""

    code = "parse-error"

    def __init__(self, message: str, position: int):
        super().__init__(message, position=position)
        self.position = position


class DivisionByZeroExpression(PvkitError):
    """An expression divides by a subexpression that simplifies to zero."""

    code = "division-by-zero-expression"


class OutputTooLarge(PvkitError):
    """A value of the answer has an integer too long for Python to print."""

    code = "output-too-large"


class InternalInvariantError(PvkitError):
    """A structural fact the construction relies on failed to hold.

    Raised instead of silently producing a wrong presentation; seeing this
    means an input reached a configuration the theory says is impossible.
    """

    code = "internal-invariant"
