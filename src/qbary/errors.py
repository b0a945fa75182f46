"""Exception hierarchy.

Every failure mode has a dedicated class so callers (and the CLI exit-code
mapping) can distinguish bad input from an internal identity check that
failed.  ``InternalInconsistency`` is special: it is raised when two exact
computations that must agree (an interpolation and its held-out samples or
its reciprocity values on the interior points, a closed form and an
enumeration, ...) disagree, which always indicates a bug rather than bad
data.
"""

from __future__ import annotations


class QbaryError(Exception):
    """Base class for all library errors."""


class InvalidInput(QbaryError):
    """Malformed or contradictory input data."""


class DegenerateInput(InvalidInput):
    """Geometry that is empty or not full-dimensional where it must be."""


class UnboundedInput(InvalidInput):
    """A half-space intersection with a nontrivial recession cone."""


class PreconditionViolation(InvalidInput):
    """An operation-specific precondition does not hold."""


class InsufficientSamples(InvalidInput):
    """Too few sample points to draw the requested conclusion."""


class NotBoundedAtInfinity(InvalidInput):
    """Rational function with numerator degree above denominator degree."""


class InvalidPolarization(InvalidInput):
    """Toric data whose threshold denominators are not all positive."""


class Unsupported(QbaryError):
    """The request falls outside the implemented scope."""


class InternalInconsistency(QbaryError):
    """Two independent exact computations disagreed; indicates a defect."""
