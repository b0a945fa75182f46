"""Exception hierarchy, and the one way an identity check fails.

Every failure mode has a dedicated class so callers (and the CLI exit-code
mapping) can distinguish bad input from an internal identity check that
failed.  ``InternalInconsistency`` is special: it is raised when two exact
computations that must agree (an interpolation and its held-out samples or
its reciprocity values on the interior points, a closed form and an
enumeration, ...) disagree, which always indicates a bug rather than bad
data.  Every such comparison goes through :func:`ensure`, under a dotted
name of its own, ``module.check``, which the raised error carries as
``check``: the name, not the message, identifies the identity that failed.
"""

from __future__ import annotations

from typing import Callable


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
    """Two independent exact computations disagreed; indicates a defect.
    ``check`` is the name that :func:`ensure` was given."""

    def __init__(self, message: str, check: str | None = None) -> None:
        super().__init__(message)
        self.check = check


def ensure(name: str, ok: object, message: str | Callable[[], str], *args: object) -> None:
    """Refuse unless ``ok``: raise :class:`InternalInconsistency`, its
    ``check`` set to ``name``, with the text ``message.format(*args)``, or
    ``message()`` for a text that costs work to build.  Nothing is formatted
    or built while ``ok`` holds.  The error is raised ``from None``, as a
    failed identity is a defect whatever was being handled."""
    if not ok:
        raise InternalInconsistency(message() if callable(message) else message.format(*args), name) from None
