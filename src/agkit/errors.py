"""Exception types shared across the workbench."""

from __future__ import annotations


class AgkitError(Exception):
    """Base class for all workbench errors."""


class NotFoundError(AgkitError):
    """Unknown builtin algebra, axiom system, or variety name."""


class CapExceededError(AgkitError):
    """A size guard was hit.  Guards are overridable (see agkit.caps)."""

    def __init__(self, guard: str, limit: int, requested: int):
        self.guard = guard
        self.limit = limit
        self.requested = requested
        super().__init__(f"{guard} guard exceeded: requested {requested}, limit {limit}")


class ParseError(AgkitError):
    """Syntax error in a sentence or an algebra file, with byte offset."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.reason = message
        self.position = position
        self.expected = expected
        detail = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {position}{detail}")


class LatticeAxiomError(AgkitError):
    """A constructed table violates a bounded-distributive-lattice axiom."""

    def __init__(self, axiom: str, witness: tuple, message: str):
        self.axiom = axiom
        self.witness = witness
        super().__init__(message)


class AlgebraFormatError(AgkitError):
    """An algebra document is structurally invalid (keys, shapes, ranges)."""


class EvalError(AgkitError):
    """Term evaluation failed (unbound variable)."""


class NotInVarietyError(AgkitError):
    """An algebra is outside the variety a computation requires.

    Carries the first failing sentence and a witness assignment.
    """

    def __init__(self, variety_name: str, algebra_name: str, sentence: str,
                 witness: dict[str, str] | None):
        self.variety_name = variety_name
        self.algebra_name = algebra_name
        self.sentence = sentence
        self.witness = witness
        at = f" at {witness}" if witness else ""
        super().__init__(
            f"{algebra_name} is not in {variety_name}: fails {sentence!r}{at}")
