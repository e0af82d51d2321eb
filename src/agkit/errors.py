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



class _Value:
    """Base of agkit's value types, in place of @dataclass(frozen=True).

    The fields of a subclass are its annotated names, in order, with its class
    attributes as defaults; a list or dict default is copied per instance.
    The subclass gets __match_args__, an __init__ compiled for its fields that
    runs __post_init__ if defined, and a repr, == and hash over its fields.
    == holds between instances of one type only, and the hash is that of the
    field tuple, as dataclasses make it.  Instances refuse assignment.

    Why not dataclasses: every agkit command runs in a process of its own, so
    every command pays the import.  Importing dataclasses, with the inspect,
    ast, dis and tokenize it imports, and generating its methods for the 28
    value types took ≈30–37 ms of the ≈0.165 s that a perfbench child took
    to start (setup_s), and 35 ms of `import agkit` (-X importtime).
    """

    def __init_subclass__(cls):
        fields = cls.__match_args__ = tuple(cls.__annotations__)  # its own, not inherited
        scope = {"_set": object.__setattr__}  # and _<name>, the default of each field that has one
        body = []
        for name in fields:
            value = name
            if name in cls.__dict__:
                scope[f"_{name}"] = default = cls.__dict__[name]
                if isinstance(default, (list, dict)):
                    delattr(cls, name)
                    value = f"_{name}.copy() if {name} is _{name} else {name}"
            body.append(f"    _set(self, {name!r}, {value})")
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
        params = ", ".join(f"{name}=_{name}" if f"_{name}" in scope else name for name in fields)
        mine, theirs = (", ".join(f"{who}.{name}" for name in fields) + ","
                        for who in ("self", "other"))
        methods: dict = {}
        exec("\n".join([f"def __init__(self, {params}):", *body,
                        "def __eq__(self, other):",
                        f"    if other.__class__ is self.__class__: return ({mine}) == ({theirs})",
                        "    return NotImplemented",
                        f"def __hash__(self): return hash(({mine}))"]), scope, methods)
        for name, method in methods.items():
            if name not in cls.__dict__:
                setattr(cls, name, method)
        cls.__setattr__ = cls.__delattr__ = _Value._refuse

    def _refuse(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"
