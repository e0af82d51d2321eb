"""Named axiom systems and exhaustive satisfaction checks.

Each system lists the defining conditions for its class of algebras on top of
the bounded-distributive-lattice base (which every FiniteAlgebra already
carries by construction).  The sentences are written over the fixed signature;
for the double-Stone system the quote symbol is read as the dual
pseudocomplement, which is exactly how the quote slot of 3_dblst is populated.
"""

from __future__ import annotations

from .algebra import FiniteAlgebra
from .errors import NotFoundError, _Value
from .terms import Sentence, Verdict, _parse_shipped, holds_in


class AxiomSystem(_Value):
    name: str
    sentences: tuple[tuple[str, Sentence], ...]  # (label, parsed sentence)


def _parsed(pairs: list[tuple[str, str]]) -> tuple[tuple[str, Sentence], ...]:
    return tuple((label, _parse_shipped(text)) for label, text in pairs)

_P_ALGEBRA = [
    ("p1", "0* = 1"),
    ("p2", "1* = 0"),
    ("p3", "(x \\/ y)* = x* /\\ y*"),
    ("p4", "(x /\\ y)** = x** /\\ y**"),
    ("p5", "x <= x**"),
    ("p6", "x* /\\ x** = 0"),
]
_STONE = _P_ALGEBRA + [("st", "x* \\/ x** = 1")]
# dual p-algebra conditions for the quote slot, plus the dual Stone identity
_DUAL_STONE = [
    ("d1", "1' = 0"),
    ("d2", "0' = 1"),
    ("d3", "(x /\\ y)' = x' \\/ y'"),
    ("d4", "(x \\/ y)'' = x'' \\/ y''"),
    ("d5", "x'' <= x"),
    ("d6", "x' \\/ x'' = 1"),
    ("dst", "x' /\\ x'' = 0"),
]
_DE_MORGAN = [
    ("m1", "0' = 1"),
    ("m2", "1' = 0"),
    ("m3", "(x /\\ y)' = x' \\/ y'"),
    ("m4", "x'' = x"),
]
_KLEENE = _DE_MORGAN + [("kl", "x /\\ x' <= y \\/ y'")]
_DQD = [
    ("q1", "0' = 1"),
    ("q2", "1' = 0"),
    ("q3", "(x /\\ y)' = x' \\/ y'"),
    ("q4", "(x \\/ y)'' = x'' \\/ y''"),
    ("q5", "x'' <= x"),
]
_REGULARITY = ("r1", "x /\\ x'*' <= y \\/ y*")
_STAR_REGULAR = ("sr", "x*' = x**")
_WEAK_STAR_REGULAR = ("wsr", "x*'' = x*")
_L1 = ("l1", "(x /\\ x'*)'* = x /\\ x'*")

SYSTEMS: dict[str, AxiomSystem] = {
    name: AxiomSystem(name, _parsed(pairs))
    for name, pairs in {
        "P_ALGEBRA": _P_ALGEBRA,
        "STONE": _STONE,
        "DUAL_STONE": _DUAL_STONE,
        "DE_MORGAN": _DE_MORGAN,
        "KLEENE": _KLEENE,
        "DQD": _DQD,
        # regularity is stated twice for the double-Stone system: the direct
        # form and the R1 form are equivalent there, and both are checked
        "RDBLST": _STONE + _DUAL_STONE + [("r", "x /\\ x' <= y \\/ y*"), _REGULARITY],
        "RKLST": _STONE + _KLEENE + [_REGULARITY],
        "GAUTAMA": _STONE + _DQD + [_REGULARITY, _STAR_REGULAR],
        "ALMOST_GAUTAMA": _STONE + _DQD + [_REGULARITY, _WEAK_STAR_REGULAR, _L1],
    }.items()
}

SYSTEM_NAMES = tuple(SYSTEMS)


def axiom_system(name: str) -> AxiomSystem:
    try:
        return SYSTEMS[name]
    except KeyError:
        raise NotFoundError(
            f"unknown axiom system {name!r}; known: {', '.join(SYSTEM_NAMES)}"
        ) from None


class SentenceCheck(_Value):
    """One sentence's verdict.  It keeps the sentence, formatted as `text` when read."""
    label: str
    sentence: Sentence
    verdict: Verdict

    @property
    def text(self) -> str:
        return str(self.sentence)


class AxiomReport(_Value):
    algebra_name: str
    system_name: str
    checks: tuple[SentenceCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.verdict.holds for check in self.checks)

    def __bool__(self) -> bool:
        return self.ok

    def failures(self) -> tuple[SentenceCheck, ...]:
        return tuple(c for c in self.checks if not c.verdict.holds)


def satisfies_axiom_system(algebra: FiniteAlgebra,
                           system: AxiomSystem | str) -> AxiomReport:
    """Per-sentence pass/fail with a witness assignment for each failure;
    the overall verdict is the conjunction."""
    if isinstance(system, str):
        system = axiom_system(system)
    checks = tuple(
        SentenceCheck(label, sentence, holds_in(algebra, sentence))
        for label, sentence in system.sentences
    )
    return AxiomReport(algebra.name, system.name, checks)
