"""The eight nontrivial subvarieties and decision procedures over them.

Each variety is represented by its set of subdirectly irreducible generators
(a subset of the four builtins, always containing 2) together with an
equational base relative to the ambient axiom system.  Ordered by inclusion of
generator sets, the eight descriptors form the eight-element Boolean lattice.

Validity of an identity in a variety reduces to validity on its generators
(identities are preserved by homomorphic images, subalgebras, and products).
Validity of a quasi-identity also reduces to the SI members, but for a less
immediate reason: quasi-identities are preserved by subalgebras and products,
every finite member is a subdirect product of the SI members, and the variety
is locally finite, so a failure anywhere is a failure in some finite member.
The reduction is therefore exact, not an approximation.
"""

from __future__ import annotations

import importlib.resources
import itertools
import json
from dataclasses import dataclass

from . import caps
from .algebra import (FiniteAlgebra, builtin, direct_product, enumerate_subalgebras,
                      subalgebra)
from .axioms import satisfies_axiom_system
from .congruence import congruence_lattice, quotient
from .errors import CapExceededError, NotFoundError, NotInVarietyError
from .morphisms import enumerate_homs, is_isomorphic
from .terms import Sentence, Verdict, eval_term, holds_in, parse_sentence

VARIETY_NAMES = ("BA", "RDBLST", "RKLST", "DMBA", "G",
                 "V_DBLST_DMBA", "V_KLST_DMBA", "AG")

_SI_SETS = {
    "BA": frozenset({"2"}),
    "RDBLST": frozenset({"2", "3_dblst"}),
    "RKLST": frozenset({"2", "3_klst"}),
    "DMBA": frozenset({"2", "4_dmba"}),
    "G": frozenset({"2", "3_dblst", "3_klst"}),
    "V_DBLST_DMBA": frozenset({"2", "3_dblst", "4_dmba"}),
    "V_KLST_DMBA": frozenset({"2", "3_klst", "4_dmba"}),
    "AG": frozenset({"2", "3_dblst", "3_klst", "4_dmba"}),
}

# equational bases relative to the ambient system (AG itself needs nothing)
_BASES = {
    "BA": (("base", "x* = x'"),),
    "RDBLST": (("base", "x \\/ x' = 1"),),
    "RKLST": (("base1", "x*' = x**"), ("base2", "x'' = x")),
    "DMBA": (("base", "x \\/ x* = 1"),),
    "G": (("base", "x*' = x**"),),
    "V_DBLST_DMBA": (("J", "x' \\/ y* \\/ z = (x' \\/ y)* \\/ (x' \\/ z)"),),
    "V_KLST_DMBA": (("base", "x'' = x"),),
    "AG": (),
}


@dataclass(frozen=True)
class VarietyDescriptor:
    name: str
    si_names: frozenset[str]
    base: tuple[tuple[str, Sentence], ...]

    def si_algebras(self) -> tuple[FiniteAlgebra, ...]:
        return tuple(builtin(n) for n in sorted(self.si_names))

    def leq(self, other: "VarietyDescriptor") -> bool:
        return self.si_names <= other.si_names

    @property
    def level(self) -> int:
        """Height in the subvariety lattice (0 = bottom)."""
        return len(self.si_names) - 1

    def __str__(self) -> str:
        return self.name


VARIETIES: dict[str, VarietyDescriptor] = {
    name: VarietyDescriptor(
        name, _SI_SETS[name],
        tuple((label, parse_sentence(text)) for label, text in _BASES[name]))
    for name in VARIETY_NAMES
}


def variety(name: str) -> VarietyDescriptor:
    try:
        return VARIETIES[name]
    except KeyError:
        raise NotFoundError(
            f"unknown variety {name!r}; known: {', '.join(VARIETY_NAMES)}") from None


def all_varieties() -> tuple[VarietyDescriptor, ...]:
    return tuple(VARIETIES[name] for name in VARIETY_NAMES)


@dataclass(frozen=True)
class VarietyVerdict:
    holds: bool
    countermodel: tuple[str, dict[str, int]] | None = None  # (SI name, witness)

    def __bool__(self) -> bool:
        return self.holds


def quasi_identity_holds(v: VarietyDescriptor, sentence: Sentence) -> VarietyVerdict:
    """Exact validity in the variety via its SI members (see module doc)."""
    for si in v.si_algebras():
        verdict = holds_in(si, sentence)
        if not verdict.holds:
            return VarietyVerdict(False, (si.name, verdict.witness))
    return VarietyVerdict(True)


def identity_holds(v: VarietyDescriptor, sentence: Sentence) -> VarietyVerdict:
    if sentence.premises:
        raise ValueError("identity_holds expects a premise-free sentence")
    return quasi_identity_holds(v, sentence)


def satisfies_base(algebra: FiniteAlgebra, v: VarietyDescriptor) -> Verdict:
    for _, sentence in v.base:
        verdict = holds_in(algebra, sentence)
        if not verdict.holds:
            return verdict
    return Verdict(True)


def require_in_variety(algebra: FiniteAlgebra, v: VarietyDescriptor) -> None:
    report = satisfies_axiom_system(algebra, "ALMOST_GAUTAMA")
    if not report.ok:
        failure = report.failures()[0]
        witness = failure.verdict.witness or {}
        raise NotInVarietyError(
            "AG", algebra.name, failure.text,
            {k: algebra.labels[i] for k, i in witness.items()})
    for label, sentence in v.base:
        verdict = holds_in(algebra, sentence)
        if not verdict.holds:
            raise NotInVarietyError(
                v.name, algebra.name, str(sentence),
                {k: algebra.labels[i] for k, i in (verdict.witness or {}).items()})


@dataclass(frozen=True)
class BaseMatrixReport:
    """Satisfaction of every variety base by every SI, against membership."""
    satisfied: dict[str, dict[str, bool]]  # si name -> variety name -> bool
    expected: dict[str, dict[str, bool]]

    @property
    def ok(self) -> bool:
        return self.satisfied == self.expected

    def mismatches(self) -> list[tuple[str, str]]:
        return [(si, v) for si in self.satisfied for v in self.satisfied[si]
                if self.satisfied[si][v] != self.expected[si][v]]


def verify_bases() -> BaseMatrixReport:
    from .algebra import BUILTIN_NAMES
    satisfied = {
        si: {v.name: satisfies_base(builtin(si), v).holds for v in all_varieties()}
        for si in BUILTIN_NAMES
    }
    expected = {
        si: {v.name: si in v.si_names for v in all_varieties()}
        for si in BUILTIN_NAMES
    }
    return BaseMatrixReport(satisfied, expected)


def generated_subvariety(algebra: FiniteAlgebra) -> VarietyDescriptor:
    """Least of the eight subvarieties containing the algebra.

    Computed twice and cross-checked: (1) as the least descriptor whose base
    the algebra satisfies, and (2) as the set of builtins obtainable as
    quotients of subalgebras (for a finite algebra in a congruence-distributive
    variety, the SI members of the generated variety arise that way).
    """
    require_in_variety(algebra, variety("AG"))
    if algebra.size == 1:
        raise ValueError("the trivial algebra generates the trivial variety, "
                         "which is none of the eight nontrivial subvarieties")

    candidates = [v for v in all_varieties() if satisfies_base(algebra, v).holds]
    least = min(candidates, key=lambda v: len(v.si_names))
    if not all(least.leq(v) for v in candidates):  # pragma: no cover
        raise AssertionError(f"base satisfaction not a filter for {algebra.name}")

    reachable = set()
    for universe in enumerate_subalgebras(algebra):
        sub = subalgebra(algebra, universe)
        for si_name in sorted(_SI_SETS["AG"]):
            if si_name in reachable:
                continue
            si = builtin(si_name)
            if si.size <= sub.size and any(
                    h.surjective for h in enumerate_homs(sub, si)):
                reachable.add(si_name)
    if reachable != least.si_names:  # pragma: no cover
        raise AssertionError(
            f"subvariety paths disagree for {algebra.name}: "
            f"base says {sorted(least.si_names)}, quotients say {sorted(reachable)}")
    return least


# --- discriminator -----------------------------------------------------------

def discriminator_is_term_op(algebra: FiniteAlgebra) -> bool:
    """Is t(x, y, z) = (z if x = y else x) a term operation?

    The lattice median (x /\\ y) \\/ (y /\\ z) \\/ (x /\\ z) is a majority term
    for every algebra here, so by the Baker-Pixley criterion it suffices that
    the discriminator preserves every subuniverse of the square.
    """
    caps.guard("discriminator_universe", algebra.size)
    square = direct_product([algebra, algebra])
    n = algebra.size

    def disc(x: int, y: int, z: int) -> int:
        return z if x == y else x

    for universe in enumerate_subalgebras(square):
        pairs = [(k // n, k % n) for k in universe]
        members = set(pairs)
        for (a1, b1), (a2, b2), (a3, b3) in itertools.product(pairs, repeat=3):
            if (disc(a1, a2, a3), disc(b1, b2, b3)) not in members:
                return False
    return True


# --- free algebras -----------------------------------------------------------

@dataclass(frozen=True)
class FreeAlgebra:
    algebra: FiniteAlgebra
    generators: tuple[int, ...]
    variety_name: str


def free_algebra(v: VarietyDescriptor, n: int,
                 max_elements: int | None = None) -> FreeAlgebra:
    """Free algebra of the variety on n generators (n <= 3).

    Constructed inside the product over all pairs (SI member S, assignment of
    the n generators into S): the subalgebra generated by the projection
    tuples.  An identity in at most n variables holds in the variety iff its
    two sides agree at the generators.
    """
    if not 0 <= n <= 3:
        raise ValueError("free_algebra supports 0 <= n <= 3")
    limit = caps.cap_value("free_elements", max_elements)

    factors = []
    generator_vectors: list[list[int]] = [[] for _ in range(n)]
    for si in v.si_algebras():
        for assignment in itertools.product(range(si.size), repeat=n):
            factors.append(si)
            for i in range(n):
                generator_vectors[i].append(assignment[i])

    zero = tuple(f.zero for f in factors)
    one = tuple(f.one for f in factors)
    elements: dict[tuple[int, ...], int] = {}

    def intern(vector: tuple[int, ...]) -> int:
        if vector not in elements:
            if len(elements) >= limit:
                raise CapExceededError("free_elements", limit, len(elements) + 1)
            elements[vector] = len(elements)
        return elements[vector]

    intern(zero)
    intern(one)
    generators = tuple(intern(tuple(vec)) for vec in generator_vectors)
    worklist = list(elements)
    while worklist:
        x = worklist.pop()
        for y in list(elements):
            for op in ("join", "meet"):
                vector = tuple(getattr(f, op)[a][b] for f, a, b in zip(factors, x, y))
                if vector not in elements:
                    intern(vector)
                    worklist.append(vector)
        for op in ("star", "quote"):
            vector = tuple(getattr(f, op)[a] for f, a in zip(factors, x))
            if vector not in elements:
                intern(vector)
                worklist.append(vector)

    vectors = sorted(elements, key=elements.get)
    index = {vec: i for i, vec in enumerate(vectors)}
    size = len(vectors)

    def table2(op: str):
        return tuple(
            tuple(index[tuple(getattr(f, op)[a][b] for f, a, b in zip(factors, x, y))]
                  for y in vectors)
            for x in vectors)

    labels = ["?"] * size
    labels[index[zero]] = "0"
    labels[index[one]] = "1"
    for i, g in enumerate(generators):
        labels[g] = f"x{i + 1}"
    counter = 0
    for i in range(size):
        if labels[i] == "?":
            labels[i] = f"e{counter}"
            counter += 1

    algebra = FiniteAlgebra(
        name=f"F_{v.name}({n})", size=size, labels=tuple(labels),
        join=table2("join"), meet=table2("meet"),
        star=tuple(index[tuple(f.star[a] for f, a in zip(factors, x))] for x in vectors),
        quote=tuple(index[tuple(f.quote[a] for f, a in zip(factors, x))] for x in vectors),
        zero=index[zero], one=index[one], validate=False,
    )
    return FreeAlgebra(algebra, generators, v.name)


def identity_holds_via_free(free: FreeAlgebra, sentence: Sentence) -> bool:
    """Cross-check: evaluate both sides of an identity at the free generators."""
    if sentence.premises:
        raise ValueError("free-algebra evaluation applies to identities only")
    names = sentence.variables()
    if len(names) > len(free.generators):
        raise ValueError("identity uses more variables than the free algebra has generators")
    env = {name: free.generators[i] for i, name in enumerate(names)}
    lhs, rhs = sentence.conclusion
    return eval_term(free.algebra, lhs, env) == eval_term(free.algebra, rhs, env)


# --- lemma registry ----------------------------------------------------------

@dataclass(frozen=True)
class LemmaRecord:
    id: str
    label: str
    variety_name: str
    sentence: Sentence
    expected: bool = True


@dataclass(frozen=True)
class LemmaResult:
    record: LemmaRecord
    verdict: VarietyVerdict

    @property
    def ok(self) -> bool:
        return self.verdict.holds == self.record.expected


@dataclass(frozen=True)
class LemmaSuiteReport:
    results: tuple[LemmaResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def mismatches(self) -> tuple[LemmaResult, ...]:
        return tuple(r for r in self.results if not r.ok)


def lemma_registry() -> tuple[LemmaRecord, ...]:
    raw = json.loads(
        importlib.resources.files("agkit").joinpath("data/lemmas.json").read_text())
    assert raw["version"] == 1
    return tuple(
        LemmaRecord(r["id"], r["label"], r["variety"], parse_sentence(r["sentence"]))
        for r in raw["records"])


def lemma_suite(v: VarietyDescriptor | None = None) -> LemmaSuiteReport:
    """Check every registered lemma in its variety (or one variety's slice)."""
    results = []
    for record in lemma_registry():
        if v is not None and record.variety_name != v.name:
            continue
        verdict = quasi_identity_holds(variety(record.variety_name), record.sentence)
        results.append(LemmaResult(record, verdict))
    return LemmaSuiteReport(tuple(results))


def si_quotients_of_subalgebras(algebra: FiniteAlgebra) -> set[str]:
    """Names of builtins isomorphic to an SI quotient of a subalgebra.
    Exposed for tests that cross-check generated_subvariety the slow way."""
    names = set()
    for universe in enumerate_subalgebras(algebra):
        sub = subalgebra(algebra, universe)
        for theta in congruence_lattice(sub):
            q = quotient(sub, theta)
            if q.size < 2:
                continue
            for si_name in sorted(_SI_SETS["AG"]):
                if q.size == builtin(si_name).size and is_isomorphic(q, builtin(si_name)):
                    names.add(si_name)
    return names
