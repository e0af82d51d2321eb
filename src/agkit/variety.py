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

import functools
import itertools
import json
import math
import os
import weakref

from . import caps
from .algebra import (FiniteAlgebra, _known, _subuniverses, builtin, direct_product,
                      subuniverse_closure)
from .axioms import axiom_system
from .congruence import factor_names
from .errors import AgkitError, NotFoundError, NotInVarietyError, _Value
from .morphisms import _extend
from .terms import Sentence, Verdict, _parse_shipped, eval_term, holds_in

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


class VarietyDescriptor(_Value):
    name: str
    si_names: frozenset[str]
    base: tuple[tuple[str, Sentence], ...]

    def si_algebras(self) -> tuple[FiniteAlgebra, ...]:
        return tuple(builtin(n) for n in sorted(self.si_names))

    @property
    def level(self) -> int:
        """Height in the subvariety lattice (0 = bottom)."""
        return len(self.si_names) - 1


VARIETIES: dict[str, VarietyDescriptor] = {
    name: VarietyDescriptor(
        name, _SI_SETS[name],
        tuple((label, _parse_shipped(text)) for label, text in _BASES[name]))
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


class VarietyVerdict(_Value):
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


def satisfies_base(algebra: FiniteAlgebra, v: VarietyDescriptor) -> Verdict:
    for _, sentence in v.base:
        verdict = holds_in(algebra, sentence)
        if not verdict.holds:
            return verdict
    return Verdict(True)


def require_in_variety(algebra: FiniteAlgebra, v: VarietyDescriptor) -> None:
    """Raise NotInVarietyError unless the algebra is in v.  A pass is kept in
    its facts (_known) as ("member", v, limit), limit the `assignments` cap: a
    hit passed the same guards cold, another limit misses.  Failures are not kept."""
    _known(algebra, ("member", v, caps.cap_value("assignments")),
           lambda: _prove_member(algebra, v))


def _prove_member(algebra: FiniteAlgebra, v: VarietyDescriptor) -> None:
    """Check the ALMOST_GAUTAMA axioms, then v's base, in order; raise at the
    first sentence that fails, so no later one is scanned or capped."""
    for name, sentences in (("AG", axiom_system("ALMOST_GAUTAMA").sentences), (v.name, v.base)):
        for _, sentence in sentences:
            verdict = holds_in(algebra, sentence)
            if not verdict.holds:
                raise NotInVarietyError(
                    name, algebra.name, str(sentence),
                    {k: algebra.labels[i] for k, i in (verdict.witness or {}).items()})


def generated_subvariety(algebra: FiniteAlgebra) -> VarietyDescriptor:
    """Least of the eight subvarieties containing the algebra: the least whose
    SI generators include the builtin names of its factors (factor_names).

    Every SI member of AG is simple, so Con(A) is Boolean: the distinct C_j
    partition J, each J - C is an OR of closed masks, so theta_(J - C) is a
    congruence, and they meet to theta_0 as the C cover J.  So A embeds
    subdirectly in the product of its factors A/theta_(J - C), each in H(A)
    (Burris & Sankappanavar, II 8): A and its factors generate one variety,
    and one of the eight contains a builtin iff its SI generators name it.
    """
    require_in_variety(algebra, variety("AG"))
    if algebra.size == 1:
        raise AgkitError("the trivial algebra generates the trivial variety, "
                         "which is none of the eight nontrivial subvarieties")
    names = factor_names(algebra)
    return min((v for v in all_varieties() if names <= v.si_names),
               key=lambda v: len(v.si_names))


# --- discriminator -----------------------------------------------------------

def discriminator_is_term_op(*algebras: FiniteAlgebra) -> bool:
    """Is there one term t with t(x, y, z) = (z if x = y else x) in every
    given algebra?

    The lattice median (x /\\ y) \\/ (y /\\ z) \\/ (x /\\ z) is a majority term
    for every algebra here, so by the Baker-Pixley criterion (Math. Z. 143,
    1975) it suffices that the discriminator, taken in each factor, preserves
    every subuniverse of S x T for every pair S, T of the given algebras
    (S = T included).  With one algebra that is its square.
    """
    for algebra in algebras:
        caps.guard("discriminator_universe", algebra.size)
    for left, right in itertools.combinations_with_replacement(algebras, 2):
        for cap in ("elements", "subalgebra_universe"):  # as deciding the pair cold would
            caps.guard(cap, left.size * right.size)
        verdicts = _known(left, "discriminator", weakref.WeakKeyDictionary)  # weak on right
        if right not in verdicts:
            verdicts[right] = _discriminator_preserves(left, right)
        if not verdicts[right]:
            return False
    return True


def _discriminator_preserves(left: FiniteAlgebra, right: FiniteAlgebra) -> bool:
    """Does the discriminator, taken in each factor, preserve every
    subuniverse U of left x right?  Decided at the first U it breaks, once per
    pair, as verify-paper asks each variety (kept on left, weak on right).

    For p1, p2, p3 in U, disc(p1, p2, p3) is p3 if p1 = p2, p1 if p1, p2
    differ in both coordinates, and otherwise (a3, b1) with b1 != b2 in the
    fiber U_a1 = {b : (a1, b) in U}, or (a1, b3) with the factors swapped;
    every such pair arises.  So U is preserved iff proj_left(U) x L is in U,
    L the union of the fibers with at least two elements, and likewise with
    the factors swapped."""
    n = right.size
    for universe in _subuniverses(direct_product([left, right])):
        pairs = {(k // n, k % n) for k in universe}
        for members in (pairs, {(b, a) for a, b in pairs}):
            fibers: dict[int, set[int]] = {}
            for a, b in members:
                fibers.setdefault(a, set()).add(b)
            wide = set().union(*(f for f in fibers.values() if len(f) > 1))
            if any((a, b) not in members for a in fibers for b in wide):
                return False
    return True


# --- free algebras -----------------------------------------------------------

class FreeAlgebra(_Value):
    """F_V(n) as free_algebra proves it: the product of its factors' S, its
    generators indices into it.  The product's tables are built on the first
    read of `algebra`, within direct_product's `elements` cap, and kept."""
    generators: tuple[int, ...]
    variety_name: str
    factors: tuple[tuple[FiniteAlgebra, tuple[int, ...]], ...]  # (S, generators in S)

    @property
    def size(self) -> int:
        return math.prod(si.size for si, _ in self.factors)

    @functools.cached_property
    def algebra(self) -> FiniteAlgebra:
        return direct_product([si for si, _ in self.factors])


def free_algebra(v: VarietyDescriptor, n: int) -> FreeAlgebra:
    """Free algebra of the variety on n generators (n <= 3): an identity in
    at most n variables holds in V iff its sides agree at the generators.

    F_V(n) is generated by the projection vectors in the product over all
    (S, t), S an SI generator and t in S^n.  V is a discriminator variety with
    simple SI generators, so F_V(n) is the product of one S for each S and
    Aut(S)-orbit of n-tuples that generate S (Pixley, Math. Ann. 191, 1971;
    Baker & Pixley, Math. Z. 143, 1975).  The walk keeps (S, t) if t generates
    S and no kept (K, u) has u -> t extend to a homomorphism K -> S (decided
    by `morphisms._extend`).  F_V(n) is the product of the kept S, generator
    i the vector (t_i).
    Each call proves, else raises AgkitError naming the coordinate or pair:
    (a) each dropped (S, t) is the image of a kept (K, u) under a homomorphism
        with u -> t, so projecting onto the kept coordinates is injective;
    (b) for each pair of kept (S, t), (T, u), the (t_i, u_i) generate S x T, so
        the projection is onto the whole product by Baker-Pixley: the lattice
        median is a majority term.
    Only (b)'s squares get tables here; F.algebra builds the product's.
    """
    if not 0 <= n <= 3:
        raise AgkitError(f"free_algebra supports 0 <= n <= 3, got n = {n}")
    kept, dropped = [], []
    for si in v.si_algebras():
        for t in itertools.product(si.elements(), repeat=n):
            if (len(subuniverse_closure(si, t)) == si.size
                    and not any(_extend(k, si, zip(u, t)) is not None for k, u in kept)):
                kept.append((si, t))
            else:
                dropped.append((si, t))
    name = f"F_{v.name}({n})"
    for si, t in dropped:
        if not any(_extend(k, si, zip(u, t)) is not None for k, u in kept):
            raise AgkitError(f"{name}: coordinate {_coordinate(si, t)} is the image "
                             "of no kept coordinate under a homomorphism")
    square = functools.cache(lambda s, r: direct_product([s, r]))
    for (s, t), (r, u) in itertools.combinations(kept, 2):
        generated = subuniverse_closure(square(s, r), [a * r.size + b for a, b in zip(t, u)])
        if len(generated) != s.size * r.size:
            raise AgkitError(f"{name}: coordinates {_coordinate(s, t)} and "
                             f"{_coordinate(r, u)} generate {len(generated)} of the "
                             f"{s.size * r.size} elements of {s.name} x {r.name}")
    generators = [0] * n
    for si, t in kept:
        generators = [g * si.size + x for g, x in zip(generators, t)]
    return FreeAlgebra(tuple(generators), v.name, tuple(kept))


def _coordinate(si: FiniteAlgebra, t: tuple[int, ...]) -> str:
    return f"{si.name}[{','.join(si.labels[x] for x in t)}]"


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

class LemmaRecord(_Value):
    id: str
    label: str
    variety_name: str
    sentence: Sentence


def _load_data(name: str) -> dict:
    """A JSON file shipped in agkit/data.  Read by path: importlib.resources
    would import modules (inspect, on Python 3.12) that agkit's start-up
    otherwise never loads."""
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as f:
        raw = json.load(f)
    assert raw["version"] == 1
    return raw


def lemma_registry() -> tuple[LemmaRecord, ...]:
    raw = _load_data("lemmas.json")
    return tuple(
        LemmaRecord(r["id"], r["label"], r["variety"], _parse_shipped(r["sentence"]))
        for r in raw["records"])
