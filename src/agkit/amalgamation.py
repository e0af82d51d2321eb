"""Deciding amalgamation in the subvarieties, and the derived classification.

The decision procedure for a diagram <A, f, B, g, C> in a variety V generated
by its finite SI members: collect every pair (h: B -> S, k: C -> S) with S an
SI member of V and h o f = k o g.  The diagram is amalgamable iff those pairs
jointly separate the points of B and of C; the amalgam is then the product of
the S over a covering set of pairs with the tupled maps (S itself for one).

Completeness: any amalgam restricts to the finite subalgebra generated by the
images (the variety is locally finite), every finite member is a subdirect
product of SI members, and composing with the projections yields exactly such
pairs.  Soundness: the product lies in V, which is closed under products, and
the tupled maps are embeddings by the separation property.  So the covering
pairs are the whole certificate, and no product table is built (see Amalgam).

Lemma: on a diagram of SI members of a discriminator variety (classify_ap
proves it) any one compatible pair covers.  The members are simple, and a
homomorphism from a simple algebra into a nontrivial one is injective, so
the first compatible pair (h, k) makes S the amalgam (Metcalfe, Montagna &
Tsinakis, J. Algebra 402, 2014).
"""

from __future__ import annotations

import itertools

from .algebra import FiniteAlgebra, _known
from .errors import NotFoundError, _Value
from .morphisms import Homomorphism, brute_force_homs, enumerate_embeddings, enumerate_homs
from .variety import VarietyDescriptor, discriminator_is_term_op, require_in_variety


class Diagram(_Value):
    base: FiniteAlgebra
    left: FiniteAlgebra
    right: FiniteAlgebra
    f: Homomorphism  # base -> left
    g: Homomorphism  # base -> right

    def __post_init__(self):
        if self.f.source != self.base or self.f.target != self.left:
            raise ValueError("f must map base -> left")
        if self.g.source != self.base or self.g.target != self.right:
            raise ValueError("g must map base -> right")
        if not (self.f.injective and self.g.injective):
            raise ValueError("diagram maps must be embeddings")

    def describe(self) -> str:
        return f"<{self.base.name}; {self.left.name}, {self.right.name}>"


def diagram(base: FiniteAlgebra, left: FiniteAlgebra, right: FiniteAlgebra) -> Diagram:
    """Build a diagram from the first embeddings in enumeration order."""

    def first_embedding(target: FiniteAlgebra) -> Homomorphism:
        embeddings = enumerate_embeddings(base, target)
        if not embeddings:
            raise NotFoundError(f"no embedding {base.name} -> {target.name}")
        return Homomorphism(base, target, embeddings[0])

    return Diagram(base, left, right, first_embedding(left), first_embedding(right))


class Amalgam(_Value):
    """The amalgam D = prod S of a diagram <A, f, B, g, C>, held as its
    covering pairs (h, k, S), h: B -> S and k: C -> S as map arrays, in factor
    order.  Each fact about D and its tupled maps f1 = (h, ...) and g1 =
    (k, ...) follows from the pairs, so none of the three is built:

    - f1 and g1 are homomorphisms, as _propagate proved each h and k;
    - f1 o f = g1 o g, as h o f = k o g for each pair (_compatible_pairs);
    - f1 and g1 are injective, as the pairs separate every two elements of
      B and of C (the cover in decide_amalgamation);
    - D lies in V, as each S is an SI generator of V and V is closed under
      products (S is the trivial B when both sides are trivial).
    """
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...], FiniteAlgebra], ...]

    amalgamable = True  # a class attribute, not a field

    def as_dict(self) -> dict:
        return {
            "result": "amalgam",
            "factors": [s.name for _, _, s in self.pairs],
            "f1": [list(h) for h, _, _ in self.pairs],
            "g1": [list(k) for _, k, _ in self.pairs],
        }


class Obstruction(_Value):
    side: str  # "left" | "right"
    pair: tuple[int, int]  # least unseparated element pair on that side
    hom_census: dict[str, tuple[int, int, int]]  # SI -> (#homs left, #homs right, #pairs)

    amalgamable = False  # a class attribute, not a field

    def as_dict(self) -> dict:
        return {
            "result": "obstruction",
            "side": self.side,
            "pair": list(self.pair),
            "hom_census": {k: list(v) for k, v in self.hom_census.items()},
        }


AmalgamationResult = Amalgam | Obstruction


def _homs(source: FiniteAlgebra, target: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    """enumerate_homs once per (source, target) value, kept as ("homs",
    target) in the source's facts, so a tampered builtin never matches.  The
    map arrays refer to no algebra, so an equal source keeps no other alive."""
    return _known(source, ("homs", target), lambda: tuple(enumerate_homs(source, target)))


def _compatible_pairs(v: VarietyDescriptor, d: Diagram):
    pairs: list[tuple[tuple[int, ...], tuple[int, ...], FiniteAlgebra]] = []
    census: dict[str, tuple[int, int, int]] = {}
    f, g = d.f.mapping, d.g.mapping
    for si in v.si_algebras():
        homs_left, homs_right = _homs(d.left, si), _homs(d.right, si)
        found = [(h, k, si) for h, k in itertools.product(homs_left, homs_right)
                 if all(h[fx] == k[gx] for fx, gx in zip(f, g))]
        pairs += found
        census[si.name] = (len(homs_left), len(homs_right), len(found))
    return pairs, census


def decide_amalgamation(v: VarietyDescriptor, d: Diagram) -> AmalgamationResult:
    """Decide one diagram; returns a machine-checkable certificate either way.

    An amalgam certificate is the covering pairs, each checked here as the
    proof that their product is the amalgam needs (see Amalgam).  One pair
    covers on every SI diagram: a simple source makes each hom injective
    (see the module docstring).  Obstruction certificates carry the least
    unseparated pair plus the per-SI hom census and can be re-verified by
    exhaustive map enumeration.
    """
    require_in_variety(d.left, v)
    require_in_variety(d.right, v)
    pairs, census = _compatible_pairs(v, d)

    chosen: list[tuple[tuple[int, ...], tuple[int, ...], FiniteAlgebra]] = []

    def cover(size: int, side: int) -> tuple[int, int] | None:
        for x, y in itertools.combinations(range(size), 2):
            if any(p[side][x] != p[side][y] for p in chosen):
                continue
            for p in pairs:
                if p[side][x] != p[side][y]:
                    chosen.append(p)
                    break
            else:
                return (x, y)
        return None

    missed = cover(d.left.size, 0)
    if missed is not None:
        return Obstruction("left", missed, census)
    missed = cover(d.right.size, 1)
    if missed is not None:
        return Obstruction("right", missed, census)

    if not chosen:
        # both sides are trivial (no pair: a hom out of one forces 0 = 1), and
        # the left one amalgamates them
        chosen.append(((0,), (0,), d.left))
    return Amalgam(tuple(chosen))


# --- classification over all SI diagrams --------------------------------------

class APReport(_Value):
    """The decided SI diagrams of a variety, plus the proof of the hypotheses
    that reduce AP to them.

    discriminator_variety: one term is the discriminator on every SI
    generator (Baker-Pixley, see discriminator_is_term_op), so the variety
    is a discriminator variety.  A discriminator variety has the congruence
    extension property (Cor 2.8(3)), and every nontrivial subalgebra of a
    generator is simple, so the generators are hereditarily SI (Thm 3.1 (2);
    Burris & Sankappanavar, IV.9).  When it is False the reduction is
    unproved and has_ap decides the SI diagrams only.

    diagrams: one (Diagram, result) pair per SI diagram, in si_diagrams
    order; obstructed() keeps the pairs whose result is an Obstruction.
    """
    variety_name: str
    discriminator_variety: bool
    diagrams: tuple[tuple[Diagram, AmalgamationResult], ...]

    @property
    def has_ap(self) -> bool:
        return all(result.amalgamable for _, result in self.diagrams)

    def obstructed(self) -> tuple[tuple[Diagram, AmalgamationResult], ...]:
        return tuple((d, r) for d, r in self.diagrams if not r.amalgamable)


def si_diagrams(v: VarietyDescriptor):
    """Every diagram of SI members over every embedding pair, in a fixed order.

    The order is base, then B, then C, then f, then g.  All embeddings are
    enumerated, not one per isomorphism class: with the constants pinning the
    embeddings of 2 this stays small and avoids an unproven symmetry shortcut.
    The embeddings of each base into each SI member are read off _homs, so
    they are enumerated once per process with the homs _compatible_pairs uses.
    """
    sis = v.si_algebras()
    for base in sis:
        into = [[Homomorphism(base, target, h) for h in _homs(base, target)
                 if len(set(h)) == base.size] for target in sis]
        for left, fs in zip(sis, into):
            for right, gs in zip(sis, into):
                for f, g in itertools.product(fs, gs):
                    yield Diagram(base, left, right, f, g)


def classify_ap(v: VarietyDescriptor) -> APReport:
    """Decide AP for a variety by deciding every SI diagram.

    The reduction to SI diagrams (Thm 3.24) needs the congruence extension
    property and hereditarily-SI generators.  Both are proved, not sampled,
    by one check: the lattice median is a majority term, so by Baker-Pixley
    one term is the discriminator on every SI generator iff the discriminator
    preserves the subuniverses of each product S x T of two generators.  Then
    V is a discriminator variety, which has CEP, and its generators are
    hereditarily simple (see APReport).
    """
    results = tuple((d, decide_amalgamation(v, d)) for d in si_diagrams(v))
    return APReport(v.name, discriminator_is_term_op(*v.si_algebras()), results)


# --- applications --------------------------------------------------------------

class ApplicationsReport(_Value):
    variety_name: str
    has_ap: bool
    tp: bool
    residually_small: bool
    ei: bool
    jep_on_si_pairs: dict[tuple[str, str], bool]
    embedding_property: bool
    model_companion: bool
    two_in_amal: bool


def applications(ap_report: APReport) -> ApplicationsReport:
    """Derived properties, read off the AP report of the variety.

    tp: transferability = AP plus CEP; CEP is read off the report's proof
        that the variety is a discriminator variety.
    ei: enough injectives = tp plus residual smallness; residual smallness is
        immediate here (finitely many finite SI members).
    jep_on_si_pairs: joint embeddability of SI pairs, decided as amalgamation
        over the minimal algebra 2 (2 embeds uniquely in every member, so the
        square commutes for free); a dict from (B, C), B <= C by name, to
        whether B and C embed jointly, in sorted pair order.
    embedding_property: via the minimal algebra, equivalent to AP; reported as
        the conjunction of the joint-embedding results.
    model_companion: a locally finite variety in a finite language with AP has
        one; the flag simply mirrors has_ap.
    two_in_amal: False iff some SI diagram based at 2 is obstructed
        (refutation-only semantics; True means no refutation was found).

    Reading the joint embeddings and two_in_amal off the report is exact, not
    a shortcut: homomorphisms preserve the constants, so 2 = {0, 1} has exactly
    one embedding into every member.  The report's diagrams based at 2 are
    therefore one per ordered SI pair (B, C), each the diagram <2; B, C> that
    the joint-embedding question would decide.
    """
    has_ap = ap_report.has_ap
    tp = has_ap and ap_report.discriminator_variety
    residually_small = True  # finitely many finite SI members
    ei = tp and residually_small

    over_two = {(d.left.name, d.right.name): result.amalgamable
                for d, result in ap_report.diagrams if d.base.name == "2"}
    jep = {pair: embeddable for pair, embeddable in sorted(over_two.items())
           if pair[0] <= pair[1]}
    return ApplicationsReport(
        variety_name=ap_report.variety_name,
        has_ap=has_ap,
        tp=tp,
        residually_small=residually_small,
        ei=ei,
        jep_on_si_pairs=jep,
        embedding_property=all(jep.values()),
        model_companion=has_ap,
        two_in_amal=all(over_two.values()),
    )


def theorem_diagrams() -> dict[str, tuple[str, str, str, str]]:
    """The obstructed diagrams witnessing the four non-amalgamable varieties:
    (variety, base, left, right), keyed by a stable id.  The top variety gets
    both candidate diagrams (the stated one and the one its derivation uses)."""
    return {
        "3.4": ("G", "2", "3_dblst", "3_klst"),
        "3.11": ("V_DBLST_DMBA", "2", "3_dblst", "4_dmba"),
        "3.17": ("V_KLST_DMBA", "2", "3_klst", "4_dmba"),
        "3.22a": ("AG", "2", "3_dblst", "4_dmba"),
        "3.22b": ("AG", "2", "3_klst", "4_dmba"),
    }


def brute_force_verify_obstruction(v: VarietyDescriptor, d: Diagram,
                                   obstruction: Obstruction) -> bool:
    """Re-verify an obstruction certificate independently of the backtracking
    searcher: enumerate ALL maps into each SI member, filter homomorphisms by
    direct table checks, and confirm the recorded pair stays unseparated."""
    x, y = obstruction.pair
    for si in v.si_algebras():
        homs_right = brute_force_homs(d.right, si)
        for h in brute_force_homs(d.left, si):
            for k in homs_right:
                if any(h[fz] != k[gz] for fz, gz in zip(d.f.mapping, d.g.mapping)):
                    continue
                separated = (h[x] != h[y]) if obstruction.side == "left" else (k[x] != k[y])
                if separated:
                    return False
    return True
