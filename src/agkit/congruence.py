"""Congruences: principal congruences, the congruence lattice (the one list of
Con(A)), the classification (simple / SI / DI) and the builtin names of the
factors (factor_names), all read off the kept closures that generate Con(A)
(_closures), and instance checks for the congruence extension property.

A congruence is a mask S of join-irreducibles on the Birkhoff embedding
phi(x) = {j in J : j <= x}, which every algebra keeps (algebra.birkhoff;
Davey & Priestley, Introduction to Lattices and Order, ch. 5).  Every
FiniteAlgebra is distributive (checked on construction, kept by every
constructor), and Con of a finite distributive lattice L is Boolean on J
(Graetzer, Lattice Theory: Foundation, 2011, III.3): Cg_L(u, v) is theta_S,
the kernel of x -> phi(x) & ~S, for S = phi(u) XOR phi(v).  Proof: it
relates x = u /\\ v ~ y = u \\/ v, so for j in S, j_ its lower cover, it
relates j_ = j_ \\/ (j /\\ x) ~ j_ \\/ (j /\\ y) = j; each pair of theta_S is a
chain of pairs (z, z \\/ j) with z >= j_, j in S, which j_ ~ j relates; and
theta_S relates u, v.  Con(A) is the theta_S closed under star and quote,
and theta_S \\/ theta_T = theta_(S | T).

A congruence stays a closed mask from closure to verdict: theta_S /\\ theta_T
= theta_(S & T), and theta_S <= theta_T iff S is in T (theta_S relates j_ ~ j
for j in S only).  Partitions, canonical block-id arrays (block ids in
first-occurrence order, hashable and stable in serialized reports), are built
only for output: principal_congruence's value, the congruences a
CongruenceLattice yields, a monolith, and cep_instance's comparison with a
congruence of the subalgebra.
"""

from __future__ import annotations

import functools
import operator
from typing import Sequence

from . import caps
from .algebra import BUILTIN_NAMES, FiniteAlgebra, _known, birkhoff, builtin
from .errors import AgkitError, _Value
from .morphisms import Homomorphism


class Partition(_Value):
    blocks: tuple[int, ...]

    @staticmethod
    def from_assignment(assignment: Sequence[int]) -> "Partition":
        relabel = {value: i for i, value in enumerate(dict.fromkeys(assignment))}
        return Partition(tuple(map(relabel.__getitem__, assignment)))

    @property
    def size(self) -> int:
        return len(self.blocks)

    @property
    def num_blocks(self) -> int:
        return max(self.blocks) + 1 if self.blocks else 0

    def classes(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for element, block in enumerate(self.blocks):
            out[block].append(element)
        return tuple(tuple(c) for c in out)


def is_congruence(algebra: FiniteAlgebra, partition: Partition) -> bool:
    """Independent compatibility check, one table at a time: each y against the
    first x of its block, enough by transitivity (the binary tables commute)."""
    if partition.size != algebra.size:
        return False
    blocks = partition.blocks
    rng = range(algebra.size)
    first = {}  # the first element of each block
    for y in rng:
        x = first.setdefault(blocks[y], y)
        if blocks[algebra.star[x]] != blocks[algebra.star[y]]:
            return False
        if blocks[algebra.quote[x]] != blocks[algebra.quote[y]]:
            return False
        for c in rng:
            if blocks[algebra.join[x][c]] != blocks[algebra.join[y][c]]:
                return False
            if blocks[algebra.meet[x][c]] != blocks[algebra.meet[y][c]]:
                return False
    return True


def _closure(algebra: FiniteAlgebra, collapsed: int) -> int:
    """The least S that holds `collapsed` and is closed under star and quote.

    A pass groups the elements by phi(x) & ~S, r the first of x's group, and
    adds phi(f x) XOR phi(f r), f in {star, quote}: forced, as a congruence
    relating x and r relates f x and f r.  A pass that adds nothing leaves
    f x ~ f r ~ f y for all x ~ y.  Each pass but the last adds a bit: at most
    |J| + 1 passes of O(n), and no join or meet row is read.
    """
    phi = birkhoff(algebra)
    star = [phi[y] for y in algebra.star]  # phi(x*)
    quote = [phi[y] for y in algebra.quote]  # phi(x')
    while True:
        keep = ~collapsed
        first = {}  # the first element of each group
        forced = collapsed
        for x, p in enumerate(phi):
            r = first.setdefault(p & keep, x)
            forced |= star[r] ^ star[x] | quote[r] ^ quote[x]
        if forced == collapsed:
            return collapsed
        collapsed = forced


def _closures(algebra: FiniteAlgebra) -> tuple[int, ...]:
    """C_j = _closure(1 << j), j a bit of J = phi(one), kept per algebra:
    congruence_lattice, classify and factor_names read them."""
    bits = range(birkhoff(algebra)[algebra.one].bit_length())
    return _known(algebra, "closures", lambda: tuple(_closure(algebra, 1 << j) for j in bits))


def _partition(phi: Sequence[int], mask: int) -> Partition:
    """theta_mask on the elements whose embeddings phi lists."""
    return Partition.from_assignment([p & ~mask for p in phi])


def principal_congruence(algebra: FiniteAlgebra, a: int, b: int) -> Partition:
    """Least congruence identifying a and b: theta_S, S the closure of
    phi(a) XOR phi(b) under star and quote (see above)."""
    phi = birkhoff(algebra)
    return _partition(phi, _closure(algebra, phi[a] ^ phi[b]))


class CongruenceLattice(_Value):
    algebra_name: str
    masks: tuple[int, ...]  # the closed masks, ascending: 0 first, J last
    phi: tuple[int, ...]  # the Birkhoff embedding they act on

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        """The congruences as partitions, finest first."""
        partitions = (_partition(self.phi, mask) for mask in self.masks)
        return iter(sorted(partitions, key=lambda p: (-p.num_blocks, p.blocks)))


def congruence_lattice(algebra: FiniteAlgebra) -> CongruenceLattice:
    """All congruences: the ORs of the closures of the bits of phi(1) = J.
    The closure of the bit of j is Cg(j_, j), j_ its lower cover, as phi(j_)
    = phi(j) XOR that bit; theta_S in Con(A) is the join of the Cg(j_, j) over
    j in S, as each lies in theta_S and collapses j.
    """
    caps.guard("elements", algebra.size)
    found = {0}  # the masks of the joins of the generators so far
    for generator in _closures(algebra):
        found |= {mask | generator for mask in found}
    return CongruenceLattice(algebra.name, tuple(sorted(found)), birkhoff(algebra))


class Classification(_Value):
    algebra_name: str
    simple: bool
    subdirectly_irreducible: bool
    monolith: Partition | None
    directly_indecomposable: bool


def classify(algebra: FiniteAlgebra) -> Classification:
    """Simple iff Con = {0, 1}; SI iff a monolith exists; DI iff no pair of
    congruences but {0, 1} is a factor pair.  Read off the closures C_j of the
    bits j of J, whose ORs are Con(A) (congruence_lattice): A is simple iff
    each C_j is J, and the monolith is theta_M, M = AND of the C_j, if M != 0.
    A factor pair is theta_S, theta_T, T = J - S (meet 0, join 1), both closed,
    with each phi(x) & T | phi(y) & S a phi(z), x theta_S z theta_T y: iff no
    j in S is comparable to a k in T (for j < k, x, y = k, 0 or 0, k has no z;
    else down-sets meet S and T in down-sets).  So A is DI iff J is connected,
    j linked to the bits of C_j and of phi(j), the least phi(x) holding j.
    """
    if algebra.size < 2:
        return Classification(algebra.name, False, False, None, False)
    caps.guard("elements", algebra.size)
    phi = birkhoff(algebra)
    closures = _closures(algebra)
    least = functools.reduce(operator.and_, closures)
    links = [c | min(p for p in phi if p >> j & 1) for j, c in enumerate(closures)]
    linked = 1  # the bits linked to bit 0: each pass adds one or is the last
    for _ in links:
        linked = functools.reduce(operator.or_, (link for link in links if link & linked))
    return Classification(algebra.name, least == phi[algebra.one], least != 0,
                          _partition(phi, least) if least else None, linked == phi[algebra.one])


def factor_names(algebra: FiniteAlgebra) -> frozenset[str]:
    """The builtin names of the factors A/theta_(J - C), C a distinct C_j
    (_closures; proof at variety.generated_subvariety).  Raises AgkitError
    unless the C_j partition J and each factor's _shape is a builtin's."""
    masks = set(_closures(algebra))
    if sum(mask.bit_count() for mask in masks) != birkhoff(algebra)[algebra.one].bit_count():
        raise AgkitError(f"{algebra.name}: the closures of J overlap (Con is not Boolean)")
    shapes = {_shape(s, birkhoff(s)[s.one]): s.name for s in map(builtin, BUILTIN_NAMES)}
    names = {shapes.get(_shape(algebra, mask)) for mask in masks}
    if None in names:
        raise AgkitError(f"{algebra.name}: a factor is no builtin; in AG, _SI_SETS misses it")
    return frozenset(names)


def _shape(algebra: FiniteAlgebra, mask: int) -> tuple:
    """A/theta_(J - mask) as (order, star, quote) on the distinct phi(x) & mask,
    numbered ascending, read through any x of each.  Equal shapes give an
    isomorphism: a chain has one, 2^2's two differ by an automorphism of 4_dmba."""
    phi = birkhoff(algebra)
    some = {p & mask: x for x, p in enumerate(phi)}  # an x of each value
    index = {value: i for i, value in enumerate(sorted(some))}
    order = tuple(tuple(u | v == v for u in index) for v in index)
    return (order, *(tuple(index[phi[table[some[v]]] & mask] for v in index)
                     for table in (algebra.star, algebra.quote)))


class ScReport(_Value):
    """The two pointwise irreducibility conditions.

    sc: every x != 1 has x /\\ x'* = 0.
    join_variant: x \\/ x* = 1 only for x in {0, 1}.

    PAPER.md does not state (SC); the definition above is the one used
    throughout, and it agrees with simplicity on every member the test suite
    checks.  Each witness is the least violating element in index order, or
    None when its condition holds (the convention of `holds_in`).
    """
    algebra_name: str
    sc: bool
    sc_witness: int | None
    join_variant: bool
    join_variant_witness: int | None

    def __bool__(self) -> bool:
        return self.sc


def check_sc(algebra: FiniteAlgebra) -> ScReport:
    """Decide both conditions of `ScReport` by scanning in index order.

    `sc_witness` is the least x != 1 with x /\\ x'* != 0, and
    `join_variant_witness` the least x not in {0, 1} with x \\/ x* = 1;
    each is None when no element violates its condition.
    """
    sc_witness = None
    for x in algebra.elements():
        if x != algebra.one and algebra.meet[x][algebra.star[algebra.quote[x]]] != algebra.zero:
            sc_witness = x
            break
    join_witness = None
    for x in algebra.elements():
        if x in (algebra.zero, algebra.one):
            continue
        if algebra.join[x][algebra.star[x]] == algebra.one:
            join_witness = x
            break
    return ScReport(algebra.name, sc_witness is None, sc_witness,
                    join_witness is None, join_witness)


def cep_instance(sub: FiniteAlgebra, sup: FiniteAlgebra, embedding: Homomorphism) -> bool:
    """Does every congruence of `sub` extend along the embedding e?

    theta in Con(sub) extends iff Phi = Cg^sup(e[theta]) restricts to theta, so
    Con(sup) is never enumerated: an extension Psi contains e[theta], hence Phi,
    so theta <= Phi|e <= Psi|e = theta; and Phi is an extension if Phi|e = theta.
    Phi is the join of the Cg^sup(e(c), e(x)) over each theta-class, x ranging
    over its members and c its first member: theta_S, S the closure of the OR
    of their phi(e c) XOR phi(e x), as closures of masks join by OR.
    """
    if embedding.source != sub or embedding.target != sup or not embedding.injective:
        raise ValueError("cep_instance needs a verified embedding sub -> sup")
    phi = birkhoff(sup)
    image = [phi[y] for y in embedding.mapping]  # phi(e x), x in sub
    for theta in congruence_lattice(sub):
        collapsed = 0
        for first, *rest in theta.classes():
            for x in rest:
                collapsed |= image[first] ^ image[x]
        if _partition(image, _closure(sup, collapsed)) != theta:
            return False
    return True


def quotient(algebra: FiniteAlgebra, partition: Partition,
             name: str | None = None) -> FiniteAlgebra:
    """Quotient by a congruence (raises ValueError if not compatible)."""
    if not is_congruence(algebra, partition):
        raise ValueError(f"partition {partition.blocks} is not a congruence of {algebra.name}")
    partition = Partition.from_assignment(partition.blocks)  # ids 0, 1, .. for classes()
    classes = partition.classes()
    representative = [cls[0] for cls in classes]
    labels = tuple("{" + ",".join(algebra.labels[x] for x in cls) + "}" for cls in classes)
    block = partition.blocks
    join = tuple(
        tuple(block[algebra.join[x][y]] for y in representative) for x in representative)
    meet = tuple(
        tuple(block[algebra.meet[x][y]] for y in representative) for x in representative)
    return FiniteAlgebra(
        name=name or f"{algebra.name}/{partition.blocks}",
        size=len(classes), labels=labels, join=join, meet=meet,
        star=tuple(block[algebra.star[x]] for x in representative),
        quote=tuple(block[algebra.quote[x]] for x in representative),
        zero=block[algebra.zero], one=block[algebra.one],
        validate=False,
    )
