"""Congruences: principal congruences, the congruence lattice, and the
derived classification (simple / subdirectly irreducible / directly
indecomposable), plus instance checks for the congruence extension property.

Con(A) is generated by one principal congruence per join-irreducible of the
distributive lattice reduct, Cg(j_, j) with j_ the lower cover of j, not by
one per pair of elements (see congruence_lattice).

Partitions are canonical block-id arrays (block ids in first-occurrence
order), which makes them hashable and keeps serialized reports stable.
"""

from __future__ import annotations

import itertools
from operator import ne
from typing import Sequence

from . import caps
from .algebra import FiniteAlgebra
from .errors import _Value
from .morphisms import Homomorphism


class Partition(_Value):
    blocks: tuple[int, ...]

    @staticmethod
    def from_assignment(assignment: Sequence[int]) -> "Partition":
        relabel = {value: i for i, value in enumerate(dict.fromkeys(assignment))}
        return Partition(tuple(map(relabel.__getitem__, assignment)))

    @staticmethod
    def identity(n: int) -> "Partition":
        return Partition(tuple(range(n)))

    @staticmethod
    def total(n: int) -> "Partition":
        return Partition((0,) * n)

    @property
    def size(self) -> int:
        return len(self.blocks)

    @property
    def num_blocks(self) -> int:
        return max(self.blocks) + 1 if self.blocks else 0

    def relates(self, x: int, y: int) -> bool:
        return self.blocks[x] == self.blocks[y]

    def classes(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for element, block in enumerate(self.blocks):
            out[block].append(element)
        return tuple(tuple(c) for c in out)

    def refines(self, other: "Partition") -> bool:
        block_map: dict[int, int] = {}
        for mine, theirs in zip(self.blocks, other.blocks):
            if block_map.setdefault(mine, theirs) != theirs:
                return False
        return True

    def meet(self, other: "Partition") -> "Partition":
        return Partition.from_assignment(
            [self.blocks[i] * other.size + other.blocks[i] for i in range(self.size)])

    def join(self, other: "Partition") -> "Partition":
        """Each block of self merged (_merge) with one block of self that a
        block of other also meets, once per distinct such pair."""
        label = list(range(self.num_blocks))  # the group of each block of self
        members = [[b] for b in label]
        met = dict(zip(other.blocks, self.blocks))  # a block of self each block of other meets
        for mine, linked in set(zip(self.blocks, map(met.__getitem__, other.blocks))):
            if label[mine] != label[linked]:
                _merge(label, members, linked, mine)
        return Partition.from_assignment(list(map(label.__getitem__, self.blocks)))

    def restrict(self, elements: Sequence[int]) -> "Partition":
        """Partition induced on a subsequence of the universe."""
        return Partition.from_assignment([self.blocks[x] for x in elements])


def _merge(label: list[int], members: list[list[int]], x: int, y: int) -> None:
    """Merge the groups of x and y, label[x] != label[y], members[g] the
    items labelled g.  The smaller group is relabelled into the larger, so no
    item is relabelled more than log2(n) times."""
    keep, gone = label[x], label[y]
    if len(members[keep]) < len(members[gone]):
        keep, gone = gone, keep
    for z in members[gone]:
        label[z] = keep
    members[keep] += members[gone]


def is_congruence(algebra: FiniteAlgebra, partition: Partition) -> bool:
    """Independent compatibility check, one table at a time."""
    if partition.size != algebra.size:
        return False
    blocks = partition.blocks
    rng = range(algebra.size)
    for x, y in itertools.product(rng, repeat=2):
        if blocks[x] != blocks[y]:
            continue
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


def principal_congruence(algebra: FiniteAlgebra, a: int, b: int) -> Partition:
    """Least congruence identifying a and b.

    block[x] is the id of x's block, and _merge joins two blocks.  A merged
    pair (x, y) queues (x*, y*), (x', y') and, from the rows join[x], join[y],
    meet[x], meet[y] read once, those (x \\/ c, y \\/ c) and (x /\\ c, y /\\ c)
    that straddle two blocks: a pair inside one block adds nothing.  The
    blocks are the equivalence generated by the merged pairs, all of whose
    translations end in one block; so every translation maps related x, y
    to one block, and x ~ y, u ~ v give x \\/ u ~ y \\/ u ~ y \\/ v.
    """
    join, meet, star, quote = algebra.join, algebra.meet, algebra.star, algebra.quote
    block = list(range(algebra.size))
    members = [[x] for x in block]
    at = block.__getitem__
    queue = [(a, b)]
    while queue:
        x, y = queue.pop()
        if block[x] == block[y]:  # inline: pops outnumber merges 10-18x
            continue
        _merge(block, members, x, y)
        queue += (star[x], star[y]), (quote[x], quote[y])
        for table in (join, meet):
            rx, ry = table[x], table[y]
            queue += itertools.compress(zip(rx, ry), map(ne, map(at, rx), map(at, ry)))
    return Partition.from_assignment(block)


class CongruenceLattice(_Value):
    algebra_name: str
    congruences: tuple[Partition, ...]  # finest first

    def __len__(self) -> int:
        return len(self.congruences)

    def __iter__(self):
        return iter(self.congruences)

    @property
    def bottom(self) -> Partition:
        return self.congruences[0]

    @property
    def top(self) -> Partition:
        return self.congruences[-1]

    def nontrivial(self) -> tuple[Partition, ...]:
        return tuple(p for p in self.congruences if p.num_blocks != p.size)

    def monolith(self) -> Partition | None:
        """The unique minimum nontrivial congruence, when it exists."""
        candidates = self.nontrivial()
        return next((c for c in candidates if all(c.refines(o) for o in candidates)), None)


def congruence_lattice(algebra: FiniteAlgebra) -> CongruenceLattice:
    """All congruences: the joins of the Cg(j_, j), one per join-irreducible j
    of the lattice reduct, where j_, the join of all elements strictly below
    j, differs from j iff j is join-irreducible.

    - Cg(a, b) = Cg(a /\\ b, a \\/ b), the join of Cg(p, q) over the covers
      p < q of a maximal chain from a /\\ b to a \\/ b.
    - In a distributive lattice a cover p < q has one join-irreducible j with
      j <= q and j not <= p.  Then j_ \\/ p = p, j /\\ p = j_ and j \\/ p = q,
      so Cg(p, q) = Cg(j_, j).
    - Every FiniteAlgebra is distributive: the O(n^2) check on construction
      proves it, and products, subalgebras, quotients and free algebras keep it.
    """
    caps.guard("congruence_universe", algebra.size)
    n, join, meet = algebra.size, algebra.join, algebra.meet
    generators = set()
    for j in range(n):
        below = algebra.zero
        for x in range(n):
            if x != j and meet[x][j] == x:
                below = join[below][x]
        if below != j:
            generators.add(principal_congruence(algebra, below, j))
    found = {Partition.identity(n)}
    for generator in generators:  # found: the joins of the generators so far
        found |= {theta.join(generator) for theta in found}
    ordered = sorted(found, key=lambda p: (-p.num_blocks, p.blocks))
    return CongruenceLattice(algebra.name, tuple(ordered))


class Classification(_Value):
    algebra_name: str
    simple: bool
    subdirectly_irreducible: bool
    monolith: Partition | None
    directly_indecomposable: bool


def classify(algebra: FiniteAlgebra) -> Classification:
    """Simple iff |Con| = 2; SI iff a monolith exists; DI iff no pair of
    congruences other than {0, 1} is a factor pair.

    theta, phi is a factor pair iff theta /\\ phi = 0 and theta o phi = 1.  As
    theta /\\ phi = 0, each theta-class meets each phi-class at most once, so
    theta o phi = 1 (every theta-class meets every phi-class) iff the numbers
    of blocks multiply to |A|.
    """
    if algebra.size < 2:
        return Classification(algebra.name, False, False, None, False)
    lattice = congruence_lattice(algebra)
    decomposable = any(
        theta.num_blocks * phi.num_blocks == algebra.size and theta.meet(phi) == lattice.bottom
        for theta, phi in itertools.combinations(lattice.congruences[1:-1], 2))
    monolith = lattice.monolith()
    return Classification(
        algebra.name, len(lattice) == 2, monolith is not None, monolith, not decomposable)


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
    over its members and c its first member.
    """
    if embedding.source != sub or embedding.target != sup or not embedding.injective:
        raise ValueError("cep_instance needs a verified embedding sub -> sup")
    image = embedding.mapping
    for theta in congruence_lattice(sub):
        generated = Partition.identity(sup.size)
        for first, *rest in theta.classes():
            for x in rest:
                generated = generated.join(principal_congruence(sup, image[first], image[x]))
        if generated.restrict(image) != theta:
            return False
    return True


def quotient(algebra: FiniteAlgebra, partition: Partition,
             name: str | None = None) -> FiniteAlgebra:
    """Quotient by a congruence (raises ValueError if not compatible)."""
    if not is_congruence(algebra, partition):
        raise ValueError(f"partition {partition.blocks} is not a congruence of {algebra.name}")
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
