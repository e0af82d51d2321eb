"""Congruences: principal congruences, the congruence lattice, and the
derived classification (simple / subdirectly irreducible / directly
indecomposable), plus instance checks for the congruence extension property.

Partitions are canonical block-id arrays (block ids in first-occurrence
order), which makes them hashable and keeps serialized reports stable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import caps
from .algebra import FiniteAlgebra
from .morphisms import Homomorphism


@dataclass(frozen=True)
class Partition:
    blocks: tuple[int, ...]

    @staticmethod
    def from_assignment(assignment: Sequence[int]) -> "Partition":
        relabel: dict[int, int] = {}
        blocks = []
        for value in assignment:
            if value not in relabel:
                relabel[value] = len(relabel)
            blocks.append(relabel[value])
        return Partition(tuple(blocks))

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
        parent = list(range(self.size))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for part in (self, other):
            for cls in part.classes():
                root = cls[0]
                for member in cls[1:]:
                    parent[find(member)] = find(root)
        return Partition.from_assignment([find(i) for i in range(self.size)])

    def restrict(self, elements: Sequence[int]) -> "Partition":
        """Partition induced on a subsequence of the universe."""
        return Partition.from_assignment([self.blocks[x] for x in elements])


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

    Union-find seeded with (a, b); every newly merged pair is pushed through
    all unary translations x -> x \\/ c, x -> x /\\ c, x -> x*, x -> x' until
    the fixpoint.  Closing under translations of merged pairs is enough
    because congruence generation only needs unary polynomials.
    """
    n = algebra.size
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(a, b)]
    while queue:
        x, y = queue.pop()
        root_x, root_y = find(x), find(y)
        if root_x == root_y:
            continue
        parent[root_x] = root_y
        queue.append((algebra.star[x], algebra.star[y]))
        queue.append((algebra.quote[x], algebra.quote[y]))
        for c in range(n):
            queue.append((algebra.join[x][c], algebra.join[y][c]))
            queue.append((algebra.meet[x][c], algebra.meet[y][c]))
    return Partition.from_assignment([find(i) for i in range(n)])


@dataclass(frozen=True)
class CongruenceLattice:
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
        for candidate in candidates:
            if all(candidate.refines(other) for other in candidates):
                return candidate
        return None


def congruence_lattice(algebra: FiniteAlgebra) -> CongruenceLattice:
    """All congruences: join-closure of the principal ones."""
    caps.guard("congruence_universe", algebra.size)
    n = algebra.size
    found = {Partition.identity(n)}
    for a, b in itertools.combinations(range(n), 2):
        found.add(principal_congruence(algebra, a, b))
    work = list(found)
    while work:
        theta = work.pop()
        for phi in list(found):
            joined = theta.join(phi)
            if joined not in found:
                found.add(joined)
                work.append(joined)
    ordered = sorted(found, key=lambda p: (-p.num_blocks, p.blocks))
    return CongruenceLattice(algebra.name, tuple(ordered))


def _compose_relations(p: Partition, q: Partition) -> frozenset[tuple[int, int]]:
    pairs = set()
    q_classes = {i: c for c in q.classes() for i in c}
    for cls in p.classes():
        for x in cls:
            for y in cls:
                pairs.update((x, z) for z in q_classes[y])
    return frozenset(pairs)


def _permute(p: Partition, q: Partition) -> bool:
    return _compose_relations(p, q) == _compose_relations(q, p)


@dataclass(frozen=True)
class Classification:
    algebra_name: str
    simple: bool
    subdirectly_irreducible: bool
    monolith: Partition | None
    directly_indecomposable: bool


def classify(algebra: FiniteAlgebra) -> Classification:
    """Simple iff |Con| = 2; SI iff a monolith exists; DI iff the only
    complementary permuting factor pair is the trivial one.

    The factor-pair search checks meet, join, and permutability explicitly
    rather than leaning on any structure theory; at these sizes that is cheap.
    """
    if algebra.size < 2:
        return Classification(algebra.name, False, False, None, False)
    lattice = congruence_lattice(algebra)
    simple = len(lattice) == 2
    monolith = lattice.monolith()
    bottom, top = lattice.bottom, lattice.top
    indecomposable = True
    for theta, phi in itertools.combinations_with_replacement(lattice.congruences, 2):
        if {theta, phi} == {bottom, top}:
            continue
        if (theta.meet(phi) == bottom and theta.join(phi) == top
                and _permute(theta, phi)):
            indecomposable = False
            break
    return Classification(
        algebra.name, simple, monolith is not None, monolith, indecomposable)


@dataclass(frozen=True)
class ScReport:
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


def iter_partitions(n: int) -> Iterable[Partition]:
    """All partitions of an n-set, via restricted growth strings.  Exponential;
    intended as the brute-force oracle for small universes."""
    if n == 0:
        yield Partition(())
        return

    def grow(prefix: list[int], maximum: int):
        if len(prefix) == n:
            yield Partition(tuple(prefix))
            return
        for value in range(maximum + 2):
            yield from grow(prefix + [value], max(maximum, value))

    yield from grow([0], 0)
