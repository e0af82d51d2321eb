"""Homomorphism enumeration by backtracking with closure-based propagation.

The searcher assigns images to a short generator sequence (chosen greedily so
that the closure of each prefix grows as fast as possible) and propagates each
choice through the operation tables; a clash prunes the branch.  Output order
is lexicographic on the map arrays, so certificates are reproducible.

One closure, `_propagate`, seeded by `_extend`, decides whether a partial map
extends to a homomorphism from the subalgebra its domain generates.  It
serves the hom search and the free-algebra proofs in `variety` only.  So the
search returns proved map arrays; a `Homomorphism` checks a map handed in.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .algebra import FiniteAlgebra, _adjoin, _known, subuniverse_closure
from .errors import _Value


class Homomorphism(_Value):
    source: FiniteAlgebra
    target: FiniteAlgebra
    mapping: tuple[int, ...]

    def __post_init__(self):
        # a map handed in, unproved: check preservation on every input tuple
        src, tgt, f = self.source, self.target, self.mapping
        if len(f) != src.size or any(not (0 <= v < tgt.size) for v in f):
            raise ValueError(f"map array has wrong shape for {src.name} -> {tgt.name}")
        if f[src.zero] != tgt.zero or f[src.one] != tgt.one:
            raise ValueError("constants not preserved")
        for x in range(src.size):
            if f[src.star[x]] != tgt.star[f[x]]:
                raise ValueError(f"star not preserved at {src.labels[x]}")
            if f[src.quote[x]] != tgt.quote[f[x]]:
                raise ValueError(f"quote not preserved at {src.labels[x]}")
            for y in range(src.size):
                if f[src.join[x][y]] != tgt.join[f[x]][f[y]]:
                    raise ValueError(f"join not preserved at ({src.labels[x]}, {src.labels[y]})")
                if f[src.meet[x][y]] != tgt.meet[f[x]][f[y]]:
                    raise ValueError(f"meet not preserved at ({src.labels[x]}, {src.labels[y]})")

    @property
    def injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)


def identity_hom(algebra: FiniteAlgebra) -> Homomorphism:
    return Homomorphism(algebra, algebra, tuple(range(algebra.size)))


def _generator_sequence(algebra: FiniteAlgebra) -> tuple[int, ...]:
    closed = subuniverse_closure(algebra, ())
    generators = []
    while len(closed) < algebra.size:
        best_element, best_closure = -1, closed
        for element in algebra.elements():
            if element in closed:
                continue
            candidate = _adjoin(algebra, closed, (element,))
            if len(candidate) > len(best_closure) or best_element < 0:
                best_element, best_closure = element, candidate
        generators.append(best_element)
        closed = best_closure
    return tuple(generators)


def _propagate(source: FiniteAlgebra, target: FiniteAlgebra,
               mapping: dict[int, int], fresh: list[int]) -> dict[int, int] | None:
    """Close the partial map under all operations; None on a clash.

    The closure is the graph of a function, and then of a homomorphism,
    unless some element of the source gets two values.  Each join and meet
    is taken in one order only (x popped against every y already mapped),
    which is sound because every FiniteAlgebra has commutative lattice tables.
    """

    def put(element: int, image: int) -> bool:
        known = mapping.get(element)
        if known is None:
            mapping[element] = image
            fresh.append(element)
            return True
        return known == image

    while fresh:
        x = fresh.pop()
        fx = mapping[x]
        if not put(source.star[x], target.star[fx]):
            return None
        if not put(source.quote[x], target.quote[fx]):
            return None
        for y, fy in list(mapping.items()):
            if not put(source.join[x][y], target.join[fx][fy]):
                return None
            if not put(source.meet[x][y], target.meet[fx][fy]):
                return None
    return mapping


def _extend(source: FiniteAlgebra, target: FiniteAlgebra,
            pairs: Iterable[tuple[int, int]]) -> dict[int, int] | None:
    """The homomorphism, as a dict, from the subalgebra the xs generate that
    sends 0 to 0, 1 to 1 and each x to s for (x, s) in pairs; None if the
    seeds clash or the closure does.  A trivial source has zero = one, so it
    clashes here with any nontrivial target."""
    mapping: dict[int, int] = {}
    for x, s in ((source.zero, target.zero), (source.one, target.one), *pairs):
        if mapping.setdefault(x, s) != s:
            return None
    return _propagate(source, target, mapping, list(mapping))


def enumerate_homs(source: FiniteAlgebra, target: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All homomorphisms as sorted map arrays, each closed by _propagate.

    The empty list is a legitimate outcome; several pairs of the builtin
    algebras admit no homomorphism at all.
    """
    start = _extend(source, target, ())
    if start is None:
        return []
    # start's domain is Sg{0, 1}: the sequence reads the source alone
    generators = _known(source, "generator sequence", lambda: _generator_sequence(source))

    found: list[tuple[int, ...]] = []

    def search(mapping: dict[int, int], remaining: Sequence[int]) -> None:
        # the domain is Sg(start, generators so far), and each generator lies
        # outside that closure: it is unmapped, and two leaves differ at one
        if not remaining:
            found.append(tuple(mapping[x] for x in range(source.size)))
            return
        element = remaining[0]
        for image in range(target.size):
            extended = _propagate(source, target, dict(mapping) | {element: image},
                                  [element])
            if extended is not None:
                search(extended, remaining[1:])

    search(start, generators)
    return sorted(found)


def brute_force_homs(source: FiniteAlgebra, target: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Oracle for enumerate_homs: scan the |target|^(|source| - 2) maps that
    send 0 to 0 and 1 to 1, in index order, and keep the ones that pass direct
    table checks.  It shares no code with the backtracking search, so the two
    can be cross-checked."""
    pinned = {source.zero: target.zero, source.one: target.one}  # trivial source: 0 -> 1
    out = []
    for mapping in itertools.product(*[(pinned[x],) if x in pinned else range(target.size)
                                       for x in range(source.size)]):
        if mapping[source.zero] != target.zero or mapping[source.one] != target.one:
            continue
        if any(mapping[source.star[x]] != target.star[mapping[x]]
               or mapping[source.quote[x]] != target.quote[mapping[x]]
               for x in range(source.size)):
            continue
        if any(mapping[source.join[x][y]] != target.join[mapping[x]][mapping[y]]
               or mapping[source.meet[x][y]] != target.meet[mapping[x]][mapping[y]]
               for x in range(source.size) for y in range(source.size)):
            continue
        out.append(mapping)
    return out


def enumerate_embeddings(source: FiniteAlgebra, target: FiniteAlgebra) -> list[tuple[int, ...]]:
    if source.size > target.size:
        return []
    return [h for h in enumerate_homs(source, target) if len(set(h)) == source.size]

