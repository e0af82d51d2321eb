from __future__ import annotations

import itertools

import pytest

from agkit import BUILTIN_NAMES, FiniteAlgebra, builtin


@pytest.fixture(scope="session")
def builtins() -> dict[str, FiniteAlgebra]:
    return {name: builtin(name) for name in BUILTIN_NAMES}


def brute_force_congruences(algebra: FiniteAlgebra):
    """Oracle: all partitions of the universe, filtered for compatibility."""
    from agkit.congruence import is_congruence, iter_partitions

    return [p for p in iter_partitions(algebra.size) if is_congruence(algebra, p)]


def cep_by_definition(sub: FiniteAlgebra, sup_congruences, embedding) -> bool:
    """Oracle: every member of Con(sub) is the restriction of a member of
    Con(sup), given as `sup_congruences`, to the image of the embedding."""
    from agkit.congruence import congruence_lattice

    restrictions = {theta.restrict(embedding.mapping) for theta in sup_congruences}
    return all(theta in restrictions for theta in congruence_lattice(sub))


def brute_force_subuniverses(algebra: FiniteAlgebra) -> set[frozenset[int]]:
    """Oracle: close every subset of the universe."""
    from agkit import subuniverse_closure

    out = set()
    for r in range(algebra.size + 1):
        for seed in itertools.combinations(range(algebra.size), r):
            out.add(subuniverse_closure(algebra, seed))
    return out
