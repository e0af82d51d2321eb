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


def brute_force_subuniverses(algebra: FiniteAlgebra) -> set[frozenset[int]]:
    """Oracle: close every subset of the universe."""
    from agkit import subuniverse_closure

    out = set()
    for r in range(algebra.size + 1):
        for seed in itertools.combinations(range(algebra.size), r):
            out.add(subuniverse_closure(algebra, seed))
    return out
