from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from agkit import (BUILTIN_NAMES, CapExceededError, FiniteAlgebra, Partition, builtin,
                   cep_instance, check_sc, classify, congruence_lattice, direct_product,
                   enumerate_embeddings, is_congruence, is_isomorphic,
                   principal_congruence, quotient, subalgebra)
from agkit.congruence import iter_partitions
from agkit.morphisms import Homomorphism
from tests.conftest import brute_force_congruences, cep_by_definition


def oracle_principal(algebra, a, b):
    """Brute force: the refinement-least congruence containing (a, b)."""
    containing = [p for p in brute_force_congruences(algebra) if p.relates(a, b)]
    least = containing[0]
    for p in containing[1:]:
        least = least.meet(p)
    assert is_congruence(algebra, least)
    return least


def test_partition_canonical_form():
    assert Partition.from_assignment([5, 5, 7, 5]).blocks == (0, 0, 1, 0)
    assert Partition.identity(3).blocks == (0, 1, 2)
    assert Partition.total(3).blocks == (0, 0, 0)


def test_partition_meet_join_refine():
    p = Partition.from_assignment([0, 0, 1, 1])
    q = Partition.from_assignment([0, 1, 1, 0])
    assert p.meet(q).blocks == (0, 1, 2, 3)
    assert p.join(q).blocks == (0, 0, 0, 0)
    assert Partition.identity(4).refines(p)
    assert p.refines(Partition.total(4))
    assert not p.refines(q)


def test_principal_congruence_examples(builtins):
    dblst = builtins["3_dblst"]
    assert principal_congruence(dblst, 0, 1) == Partition.total(3)
    for algebra in builtins.values():
        for x in algebra.elements():
            assert principal_congruence(algebra, x, x) == Partition.identity(algebra.size)
    square = direct_product([builtins["2"], builtins["2"]])
    # identifying (0,0) with (0,1) collapses exactly the second coordinate
    assert principal_congruence(square, 0, 1).blocks == (0, 0, 1, 1)


def test_principal_congruence_matches_oracle_up_to_size_6(builtins):
    subjects = list(builtins.values())
    subjects.append(direct_product([builtins["2"], builtins["2"]]))
    subjects.append(direct_product([builtins["2"], builtins["3_dblst"]]))
    subjects.append(direct_product([builtins["2"], builtins["3_klst"]]))
    for algebra in subjects:
        assert algebra.size <= 6
        for a, b in itertools.combinations(range(algebra.size), 2):
            assert principal_congruence(algebra, a, b) == oracle_principal(algebra, a, b)


def test_congruence_lattice_examples(builtins):
    assert len(congruence_lattice(builtins["2"])) == 2
    assert len(congruence_lattice(builtins["3_klst"])) == 2
    assert len(congruence_lattice(builtins["3_dblst"])) == 2
    square = direct_product([builtins["2"], builtins["2"]])
    assert len(congruence_lattice(square)) == 4


def test_congruence_lattice_matches_oracle(builtins):
    for algebra in builtins.values():
        computed = set(congruence_lattice(algebra))
        assert computed == set(brute_force_congruences(algebra))


def test_congruence_lattice_entries_are_compatible(builtins):
    product = direct_product([builtins["3_dblst"], builtins["2"]])
    for theta in congruence_lattice(product):
        assert is_congruence(product, theta)


def test_congruence_lattice_cap():
    big = direct_product([builtin("3_klst")] * 4)
    with pytest.raises(CapExceededError):
        congruence_lattice(big)


def test_classify_builtins_all_irreducible(builtins):
    for algebra in builtins.values():
        result = classify(algebra)
        assert result.simple
        assert result.subdirectly_irreducible
        assert result.directly_indecomposable
        assert result.monolith == Partition.total(algebra.size)
        assert check_sc(algebra).sc


def test_classify_product_is_reducible(builtins):
    product = direct_product([builtins["3_dblst"], builtins["2"]])
    result = classify(product)
    assert not result.simple
    assert not result.subdirectly_irreducible
    assert not result.directly_indecomposable
    assert not check_sc(product).sc


def test_classify_trivial_algebra():
    from agkit.algebra import FiniteAlgebra
    trivial = FiniteAlgebra("1", 1, ("0",), ((0,),), ((0,),), (0,), (0,), 0, 0)
    result = classify(trivial)
    assert not (result.simple or result.subdirectly_irreducible
                or result.directly_indecomposable)


def test_di_iff_single_factor(builtins):
    names = sorted(builtins)
    for k in (1, 2):
        for combo in itertools.combinations_with_replacement(names, k):
            product = direct_product([builtins[n] for n in combo])
            assert classify(product).directly_indecomposable == (k == 1), combo
    triple = direct_product([builtins["2"], builtins["2"], builtins["3_klst"]])
    assert not classify(triple).directly_indecomposable


def test_check_sc_witness(builtins):
    product = direct_product([builtins["3_dblst"], builtins["3_klst"]])
    report = check_sc(product)
    assert not report.sc
    # In each factor x /\ x'* is 0 for x != 1 and 1 at the top, so the
    # violators are (0,1), (a,1), (1,0) and (1,a); the witness is the least
    # of them in index order.  (a,1) can never be a first witness: a one-
    # variable condition fails on a product element iff it fails in some
    # coordinate, so it fails at (0,1) or at (a,0) whenever it fails at (a,1).
    one, zero = product.one, product.zero
    meet, star, quote = product.meet, product.star, product.quote
    x = report.sc_witness
    assert x != one
    assert meet[x][star[quote[x]]] != zero
    assert all(meet[y][star[quote[y]]] == zero for y in range(x) if y != one)
    assert product.labels[x] == "(0,1)"

    assert not report.join_variant
    join_violators = [y for y in product.elements()
                      if y not in (zero, one) and product.join[y][star[y]] == one]
    assert report.join_variant_witness == join_violators[0]
    assert product.labels[report.join_variant_witness] == "(0,1)"


def test_sc_equivalence_on_small_members(builtins):
    # simplicity and (SC) agree on the builtins and fail together on products
    subjects = [builtins[n] for n in sorted(builtins)]
    subjects += [direct_product([builtins["2"], builtins[n]]) for n in sorted(builtins)]
    for algebra in subjects:
        assert classify(algebra).simple == check_sc(algebra).sc


def test_cep_instances(builtins):
    dmba = builtins["4_dmba"]
    for embedding in enumerate_embeddings(builtins["2"], dmba):
        assert cep_instance(builtins["2"], dmba, embedding)
    klst = builtins["3_klst"]
    square = direct_product([klst, klst])
    diagonal = next(e for e in enumerate_embeddings(klst, square)
                    if all(e(x) == x * klst.size + x for x in klst.elements()))
    assert cep_instance(klst, square, diagonal)
    from agkit.morphisms import identity_hom
    for algebra in builtins.values():
        assert cep_instance(algebra, algebra, identity_hom(algebra))
    # only Con(sub) is enumerated, so a sup past the congruence cap is fine
    big = direct_product([klst] * 4)
    assert cep_instance(builtins["2"], big, enumerate_embeddings(builtins["2"], big)[0])


def _products(factors: int) -> list[FiniteAlgebra]:
    names = itertools.combinations_with_replacement(BUILTIN_NAMES, factors)
    return [direct_product([builtin(n) for n in combo]) for combo in names]


def test_cep_instance_matches_definition_on_products(builtins):
    """Every embedding among the builtins and the 2-factor products, and every
    embedding of a builtin into a 3-factor product of at most 36 elements."""
    small = list(builtins.values()) + _products(2)
    large = [p for p in _products(3) if p.size <= 36]
    cases = [(sub, sup) for sub in small for sup in small]
    cases += [(sub, sup) for sub in builtins.values() for sup in large]
    sup_congruences = {sup: congruence_lattice(sup) for sup in small + large}
    checked = 0
    for sub, sup in cases:
        for embedding in enumerate_embeddings(sub, sup):
            assert cep_instance(sub, sup, embedding) == cep_by_definition(
                sub, sup_congruences[sup], embedding), (sub.name, sup.name, embedding.mapping)
            checked += 1
    assert checked == 100


def _chain4(star: tuple[int, ...], quote: tuple[int, ...]) -> FiniteAlgebra:
    """The chain 0 < a < b < 1 with the given star and quote tables."""
    return FiniteAlgebra(
        name="chain4", size=4, labels=("0", "a", "b", "1"),
        join=tuple(tuple(max(x, y) for y in range(4)) for x in range(4)),
        meet=tuple(tuple(min(x, y) for y in range(4)) for x in range(4)),
        star=star, quote=quote, zero=0, one=3)


@st.composite
def chains_with_subuniverse(draw):
    """A 4-element chain with arbitrary star and quote tables, and one of its
    3-element subuniverses {0, a, 1} or {0, b, 1}: the tables map the
    subuniverse into itself and the remaining element anywhere."""
    universe = (0, draw(st.sampled_from((1, 2))), 3)

    def table() -> tuple[int, ...]:
        return tuple(draw(st.sampled_from(universe if x in universe else range(4)))
                     for x in range(4))

    return _chain4(table(), table()), universe


@settings(max_examples=200, deadline=None)
@given(chains_with_subuniverse())
@example((_chain4((0, 0, 0, 0), (0, 0, 1, 0)), (0, 1, 3)))
def test_cep_instance_matches_definition_on_chains(case):
    chain, universe = case
    sub = subalgebra(chain, universe)
    embedding = Homomorphism(sub, chain, universe)
    assert cep_instance(sub, chain, embedding) == cep_by_definition(
        sub, congruence_lattice(chain), embedding)


def test_cep_instance_false_case():
    # Star and quote are constantly 0 on {0, a, 1}, so {0 | a, 1} is a
    # congruence of it.  In the chain a ~ 1 gives b = a \/ b ~ 1 \/ b = 1, and
    # then 1 = b' ~ 1' = 0, so only the total congruence contains (a, 1).
    chain = _chain4((0, 0, 0, 0), (0, 0, 1, 0))
    sub = subalgebra(chain, (0, 1, 3))
    embedding = Homomorphism(sub, chain, (0, 1, 3))
    assert not cep_instance(sub, chain, embedding)
    assert not cep_by_definition(sub, congruence_lattice(chain), embedding)


def test_cep_requires_embedding(builtins):
    from agkit.morphisms import Homomorphism
    collapse = Homomorphism(builtins["2"], builtins["2"], (0, 1))
    with pytest.raises(ValueError):
        cep_instance(builtins["3_klst"], builtins["2"], collapse)


def test_quotient_by_projection_kernel(builtins):
    square = direct_product([builtins["2"], builtins["2"]])
    kernel = principal_congruence(square, 0, 1)  # collapse second coordinate
    image = quotient(square, kernel)
    assert image.size == 2
    assert is_isomorphic(image, builtins["2"]) is not None


def test_quotient_rejects_non_congruence(builtins):
    bad = Partition.from_assignment([0, 0, 1])
    assert not is_congruence(builtins["3_dblst"], bad)
    with pytest.raises(ValueError):
        quotient(builtins["3_dblst"], bad)


def test_iter_partitions_counts():
    # Bell numbers 1, 2, 5, 15, 52
    for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52)):
        assert sum(1 for _ in iter_partitions(n)) == bell
