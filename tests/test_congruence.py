from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import agkit.congruence
from agkit import (AgkitError, BUILTIN_NAMES, CapExceededError, FiniteAlgebra, Partition, builtin,
                   cep_instance, check_sc, classify, congruence_lattice, direct_product,
                   dump_algebra, enumerate_embeddings, is_congruence, lattice_reduct,
                   load_algebra, principal_congruence, quotient, subalgebra)
from agkit.algebra import birkhoff
from agkit.caps import DEFAULT_CAPS
from agkit.congruence import _closures, factor_names
from agkit.morphisms import Homomorphism
from tests.conftest import (CountingTable, brute_force_congruences, cep_by_definition,
                            chain4, chain_algebra, chain_products,
                            directly_indecomposable_by_definition,
                            distributive_algebras, forget_facts, generated_members,
                            iter_partitions, kept_facts, log_calls,
                            pairwise_congruence_lattice, renumber, renumbered_products, replace,
                            translation_closure)


def oracle_principal(algebra, a, b):
    """Brute force: the refinement-least congruence containing (a, b)."""
    containing = [p.blocks for p in brute_force_congruences(algebra) if p.blocks[a] == p.blocks[b]]
    least = Partition.from_assignment(list(zip(*containing)))  # their meet
    assert is_congruence(algebra, least)
    return least


def test_partition_canonical_form():
    assert Partition.from_assignment([5, 5, 7, 5]).blocks == (0, 0, 1, 0)


def test_principal_congruence_examples(builtins):
    dblst = builtins["3_dblst"]
    assert principal_congruence(dblst, 0, 1) == Partition((0, 0, 0))
    for algebra in builtins.values():
        for x in algebra.elements():
            assert principal_congruence(algebra, x, x) == Partition(tuple(algebra.elements()))
    square = direct_product([builtins["2"], builtins["2"]])
    # identifying (0,0) with (0,1) collapses exactly the second coordinate
    assert principal_congruence(square, 0, 1).blocks == (0, 0, 1, 1)
    # Without ', whose De Morgan laws give x /\ c = (x' \/ c')', only a meet
    # translation takes ((0,1), (1,1)) to ((0,0), (1,0)).
    assert principal_congruence(lattice_reduct(square), 1, 3).blocks == (0, 1, 0, 1)


def test_a_partition_of_another_size_is_no_congruence(builtins):
    for size in (3, 5):
        assert not is_congruence(builtins["4_dmba"], Partition(tuple(range(size))))
    assert is_congruence(builtins["4_dmba"], Partition((0, 1, 2, 3)))


def test_principal_congruence_matches_oracle_up_to_size_6(builtins):
    subjects = list(builtins.values())
    subjects.append(direct_product([builtins["2"], builtins["2"]]))
    subjects.append(direct_product([builtins["2"], builtins["3_dblst"]]))
    subjects.append(direct_product([builtins["2"], builtins["3_klst"]]))
    for algebra in subjects:
        assert algebra.size <= 6
        for a, b in itertools.combinations(range(algebra.size), 2):
            assert principal_congruence(algebra, a, b) == oracle_principal(algebra, a, b)


@settings(max_examples=40, deadline=None)
@given(st.one_of(generated_members(), renumbered_products()), st.booleans(), st.data())
def test_principal_congruence_matches_translation_closure(algebra, reduct, data):
    if reduct:
        algebra = lattice_reduct(algebra)
    elements = st.integers(0, algebra.size - 1)
    for a, b in data.draw(st.lists(st.tuples(elements, elements), min_size=1, max_size=3)):
        theta = principal_congruence(algebra, a, b)
        assert theta == translation_closure(algebra, a, b)
        assert is_congruence(algebra, theta)


def _with_pairs(algebra: FiniteAlgebra):
    element = st.integers(0, algebra.size - 1)
    return st.tuples(st.just(algebra), st.lists(st.tuples(element, element), min_size=1,
                                                max_size=3))


@settings(max_examples=30, deadline=None)
@given(distributive_algebras().flatmap(_with_pairs))
@example((chain_algebra(10), [(0, 9), (4, 5), (2, 7)]))  # |J| = 9: phi has no byte form
@example((chain_algebra(1), [(0, 0)]))
def test_principal_congruence_matches_translation_closure_on_chains(case):
    """On chains and products of chains with arbitrary star and quote tables.
    A kernel that closes under star only, or starts from phi(a) | phi(b) in
    place of phi(a) XOR phi(b), fails here."""
    algebra, pairs = case
    for a, b in pairs:
        theta = principal_congruence(algebra, a, b)
        assert theta == translation_closure(algebra, a, b), (a, b)
        assert is_congruence(algebra, theta)


IDENTITY_2 = chain_algebra(2, (0, 1), (0, 1))
IDENTITY_3 = chain_algebra(3, (0, 1, 2), (0, 1, 2))


@settings(max_examples=60, deadline=None)
# at most 2^6 congruences for the oracle
@given(st.one_of(distributive_algebras(max_irreducibles=6), chain_products()))
@example(chain_algebra(10))
@example(chain_algebra(1))
@example(direct_product([IDENTITY_2, IDENTITY_3]))
@example(direct_product([IDENTITY_2, chain_algebra(3), IDENTITY_2]))
# 2 x 2 with quote swapping the coordinates: a product lattice, but simple
@example(replace(direct_product([IDENTITY_2, IDENTITY_2]), quote=(0, 2, 1, 3)))
# 2 x 3, J = {a} + {b < c}, quote (x, y) = (min(y, 1), 0): Cg(0, b) holds a, so
# J is connected, but c reaches a, bit 0 once renumbered, only through b
@example(renumber(replace(direct_product([IDENTITY_2, IDENTITY_3]), quote=(0, 3, 3, 0, 3, 3)),
                  [0, 3, 2, 1, 4, 5]))
def test_congruence_lattice_matches_pairwise_build_on_chains(algebra):
    """A kernel that closes under star only, or starts from phi(a) | phi(b),
    fails here too, and so does a DI verdict that misses a factor pair that
    the tables keep apart."""
    lattice, oracle = congruence_lattice(algebra), pairwise_congruence_lattice(algebra)
    assert tuple(lattice) == oracle
    if algebra.size <= 8:
        assert set(lattice) == set(brute_force_congruences(algebra))
    if algebra.size >= 2:
        assert classify(algebra).directly_indecomposable == (
            directly_indecomposable_by_definition(oracle))


def test_principal_congruence_reads_no_row(builtins, monkeypatch):
    """principal_congruence reads the algebra's kept Birkhoff embedding and
    its unary tables, no join or meet row, and congruence_lattice of a loaded
    algebra reads the embedding its load kept."""
    product = direct_product([builtins[n] for n in ("3_dblst", "3_klst", "4_dmba")])
    join, meet = CountingTable(product.join), CountingTable(product.meet)
    counting = replace(product, join=join, meet=meet, validate=False)
    assert counting.join is join and counting.meet is meet  # bytes rows are kept as given
    n = counting.size
    assert n == 36
    assert kept_facts(counting)["birkhoff"]  # the product's: counting == product
    join.reads = meet.reads = 0  # the constructor's shape check reads every row
    seen = set()
    for a, b in itertools.combinations(range(n), 2):
        seen.add(principal_congruence(counting, a, b).num_blocks)
    assert join.reads + meet.reads == 0
    assert seen == {1, 3, 4, 9, 12}
    product = direct_product([builtins[n] for n in ("3_dblst", "4_dmba", "4_dmba")])
    forget_facts()  # so that only the load can have kept the embedding
    loaded = load_algebra(dump_algebra(renumber(product, random.Random(0).sample(range(48), 48))))
    derived = []
    log_calls(monkeypatch, agkit.algebra, "_birkhoff", derived)
    assert len(congruence_lattice(loaded)) == 8
    assert derived == []


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


@settings(max_examples=40, deadline=None)
@given(generated_members())
@example(direct_product([builtin("3_dblst"), builtin("3_klst"), builtin("4_dmba")]))
def test_congruence_lattice_matches_pairwise_build(algebra):
    lattice = congruence_lattice(algebra)
    assert tuple(lattice) == pairwise_congruence_lattice(algebra)
    if algebra.size <= 8:
        assert set(lattice) == set(brute_force_congruences(algebra))
    if algebra.size >= 2:
        assert classify(algebra).directly_indecomposable == (
            directly_indecomposable_by_definition(lattice))


def test_congruence_lattice_fraser_horn(builtins):
    """A product of k simple algebras in a congruence-distributive variety
    has 2^k congruences; every product of builtins up to 108 elements."""
    checked = 0
    for k in range(1, 7):
        for names in itertools.combinations_with_replacement(BUILTIN_NAMES, k):
            factors = [builtins[n] for n in names]
            if math.prod(f.size for f in factors) <= 108:
                assert len(congruence_lattice(direct_product(factors))) == 2 ** k, names
                checked += 1
    assert checked == 78


def test_congruence_lattice_one_principal_congruence_per_join_irreducible(
        builtins, monkeypatch):
    # The lattice reduct of 2 x 2 x 4_dmba x 4_dmba has 1 + 1 + 2 + 2
    # join-irreducibles, against 2,016 pairs of its 64 elements.
    calls = []
    log_calls(monkeypatch, agkit.congruence, "_closure", calls)
    product = direct_product([builtins[n] for n in ("2", "2", "4_dmba", "4_dmba")])
    assert product.size == 64
    assert len(congruence_lattice(product)) == 16
    assert len(calls) == 6


def test_congruence_lattice_cap(monkeypatch):
    big = direct_product([builtin("3_klst")] * 3 + [builtin("4_dmba")])  # 108 elements
    monkeypatch.delenv("AGKIT_CAP", raising=False)
    monkeypatch.setitem(DEFAULT_CAPS, "elements", 100)
    with pytest.raises(CapExceededError) as err:
        congruence_lattice(big)
    assert (err.value.guard, err.value.limit, err.value.requested) == ("elements", 100, 108)


def test_classify_builtins_all_irreducible(builtins):
    for algebra in builtins.values():
        result = classify(algebra)
        assert result.simple
        assert result.subdirectly_irreducible
        assert result.directly_indecomposable
        assert result.monolith == Partition((0,) * algebra.size)
        assert check_sc(algebra).sc


def least_nontrivial(congruences):
    """The nontrivial partition that refines every other one, or None; c
    refines o iff each block of c meets one block of o."""
    nontrivial = [c for c in congruences if c.num_blocks != c.size]
    return next((c for c in nontrivial
                 if all(len(set(zip(c.blocks, o.blocks))) == c.num_blocks for o in nontrivial)),
                None)


@settings(max_examples=16, deadline=None)
@given(st.one_of(distributive_algebras(max_size=8), renumbered_products(min_size=4, max_size=8)))
@example(chain4((0, 0, 0, 0), (0, 0, 1, 0)))  # five congruences, the monolith {0,a | b | 1}
def test_classify_matches_brute_force_monolith(algebra):
    """Chains and products of chains with arbitrary star and quote tables,
    most of them outside the variety, and renumbered products of builtins."""
    congruences = brute_force_congruences(algebra)
    monolith = least_nontrivial(congruences)
    result = classify(algebra)
    assert result.monolith == monolith
    assert result.subdirectly_irreducible == (monolith is not None)
    assert result.simple == (len(congruences) == 2)


@settings(max_examples=30, deadline=None)
@given(st.one_of(distributive_algebras(max_size=16), chain_products(),
                 renumbered_products(min_size=4, max_size=36)), st.data())
def test_classify_does_not_depend_on_the_numbering(algebra, data):
    """Renumbered, an algebra numbers its join-irreducibles, and so the bits
    that classify links, in another order: simple, SI and DI stay, and the
    monolith maps through the permutation."""
    to = data.draw(st.permutations(range(algebra.size)))
    before, after = classify(algebra), classify(renumber(algebra, to))
    assert (after.simple, after.subdirectly_irreducible, after.directly_indecomposable) == (
        before.simple, before.subdirectly_irreducible, before.directly_indecomposable)
    order = sorted(range(algebra.size), key=to.__getitem__)  # order[to[x]] == x
    assert after.monolith == (before.monolith and Partition.from_assignment(
        [before.monolith.blocks[x] for x in order]))


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


@settings(max_examples=40, deadline=None)
@given(st.one_of(renumbered_products(min_size=4),
                 st.lists(st.sampled_from(BUILTIN_NAMES), min_size=1, max_size=3).map(
                     lambda names: direct_product([builtin(n) for n in names]))),
       st.data())
def test_factor_names_of_a_product_are_its_builtins(product, data):
    """However its elements are numbered: the product's name lists them."""
    names = set(product.name.removeprefix("renumbered ").strip("()").split(" x "))
    assert factor_names(product) == names
    to = data.draw(st.permutations(range(product.size)))
    assert factor_names(renumber(product, to)) == names


def test_factor_names_refuses_what_is_no_product_of_builtins():
    """The chain 0 < a < b < 1 with identity star and quote is a product of
    three 2-element factors, none of them 2; with a* = 1, b* = a* = 0, the
    closure of 0 < a holds those of a < b and b < 1."""
    identity = chain4((0, 1, 2, 3), (0, 1, 2, 3))
    assert _closures(identity) == (1, 2, 4)
    with pytest.raises(AgkitError, match="no builtin"):
        factor_names(identity)
    nested = chain4((3, 0, 0, 0), (0, 1, 2, 3))
    assert _closures(nested) == (7, 2, 4)
    with pytest.raises(AgkitError, match="overlap"):
        factor_names(nested)


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


@pytest.mark.parametrize("names", [("3_dblst",), ("3_klst",), ("4_dmba",), ("2", "2"),
                                   ("3_dblst", "3_klst"), ("2", "3_klst"), ("3_dblst", "4_dmba")])
def test_check_sc_does_not_depend_on_the_numbering(names):
    """Renumbered so that zero is not 0 and one is not n - 1, an algebra
    gets the same (SC) verdicts, and each witness violates its condition."""
    algebra = direct_product([builtin(name) for name in names])
    report = check_sc(algebra)
    n = algebra.size
    rng = random.Random(n)
    orders = [list(reversed(range(n)))] + [rng.sample(range(n), n) for _ in range(6)]
    for to in orders:
        if to[algebra.zero] == 0 or to[algebra.one] == n - 1:
            continue
        other = renumber(algebra, to)
        sc = check_sc(other)
        assert (sc.sc, sc.join_variant) == (report.sc, report.join_variant), to
        one, zero, meet, star, quote = other.one, other.zero, other.meet, other.star, other.quote
        if (x := sc.sc_witness) is not None:
            assert x != one and meet[x][star[quote[x]]] != zero
        if (x := sc.join_variant_witness) is not None:
            assert x not in (zero, one) and other.join[x][star[x]] == one


def test_sc_equivalence_on_small_members(builtins):
    # simplicity and (SC) agree on the builtins and fail together on products
    subjects = [builtins[n] for n in sorted(builtins)]
    subjects += [direct_product([builtins["2"], builtins[n]]) for n in sorted(builtins)]
    for algebra in subjects:
        assert classify(algebra).simple == check_sc(algebra).sc


def test_cep_instances(builtins, monkeypatch):
    dmba = builtins["4_dmba"]
    for embedding in enumerate_embeddings(builtins["2"], dmba):
        assert cep_instance(builtins["2"], dmba, Homomorphism(builtins["2"], dmba, embedding))
    klst = builtins["3_klst"]
    square = direct_product([klst, klst])
    diagonal = next(e for e in enumerate_embeddings(klst, square)
                    if all(e[x] == x * klst.size + x for x in klst.elements()))
    assert cep_instance(klst, square, Homomorphism(klst, square, diagonal))
    from agkit.morphisms import identity_hom
    for algebra in builtins.values():
        assert cep_instance(algebra, algebra, identity_hom(algebra))
    # only Con(sub) is enumerated, so a sup past the elements cap is fine
    big = direct_product([dmba] * 4)  # 256 elements
    embedding = Homomorphism(builtins["2"], big, enumerate_embeddings(builtins["2"], big)[0])
    monkeypatch.delenv("AGKIT_CAP", raising=False)
    monkeypatch.setitem(DEFAULT_CAPS, "elements", 16)
    with pytest.raises(CapExceededError):
        congruence_lattice(big)
    assert cep_instance(builtins["2"], big, embedding)


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
        for mapping in enumerate_embeddings(sub, sup):
            embedding = Homomorphism(sub, sup, mapping)
            assert cep_instance(sub, sup, embedding) == cep_by_definition(
                sub, sup_congruences[sup], embedding), (sub.name, sup.name, mapping)
            checked += 1
    assert checked == 100


@st.composite
def chains_with_subuniverse(draw):
    """A 4-element chain with arbitrary star and quote tables, and one of its
    3-element subuniverses {0, a, 1} or {0, b, 1}: the tables map the
    subuniverse into itself and the remaining element anywhere."""
    universe = (0, draw(st.sampled_from((1, 2))), 3)

    def table() -> tuple[int, ...]:
        return tuple(draw(st.sampled_from(universe if x in universe else range(4)))
                     for x in range(4))

    return chain4(table(), table()), universe


@settings(max_examples=200, deadline=None)
@given(chains_with_subuniverse())
@example((chain4((0, 0, 0, 0), (0, 0, 1, 0)), (0, 1, 3)))
def test_cep_instance_matches_definition_on_chains(case):
    chain, universe = case
    sub = subalgebra(chain, universe)
    embedding = Homomorphism(sub, chain, universe)
    assert cep_instance(sub, chain, embedding) == cep_by_definition(
        sub, congruence_lattice(chain), embedding)


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.integers(0, 3)] * 4), st.tuples(*[st.integers(0, 3)] * 4))
@example((0, 1, 2, 3), (0, 1, 2, 3))
def test_congruence_lattice_and_di_on_chains(star, quote):
    """4-element chains with arbitrary star and quote tables, most of them
    outside the variety.  The bare chain (star and quote the identity) has 8
    congruences and is DI, and on its pairs of congruences neither a meet of
    0 nor block counts multiplying to 4 implies the other."""
    chain = chain4(star, quote)
    lattice = congruence_lattice(chain)
    assert set(lattice) == set(brute_force_congruences(chain))
    assert classify(chain).directly_indecomposable == (
        directly_indecomposable_by_definition(lattice))


def test_cep_instance_false_case():
    # Star and quote are constantly 0 on {0, a, 1}, so {0 | a, 1} is a
    # congruence of it.  In the chain a ~ 1 gives b = a \/ b ~ 1 \/ b = 1, and
    # then 1 = b' ~ 1' = 0, so only the total congruence contains (a, 1).
    chain = chain4((0, 0, 0, 0), (0, 0, 1, 0))
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
    assert enumerate_embeddings(image, builtins["2"])


def test_quotient_by_a_coatom_of_a_big_product():
    """The kernel of a projection of 2^8 has two blocks of 128 elements;
    moving one element makes it no congruence."""
    cube = direct_product([builtin("2")] * 8)
    coatom = Partition.from_assignment([p & 1 for p in birkhoff(cube)])
    assert quotient(cube, coatom).size == 2
    moved = list(coatom.blocks)
    moved[cube.one] ^= 1
    with pytest.raises(ValueError):
        quotient(cube, Partition(tuple(moved)))


def test_quotient_by_gapped_or_negative_block_ids(builtins):
    dblst = builtins["3_dblst"]
    for blocks in ((1, 1, 1), (-1, -1, -1)):
        assert quotient(dblst, Partition(blocks)) == quotient(dblst, Partition((0, 0, 0)))


@settings(max_examples=30, deadline=None)
@given(generated_members(), st.data())
def test_quotient_does_not_depend_on_block_ids(algebra, data):
    """Any relabelling of a congruence's block ids, gapped and negative ones
    included, gives the quotient of its canonical form."""
    theta = data.draw(st.sampled_from(list(congruence_lattice(algebra))))
    k = theta.num_blocks
    ids = data.draw(st.lists(st.integers(-2 * k, 2 * k), min_size=k, max_size=k, unique=True))
    relabelled = Partition(tuple(ids[block] for block in theta.blocks))
    assert quotient(algebra, relabelled) == quotient(algebra, theta)


def test_quotient_rejects_non_congruence(builtins):
    bad = Partition.from_assignment([0, 0, 1])
    assert not is_congruence(builtins["3_dblst"], bad)
    with pytest.raises(ValueError):
        quotient(builtins["3_dblst"], bad)


def test_iter_partitions_counts():
    # Bell numbers 1, 2, 5, 15, 52
    for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52)):
        assert sum(1 for _ in iter_partitions(n)) == bell
