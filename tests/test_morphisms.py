from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import agkit.morphisms
from agkit import (BUILTIN_NAMES, FiniteAlgebra, builtin, direct_product,
                   enumerate_embeddings, enumerate_homs, identity_hom, lattice_reduct,
                   subalgebra, subuniverse_closure)
from agkit.algebra import BUILTIN_SPECS
from agkit.amalgamation import _homs
from agkit.morphisms import Homomorphism, _extend, brute_force_homs
from tests.conftest import (dual_homs, generated_members, kept_facts, log_calls, renumber,
                            renumbered_products)

ONE = FiniteAlgebra(name="one", size=1, labels=("0",), join=((0,),), meet=((0,),),
                    star=(0,), quote=(0,), zero=0, one=0)

# hom counts between ordered pairs of builtins, confirmed by the oracle below
HOM_COUNTS = {
    ("2", "2"): 1, ("2", "3_dblst"): 1, ("2", "3_klst"): 1, ("2", "4_dmba"): 1,
    ("3_dblst", "2"): 0, ("3_dblst", "3_dblst"): 1, ("3_dblst", "3_klst"): 0,
    ("3_dblst", "4_dmba"): 0,
    ("3_klst", "2"): 0, ("3_klst", "3_dblst"): 0, ("3_klst", "3_klst"): 1,
    ("3_klst", "4_dmba"): 0,
    ("4_dmba", "2"): 0, ("4_dmba", "3_dblst"): 0, ("4_dmba", "3_klst"): 0,
    ("4_dmba", "4_dmba"): 2,
}


def test_hom_counts_match_oracle_on_all_16_pairs(builtins):
    for (src, tgt), expected in HOM_COUNTS.items():
        found = enumerate_homs(builtins[src], builtins[tgt])
        oracle = brute_force_homs(builtins[src], builtins[tgt])
        assert len(found) == len(oracle) == expected, (src, tgt)
        assert found == sorted(oracle), (src, tgt)
        # the builtins are simple, so a hom out of one has the identity
        # kernel: why one compatible pair covers an SI diagram
        assert all(len(set(h)) == len(h) for h in found), (src, tgt)


# brute_force_homs scans |target|^|source| maps
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(generated_members(), generated_members())
def test_enumerate_homs_matches_brute_force_on_generated_members(source, target):
    assume(target.size ** source.size <= 5_000)
    assert enumerate_homs(source, target) == sorted(brute_force_homs(source, target))


# Six examples: the search takes up to ≈70 ms per pair on a 108-element source,
# the dual ≈10 ms (2-vCPU x86-64 VM, Python 3.11.7).
@settings(max_examples=6, deadline=None)
@given(st.one_of(st.sampled_from(BUILTIN_NAMES).map(builtin), renumbered_products(4, 108)),
       st.sampled_from(BUILTIN_NAMES).map(builtin))
@example(renumber(direct_product([builtin(n) for n in ("3_dblst", "3_klst", "3_klst", "4_dmba")]),
                  [(37 * x + 5) % 108 for x in range(108)]), builtin("4_dmba"))
def test_homs_match_the_birkhoff_dual(source, target):
    """The search and the dual enumeration give the same list of homs, the
    embeddings are the homs whose dual map is onto, and the hom set kept
    for a source that is no SI member (_homs) is that list."""
    homs = enumerate_homs(source, target)
    assert homs == dual_homs(source, target)
    embeddings = dual_homs(source, target, embeddings=True)
    assert enumerate_embeddings(source, target) == embeddings
    assert embeddings == [h for h in homs if len(set(h)) == source.size]
    assert _homs(source, target) == tuple(homs) == kept_facts(source)[("homs", target)]


# The builtins and every product of them with at most 8 elements, by factor
# names, and their lattice reducts, whose identity star and quote leave the
# join and meet checks alone to cut the maps down: at most 4^6 maps a pair
# once 0 and 1 are pinned, all 192 pairs in ≈0.2 s (2-vCPU x86-64 VM, Python
# 3.11.7).  Built in the test: a product kept alive here would keep the facts
# of every equal product alive, and with them the sources of their hom sets.
SMALL_SOURCES = [names for k in (1, 2, 3) for names in itertools.product(BUILTIN_NAMES, repeat=k)
                 if math.prod(BUILTIN_SPECS[name]["size"] for name in names) <= 8]


@pytest.mark.parametrize("reduct", [False, True], ids=["", "lattice"])
@pytest.mark.parametrize("names", SMALL_SOURCES, ids=" x ".join)
def test_brute_force_homs_matches_the_birkhoff_dual(names, reduct):
    """brute_force_homs and dual_homs share no code, so each checks the
    other; both check the search.  From a lattice reduct, a map that keeps
    joins but not meets, such as a -> a, b -> 1 from 4_dmba's onto the
    chain's, is no hom."""
    factors = [builtin(name) for name in names]
    source = direct_product(factors) if len(factors) > 1 else factors[0]
    source = lattice_reduct(source) if reduct else source
    for target in [*map(builtin, BUILTIN_NAMES), *map(lattice_reduct, map(builtin, BUILTIN_NAMES))]:
        homs = dual_homs(source, target)
        assert brute_force_homs(source, target) == homs, target.name
        assert enumerate_homs(source, target) == homs, target.name


def builtin_or_lattice_reduct():
    return st.builds(lambda name, reduct: lattice_reduct(builtin(name)) if reduct
                     else builtin(name), st.sampled_from(BUILTIN_NAMES), st.booleans())


# the subalgebra the xs generate has at most one hom sending each x to its s,
# and brute_force_homs finds it without the closure
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.one_of(generated_members(),
                 st.sampled_from(BUILTIN_NAMES).map(lambda name: lattice_reduct(builtin(name)))),
       builtin_or_lattice_reduct(), st.data())
def test_extend_matches_brute_force_on_the_generated_subalgebra(source, target, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, source.size - 1),
                                         st.integers(0, target.size - 1)), max_size=2))
    closure = subuniverse_closure(source, [x for x, _ in pairs])
    sub = subalgebra(source, closure)
    assume(target.size ** sub.size <= 5_000)
    position = {x: i for i, x in enumerate(sorted(closure))}
    oracle = [m for m in brute_force_homs(sub, target)
              if all(m[position[x]] == s for x, s in pairs)]
    extended = _extend(source, target, pairs)
    if extended is None:
        assert oracle == []
    else:
        assert set(extended) == closure
        assert oracle == [tuple(extended[x] for x in sorted(closure))]


def test_trivial_source_maps_only_into_a_trivial_target(builtins):
    # zero = one in ONE: seeding 0 -> 0 and 1 -> 1 clashes in a nontrivial
    # target, also when its star and quote fix 1 as in a lattice reduct
    targets = [*builtins.values(), *map(lattice_reduct, builtins.values())]
    for target in targets:
        assert enumerate_homs(ONE, target) == [], target.name
        assert brute_force_homs(ONE, target) == [], target.name
    assert all(_extend(ONE, target, ()) is None for target in targets)
    assert enumerate_homs(ONE, ONE) == [identity_hom(ONE).mapping]
    assert enumerate_homs(ONE, ONE) == brute_force_homs(ONE, ONE)


def test_no_hom_into_two_from_fixed_quote_point(builtins):
    # a' = a has no fixed point in 2
    assert enumerate_homs(builtins["3_klst"], builtins["2"]) == []


def test_constraint_conflicts_yield_empty(builtins):
    # the seed 0 -> 1 clashes with the constant 0 -> 0
    two = builtins["2"]
    assert _extend(two, two, [(0, 1)]) is None


def test_homs_from_products(builtins):
    # projections and their compositions show up in the enumeration
    product = direct_product([builtins["3_klst"], builtins["3_klst"]])
    homs = enumerate_homs(product, builtins["3_klst"])
    oracle = brute_force_homs(product, builtins["3_klst"])
    assert homs == sorted(oracle)


def test_one_generator_sequence_serves_every_target(builtins, monkeypatch):
    """The generator sequence reads only the source (its Sg{0, 1} and
    tables), so homs from one source into two targets build it once."""
    source = direct_product([builtins["2"], builtins["4_dmba"]])
    kept_facts(source).pop("generator sequence", None)
    calls = []
    log_calls(monkeypatch, agkit.morphisms, "_generator_sequence", calls)
    for target in (builtins["2"], builtins["4_dmba"]):
        assert enumerate_homs(source, target) == sorted(brute_force_homs(source, target))
    assert [args for args, _ in calls] == [(source,)]
    assert kept_facts(source)["generator sequence"] == calls[0][1]


def test_embeddings_examples(builtins):
    for name, algebra in builtins.items():
        embeddings = enumerate_embeddings(builtins["2"], algebra)
        assert len(embeddings) == 1
        assert embeddings[0] == (algebra.zero, algebra.one)
    dmba = builtins["4_dmba"]
    maps = enumerate_embeddings(dmba, dmba)
    assert maps == [(0, 1, 2, 3), (0, 2, 1, 3)]  # identity and the a-b swap
    assert enumerate_embeddings(builtins["3_dblst"], dmba) == []


def test_embeddings_into_smaller_target(builtins):
    assert enumerate_embeddings(builtins["4_dmba"], builtins["2"]) == []


def test_preservation_post_check(builtins):
    with pytest.raises(ValueError):
        Homomorphism(builtins["3_dblst"], builtins["2"], (0, 0, 1))


# Each map breaks exactly one check of the post-check.  The lattice reduct
# of 4_dmba maps onto that of 2 keeping 0, 1, star and quote (identities
# there), so only a lattice operation can fail.
@pytest.mark.parametrize("source, target, reduct, mapping, broken", [
    ("2", "2", False, (0,), "wrong shape"),
    ("2", "2", False, (0, 2), "wrong shape"),
    ("2", "2", False, (1, 0), "constants"),
    ("3_dblst", "3_klst", False, (0, 1, 2), "quote"),
    ("4_dmba", "2", True, (0, 0, 0, 1), "join"),
    ("4_dmba", "2", True, (0, 1, 1, 1), "meet"),
])
def test_post_check_names_the_broken_law(source, target, reduct, mapping, broken):
    def make(name):
        return lattice_reduct(builtin(name)) if reduct else builtin(name)
    with pytest.raises(ValueError, match=broken):
        Homomorphism(make(source), make(target), mapping)


def test_brute_force_homs_drops_maps_that_break_only_a_lattice_operation():
    """Of the four maps of the lattice reducts 4_dmba -> 2 that keep 0 and 1,
    all keep star and quote, and (0, 0, 0, 1) breaks join and (0, 1, 1, 1)
    meet: the oracle keeps the other two only, as the search does."""
    source, target = lattice_reduct(builtin("4_dmba")), lattice_reduct(builtin("2"))
    homs = brute_force_homs(source, target)
    assert homs == [(0, 0, 1, 1), (0, 1, 0, 1)]
    assert enumerate_homs(source, target) == homs


def test_is_isomorphic_examples(builtins):
    # an isomorphism is an embedding between algebras of one size
    assert not enumerate_embeddings(builtins["3_dblst"], builtins["3_klst"])
    for algebra in builtins.values():
        assert enumerate_embeddings(algebra, algebra)[0] == identity_hom(algebra).mapping
    square = direct_product([builtins["2"], builtins["2"]])
    from agkit import principal_congruence, quotient
    collapsed = quotient(square, principal_congruence(square, 0, 1))
    assert collapsed.size == 2 and enumerate_embeddings(collapsed, builtins["2"])


def test_flags_are_consistent(builtins):
    """Every map the search returns, between builtins and their lattice
    reducts (where only a meet can clash), passes the Homomorphism
    post-check, an oracle for _propagate, and its injective flag is read off
    the map."""
    algebras = [*builtins.values(), *map(lattice_reduct, builtins.values())]
    for src, tgt in itertools.product(algebras, repeat=2):
        for mapping in enumerate_homs(src, tgt):
            h = Homomorphism(src, tgt, mapping)
            assert h.injective == (len(set(mapping)) == src.size)
            assert set(mapping) <= set(range(tgt.size))
