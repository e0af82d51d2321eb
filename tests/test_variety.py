from __future__ import annotations

import gc
import hashlib
import importlib
import itertools
import json
import weakref
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import agkit.algebra
import agkit.morphisms
import agkit.terms
from agkit import (AgkitError, BUILTIN_NAMES, CapExceededError, FiniteAlgebra,
                   NotFoundError, NotInVarietyError, builtin, direct_product, dump_algebra,
                   load_algebra, discriminator_is_term_op, free_algebra, generated_subvariety,
                   lattice_reduct, lemma_registry, parse_sentence,
                   quasi_identity_holds, satisfies_axiom_system, variety, all_varieties,
                   VARIETY_NAMES, enumerate_embeddings, subuniverse_closure)
from agkit.caps import DEFAULT_CAPS, cap_value
from agkit.morphisms import Homomorphism, _extend
from agkit.variety import (_discriminator_preserves, identity_holds_via_free,
                           require_in_variety, satisfies_base)
from tests.conftest import (brute_force_discriminator_preserves, chain4, closure_free_algebra,
                            forget_facts, generated_members, kept_facts, least_variety_by_bases,
                            log_calls, replace, si_quotients_of_subalgebras)

SI_SETS = {
    "BA": {"2"},
    "RDBLST": {"2", "3_dblst"},
    "RKLST": {"2", "3_klst"},
    "DMBA": {"2", "4_dmba"},
    "G": {"2", "3_dblst", "3_klst"},
    "V_DBLST_DMBA": {"2", "3_dblst", "4_dmba"},
    "V_KLST_DMBA": {"2", "3_klst", "4_dmba"},
    "AG": {"2", "3_dblst", "3_klst", "4_dmba"},
}


def test_descriptor_si_sets():
    for name, si in SI_SETS.items():
        assert variety(name).si_names == frozenset(si)
        assert "2" in variety(name).si_names
    with pytest.raises(NotFoundError):
        variety("KLST")


def test_descriptors_form_boolean_lattice():
    descriptors = all_varieties()
    assert len(descriptors) == 8
    # inclusion order on generator sets: an isomorphic copy of the subsets
    # of the three non-Boolean generators
    atoms = frozenset({"3_dblst", "3_klst", "4_dmba"})
    images = {frozenset(v.si_names - {"2"}) for v in descriptors}
    assert images == {frozenset(s) for r in range(4)
                      for s in itertools.combinations(atoms, r)}
    bottom, top = variety("BA"), variety("AG")
    for v in descriptors:
        assert bottom.si_names <= v.si_names <= top.si_names


def test_bases_parse_and_match_expected_shape():
    assert [label for label, _ in variety("V_DBLST_DMBA").base] == ["J"]
    assert len(variety("RKLST").base) == 2
    assert variety("AG").base == ()


def test_identity_holds_examples():
    assert quasi_identity_holds(variety("G"), parse_sentence("x*' = x**")).holds
    verdict = quasi_identity_holds(variety("AG"), parse_sentence("x*' = x**"))
    assert not verdict.holds
    assert verdict.countermodel == ("4_dmba", {"x": 1})
    assert quasi_identity_holds(variety("BA"), parse_sentence("x = x")).holds


def test_quasi_identity_examples():
    holds = quasi_identity_holds(
        variety("G"), parse_sentence("a' = 1, a* = 0, b' = b, b* = 0 => b = 1"))
    assert holds.holds
    assert quasi_identity_holds(
        variety("AG"), parse_sentence("a' = 1, a* = 0 => a \\/ x \\/ x' = 1")).holds
    verdict = quasi_identity_holds(variety("AG"), parse_sentence("x \\/ x' = 1"))
    assert not verdict.holds
    assert verdict.countermodel == ("3_klst", {"x": 1})


def test_verify_bases_matches_membership_matrix():
    matrix = {si: {v.name: satisfies_base(builtin(si), v).holds for v in all_varieties()}
              for si in BUILTIN_NAMES}
    assert matrix == {si: {v.name: si in v.si_names for v in all_varieties()}
                      for si in BUILTIN_NAMES}
    true_cells = sum(v for row in matrix.values() for v in row.values())
    # 2 lies in all eight varieties, each other generator in its four
    assert true_cells == 20
    assert matrix["3_klst"]["RDBLST"] is False  # x \/ x' = 1 fails at a
    assert matrix["4_dmba"]["V_DBLST_DMBA"] is True


def test_generated_subvariety_examples(builtins):
    assert generated_subvariety(builtins["2"]).name == "BA"
    assert generated_subvariety(builtins["4_dmba"]).name == "DMBA"
    product = direct_product([builtins["3_dblst"], builtins["3_klst"]])
    assert generated_subvariety(product).name == "G"
    everything = direct_product([builtins["3_dblst"], builtins["4_dmba"]])
    assert generated_subvariety(everything).name == "V_DBLST_DMBA"


def test_generated_subvariety_agrees_with_quotient_path(builtins):
    subjects = [
        builtins["3_klst"],
        direct_product([builtins["2"], builtins["4_dmba"]]),
        direct_product([builtins["3_dblst"], builtins["3_klst"]]),
        direct_product([builtins["3_klst"], builtins["4_dmba"]]),
    ]
    for algebra in subjects:
        least = generated_subvariety(algebra)
        assert si_quotients_of_subalgebras(algebra) == set(least.si_names)


@settings(max_examples=40, deadline=None)
@given(generated_members())
@example(direct_product([builtin("3_dblst"), builtin("3_klst"), builtin("4_dmba")]))
def test_generated_subvariety_matches_quotient_oracle(algebra):
    expected = si_quotients_of_subalgebras(algebra)
    if algebra.size == 1:
        assert expected == set()
        with pytest.raises(AgkitError):
            generated_subvariety(algebra)
    else:
        generated = generated_subvariety(algebra)
        assert set(generated.si_names) == expected
        assert generated == least_variety_by_bases(algebra)


def square4(star: tuple[int, ...], quote: tuple[int, ...]) -> FiniteAlgebra:
    """The Boolean lattice 0 < a, b < 1 with the given star and quote tables."""
    return FiniteAlgebra(**dict(agkit.algebra.BUILTIN_SPECS["4_dmba"], name="square4",
                                star=star, quote=quote))


@pytest.mark.parametrize("lattice", [chain4, square4])
@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.integers(0, 3)] * 4), st.tuples(*[st.integers(0, 3)] * 4))
@example((3, 2, 1, 0), (3, 2, 1, 0))
@example((3, 0, 0, 0), (3, 3, 0, 0))
@example((1, 0, 0, 0), (1, 0, 1, 0))
@example((3, 0, 3, 0), (3, 3, 3, 2))
@example((3, 2, 1, 0), (3, 1, 2, 0))  # 4_dmba on the Boolean lattice
def test_generated_subvariety_on_four_element_lattices(lattice, star, quote):
    """The 4-element chain and Boolean lattice with arbitrary star and quote
    tables, nearly all of them outside AG, which generated_subvariety
    refuses.  Of the members (two Boolean-lattice tables, the first and
    last examples), its SI generators are the builtins in HS of each."""
    algebra = lattice(star, quote)
    if satisfies_axiom_system(algebra, "ALMOST_GAUTAMA").ok:
        generated = generated_subvariety(algebra)
        assert set(generated.si_names) == si_quotients_of_subalgebras(algebra)
    else:
        with pytest.raises(NotInVarietyError):
            generated_subvariety(algebra)


def test_generated_subvariety_enumerates_no_subalgebras_or_homs(builtins, monkeypatch):
    calls = []
    log_calls(monkeypatch, agkit.algebra, "enumerate_subalgebras", calls)
    # the discriminator check reads the subuniverse stream directly
    log_calls(monkeypatch, agkit.algebra, "_subuniverses", calls)
    log_calls(monkeypatch, agkit.morphisms, "enumerate_homs", calls)
    log_calls(monkeypatch, agkit.morphisms, "_extend", calls)  # as variety looks it up
    product = direct_product([builtins[n] for n in ("2", "2", "4_dmba", "4_dmba")])
    assert generated_subvariety(product).name == "DMBA"
    assert calls == []


def test_generated_subvariety_scans_no_base_sentence(builtins, monkeypatch):
    # the base of V_DBLST_DMBA alone would scan 36^3 assignments here
    calls = []
    log_calls(monkeypatch, agkit.terms, "holds_in", calls)
    product = direct_product([builtins[n] for n in ("3_dblst", "3_klst", "4_dmba")])
    assert generated_subvariety(product).name == "AG"
    bases = {sentence for v in all_varieties() for _, sentence in v.base}
    assert not [args for args, _ in calls if args[1] in bases]


def test_generated_subvariety_past_the_subalgebra_cap(builtins):
    # 72 elements, above the subalgebra_universe cap of 64: only the
    # assignments cap on the AG axioms bounds the work
    product = direct_product(
        [builtins[n] for n in ("2", "3_dblst", "3_klst", "4_dmba")])
    assert product.size == 72
    assert generated_subvariety(product).name == "AG"


def test_generated_subvariety_assignments_cap(builtins, monkeypatch):
    product = direct_product([builtins[n] for n in ("3_dblst", "3_klst", "4_dmba")])
    monkeypatch.setenv("AGKIT_CAP", "1000")
    with pytest.raises(CapExceededError) as raised:
        generated_subvariety(product)
    # the first 2-variable axiom already needs 36^2 assignments
    assert (raised.value.guard, raised.value.requested) == ("assignments", 36 ** 2)


def test_generated_subvariety_of_trivial_algebra_is_typed_error():
    trivial = load_algebra(json.dumps({
        "name": "one", "size": 1, "labels": ["0"], "join": [[0]], "meet": [[0]],
        "star": [0], "quote": [0], "zero": 0, "one": 0}))
    with pytest.raises(AgkitError, match="trivial variety"):
        generated_subvariety(trivial)


def test_generated_subvariety_rejects_outsiders():
    outsider = load_algebra(json.dumps({
        "name": "chain4", "size": 4, "labels": ["0", "a", "b", "1"],
        "join": [[max(x, y) for y in range(4)] for x in range(4)],
        "meet": [[min(x, y) for y in range(4)] for x in range(4)],
        "star": [3, 2, 1, 0], "quote": [3, 2, 1, 0], "zero": 0, "one": 3}))
    with pytest.raises(NotInVarietyError):
        generated_subvariety(outsider)


@pytest.mark.parametrize("factors, variety_name, cap, requested", [
    # the first 2-variable axiom fires before the 3-variable base J
    (("2", "4_dmba"), "V_DBLST_DMBA", 63, 8 ** 2),
    (("4_dmba",), "V_DBLST_DMBA", 20, 4 ** 3),  # the axioms pass; J does not
], ids=["axiom", "base"])
def test_repeated_membership_replays_the_assignments_guard(
        builtins, monkeypatch, factors, variety_name, cap, requested):
    algebra = direct_product([builtins[n] for n in factors])
    v = variety(variety_name)

    def guard_hit():
        with pytest.raises(CapExceededError) as raised:
            require_in_variety(algebra, v)
        return raised.value.guard, raised.value.limit, raised.value.requested

    require_in_variety(algebra, v)
    assert ("member", v, cap_value("assignments")) in kept_facts(algebra)
    monkeypatch.setenv("AGKIT_CAP", str(cap))
    remembered = guard_hit()
    kept_facts(algebra).pop(("member", v, cap), None)
    assert remembered == guard_hit() == ("assignments", cap, requested)


def test_repeated_membership_passes_at_a_cap_equal_to_its_largest_request(
        builtins, monkeypatch):
    algebra, v = builtins["4_dmba"], variety("V_DBLST_DMBA")
    monkeypatch.setenv("AGKIT_CAP", str(4 ** 3))  # the base J has three variables
    kept_facts(algebra).pop(("member", v, 4 ** 3), None)
    require_in_variety(algebra, v)
    require_in_variety(algebra, v)


def test_non_members_are_refuted_on_every_call(builtins):
    dblst, rklst = builtins["3_dblst"], variety("RKLST")
    raised = []
    for _ in range(2):
        with pytest.raises(NotInVarietyError) as err:
            require_in_variety(dblst, rklst)
        raised.append((err.value.variety_name, err.value.sentence, err.value.witness))
    assert raised[0] == raised[1]
    assert ("member", rklst, cap_value("assignments")) not in kept_facts(dblst)


def test_membership_fails_at_the_first_failing_axiom(builtins, monkeypatch):
    """2^5 with 0* = 0 fails p1, 0* = 1, which has no variable, so the
    membership check raises there under a cap of 33 assignments: the first
    2-variable axiom, which would need 32^2, is never asked."""
    spec = json.loads(dump_algebra(direct_product([builtins["2"]] * 5)))
    spec["star"][spec["zero"]] = spec["zero"]
    bad = load_algebra(json.dumps(dict(spec, name="bad")))
    monkeypatch.setenv("AGKIT_CAP", "33")
    with pytest.raises(NotInVarietyError) as err:
        generated_subvariety(bad)
    assert str(err.value) == "bad is not in AG: fails '0* = 1'"
    assert (err.value.variety_name, err.value.sentence, err.value.witness) == ("AG", "0* = 1", {})


def test_membership_is_remembered_by_value(builtins):
    """A builtin rebuilt with other tables under the same name is checked
    afresh, and refuted."""
    require_in_variety(builtins["3_dblst"], variety("RDBLST"))
    tampered = FiniteAlgebra(**{**agkit.algebra.BUILTIN_SPECS["3_dblst"],
                                "name": "3_dblst", "quote": (2, 1, 0)})
    with pytest.raises(NotInVarietyError):
        require_in_variety(tampered, variety("RDBLST"))


def test_membership_does_not_keep_an_algebra_alive(builtins):
    """The facts that require_in_variety and generated_subvariety decide about
    an algebra are kept no longer than the algebra."""
    spec = direct_product([builtins["3_dblst"], builtins["3_klst"]]).spec_dict()
    algebra = load_algebra(json.dumps(dict(spec, name="transient")))
    require_in_variety(algebra, variety("G"))
    assert generated_subvariety(algebra).name == "G"
    assert ("member", variety("G"), cap_value("assignments")) in kept_facts(algebra)
    alive = weakref.ref(algebra)
    del algebra
    gc.collect()
    assert alive() is None
    rebuilt = load_algebra(json.dumps(dict(spec, name="transient")))
    assert kept_facts(rebuilt).keys() == {"birkhoff"}  # seeded by this load alone


def test_discriminator_on_builtins_and_reducts(builtins):
    for algebra in builtins.values():
        assert discriminator_is_term_op(algebra)
        assert not discriminator_is_term_op(lattice_reduct(algebra))


def test_discriminator_on_several_algebras(builtins):
    # one term for all four builtins: AG is a discriminator variety
    assert discriminator_is_term_op(*builtins.values())
    # a lattice reduct fails on its own square, so no family containing it passes
    assert not discriminator_is_term_op(builtins["2"], lattice_reduct(builtins["3_klst"]))


def test_discriminator_verdict_does_not_keep_an_algebra_alive(builtins):
    """The verdict kept on the left algebra refers to the right one weakly, so
    neither a square nor a pair with a builtin keeps a checked algebra alive."""
    alive = []
    for i in range(50):
        reduct = replace(lattice_reduct(builtins["4_dmba"]), name=f"reduct {i}")
        assert not discriminator_is_term_op(builtins["2"], reduct)
        assert not discriminator_is_term_op(reduct)
        alive.append(weakref.ref(reduct))
        del reduct
    gc.collect()
    assert [ref().name for ref in alive if ref() is not None] == []


def test_discriminator_verdict_goes_with_the_right_algebra():
    """A long-lived left algebra keeps no verdict about a right one that has
    died: one key per pair checked would pile up (50 here) and be read by no
    later check, as a dead weak reference equals nothing else."""
    two = builtin("2")
    assert discriminator_is_term_op(two)
    before, verdicts = len(kept_facts(two)), len(kept_facts(two)["discriminator"])
    for i in range(50):
        reduct = replace(lattice_reduct(builtin("4_dmba")), name=f"reduct {i}")
        assert not discriminator_is_term_op(two, reduct)
        del reduct
    gc.collect()
    assert len(kept_facts(two)) == before
    assert len(kept_facts(two)["discriminator"]) == verdicts


@pytest.mark.parametrize("cap", ["elements", "subalgebra_universe"])
def test_cached_discriminator_verdict_meets_the_guards_of_a_cold_check(
        builtins, monkeypatch, cap):
    algebra = builtins["4_dmba"]  # its square has 16 elements
    monkeypatch.delenv("AGKIT_CAP", raising=False)

    def guard_hit():
        with monkeypatch.context() as capped:
            capped.setitem(DEFAULT_CAPS, cap, 8)
            with pytest.raises(CapExceededError) as raised:
                discriminator_is_term_op(algebra)
        return raised.value.guard, raised.value.limit, raised.value.requested

    forget_facts()
    cold = guard_hit()
    assert discriminator_is_term_op(algebra)
    assert guard_hit() == cold == (cap, 8, 16)


def test_discriminator_fiber_test_matches_cubic_scan(builtins):
    algebras = list(builtins.values())
    algebras += [lattice_reduct(a) for a in algebras]
    verdicts = Counter()
    for left, right in itertools.product(algebras, repeat=2):
        fast = _discriminator_preserves(left, right)
        assert fast == brute_force_discriminator_preserves(left, right), (left.name, right.name)
        verdicts[fast] += 1
    assert verdicts.total() == 64 and verdicts[True] >= 16 and verdicts[False] > 0


def test_discriminator_fiber_test_matches_cubic_scan_on_tampered_tables(builtins):
    # 3_dblst with the Kleene quote row, and a double Stone 4-chain, which is
    # SI but not simple
    kleene_dblst = FiniteAlgebra(**dict(agkit.algebra.BUILTIN_SPECS["3_dblst"],
                                        name="tampered", quote=(2, 1, 0)))
    tampered = [kleene_dblst, chain4((3, 0, 0, 0), (3, 3, 3, 0))]
    verdicts = set()
    for left in tampered:
        for right in tampered + list(builtins.values()):
            fast = _discriminator_preserves(left, right)
            assert fast == brute_force_discriminator_preserves(left, right), (left.name, right.name)
            assert fast == _discriminator_preserves(right, left)
            verdicts.add(fast)
    assert verdicts == {True, False}


@st.composite
def discriminator_pairs(draw):
    """Two generated members of at most 8 elements (the discriminator_universe
    cap), each optionally replaced by its lattice reduct.  The oracle
    enumerates every subuniverse of the product, so products stay at 32
    elements, or 16 with a lattice reduct, whose sublattices are many more."""
    members = generated_members().filter(lambda algebra: algebra.size <= 8)
    left, right = draw(members), draw(members)
    reducts = draw(st.booleans()), draw(st.booleans())
    assume(left.size * right.size <= (16 if any(reducts) else 32))
    return tuple(lattice_reduct(a) if reduct else a
                 for a, reduct in zip((left, right), reducts))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(discriminator_pairs())
def test_discriminator_fiber_test_matches_cubic_scan_on_generated_members(pair):
    left, right = pair
    assert _discriminator_preserves(left, right) == \
        brute_force_discriminator_preserves(left, right)


def test_discriminator_cap(builtins):
    big = direct_product([builtins["3_klst"], builtins["3_klst"]])
    with pytest.raises(CapExceededError):
        discriminator_is_term_op(big)  # size 9 > default guard of 8


def test_free_algebra_sizes():
    assert free_algebra(variety("BA"), 1).algebra.size == 4
    assert free_algebra(variety("AG"), 0).algebra.size == 2
    two_generated = free_algebra(variety("BA"), 2)
    assert two_generated.algebra.size == 16


def test_free_algebra_decides_one_variable_identities():
    samples = ["x \\/ x' = 1", "x*' = x**", "x'' = x", "x \\/ x* = 1",
               "x* = x'", "x*'' = x*", "x /\\ x* = 0"]
    for name in VARIETY_NAMES:
        v = variety(name)
        free = free_algebra(v, 1)
        for text in samples:
            sentence = parse_sentence(text)
            assert identity_holds_via_free(free, sentence) == \
                quasi_identity_holds(v, sentence).holds, (name, text)


def test_identity_holds_via_free_rejects_what_it_cannot_decide():
    free = free_algebra(variety("BA"), 1)
    with pytest.raises(ValueError, match="identities only"):
        identity_holds_via_free(free, parse_sentence("x = 0 => x* = 1"))
    with pytest.raises(ValueError, match="more variables"):
        identity_holds_via_free(free, parse_sentence("x \\/ y = y \\/ x"))


def test_free_algebra_keeps_the_facts_its_product_seeded():
    """F_BA(1) is 2 x 2, equal to the square that proof (b) builds and drops.
    Reading F.algebra builds it again, with the facts direct_product seeds."""
    forget_facts()
    free = free_algebra(variety("BA"), 1)
    facts = kept_facts(free.algebra)
    assert facts["birkhoff"] == (0, 1, 2, 3)
    assert facts["diagonal"] == (0, 3)


def test_free_algebra_cap(monkeypatch):
    """The elements cap bounds reading F.algebra, whose direct_product builds
    the product's tables; free_algebra itself builds none, so it passes."""
    monkeypatch.delenv("AGKIT_CAP", raising=False)
    for name, size in (("AG", 3_869_835_264), ("DMBA", 65_536)):
        free = free_algebra(variety(name), 2)
        with pytest.raises(CapExceededError, match=f"requested {size}, limit 256"):
            free.algebra
    monkeypatch.setenv("AGKIT_CAP", "100")
    free = free_algebra(variety("RKLST"), 2)
    assert free.size == 3888
    with pytest.raises(CapExceededError, match="requested 3888, limit 100"):
        free.algebra


def test_free_algebra_builds_its_product_once():
    """F.algebra is built on first read and kept; its tables are those of
    direct_product of the factors, pinned by the digests of two dumps."""
    for name, n, digest in (
            ("BA", 3, "5a1ed0e1b5eef82dee42bf89f4ec4137820fbbc5baaea9e0bf71fb863fe3cae0"),
            ("AG", 1, "9eb068f938b3c2d3aa5ed2d836d756fa08f39a7d6f621f830749d1b835c76ef7")):
        free = free_algebra(variety(name), n)
        assert free.algebra is free.algebra and free.algebra.size == free.size
        assert hashlib.sha256(dump_algebra(free.algebra).encode()).hexdigest() == digest


@pytest.mark.parametrize("name, n", [("BA", 2), ("BA", 3)] + [
    (name, n) for name in VARIETY_NAMES for n in (0, 1)])
def test_free_algebra_is_isomorphic_to_the_closure_build(name, n):
    """Every (V, n) with |F_V(n)| <= 256.  A homomorphism that sends the
    generators to the generators is onto, as they generate the target; one
    that is also injective is an isomorphism."""
    free = free_algebra(variety(name), n)
    closure, generators = closure_free_algebra(variety(name), n)
    extended = _extend(closure, free.algebra, zip(generators, free.generators))
    assert extended is not None and len(extended) == closure.size == free.algebra.size
    hom = Homomorphism(closure, free.algebra, tuple(extended[x] for x in closure.elements()))
    assert hom.injective


def test_free_algebra_size_counts_generating_tuples_up_to_automorphism():
    """|F_V(n)| is the product over the SI generators S of |S|^(g_n(S)/|Aut S|),
    g_n(S) the number of n-tuples that generate S.  free_algebra proves (a)
    and (b) for all 32 (V, n) and builds no table of F: about 0.25 s."""
    for name in VARIETY_NAMES:
        for n in range(4):
            expected = 1
            for si in variety(name).si_algebras():
                generating = sum(len(subuniverse_closure(si, t)) == si.size
                                 for t in itertools.product(si.elements(), repeat=n))
                automorphisms = len(enumerate_embeddings(si, si))
                assert generating % automorphisms == 0
                expected *= si.size ** (generating // automorphisms)
            assert free_algebra(variety(name), n).size == expected, (name, n)


@pytest.mark.parametrize("tamper, message", [
    # keep (4_dmba, a) and (4_dmba, b), which one automorphism relates
    (lambda algebra, target, pairs: algebra is not target or all(x == s for x, s in pairs),
     r"coordinates 4_dmba\[a\] and 4_dmba\[b\] generate 4 of the 16"),
    # find no image of 2 in 4_dmba
    (lambda algebra, target, pairs: algebra is target,
     r"coordinate 4_dmba\[0\] is the image of no kept coordinate"),
], ids=["pair_generates_a_proper_subalgebra", "dropped_coordinate_without_preimage"])
def test_free_algebra_raises_when_a_proof_obligation_fails(monkeypatch, tamper, message):
    module = importlib.import_module("agkit.variety")  # agkit.variety names the function
    extends = module._extend

    def tampered(algebra, target, pairs):
        pairs = list(pairs)
        return extends(algebra, target, pairs) if tamper(algebra, target, pairs) else None

    monkeypatch.setattr(module, "_extend", tampered)
    with pytest.raises(AgkitError, match=message):
        free_algebra(variety("DMBA"), 1)


def test_lemma_registry_shape():
    records = lemma_registry()
    assert len(records) == 25
    assert len({r.id for r in records}) == 25
    by_variety = {}
    for record in records:
        by_variety.setdefault(record.variety_name, []).append(record.id)
        assert record.variety_name in VARIETY_NAMES
    assert "T3.4" in by_variety["G"]
    assert "T3.22" in by_variety["AG"]


def test_lemma_suite_all_pass():
    results = [(record, quasi_identity_holds(variety(record.variety_name), record.sentence))
               for record in lemma_registry()]
    assert all(verdict.holds for _, verdict in results), [
        (record.id, verdict.countermodel) for record, verdict in results if not verdict.holds]
    assert len(results) == 25


def test_lemma_suite_variety_slice():
    v = variety("V_KLST_DMBA")
    results = [(record, quasi_identity_holds(v, record.sentence))
               for record in lemma_registry() if record.variety_name == v.name]
    assert {record.variety_name for record, _ in results} == {"V_KLST_DMBA"}
    assert {record.id for record, _ in results} == {"L3.13", "L3.14", "EqnT", "T3.17"}
    assert all(verdict.holds for _, verdict in results)


def test_lemma_l318_also_boolean_without_premises():
    # dropping the ambient premises leaves a Stone-style identity valid in BA
    sentence = parse_sentence("(x /\\ x'*) \\/ (x /\\ x'*)* = 1")
    assert quasi_identity_holds(variety("BA"), sentence).holds
