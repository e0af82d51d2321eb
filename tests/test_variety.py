from __future__ import annotations

import itertools

import pytest

from agkit import (NotFoundError, NotInVarietyError, builtin, direct_product,
                   discriminator_is_term_op, free_algebra, generated_subvariety,
                   lattice_reduct, lemma_registry, lemma_suite, parse_sentence,
                   quasi_identity_holds, variety, verify_bases, all_varieties,
                   VARIETY_NAMES)
from agkit.variety import identity_holds_via_free
from tests.conftest import si_quotients_of_subalgebras

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
        assert bottom.leq(v) and v.leq(top)


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
    report = verify_bases()
    assert report.ok
    assert report.mismatches() == []
    true_cells = sum(v for row in report.satisfied.values() for v in row.values())
    # 2 lies in all eight varieties, each other generator in its four
    assert true_cells == 20
    assert report.satisfied["3_klst"]["RDBLST"] is False  # x \/ x' = 1 fails at a
    assert report.satisfied["4_dmba"]["V_DBLST_DMBA"] is True


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


def test_generated_subvariety_rejects_outsiders():
    import json
    from agkit import load_algebra
    chain4 = load_algebra(json.dumps({
        "name": "chain4", "size": 4, "labels": ["0", "a", "b", "1"],
        "join": [[max(x, y) for y in range(4)] for x in range(4)],
        "meet": [[min(x, y) for y in range(4)] for x in range(4)],
        "star": [3, 2, 1, 0], "quote": [3, 2, 1, 0], "zero": 0, "one": 3}))
    with pytest.raises(NotInVarietyError):
        generated_subvariety(chain4)


def test_discriminator_on_builtins_and_reducts(builtins):
    for algebra in builtins.values():
        assert discriminator_is_term_op(algebra)
        assert not discriminator_is_term_op(lattice_reduct(algebra))


def test_discriminator_on_several_algebras(builtins):
    # one term for all four builtins: AG is a discriminator variety
    assert discriminator_is_term_op(*builtins.values())
    # a lattice reduct fails on its own square, so no family containing it passes
    assert not discriminator_is_term_op(builtins["2"], lattice_reduct(builtins["3_klst"]))


def test_discriminator_cap(builtins):
    big = direct_product([builtins["3_klst"], builtins["3_klst"]])
    from agkit import CapExceededError
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


def test_free_algebra_cap():
    from agkit import CapExceededError
    with pytest.raises(CapExceededError):
        free_algebra(variety("AG"), 2, max_elements=10)


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
    report = lemma_suite()
    assert report.ok, [
        (r.record.id, r.verdict.countermodel) for r in report.mismatches()]
    assert len(report.results) == 25


def test_lemma_suite_variety_slice():
    report = lemma_suite(variety("V_KLST_DMBA"))
    assert {r.record.variety_name for r in report.results} == {"V_KLST_DMBA"}
    assert {r.record.id for r in report.results} == {"L3.13", "L3.14", "EqnT", "T3.17"}
    assert report.ok


def test_lemma_l318_also_boolean_without_premises():
    # dropping the ambient premises leaves a Stone-style identity valid in BA
    sentence = parse_sentence("(x /\\ x'*) \\/ (x /\\ x'*)* = 1")
    assert quasi_identity_holds(variety("BA"), sentence).holds
