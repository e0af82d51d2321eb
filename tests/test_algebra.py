from __future__ import annotations

import json

import pytest

from agkit import (AlgebraFormatError, CapExceededError, LatticeAxiomError,
                   NotFoundError, ParseError, builtin, direct_product,
                   dump_algebra, enumerate_subalgebras, lattice_reduct,
                   load_algebra, subalgebra, subuniverse_closure)
from tests.conftest import brute_force_subuniverses

GOLDEN_3_KLST = ('{"name":"3_klst","size":3,"labels":["0","a","1"],'
                 '"join":[[0,1,2],[1,1,2],[2,2,2]],"meet":[[0,0,0],[0,1,1],[0,1,2]],'
                 '"star":[2,0,0],"quote":[2,1,0],"zero":0,"one":2}')


def test_builtin_tables(builtins):
    dblst = builtins["3_dblst"]
    assert dblst.star == (2, 0, 0) and dblst.quote == (2, 2, 0)  # a* = 0, a' = 1
    klst = builtins["3_klst"]
    assert klst.quote == (2, 1, 0)  # a' = a
    two = builtins["2"]
    assert two.star == two.quote  # complement serves both slots
    dmba = builtins["4_dmba"]
    assert dmba.star[1] == 2 and dmba.star[2] == 1  # a* = b, b* = a
    assert dmba.quote[1] == 1 and dmba.quote[2] == 2


def test_builtin_unknown_name():
    with pytest.raises(NotFoundError):
        builtin("3_kldst")


def test_canonical_dump_is_bit_exact(builtins):
    assert dump_algebra(builtins["3_klst"]) == GOLDEN_3_KLST


def test_load_dump_round_trip(builtins):
    for algebra in builtins.values():
        assert load_algebra(dump_algebra(algebra)) == algebra


def test_load_reports_json_position():
    with pytest.raises(ParseError) as err:
        load_algebra('{"name": "x", ')
    assert err.value.position > 0


def test_load_rejects_bad_keys():
    with pytest.raises(AlgebraFormatError):
        load_algebra('{"name": "x"}')
    with pytest.raises(AlgebraFormatError):
        load_algebra(GOLDEN_3_KLST[:-1] + ',"extra":1}')


def test_load_rejects_out_of_range_table(builtins):
    document = json.loads(dump_algebra(builtins["2"]))
    document["star"] = [5, 0]
    with pytest.raises(AlgebraFormatError):
        load_algebra(json.dumps(document))


@pytest.mark.parametrize("key, value", [
    ("zero", False),  # a JSON boolean is not an index
    ("size", 2.7),  # nor is a fraction, which int() would truncate to 2
    ("labels", [["0"], ["1"]]),  # str() would turn these into "['0']", "['1']"
], ids=["boolean_index", "fractional_size", "list_labels"])
def test_load_rejects_values_it_would_coerce(builtins, key, value):
    document = json.loads(dump_algebra(builtins["2"]))
    document[key] = value
    with pytest.raises(AlgebraFormatError):
        load_algebra(json.dumps(document))


def test_non_commutative_join_names_axiom_and_witness(builtins):
    document = json.loads(dump_algebra(builtins["2"]))
    document["join"] = [[0, 1], [0, 1]]
    with pytest.raises(LatticeAxiomError) as err:
        load_algebra(json.dumps(document))
    assert err.value.axiom == "join commutativity"
    assert err.value.witness == (0, 1) or err.value.witness == (1, 0)


def test_chain4_with_reversal_star_loads_as_lattice():
    # star is not a pseudocomplement here; construction only checks the lattice
    document = {
        "name": "chain4", "size": 4, "labels": ["0", "a", "b", "1"],
        "join": [[max(x, y) for y in range(4)] for x in range(4)],
        "meet": [[min(x, y) for y in range(4)] for x in range(4)],
        "star": [3, 2, 1, 0], "quote": [3, 2, 1, 0], "zero": 0, "one": 3,
    }
    algebra = load_algebra(json.dumps(document))
    assert algebra.size == 4
    from agkit import satisfies_axiom_system
    report = satisfies_axiom_system(algebra, "P_ALGEBRA")
    assert not report.ok
    assert {check.label for check in report.failures()} <= {"p3", "p4", "p5", "p6"}


def test_direct_product_shape(builtins):
    square = direct_product([builtins["2"], builtins["2"]])
    assert square.size == 4
    from agkit import satisfies_axiom_system
    assert satisfies_axiom_system(square, "ALMOST_GAUTAMA").ok
    # componentwise, with tuple labels
    assert square.labels == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    square.verify_lattice_axioms()


def test_product_of_mixed_chains_satisfies_regularity(builtins):
    from agkit import holds_in, parse_sentence, satisfies_axiom_system
    product = direct_product([builtins["3_dblst"], builtins["3_klst"]])
    assert product.size == 9
    assert holds_in(product, parse_sentence("x /\\ x'*' <= y \\/ y*")).holds
    stone = satisfies_axiom_system(product, "STONE")
    assert stone.ok


def test_unary_product_isomorphic_to_factor(builtins):
    from agkit import is_isomorphic
    for algebra in builtins.values():
        assert is_isomorphic(direct_product([algebra]), algebra) is not None


def test_product_cap():
    with pytest.raises(CapExceededError):
        direct_product([builtin("4_dmba")] * 3, max_elements=10)


def test_closure_examples(builtins):
    dmba = builtins["4_dmba"]
    assert subuniverse_closure(dmba, set()) == {0, 3}
    assert subuniverse_closure(dmba, {1}) == {0, 1, 2, 3}  # a* = b enters
    dblst = builtins["3_dblst"]
    assert subuniverse_closure(dblst, {1}) == {0, 1, 2}


def test_closure_is_idempotent_and_monotone(builtins):
    for algebra in builtins.values():
        for seed in ({0}, {algebra.size - 1}, set(), {1 % algebra.size}):
            closed = subuniverse_closure(algebra, seed)
            assert subuniverse_closure(algebra, closed) == closed
            assert {algebra.zero, algebra.one} <= closed
            bigger = subuniverse_closure(algebra, closed | {algebra.size - 1})
            assert closed <= bigger


def test_enumerate_subalgebras_examples(builtins):
    assert enumerate_subalgebras(builtins["2"]) == [(0, 1)]
    assert enumerate_subalgebras(builtins["4_dmba"]) == [(0, 3), (0, 1, 2, 3)]
    assert enumerate_subalgebras(builtins["3_klst"]) == [(0, 2), (0, 1, 2)]
    assert enumerate_subalgebras(builtins["3_dblst"]) == [(0, 2), (0, 1, 2)]


def test_enumerate_subalgebras_matches_subset_scan(builtins):
    for algebra in builtins.values():
        bfs = {frozenset(s) for s in enumerate_subalgebras(algebra)}
        assert bfs == brute_force_subuniverses(algebra)
    product = direct_product([builtin("2"), builtin("3_klst")])
    assert {frozenset(s) for s in enumerate_subalgebras(product)} == \
        brute_force_subuniverses(product)


def test_enumerate_subalgebras_cap():
    big = direct_product([builtin("3_klst")] * 4)  # 81 elements
    with pytest.raises(CapExceededError):
        enumerate_subalgebras(big)


def test_subalgebra_restriction(builtins):
    dmba = builtins["4_dmba"]
    two = subalgebra(dmba, (0, 3))
    assert two.size == 2 and two.labels == ("0", "1")
    from agkit import is_isomorphic
    assert is_isomorphic(two, builtins["2"]) is not None
    with pytest.raises(ValueError):
        subalgebra(dmba, (0, 1, 3))  # not closed: a* = b missing


def test_lattice_reduct_generates_nothing(builtins):
    reduct = lattice_reduct(builtins["4_dmba"])
    assert subuniverse_closure(reduct, {1}) == {0, 1, 3}  # no star to add b
