from __future__ import annotations

import gc
import itertools
import math
import weakref

import pytest
from hypothesis import given, settings

import agkit.algebra
import agkit.morphisms
from agkit import (BUILTIN_NAMES, Amalgam, FiniteAlgebra, Obstruction, applications,
                   builtin, classify_ap, decide_amalgamation, diagram, direct_product,
                   dump_algebra, enumerate_embeddings, generated_subvariety, lattice_reduct,
                   load_algebra, variety, NotFoundError, NotInVarietyError, all_varieties)
from agkit.amalgamation import Diagram, brute_force_verify_obstruction, theorem_diagrams
from agkit.morphisms import Homomorphism, identity_hom
from tests.conftest import (brute_force_verify_amalgam, cep_spot_checks, dual_homs, forget_facts,
                            hereditarily_si, kept_facts, log_calls, refute_amal_base,
                            renumbered_products, replace)

AP_EXPECTED = {
    "BA": True, "RDBLST": True, "RKLST": True, "DMBA": True,
    "G": False, "V_DBLST_DMBA": False, "V_KLST_DMBA": False, "AG": False,
}


def _decide(variety_name, base, left, right):
    d = diagram(builtin(base), builtin(left), builtin(right))
    return d, decide_amalgamation(variety(variety_name), d)


def test_mixed_chain_diagram_is_obstructed_in_g():
    d, result = _decide("G", "2", "3_dblst", "3_klst")
    assert isinstance(result, Obstruction)
    assert result.side == "left" and result.pair == (0, 1)  # cannot separate 0 from a
    # census: no SI admits a compatible pair at all
    assert all(pairs == 0 for (_, _, pairs) in result.hom_census.values())
    assert brute_force_verify_obstruction(variety("G"), d, result)


def test_double_stone_square_amalgamates():
    d, result = _decide("RDBLST", "2", "3_dblst", "3_dblst")
    assert isinstance(result, Amalgam)
    # the identity pair covers everything: one factor suffices
    ((h, k, s),) = result.pairs
    assert s.name == "3_dblst" and len(set(h)) == len(h) and len(set(k)) == len(k)
    assert all(h[d.f.mapping[x]] == k[d.g.mapping[x]] for x in d.base.elements())


def test_identity_diagram_is_degenerate_single_cover(builtins):
    for name, algebra in builtins.items():
        d = Diagram(algebra, algebra, algebra,
                    identity_hom(algebra), identity_hom(algebra))
        result = decide_amalgamation(variety("AG"), d)
        assert isinstance(result, Amalgam)
        ((_, _, s),) = result.pairs
        assert s.size == algebra.size


def test_theorem_diagram_results():
    outcomes = {key: _decide(*spec)[1] for key, spec in theorem_diagrams().items()}
    assert set(outcomes) == {"3.4", "3.11", "3.17", "3.22a", "3.22b"}
    for key, result in outcomes.items():
        assert isinstance(result, Obstruction), key
    # each independently re-verified by exhaustive map enumeration
    for key, (vname, base, left, right) in theorem_diagrams().items():
        d = diagram(builtin(base), builtin(left), builtin(right))
        assert brute_force_verify_obstruction(variety(vname), d, outcomes[key]), key


@pytest.mark.parametrize("first", ["3_klst", "2"])
def test_right_side_obstruction_and_its_mirror(first):
    """<2; 3_klst, F x 4_dmba> in V_KLST_DMBA, F = 3_klst or 2: the one hom
    of F x 4_dmba into 3_klst goes through F, so it separates 3_klst but not
    (0, 0) from (0, a); 3_klst has no hom into 2 or 4_dmba."""
    v, klst = variety("V_KLST_DMBA"), builtin("3_klst")
    product = direct_product([builtin(first), builtin("4_dmba")])
    d = diagram(builtin("2"), klst, product)
    right = decide_amalgamation(v, d)
    left = decide_amalgamation(v, diagram(builtin("2"), product, klst))
    assert (right.side, right.pair) == ("right", (0, 1))
    assert (left.side, left.pair) == ("left", (0, 1))
    assert right.hom_census["3_klst"] == left.hom_census["3_klst"] == (1, 1, 1)
    # (0, 0) and (a, 0), or (1, 0), differ in F: the oracle rejects the pair
    # as soon as it reaches 3_klst, before it scans the maps into 4_dmba
    assert not brute_force_verify_obstruction(v, d, Obstruction("right", (0, 4),
                                                                right.hom_census))


def test_oracle_confirms_both_sides_of_a_right_side_obstruction():
    """The oracle compares the (h, k) pairs into 3_klst, which gets a hom from
    each side.  The 8-element right side keeps its scan into 4_dmba to 4^8
    maps (4^12 for 3_klst x 4_dmba takes seconds)."""
    v, klst = variety("V_KLST_DMBA"), builtin("3_klst")
    product = direct_product([builtin("2"), builtin("4_dmba")])
    for d in (diagram(builtin("2"), klst, product), diagram(builtin("2"), product, klst)):
        result = decide_amalgamation(v, d)
        assert brute_force_verify_obstruction(v, d, result)


def test_oracle_skips_the_pairs_that_do_not_commute():
    """<2 x 2; 2 x 3_klst, 2 x 4_dmba> in V_KLST_DMBA: the second projection
    of each side separates (0, 1) there, but commutes with no hom of the
    other side, so both sides' (0, 1) stay unseparated; (0, 3) and (0, 4)
    differ in the first factor, which a compatible pair separates."""
    v, two = variety("V_KLST_DMBA"), builtin("2")
    d = diagram(direct_product([two, two]), direct_product([two, builtin("3_klst")]),
                direct_product([two, builtin("4_dmba")]))
    result = decide_amalgamation(v, d)
    assert (result.side, result.pair) == ("left", (0, 1))
    assert result.hom_census == {"2": (1, 1, 1), "3_klst": (2, 1, 1), "4_dmba": (1, 3, 1)}
    for side, pair, confirmed in [("left", (0, 1), True), ("right", (0, 1), True),
                                  ("left", (0, 3), False), ("right", (0, 4), False)]:
        obstruction = Obstruction(side, pair, result.hom_census)
        assert brute_force_verify_obstruction(v, d, obstruction) is confirmed, (side, pair)


def test_obstruction_census_shapes():
    _, result = _decide("V_DBLST_DMBA", "2", "3_dblst", "4_dmba")
    assert isinstance(result, Obstruction)
    assert result.hom_census["3_dblst"] == (1, 0, 0)  # id exists, but nothing from 4_dmba
    assert result.hom_census["2"] == (0, 0, 0)
    assert result.hom_census["4_dmba"] == (0, 2, 0)


def test_classify_ap_reproduces_main_classification():
    for v in all_varieties():
        report = classify_ap(v)
        assert report.has_ap == AP_EXPECTED[v.name], v.name
        assert report.discriminator_variety


def test_discriminator_variety_agrees_with_spot_check_oracles():
    for v in all_varieties():
        report = classify_ap(v)
        assert report.discriminator_variety == hereditarily_si(v), v.name
        assert report.discriminator_variety == cep_spot_checks(v), v.name


def test_discriminator_variety_agrees_with_oracles_on_tampered_builtin(monkeypatch):
    # the tampered 3_dblst of test_tampered_builtin_flips_multiple_records
    tampered = dict(agkit.algebra.BUILTIN_SPECS["3_dblst"])
    tampered["quote"] = (2, 1, 0)
    monkeypatch.setitem(agkit.algebra.BUILTIN_SPECS, "3_dblst", tampered)
    decided = []
    for v in all_varieties():
        try:
            report = classify_ap(v)
        except NotInVarietyError:
            continue
        decided.append(v.name)
        assert report.discriminator_variety == hereditarily_si(v), v.name
        assert report.discriminator_variety == cep_spot_checks(v), v.name
    assert decided == ["BA", "RKLST", "DMBA", "G", "V_KLST_DMBA", "AG"]


def test_classify_ap_obstructions_are_the_known_diagrams():
    report = classify_ap(variety("G"))
    obstructed = {(d.base.name, d.left.name, d.right.name) for d, _ in report.obstructed()}
    assert obstructed == {("2", "3_dblst", "3_klst"), ("2", "3_klst", "3_dblst")}


def test_ap_is_joint_embedding_over_two():
    """Thm 3.24's split, read off the reports for these four generators: every
    obstruction is based at 2, and an SI base other than 2 embeds among the SI
    members only into itself, so its diagrams are <A; A, A> and amalgamate in
    A.  So V has AP iff its SI members embed jointly over 2, which holds iff V
    is the bottom or an atom of the subvariety lattice."""
    for v in all_varieties():
        report = classify_ap(v)
        assert {d.base.name for d, _ in report.obstructed()} <= {"2"}, v.name
        for base in v.si_algebras():
            if base.name != "2":
                sides = {(d.left.name, d.right.name) for d, _ in report.diagrams
                         if d.base.name == base.name}
                assert sides == {(base.name, base.name)}, (v.name, base.name)
        embedding_property = applications(report).embedding_property
        assert report.has_ap == embedding_property == (v.level <= 1), v.name


def test_swapping_the_sides_keeps_the_verdict():
    """<A, f, B, g, C> is amalgamable iff <A, g, C, f, B> is; si_diagrams
    lists both orders."""
    for v in all_varieties():
        decided = dict(classify_ap(v).diagrams)
        for d, result in decided.items():
            swapped = Diagram(d.base, d.right, d.left, d.g, d.f)
            assert decided[swapped].amalgamable == result.amalgamable, (v.name, d)


@settings(max_examples=8, deadline=None)
@given(renumbered_products(min_size=6, max_size=36), renumbered_products(min_size=4, max_size=12))
def test_swapping_renumbered_product_sides_keeps_the_verdict(left, right):
    v, two = variety("AG"), builtin("2")
    d = diagram(two, left, right)
    swapped = Diagram(two, right, left, d.g, d.f)
    assert decide_amalgamation(v, swapped).amalgamable == decide_amalgamation(v, d).amalgamable


def test_amalgam_certificates_reverify_in_ap_varieties():
    for name in ("BA", "RDBLST", "RKLST", "DMBA"):
        v = variety(name)
        for _, result in classify_ap(v).diagrams:
            assert isinstance(result, Amalgam)
            product = direct_product([s for _, _, s in result.pairs])
            assert generated_subvariety(product).si_names <= v.si_names


def test_every_amalgam_certificate_reverifies_by_table_scans():
    amalgams = []
    for v in all_varieties():
        for d, result in classify_ap(v).diagrams:
            if isinstance(result, Amalgam):
                assert brute_force_verify_amalgam(v, d.f.target, d.g.target, d.f.mapping,
                                                  d.g.mapping, result), (v.name, d)
                amalgams.append((v, d, result))
    # 68 of the 80 SI diagrams; the other 12 are obstructed in G, ..., AG
    assert len(amalgams) == 68
    # simple sources make every hom injective, so one pair covers and its SI
    # member is the amalgam
    for v, d, result in amalgams:
        ((_, _, s),) = result.pairs
        assert builtin(s.name) == s, (v.name, d)

    # the oracle rejects a tampered certificate
    v, d, result = next((v, d, r) for v, d, r in amalgams if d.f.target.size > 2)
    left, right, f, g = d.f.target, d.g.target, d.f.mapping, d.g.mapping
    ((h, k, s),) = result.pairs
    assert not brute_force_verify_amalgam(v, left, right, f, g,
                                          replace(result, pairs=((tuple(reversed(h)), k, s),)))
    assert not brute_force_verify_amalgam(v, left, right, f, g,
                                          replace(result, pairs=()))
    assert not brute_force_verify_amalgam(variety("BA"), left, right, f, g, result)
    other = next(builtin(name) for name in BUILTIN_NAMES
                 if name != s.name and builtin(name).size == s.size)
    # the maps unchanged, and another SI member of the same size as their factor
    assert not brute_force_verify_amalgam(v, left, right, f, g,
                                          replace(result, pairs=((h, k, other),)))
    # of the two pairs that <2; 2 x 3_dblst, 3_dblst> needs, the one left
    # maps (0, 0) and (0, a) of the product side together
    v, product = variety("RDBLST"), direct_product([builtin("2"), builtin("3_dblst")])
    d = diagram(builtin("2"), product, builtin("3_dblst"))
    result = decide_amalgamation(v, d)
    args = (v, product, d.right, d.f.mapping, d.g.mapping)
    assert len(result.pairs) == 2 and brute_force_verify_amalgam(*args, result)
    assert not brute_force_verify_amalgam(*args, replace(result, pairs=result.pairs[1:]))


def test_trivial_diagram_amalgamates_in_its_left_side():
    """No SI member receives a hom from a trivial side, so the certificate's
    one pair maps both sides onto the left one."""
    one = FiniteAlgebra(name="1", size=1, labels=("0",), join=((0,),), meet=((0,),),
                        star=(0,), quote=(0,), zero=0, one=0)
    d = Diagram(one, one, one, identity_hom(one), identity_hom(one))
    result = decide_amalgamation(variety("BA"), d)
    assert isinstance(result, Amalgam)
    assert result.pairs == (((0,), (0,), one),)
    assert result.as_dict() == {"result": "amalgam", "factors": ["1"], "f1": [[0]], "g1": [[0]]}


def test_decide_amalgamation_builds_no_product(monkeypatch):
    """<2; 4_dmba^3, 4_dmba^3> in DMBA needs five of the 36 compatible pairs
    into 4_dmba, an amalgam of 4^5 elements: no direct_product is called."""
    power = direct_product([builtin("4_dmba")] * 3)
    d = diagram(builtin("2"), power, power)
    products = []
    log_calls(monkeypatch, agkit.algebra, "direct_product", products)
    result = decide_amalgamation(variety("DMBA"), d)
    assert products == []
    factors = [s for _, _, s in result.pairs]
    assert factors == [builtin("4_dmba")] * 5
    assert math.prod(f.size for f in factors) == 1024


def test_hom_sets_of_a_product_source_are_kept_and_go_with_it(monkeypatch):
    """A member outside the SI generators keeps its hom sets, one per SI
    generator, as its SI right side does: a second decision enumerates
    none.  A kept hom set is map arrays, which refer to no algebra, so the
    source is collected once nothing else refers to it, even while an equal
    copy lives and keeps the facts they share."""
    v, dblst = variety("RDBLST"), builtin("3_dblst")
    left = direct_product([builtin("2"), dblst])
    document = dump_algebra(left)
    d = diagram(builtin("2"), left, dblst)
    forget_facts()
    result = decide_amalgamation(v, d)
    for si in v.si_algebras():
        assert list(kept_facts(left)[("homs", si)]) == dual_homs(left, si)
        assert ("homs", si) in kept_facts(d.right)
    assert brute_force_verify_amalgam(v, left, d.right, d.f.mapping, d.g.mapping, result)
    enumerated = []
    log_calls(monkeypatch, agkit.morphisms, "enumerate_homs", enumerated)
    assert decide_amalgamation(v, d) == result
    assert enumerated == []
    monkeypatch.undo()
    alive = weakref.ref(left)
    del left, d, result
    gc.collect()
    assert alive() is None
    first, second = load_algebra(document), load_algebra(document)
    assert decide_amalgamation(v, diagram(builtin("2"), first, dblst)).amalgamable
    assert kept_facts(second)[("homs", dblst)] == tuple(dual_homs(second, dblst))
    alive = weakref.ref(first)
    del first
    gc.collect()
    assert alive() is None and ("homs", dblst) in kept_facts(second)


def test_monotone_in_the_variety():
    # amalgamable in v and v <= w implies amalgamable in w
    d = diagram(builtin("2"), builtin("3_dblst"), builtin("3_dblst"))
    for v in all_varieties():
        if not variety("RDBLST").si_names <= v.si_names:
            continue
        assert decide_amalgamation(v, d).amalgamable
    # the G obstruction survives into AG
    d = diagram(builtin("2"), builtin("3_dblst"), builtin("3_klst"))
    assert not decide_amalgamation(variety("G"), d).amalgamable
    assert not decide_amalgamation(variety("AG"), d).amalgamable


def test_decide_rejects_nonmembers():
    d = diagram(builtin("2"), builtin("4_dmba"), builtin("4_dmba"))
    with pytest.raises(NotInVarietyError) as err:
        decide_amalgamation(variety("G"), d)
    assert err.value.variety_name == "G"
    assert err.value.witness  # carries a witness assignment for the failed base


def test_applications_ap_varieties():
    for name in ("BA", "RDBLST", "RKLST", "DMBA"):
        report = applications(classify_ap(variety(name)))
        assert report.tp and report.ei
        assert report.embedding_property
        assert report.model_companion
        assert report.two_in_amal
        assert all(report.jep_on_si_pairs.values())


def test_applications_non_ap_varieties():
    for name in ("G", "V_DBLST_DMBA", "V_KLST_DMBA", "AG"):
        report = applications(classify_ap(variety(name)))
        assert not (report.tp or report.ei)
        assert not report.embedding_property
        assert not report.model_companion
        assert not report.two_in_amal


def test_joint_embedding_failure_pair_in_g():
    report = applications(classify_ap(variety("G")))
    failing = [pair for pair, ok in report.jep_on_si_pairs.items() if not ok]
    assert failing == [("3_dblst", "3_klst")]


def test_applications_agree_with_deciding_each_base_two_diagram():
    # oracle: the derivation applications() ran itself before it took the report
    two = builtin("2")
    for v in all_varieties():
        report = applications(classify_ap(v))
        pairs = list(itertools.combinations_with_replacement(sorted(v.si_names), 2))
        assert list(report.jep_on_si_pairs) == pairs
        for pair, embeddable in report.jep_on_si_pairs.items():
            d = diagram(two, builtin(pair[0]), builtin(pair[1]))
            assert embeddable == decide_amalgamation(v, d).amalgamable, (v.name, pair)
        assert report.two_in_amal == (refute_amal_base(v, two) is None), v.name


def test_refute_amal_base():
    hit = refute_amal_base(variety("G"), builtin("2"))
    assert hit is not None
    d, obstruction = hit
    assert (d.left.name, d.right.name) == ("3_dblst", "3_klst")
    assert brute_force_verify_obstruction(variety("G"), d, obstruction)

    assert refute_amal_base(variety("BA"), builtin("2")) is None
    assert refute_amal_base(variety("DMBA"), builtin("2")) is None

    hit = refute_amal_base(variety("AG"), builtin("2"))
    assert hit is not None

    with pytest.raises(NotInVarietyError):
        refute_amal_base(variety("BA"), builtin("3_klst"))


def test_diagram_validation(builtins):
    two, klst, dmba = builtins["2"], builtins["3_klst"], builtins["4_dmba"]
    embed = Homomorphism(two, dmba, enumerate_embeddings(two, dmba)[0])
    with pytest.raises(ValueError, match="g must map"):
        Diagram(two, dmba, dmba, embed, identity_hom(dmba))  # g has wrong source
    with pytest.raises(ValueError, match="f must map"):
        Diagram(two, dmba, dmba, identity_hom(dmba), embed)  # f has wrong source
    with pytest.raises(ValueError, match="f must map"):
        Diagram(two, klst, dmba, embed, embed)  # f has wrong target
    square, line = lattice_reduct(dmba), lattice_reduct(two)
    onto = Homomorphism(square, line, (0, 0, 1, 1))
    with pytest.raises(ValueError, match="must be embeddings"):
        Diagram(square, line, line, onto, onto)
    with pytest.raises(NotFoundError):
        diagram(builtins["3_dblst"], builtins["3_klst"], builtins["3_klst"])


def test_certificate_serialization():
    _, result = _decide("RDBLST", "2", "3_dblst", "3_dblst")
    payload = result.as_dict()
    assert payload["result"] == "amalgam"
    assert payload["factors"] == ["3_dblst"]
    assert payload["f1"] == [[0, 1, 2]]
    _, result = _decide("G", "2", "3_dblst", "3_klst")
    payload = result.as_dict()
    assert payload["result"] == "obstruction"
    assert payload["side"] == "left" and payload["pair"] == [0, 1]
