from __future__ import annotations

import pytest

from agkit import (SYSTEM_NAMES, NotFoundError, axiom_system, builtin,
                   holds_in, parse_sentence, satisfies_axiom_system)

# which builtin satisfies which named system
EXPECTED = {
    "2": {name: True for name in SYSTEM_NAMES},
    "3_dblst": {"P_ALGEBRA": True, "STONE": True, "DUAL_STONE": True,
                "DE_MORGAN": False, "KLEENE": False, "DQD": True,
                "RDBLST": True, "RKLST": False, "GAUTAMA": True,
                "ALMOST_GAUTAMA": True},
    "3_klst": {"P_ALGEBRA": True, "STONE": True, "DUAL_STONE": False,
               "DE_MORGAN": True, "KLEENE": True, "DQD": True,
               "RDBLST": False, "RKLST": True, "GAUTAMA": True,
               "ALMOST_GAUTAMA": True},
    "4_dmba": {"P_ALGEBRA": True, "STONE": True, "DUAL_STONE": False,
               "DE_MORGAN": True, "KLEENE": False, "DQD": True,
               "RDBLST": False, "RKLST": False, "GAUTAMA": False,
               "ALMOST_GAUTAMA": True},
}


@pytest.mark.parametrize("algebra_name", sorted(EXPECTED))
def test_axiom_grid(algebra_name):
    algebra = builtin(algebra_name)
    for system, expected in EXPECTED[algebra_name].items():
        report = satisfies_axiom_system(algebra, system)
        assert report.ok == expected, (algebra_name, system, report.failures())


def test_every_builtin_is_almost_gautama(builtins):
    for algebra in builtins.values():
        assert satisfies_axiom_system(algebra, "ALMOST_GAUTAMA").ok


def test_reports_carry_witnesses(builtins):
    report = satisfies_axiom_system(builtins["4_dmba"], "GAUTAMA")
    failures = report.failures()
    assert [f.label for f in failures] == ["sr"]
    # the star-regular identity fails at both middle elements; least is a
    assert failures[0].verdict.witness == {"x": 1}


def test_rdblst_checks_both_regularity_forms(builtins):
    report = satisfies_axiom_system(builtins["3_dblst"], "RDBLST")
    assert report.ok
    labels = {label for label, _ in axiom_system("RDBLST").sentences}
    assert {"r", "r1"} <= labels


def test_pseudocomplement_axiom_interchange(builtins):
    # x /\ x* = 0 can replace the x* /\ x** = 0 clause: both hold on every builtin
    alternative = parse_sentence("x /\\ x* = 0")
    original = parse_sentence("x* /\\ x** = 0")
    for algebra in builtins.values():
        assert holds_in(algebra, original).holds
        assert holds_in(algebra, alternative).holds


def test_weak_star_regularity_separates_gautama(builtins):
    dmba = builtins["4_dmba"]
    assert holds_in(dmba, parse_sentence("x*'' = x*")).holds
    assert not holds_in(dmba, parse_sentence("x*' = x**")).holds


def test_unknown_system():
    with pytest.raises(NotFoundError):
        axiom_system("BOOLEAN")
