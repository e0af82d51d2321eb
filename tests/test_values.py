"""The value types against twins that dataclasses builds: agkit's base class
errors._Value must give what @dataclass(frozen=True) gives in ==, hash, repr,
__match_args__ and assignment."""

from __future__ import annotations

import dataclasses
import itertools
import weakref

import pytest
from hypothesis import given, strategies as st

import agkit
from agkit.algebra import FiniteAlgebra
from agkit.errors import _Value
from agkit.report import Record, Report
from agkit.terms import Const, Join, Meet, Quote, Star, Var
from tests.conftest import forget_facts

VALUE_TYPES = _Value.__subclasses__()
SAMPLE = 24  # instances per type compared pairwise

# FiniteAlgebra defines its own == and hash, which leave out `validate`.
TWINS = {cls: dataclasses.make_dataclass(
    cls.__name__,
    [(name, object, dataclasses.field(compare=(cls, name) != (FiniteAlgebra, "validate")))
     for name in cls.__match_args__],
    frozen=True) for cls in VALUE_TYPES}

terms = st.recursive(
    st.builds(Var, st.sampled_from("xyz")) | st.builds(Const, st.sampled_from((0, 1))),
    lambda inner: (st.builds(Join, inner, inner) | st.builds(Meet, inner, inner)
                   | st.builds(Star, inner) | st.builds(Quote, inner)),
    max_leaves=6)


def twin(value):
    """value with every value object in it, however deep, rebuilt as its twin.
    No field holds a set of value objects, and a rebuilt set may list its
    elements in another order, so sets are kept as they are."""
    if isinstance(value, _Value):
        return TWINS[type(value)](*(twin(getattr(value, name)) for name in value.__match_args__))
    if isinstance(value, (tuple, list)):
        return type(value)(map(twin, value))
    if isinstance(value, dict):
        return {twin(key): twin(item) for key, item in value.items()}
    return value


def outcome(function, *args):
    """function(*args), or the kind of error it raises."""
    try:
        return function(*args)
    except TypeError:
        return TypeError
    except AttributeError:  # for a twin, dataclasses.FrozenInstanceError
        return AttributeError


def reassign(value) -> None:
    name = value.__match_args__[0]
    setattr(value, name, getattr(value, name))


def assert_twin_semantics(values) -> None:
    twins = [twin(v) for v in values]
    for value, other in zip(values, twins):
        assert repr(value) == repr(other)
        assert outcome(hash, value) == outcome(hash, other), repr(value)
        assert outcome(reassign, value) == outcome(reassign, other), repr(value)
    for (a, ta), (b, tb) in itertools.product(zip(values, twins), repeat=2):
        assert (a == b) == (ta == tb) and (a != b) == (ta != tb), (a, b)


@pytest.fixture(scope="module")
def made() -> dict[type, list]:
    """The value objects that one cold verify_paper() run constructs, plus two
    free algebras, a variety verdict, a report, the builtins' congruence
    lattices, the lemmas parsed anew (the shipped sentences are parsed once
    per process), the eight varieties and the axiom systems, which are built
    at import."""
    made = {cls: [] for cls in VALUE_TYPES}

    def recording(init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made[type(self)].append(self)
        return __init__

    with pytest.MonkeyPatch.context() as patch:
        for cls in VALUE_TYPES:
            patch.setattr(cls, "__init__", recording(cls.__init__))
        forget_facts()
        agkit.verify_paper()
        agkit.free_algebra(agkit.variety("BA"), 1)
        agkit.free_algebra(agkit.variety("G"), 1)
        agkit.quasi_identity_holds(agkit.variety("G"), agkit.parse_sentence("x = x*"))
        Report(["free"], agkit.__version__)
        for name in agkit.BUILTIN_NAMES:  # verify_paper lists no Con(A)
            agkit.congruence_lattice(agkit.builtin(name))
        for lemma in agkit.lemma_registry():
            agkit.parse_sentence(agkit.format_sentence(lemma.sentence))
    made[agkit.VarietyDescriptor].extend(agkit.all_varieties())
    made[agkit.AxiomSystem].extend(map(agkit.axiom_system, agkit.SYSTEM_NAMES))
    return made


def test_every_value_type_is_covered(made):
    assert len(VALUE_TYPES) == 28
    assert [cls.__name__ for cls, values in made.items() if len(values) < 2] == []


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_type_matches_its_dataclass_twin(made, cls):
    assert cls.__match_args__ == TWINS[cls].__match_args__
    values = made[cls]
    assert_twin_semantics(values[:SAMPLE // 2] + values[-SAMPLE // 2:])
    assert all(weakref.ref(value)() is value for value in values[:SAMPLE])


@given(terms, terms)
def test_terms_match_their_dataclass_twins(left, right):
    assert_twin_semantics([left, right, Join(left, right), Meet(left, right),
                           Join(left, right), Star(left)])
    assert Join(left, right) != Meet(left, right)
    assert twin(Join(left, right)) != twin(Meet(left, right))


def test_list_and_dict_defaults_are_fresh_per_instance():
    first, second = Record("a", "b", True), Record("a", "b", True)
    first.detail["key"] = 1
    assert second.detail == {} and first.detail is not second.detail
    one, two = Report(["x"], "1"), Report(["x"], "1")
    one.add(first)
    assert two.records == [] and one.records is not two.records


def test_reports_are_truthy_iff_they_pass():
    """`if report:` reads the verdict: VarietyVerdict by holds, ScReport by
    sc and AxiomReport by ok, each seen both ways.  Without __bool__ every
    instance would be truthy."""
    from agkit import (builtin, check_sc, direct_product, parse_sentence,
                       quasi_identity_holds, satisfies_axiom_system, variety)
    involution = parse_sentence("x'' = x")
    two = builtin("2")
    reports = [
        (quasi_identity_holds(variety("BA"), involution), "holds", True),
        (quasi_identity_holds(variety("AG"), involution), "holds", False),
        (check_sc(two), "sc", True),
        (check_sc(direct_product([two, two])), "sc", False),
        (satisfies_axiom_system(builtin("4_dmba"), "ALMOST_GAUTAMA"), "ok", True),
        (satisfies_axiom_system(builtin("4_dmba"), "KLEENE"), "ok", False),
    ]
    for report, field, expected in reports:
        assert getattr(report, field) is expected, report
        assert bool(report) is expected, report
