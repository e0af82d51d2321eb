from __future__ import annotations

import functools
import gc
import itertools
import math
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

import agkit.algebra
import agkit.terms
from agkit import (BUILTIN_NAMES, CapExceededError, EvalError, ParseError, all_varieties,
                   builtin, direct_product, eval_term, format_sentence, format_term,
                   free_algebra, holds_in, lemma_registry, parse_sentence, parse_term,
                   subuniverse_closure, variety)
from agkit.algebra import BUILTIN_SPECS, FiniteAlgebra
from agkit.axioms import SYSTEMS
from agkit.caps import DEFAULT_CAPS
from agkit.terms import (MAX_TERM_DEPTH, Const, Join, Meet, Quote, Sentence, Star, Var,
                         term_variables)
from tests.conftest import (CountingTable, RecursiveDescentParser, chain_algebra,
                            distributive_algebras, forget_facts, kept_facts, log_calls,
                            match_loop_tokens, plain_holds_in, recursive_term_variables,
                            renumber, replace)


def test_parse_postfix_grouping():
    sentence = parse_sentence("x*' = x**")
    assert sentence.premises == ()
    assert sentence.conclusion == (Quote(Star(Var("x"))), Star(Star(Var("x"))))


def test_parse_precedence_and_associativity():
    # postfix > meet > join, both infixes left-associative
    term = parse_term("a \\/ b /\\ c* \\/ d")
    assert term == Join(Join(Var("a"), Meet(Var("b"), Star(Var("c")))), Var("d"))
    assert parse_term("x /\\ (y \\/ z)") == Meet(Var("x"), Join(Var("y"), Var("z")))


def test_inequality_desugars_to_equation():
    sentence = parse_sentence("x /\\ x'*' <= y \\/ y*")
    lhs = Meet(Var("x"), Quote(Star(Quote(Var("x")))))
    rhs = Join(Var("y"), Star(Var("y")))
    assert sentence.conclusion == (Meet(lhs, rhs), lhs)


def test_parse_quasi_identity_with_premises():
    sentence = parse_sentence("a* = 0, a' = 1 => x' \\/ x'* = 1")
    assert len(sentence.premises) == 2
    assert sentence.premises[0] == (Star(Var("a")), Const(0))
    assert sentence.variables() == ("a", "x")


def test_parse_errors_carry_offset_and_expected():
    with pytest.raises(ParseError) as err:
        parse_sentence("x** = )")
    assert err.value.position == 6
    assert "'('" in err.value.expected

    with pytest.raises(ParseError) as err:
        parse_sentence("x \\/ = y")
    assert err.value.position == 5

    with pytest.raises(ParseError) as err:
        parse_sentence("x = y, y = z")  # premises without a conclusion
    assert err.value.expected == ("'=>'", "end of input")

    with pytest.raises(ParseError) as err:
        parse_sentence("x = ?")
    assert err.value.position == 4


@pytest.mark.parametrize("text", [
    "(" * 3000 + "x" + ")" * 3000,
    "x" + "*" * 5000,
    " \\/ ".join(["x"] * 5000),
], ids=["brackets", "postfix", "join_chain"])
def test_deeply_nested_terms_are_parse_errors(text):
    with pytest.raises(ParseError, match="nested deeper"):
        parse_term(text)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_sentence(text + " = x")


_TOKENS = ("x", "y", "z2", "0", "1", "*", "'", "\\/", "/\\", "=", "<=", "=>",
           "(", ")", ",", " ")


@st.composite
def _token_soup(draw):
    """Tokens of the sentence grammar in any order, with at most two stray
    characters mixed in."""
    pieces = draw(st.lists(st.sampled_from(_TOKENS), max_size=40))
    for stray in draw(st.lists(st.characters(), max_size=2)):
        pieces.insert(draw(st.integers(0, len(pieces))), stray)
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(_token_soup())
@example("(" * 100_000)
@example("x = " + "(" * 100_000)
def test_parse_sentence_raises_only_parse_errors(text):
    try:
        parse_sentence(text)
    except ParseError:
        pass


# Characters that start no token, or look like part of one: capitals, a lone
# half of an operator, digits past 1 and non-ASCII, plus whitespace that \s
# takes (a no-break space, a line separator).
_SCANNER_JUNK = (" ", "\t", "\n", "\xa0", "\u2028", "X", "Q", "/", "\\", "<", ">", "2", "9",
                 "\xe9", "⇒", "\x00", ";")


@st.composite
def _scanner_soup(draw):
    """Tokens of the sentence grammar, with up to four junk characters."""
    pieces = draw(st.lists(st.sampled_from(_TOKENS + ("a0", "=>", "<=")), max_size=30))
    for stray in draw(st.lists(st.one_of(st.sampled_from(_SCANNER_JUNK), st.characters()),
                               max_size=4)):
        pieces.insert(draw(st.integers(0, len(pieces))), stray)
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(_scanner_soup())
@example("x=>y<=z")
@example("x =< y")
@example("x<=>y")
@example("x \\/\\/ y /\\")
@example("a0b1 = 10 ")
@example("x = y\xa0=> z = z ")
def test_tokenize_matches_the_match_loop(text):
    """One findall gives the match loop's tokens, and _offset their
    offsets; or the same ParseError (message, position, expected)."""
    try:
        expected = match_loop_tokens(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            agkit.terms._tokenize(text)
        assert (got.value.reason, got.value.position, got.value.expected) == \
            (err.reason, err.position, err.expected)
        return
    tokens = agkit.terms._tokenize(text)
    assert tokens == [token for _, token, _ in expected]
    assert [agkit.terms._offset(text, i) for i in range(len(tokens))] == \
        [position for _, _, position in expected]


# parse_sentence on hostile text: the sentence it prints, or its ParseError's
# (message, position, expected), as the match-loop scanner gave them.
_ATOM = ("variable", "'0'", "'1'", "'('")
_RELATION = ("'='", "'<='")
_END = ("'=>'", "end of input")
PARSE_OUTCOMES = [
    ("", ("unexpected end of input", 0, _ATOM)),
    ("   ", ("unexpected end of input", 3, _ATOM)),
    ("x", ("unexpected end of input", 1, _RELATION)),
    ("x = y =>", ("unexpected end of input", 8, _ATOM)),
    ("x = y => z", ("unexpected end of input", 10, _RELATION)),
    ("x = = y", ("unexpected '='", 4, _ATOM)),
    ("x <= y => y = x", "x /\\ y = x => y = x"),
    ("x < y", ("unexpected character '<'", 2, ())),
    ("x > y", ("unexpected character '>'", 2, ())),
    ("x / y", ("unexpected character '/'", 2, ())),
    ("x \\ y", ("unexpected character '\\\\'", 2, ())),
    ("x \\/ y /\\", ("unexpected end of input", 9, _ATOM)),
    ("x \\/\\/ y = x", ("unexpected '\\\\/'", 4, _ATOM)),
    ("X = x", ("unexpected character 'X'", 0, ())),
    ("x = 2", ("unexpected character '2'", 4, ())),
    ("x1 = 10", ("unexpected '0'", 6, _END)),
    ("x = y,", ("unexpected end of input", 6, _ATOM)),
    (", x = y", ("unexpected ','", 0, _ATOM)),
    ("(x = y", ("unexpected '='", 3, ("')'",))),
    ("x = (y", ("unexpected end of input", 6, ("')'",))),
    ("x = y)", ("unexpected ')'", 5, _END)),
    ("x* = x'''", "x* = x'''"),
    ("\xe9 = x", ("unexpected character '\xe9'", 0, ())),
    ("x = y\xa0=> x = y", "x = y => x = y"),
    ("x = y\t\n=> z = z", "x = y => z = z"),
    ("x =\u2028y", "x = y"),
    ("x ⇒ y", ("unexpected character '⇒'", 2, ())),
    ("x = y => => x = y", ("unexpected '=>'", 9, _ATOM)),
    ("x=>y", ("unexpected '=>'", 1, _RELATION)),
    ("x<=>y", ("unexpected character '>'", 3, ())),
    ("x =< y", ("unexpected character '<'", 3, ())),
    ("x = y, y = z", ("unexpected end of input", 12, _END)),
    ("x \\/ y /\\ z' = 1 /\\ 0*", "x \\/ y /\\ z' = 1 /\\ 0*"),
    ("(" * 101 + "x" + ")" * 101 + " = x", ("term nested deeper than 100 levels", 100, ())),
    ("x" + "*" * 101 + " = x", ("term nested deeper than 100 levels", 101, ())),
    ("x = y \\", ("unexpected character '\\\\'", 6, ())),
    ("x = y =", ("unexpected '='", 6, _END)),
    ("x' <= y* , y = 1 => x = 0", "x' /\\ y* = x', y = 1 => x = 0"),
    ("a0b1 = b1a0 =>", ("unexpected end of input", 14, _ATOM)),
    ("x = y\x00", ("unexpected character '\\x00'", 5, ())),
    ("x == y", ("unexpected '='", 3, _ATOM)),
    ("x\\/y/\\z=x", "x \\/ y /\\ z = x"),
    ("x /\\ (y \\/ z) = )", ("unexpected ')'", 16, _ATOM)),
]


@pytest.mark.parametrize("text, outcome", PARSE_OUTCOMES)
def test_parse_outcomes_on_hostile_text(text, outcome):
    try:
        got = str(parse_sentence(text))
    except ParseError as err:
        got = (err.reason, err.position, err.expected)
    assert got == outcome


def test_terms_at_the_depth_limit_print_hash_and_evaluate(builtins):
    term = "x"
    for _ in range(MAX_TERM_DEPTH // 2):
        term = f"({term} \\/ y)"
    sentence = parse_sentence(term + " = " + "x" + "*" * MAX_TERM_DEPTH)
    assert parse_sentence(str(sentence)) == sentence
    assert hash(sentence) == hash(parse_sentence(str(sentence)))
    assert not holds_in(builtins["4_dmba"], sentence)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_term("x" + "*" * (MAX_TERM_DEPTH + 1))
    parse_term("(" * MAX_TERM_DEPTH + "x" + ")" * MAX_TERM_DEPTH)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_term("(" * (MAX_TERM_DEPTH + 1) + "x" + ")" * (MAX_TERM_DEPTH + 1))


terms = st.recursive(
    st.sampled_from([Var("x"), Var("y"), Var("a0"), Var("b12"), Const(0), Const(1)]),
    lambda sub: st.one_of(sub.map(Star), sub.map(Quote),
                          st.builds(Join, sub, sub), st.builds(Meet, sub, sub)),
    max_leaves=12)
equations = st.tuples(terms, terms)
sentences = st.builds(Sentence, st.lists(equations, max_size=3).map(tuple), equations)


@settings(max_examples=150, deadline=None)
@given(terms)
def test_term_print_parse_round_trip(term):
    assert parse_term(format_term(term)) == term


@settings(max_examples=100, deadline=None)
@given(sentences)
@example(parse_sentence("x*' = x**"))
@example(parse_sentence("x /\\ x'*' /\\ (y \\/ y*) = x /\\ x'*'"))
@example(parse_sentence("a* = 0, a' = 1 => a \\/ x \\/ x' = 1"))
@example(parse_sentence("(x \\/ (y \\/ z)) /\\ w = 0"))
@example(parse_sentence("x \\/ (x' \\/ y)'* = 1"))
def test_print_parse_round_trip(sentence):
    """parse . format is the identity, and str() is the cached formatting."""
    text = str(sentence)
    assert text == format_sentence(sentence)
    again = parse_sentence(text)
    assert again == sentence
    assert str(again) == text


def _nested_side(rng: random.Random, term: str) -> str:
    """One side of a relation: the term, or a short one nested MAX_TERM_DEPTH
    - 3 to MAX_TERM_DEPTH + 1 levels deep by parentheses, postfix operators,
    an infix chain or right-nested infix operators (a cycle of operators)."""
    shape = rng.choice(["term", "term", "parens", "postfix", "chain", "nested"])
    if shape == "term":
        return term
    leaf = rng.choice(["x", "0", "y*", "x /\\ y'", "(x \\/ 1)"])
    k = rng.randint(MAX_TERM_DEPTH - 3, MAX_TERM_DEPTH + 1)
    cycle = rng.choices(["*", "'"] if shape == "postfix" else ["\\/", "/\\"], k=rng.randint(1, 3))
    ops = [cycle[i % len(cycle)] for i in range(k)]
    if shape == "parens":
        return "(" * k + leaf + ")" * k
    if shape == "postfix":
        return f"({leaf})" + "".join(ops)
    if shape == "chain":
        return leaf + "".join(f" {op} y" for op in ops)
    return "".join(f"x {op} (" for op in ops) + leaf + ")" * k


@st.composite
def _parser_texts(draw):
    """A sentence of nested sides with either relation and at most one
    premise, then, in half the texts, one or two grammar tokens inserted
    anywhere: about a third parse, a third nest too deep.  A seeded Random
    makes every choice but the drawn term, as drawing each from hypothesis
    took 3 ms a text."""
    term = format_term(draw(terms))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def equation():
        relation = rng.choice(["=", "<="])
        return f"{_nested_side(rng, term)} {relation} {_nested_side(rng, term)}"

    text = (equation() + " => " if rng.random() < 0.5 else "") + equation()
    for token in rng.choices(_TOKENS, k=rng.choice([0, 0, 1, 2])):
        at = rng.randint(0, len(text))
        text = text[:at] + token + text[at:]
    return text


def _outcome(parse):
    try:
        return parse()
    except ParseError as err:
        return (err.reason, err.position, err.expected)


def _reference_term(text):
    parser = RecursiveDescentParser(text)
    node, _ = parser.term()
    parser.expect("", ("end of input",))
    return node


# ~0.27 s on a 2-vCPU x86-64 VM: 100 texts, each parsed four ways
@settings(max_examples=100, deadline=None)
@given(_parser_texts())
@example("(" * MAX_TERM_DEPTH + "x" + ")" * MAX_TERM_DEPTH + " = x")
@example("x" + " \\/ y" * MAX_TERM_DEPTH + " <= x")
@example("x" + " /\\ y \\/ z" * (MAX_TERM_DEPTH // 2) + " = x /\\ (")
@example("x = " + "x \\/ (" * (MAX_TERM_DEPTH + 1) + "y" + ")" * (MAX_TERM_DEPTH + 1))
def test_parser_matches_recursive_descent(text):
    """Precedence climbing gives the recursive-descent parser's Sentence and
    term, or the same ParseError (message, position, expected)."""
    assert _outcome(lambda: parse_sentence(text)) == \
        _outcome(lambda: RecursiveDescentParser(text).sentence())
    assert _outcome(lambda: parse_term(text)) == _outcome(lambda: _reference_term(text))


# ~0.1 s on the same VM: 100 drawn terms
@settings(max_examples=100, deadline=None)
@given(terms)
def test_term_variables_matches_the_recursive_walk(term):
    assert term_variables(term) == recursive_term_variables(term)


def test_format_term_minimal_parens():
    assert format_term(parse_term("(x \\/ y) /\\ z")) == "(x \\/ y) /\\ z"
    assert format_term(parse_term("x \\/ y /\\ z")) == "x \\/ y /\\ z"
    assert format_term(parse_term("((x))")) == "x"
    assert format_term(parse_term("(x /\\ y)*")) == "(x /\\ y)*"


def test_eval_examples(builtins):
    klst = builtins["3_klst"]
    assert eval_term(klst, parse_term("x*'"), {"x": 1}) == 2  # a* = 0, 0' = 1
    dmba = builtins["4_dmba"]
    assert eval_term(dmba, parse_term("x \\/ x*"), {"x": 1}) == dmba.one
    for algebra in builtins.values():
        assert eval_term(algebra, parse_term("0"), {}) == algebra.zero
        assert eval_term(algebra, parse_term("1"), {}) == algebra.one


def test_eval_unbound_variable(builtins):
    with pytest.raises(EvalError):
        eval_term(builtins["2"], parse_term("x \\/ y"), {"x": 0})


def test_holds_in_examples(builtins):
    assert holds_in(builtins["4_dmba"], parse_sentence("x*'' = x*")).holds
    verdict = holds_in(builtins["4_dmba"], parse_sentence("x*' = x**"))
    assert not verdict.holds
    # both middle elements witness; the reported one is lexicographically least
    assert verdict.witness == {"x": 1}
    assert holds_in(builtins["3_dblst"], parse_sentence("x \\/ x' = 1")).holds


def test_holds_in_least_witness_order(builtins):
    verdict = holds_in(builtins["3_klst"], parse_sentence("x \\/ y = 1"))
    assert verdict.witness == {"x": 0, "y": 0}


def test_holds_in_premises_gate_conclusion(builtins):
    # premises unsatisfiable in 2, so the quasi-identity holds vacuously there
    sentence = parse_sentence("a' = 1, a* = 0 => 0 = 1")
    assert holds_in(builtins["2"], sentence).holds
    assert not holds_in(builtins["3_dblst"], sentence).holds


def lower_cap(monkeypatch, name: str, limit: int) -> None:
    monkeypatch.delenv("AGKIT_CAP", raising=False)
    monkeypatch.setitem(DEFAULT_CAPS, name, limit)


def test_assignment_cap(monkeypatch):
    big = builtin("4_dmba")
    lower_cap(monkeypatch, "assignments", 100)
    with pytest.raises(CapExceededError):
        holds_in(big, parse_sentence("v \\/ w \\/ x \\/ y \\/ z = 1"))


def test_assignment_cap_counts_all_assignments(monkeypatch):
    # x* = 1 only at x = 0, so 16 of the 64 assignments pass the premise; the
    # cap still applies to all 64
    sentence = parse_sentence("x* = 1 => x \\/ y \\/ z = y \\/ z")
    lower_cap(monkeypatch, "assignments", 20)
    with pytest.raises(CapExceededError):
        holds_in(builtin("4_dmba"), sentence)
    lower_cap(monkeypatch, "assignments", 64)
    assert holds_in(builtin("4_dmba"), sentence).holds


@pytest.mark.parametrize("text, algebra_name, expected", [
    # a premise on the column variable (y, the last in name order)
    ("y* = 0 => x \\/ y = y", "3_dblst", {"x": 2, "y": 1}),
    # a two-variable premise, checked per assignment
    ("x <= y => y' <= x'", "4_dmba", None),
    ("x <= y => x' <= y'", "3_klst", {"x": 0, "y": 1}),
    # an unsatisfiable one-variable premise leaves an empty domain
    ("x /\\ x* = 1 => x = y", "3_dblst", None),
    # variable-free sentences and premises
    ("0 = 1", "2", {}),
    ("1 = 1", "2", None),
    ("0 = 1 => x = y", "2", None),
    ("1 = 1 => x = y", "2", {"x": 0, "y": 1}),
    # a conclusion without the column variable
    ("y* = 0 => x = 1", "2", {"x": 0, "y": 1}),
    # a unary chain on the column variable, composed into one table
    ("x /\\ y'* = x /\\ y", "3_klst", {"x": 1, "y": 1}),
    # a prefix-free column side (y**), computed once, beside a prefix-dependent one
    ("x' /\\ y** = y**", "4_dmba", {"x": 1, "y": 2}),
    # a bare table row on the left, a mapped column on the right
    ("x \\/ y = (x \\/ y)''", "3_dblst", {"x": 0, "y": 1}),
    # the premise filters y's domain, so x /\ y is no bare row
    ("y' = y => x /\\ y = x", "4_dmba", {"x": 1, "y": 2}),
])
def test_holds_in_scan_paths(text, algebra_name, expected):
    algebra, sentence = builtin(algebra_name), parse_sentence(text)
    verdict = holds_in(algebra, sentence)
    assert verdict.witness == expected and verdict.holds == (expected is None)
    assert verdict == plain_holds_in(algebra, sentence)


@functools.cache
def _scan_algebras():
    """The builtins, their 2-factor products, and F_G(1) (36 elements)."""
    builtins = [builtin(name) for name in BUILTIN_NAMES]
    products = [direct_product(pair)
                for pair in itertools.combinations_with_replacement(builtins, 2)]
    return (*builtins, *products, free_algebra(variety("G"), 1).algebra)


def _chain(term, operators):
    for operator in operators:
        term = operator(term)
    return term


_OPERATORS = st.sampled_from([chain for k in (1, 2, 3)
                              for chain in itertools.product((Star, Quote), repeat=k)])


@functools.cache
def _terms(names: tuple[str, ...]):
    """Terms in `names`, with unary chains of 1-3 operators."""
    leaves = st.sampled_from((Const(0), Const(1), *map(Var, names)))
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Join, sub, sub), st.builds(Meet, sub, sub),
        st.builds(_chain, sub, _OPERATORS)), max_leaves=6)


def _put(term, value):
    """`term` with the placeholder variable s replaced by `value`."""
    match term:
        case Var("s"):
            return value
        case Star(arg) | Quote(arg):
            return type(term)(_put(arg, value))
        case Join(left, right) | Meet(left, right):
            return type(term)(_put(left, value), _put(right, value))
    return term


@st.composite
def _scan_cases(draw, algebras=None):
    """An algebra (from `algebras`, else _scan_algebras) and a sentence over
    a, b, x, y with 0-3 premises of 0, 1 or 2 variables; the variables are
    capped so the oracle's n^k stays small.  The conclusion may repeat one
    chain on the column variable, the last one."""
    algebra = draw(st.sampled_from(_scan_algebras()) if algebras is None else algebras)
    k = max(k for k in range(1, 5) if algebra.size ** k <= 2000)
    pool = tuple(sorted(draw(st.permutations(("a", "b", "x", "y")))[:k]))
    premises = []
    for _ in range(draw(st.integers(0, 3))):
        names = tuple(sorted(draw(st.permutations(pool))[:draw(st.integers(0, min(2, k)))]))
        premises.append((draw(_terms(names)), draw(_terms(names))))
    shared = _chain(Var(pool[-1]), draw(_OPERATORS))
    conclusion = (_put(draw(_terms((*pool, "s"))), shared) for _ in range(2))
    return algebra, Sentence(tuple(premises), tuple(conclusion))


def _case(algebra_name: str, text: str):
    return builtin(algebra_name), parse_sentence(text)


@functools.cache
def _product(*names: str):
    return direct_product([builtin(name) for name in names])


@settings(max_examples=150, deadline=None)
@given(_scan_cases())
@example(_case("3_klst", "x /\\ y'* = x /\\ y"))
@example(_case("4_dmba", "x' /\\ y** = y**"))
@example(_case("3_dblst", "x \\/ y = (x \\/ y)''"))
@example(_case("4_dmba", "y' = y => x /\\ y = x"))
# joins and meets of two columns: on the Birkhoff embedding in a byte where
# |J| <= 8 (9 elements, and 3_klst^4 with two prefix variables before the
# column domain a premise filters), element by element where |J| = 9
@example((chain_algebra(9), parse_sentence("(a \\/ x) /\\ (a \\/ x)'* = a /\\ x'*")))
@example((chain_algebra(9), parse_sentence("x' = x => (a \\/ x) /\\ (a \\/ x)'* = (a /\\ x)'")))
@example((chain_algebra(10), parse_sentence("(a \\/ x) /\\ (a \\/ x)'* = a /\\ x'*")))
@example((chain_algebra(10), parse_sentence("(x \\/ y)' /\\ (x /\\ y)* <= x' \\/ y*")))
@example((_product(*["3_klst"] * 4), parse_sentence(
    "z' = z => (x \\/ z)' /\\ (y \\/ z*) = (x /\\ y) \\/ (x /\\ z) \\/ (y /\\ z')")))
@example((_product(*["3_klst"] * 4), parse_sentence(
    "z' = z => (x /\\ z) \\/ (y /\\ z*) = (x \\/ y) /\\ (z \\/ y'*)")))
def test_holds_in_matches_plain_scan(case):
    algebra, sentence = case
    expected = plain_holds_in(algebra, sentence)
    assert holds_in(algebra, sentence) == expected
    assert holds_in(algebra, sentence) == expected  # served from the table
    # the full scan too, which holds_in skips for a sentence that holds on
    # the diagonal of a product with equal factors
    assert agkit.terms._decide(algebra, sentence) == expected


@functools.cache
def _shipped_sentences() -> tuple[Sentence, ...]:
    """The sentences of the lemma registry, the axiom systems and the variety
    bases: most hold on a product of builtins, where random sentences fail."""
    return tuple(dict.fromkeys(
        [r.sentence for r in lemma_registry()]
        + [s for system in SYSTEMS.values() for _, s in system.sentences]
        + [s for v in all_varieties() for _, s in v.base]))


@st.composite
def _repeated_products(draw):
    """A product of at most 36 elements with two to four factors, at least
    two of them equal, each a builtin or a small distributive_algebras draw,
    in a drawn order."""
    factor = st.one_of(st.sampled_from(BUILTIN_NAMES).map(builtin),
                       distributive_algebras(max_size=4))
    distinct = draw(st.lists(factor, min_size=1, max_size=2, unique=True))
    repeats = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=2))
    factors = draw(st.permutations(distinct + repeats).filter(
        lambda factors: math.prod(f.size for f in factors) <= 36))
    return direct_product(factors)


@st.composite
def _repeated_product_cases(draw):
    """A product with equal factors and a shipped sentence that its size
    admits, or a drawn one."""
    algebra = draw(_repeated_products())
    shipped = [s for s in _shipped_sentences() if algebra.size ** len(s.variables()) <= 2000]
    if draw(st.booleans()):
        return algebra, draw(st.sampled_from(shipped))
    return draw(_scan_cases(st.just(algebra)))


def _products_case(names, text: str, nest: bool = False, seed: int | None = None):
    """A product of builtins, its first two factors made one factor if
    `nest`, its elements renumbered by a seeded permutation if `seed` is
    given, and a sentence."""
    factors = [builtin(name) for name in names]
    if nest:
        factors[:2] = [direct_product(factors[:2])]
    algebra = direct_product(factors)
    if seed is not None:
        algebra = renumber(algebra, random.Random(seed).sample(range(algebra.size), algebra.size))
    return algebra, parse_sentence(text)


@settings(max_examples=20, deadline=None)
@given(_repeated_product_cases())
# no x satisfies the premises in 2, while 3_klst breaks the conclusion at
# x = y = a: the product holds vacuously, as the diagonal 3_klst x 2 does
@example(_products_case(("3_klst", "2", "2"), "x' = x, x /\\ y = x => y = 1"))
@example(_products_case(("3_klst", "3_klst", "2"), "x' = x*"))  # fails first at x = (0,a,0)
@example(_products_case(("2", "2"), "1* = 1"))  # no variables: fails, witness {}
@example(_products_case(("2", "2", "3_dblst"), "0' = 1 => 1' = 0"))
# 2 x 3_dblst x 2 as (2 x 3_dblst) x 2: no two factors are equal, so no diagonal
@example(_products_case(("2", "3_dblst", "2"), "x \\/ x' = 1", nest=True))
@example(_products_case(("2", "3_dblst", "2"), "x' = x* => x = 1", nest=True))
# renumbered: the loaded form of a product knows no factors, so no diagonal
@example(_products_case(("2", "2", "3_klst"), "x*' = x**", seed=1))
@example(_products_case(("2", "2", "3_klst"), "x \\/ y' = y' \\/ x*", seed=2))
def test_holds_in_on_repeated_factors_matches_plain_scan(case):
    """On a product with equal factors, holds_in first scans the diagonal
    the product keeps, and decides there every sentence that holds.  Its
    verdict and witness are still those of the plain scan of all n^k
    assignments in index order."""
    algebra, sentence = case
    assert holds_in(algebra, sentence) == plain_holds_in(algebra, sentence)
    diagonal = kept_facts(algebra)["diagonal"]
    if diagonal is not None:
        assert subuniverse_closure(algebra, diagonal) == frozenset(diagonal)


# LX of the lemma registry: its right side reads x only through (x' \/ x'*)'
LX = "y'' \\/ y* = (x' \\/ x'*)' \\/ y'' \\/ y*"


@pytest.mark.parametrize("names, text, witness", [
    # 24 elements, bytes columns: a column that reads the prefix through one
    # compound scalar, with one or two prefix variables before the column
    (("2", "3_klst", "4_dmba"), LX, None),
    (("2", "3_klst", "4_dmba"), "z'' \\/ z* = (x' \\/ y'*)' \\/ z'' \\/ z*",
     {"x": 8, "y": 0, "z": 4}),
    (("2", "3_klst", "4_dmba"), "(x /\\ y)* \\/ z' = (x* \\/ y*) \\/ z'", None),
    (("2", "3_klst", "4_dmba"), "x* \\/ (y /\\ z) = (x* \\/ y) /\\ (x* \\/ z)", None),
    (("2", "3_klst", "4_dmba"), "(x /\\ y)'* \\/ z = (x /\\ y)* \\/ z",
     {"x": 0, "y": 0, "z": 0}),
    # ... and beside a premise that filters the column domain
    (("2", "3_klst", "4_dmba"), "z* = 0 => (x' \\/ y'*)' \\/ z = z",
     {"x": 8, "y": 0, "z": 19}),
    (("2", "3_klst", "4_dmba"), "z' = z => (x /\\ y)* \\/ z = x* \\/ y'* \\/ z", None),
])
def test_holds_in_matches_plain_scan_on_kept_columns(names, text, witness):
    """Verdicts and witnesses where a column reads the prefix only through a
    compound scalar subterm."""
    algebra, sentence = _product(*names), parse_sentence(text)
    verdict = holds_in(algebra, sentence)
    assert verdict.witness == witness and verdict.holds == (witness is None)
    assert verdict == plain_holds_in(algebra, sentence)


def test_scan_reads_what_no_prefix_changes_once():
    spec = dict(BUILTIN_SPECS["4_dmba"])
    star = spec["star"] = CountingTable(spec["star"])
    algebra = FiniteAlgebra(name="counting", validate=False, **spec)
    n = algebra.size
    star.reads = 0  # the constructor's shape check reads every entry
    # x is the prefix and y the column variable.  Each of the four y* is
    # computed once, not once per value of x.
    assert agkit.terms._decide(algebra, parse_sentence("x /\\ y* \\/ y* = y* \\/ (x /\\ y*)"))
    assert star.reads == 4 * n
    # The column x \/ y equals the mapped column (x \/ y)'' at every x, so
    # the two-variable premise is never evaluated: only its y* is, once.
    star.reads = 0
    assert agkit.terms._decide(algebra, parse_sentence("x* = y* => x \\/ y = (x \\/ y)''"))
    assert star.reads == n


def test_scan_reads_each_join_row_once_per_scalar_value():
    product = _product("4_dmba", "4_dmba")
    join, meet = CountingTable(product.join), CountingTable(product.meet)
    algebra = replace(product, name="counting", join=join, meet=meet, validate=False)
    n = algebra.size
    join.reads = meet.reads = 0  # the constructor's shape check reads every row
    # x is the prefix and y the column variable.  The Birkhoff embedding that
    # joins two columns reads the join table once, whole (n rows), and the
    # meet rows of its |J| = 4 join-irreducibles; the algebra's byte rows,
    # which the scalar side of every other join picks from, read the join
    # rows once more.  Neither is read again per prefix.  The scalar
    # x' \/ x'* reads one row per x.
    assert agkit.terms._decide(algebra, parse_sentence(LX))
    assert (join.reads, meet.reads) == (3 * n, 4)
    # Every join here has one scalar side, which picks a kept byte row.
    join.reads = 0
    assert agkit.terms._decide(algebra, parse_sentence("(x \\/ y)* = x* /\\ y*"))
    assert join.reads == 0


L37_FREE = "(a \\/ x) \\/ ((a \\/ x) /\\ (a \\/ x)'*)* = 1"


def test_scan_reads_no_row_per_prefix_for_two_columns():
    product = _product("4_dmba", "4_dmba")
    join, meet = CountingTable(product.join), CountingTable(product.meet)
    algebra = replace(product, name="counting rows", join=join, meet=meet, validate=False)
    n = algebra.size
    forget_facts()
    join.reads = meet.reads = 0  # the constructor's shape check reads every row
    # a is the prefix and x the column variable.  a \/ x picks a kept byte
    # row (n join rows, once).  The meet and the outer join are of two
    # columns, so they are an & and an | on the Birkhoff embedding, which
    # _birkhoff derives from the whole join table (n rows, once) and the meet
    # rows of its |J| = 4 join-irreducibles, once; none is read per prefix.
    assert agkit.terms._decide(algebra, parse_sentence(L37_FREE))
    assert (join.reads, meet.reads) == (2 * n, 4)


def test_product_scan_reads_the_embedding_the_product_kept(monkeypatch):
    """A product keeps its Birkhoff embedding, built from its factors' in
    O(n): scanning it derives none by the O(n^2) pass over its rows."""
    derived = []
    log_calls(monkeypatch, agkit.algebra, "_birkhoff", derived)
    forget_facts()
    algebra = direct_product([builtin("2")] * 8)
    assert holds_in(algebra, parse_sentence(L37_FREE))
    assert [args[0] for args, _ in derived] == [builtin("2")]  # the factor's, once


@pytest.mark.parametrize("make, irreducibles, byte_path", [
    (lambda: chain_algebra(9), 8, True),
    (lambda: chain_algebra(10), 9, False),
    (lambda: _product(*["3_klst"] * 4), 8, True),  # 81 elements
], ids=["chain9", "chain10", "3_klst^4"])
def test_join_of_two_columns_reads_no_row_iff_j_fits_a_byte(make, irreducibles, byte_path):
    """A join of two columns reads no join row where |J| <= 8, and one row
    per column entry where |J| > 8.  Verdicts agree with the plain scan."""
    source = make()
    join, meet = CountingTable(source.join), CountingTable(source.meet)
    algebra = replace(source, name=f"counting {source.name}", join=join, meet=meet,
                      validate=False)
    n = algebra.size
    forget_facts()
    join.reads = meet.reads = 0
    # x is the prefix and y the column variable.  The left side joins two
    # columns at each prefix, the right side once, as y \/ y' reads no
    # prefix; x \/ y' picks a kept byte row (n join rows) and so does the
    # scalar side of x /\ y (n meet rows).  The embedding is derived from the
    # whole join table (n rows) and the meet rows of J, each once; none is
    # read per prefix.  Past a byte, the two-column join and meet read a row
    # per column entry at each prefix (n^2), and y \/ y' one per entry once.
    sentence = parse_sentence("(x /\\ y) \\/ y' = (x \\/ y') /\\ (y \\/ y')")
    assert agkit.terms._decide(algebra, sentence) == plain_holds_in(source, sentence)
    per_entry = 0 if byte_path else n * n
    assert join.reads == 2 * n + (0 if byte_path else n) + per_entry
    assert meet.reads == irreducibles + n + per_entry
    assert (agkit.algebra.birkhoff_bytes(algebra) is not None) == byte_path


def test_byte_rows_do_not_keep_an_algebra_alive():
    algebra = FiniteAlgebra(name="transient rows", **BUILTIN_SPECS["3_klst"])
    holds_in(algebra, parse_sentence("(x \\/ y)* = x* /\\ y*"))
    assert {("byte rows", "join"), ("byte rows", "meet")} <= kept_facts(algebra).keys()
    alive = weakref.ref(algebra)
    del algebra
    gc.collect()
    assert alive() is None


def test_known_fact_still_meets_the_assignment_cap(monkeypatch):
    algebra, sentence = builtin("4_dmba"), parse_sentence("x \\/ y \\/ z = 1")
    assert not holds_in(algebra, sentence)  # 64 assignments
    assert sentence in kept_facts(algebra)
    lower_cap(monkeypatch, "assignments", 63)
    with pytest.raises(CapExceededError):
        holds_in(algebra, sentence)
    monkeypatch.undo()
    monkeypatch.setenv("AGKIT_CAP", "63")
    with pytest.raises(CapExceededError):
        holds_in(algebra, sentence)


def test_tampered_builtin_gets_its_own_verdict():
    original = builtin("3_dblst")
    tampered = replace(original, star=(2, 2, 0))  # a* = 1 instead of 0
    assert (tampered.name, tampered.labels) == (original.name, original.labels)
    sentence = parse_sentence("x \\/ x* = 1")
    assert holds_in(original, sentence).witness == {"x": 1}
    assert holds_in(tampered, sentence).holds
    assert not holds_in(original, sentence)


def test_equal_algebra_built_anew_is_served_from_the_table(monkeypatch):
    decided = []
    log_calls(monkeypatch, agkit.terms, "_decide", decided)
    first, second = (FiniteAlgebra(name="equal_copy", **BUILTIN_SPECS["4_dmba"])
                     for _ in range(2))
    assert first is not second
    sentence = parse_sentence("x /\\ y' <= (x* \\/ y)*'")
    verdict = holds_in(first, sentence)
    assert holds_in(second, sentence) is verdict
    assert len(decided) == 1


def test_verdict_table_does_not_keep_an_algebra_alive():
    algebra = FiniteAlgebra(name="transient", **BUILTIN_SPECS["3_klst"])
    holds_in(algebra, parse_sentence("x'' = x"))
    assert kept_facts(algebra)
    del algebra
    gc.collect()
    assert kept_facts(FiniteAlgebra(name="transient", **BUILTIN_SPECS["3_klst"],
                                    validate=False)) == {}


def test_desugaring_soundness(builtins):
    # s <= t holds iff eval(s) /\ eval(t) = eval(s) for every assignment
    algebra = builtins["3_dblst"]
    s, t = parse_term("x /\\ x'*'"), parse_term("y \\/ y*")
    sentence = parse_sentence("x /\\ x'*' <= y \\/ y*")
    direct = all(
        algebra.meet[eval_term(algebra, s, {"x": x, "y": y})][
            eval_term(algebra, t, {"x": x, "y": y})]
        == eval_term(algebra, s, {"x": x, "y": y})
        for x in algebra.elements() for y in algebra.elements())
    assert holds_in(algebra, sentence).holds == direct


@pytest.mark.parametrize("names, kind", [
    (("2",) * 8, bytes),  # 256 elements, the most an algebra has: an empty pad
])
def test_holds_in_matches_plain_scan_in_both_column_types(monkeypatch, names, kind):
    """Verdicts and witnesses at the 256-element bound.  A scan in another
    column type would give the same verdicts, only slower, so the type of
    every column that a compiled node returns is recorded too: unary chains,
    rows picked by a scalar, and column-column operations."""
    algebra = direct_product([builtin(name) for name in names])
    kinds, compile_node = set(), agkit.terms._compile

    def recorded(*args):
        closure, is_column, reads = compile_node(*args)
        if not is_column:
            return closure, is_column, reads

        def column(env):
            values = closure(env)
            kinds.add(type(values))
            return values

        return column, True, reads

    monkeypatch.setattr(agkit.terms, "_compile", recorded)
    forget_facts()
    for text in ["x** = x'*",
                 "x \\/ y = y",  # fails at the second prefix
                 "y* = 0 => x \\/ y' = y",  # the premise filters the column domain
                 # the premise filters the prefix; the rest is a full column scan
                 "x* = 0 => x \\/ y /\\ y* = (x \\/ y) /\\ (x \\/ y*)"]:
        sentence = parse_sentence(text)
        assert holds_in(algebra, sentence) == plain_holds_in(algebra, sentence), text
    assert kinds == {kind}
