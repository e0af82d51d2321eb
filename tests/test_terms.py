from __future__ import annotations

import pytest

from agkit import (CapExceededError, EvalError, ParseError, builtin, eval_term,
                   format_sentence, format_term, holds_in, load_sentences,
                   parse_sentence, parse_term)
from agkit.terms import MAX_TERM_DEPTH, Const, Join, Meet, Quote, Sentence, Star, Var


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
    assert sentence.kind == "quasi-identity"
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


def test_print_parse_round_trip():
    texts = [
        "x*' = x**",
        "x /\\ x'*' /\\ (y \\/ y*) = x /\\ x'*'",
        "a* = 0, a' = 1 => a \\/ x \\/ x' = 1",
        "(x \\/ (y \\/ z)) /\\ w = 0",
        "x \\/ (x' \\/ y)'* = 1",
    ]
    for text in texts:
        sentence = parse_sentence(text)
        printed = format_sentence(sentence)
        again = parse_sentence(printed)
        assert again == sentence, text
        assert format_sentence(again) == printed, text


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


def test_assignment_cap():
    big = builtin("4_dmba")
    with pytest.raises(CapExceededError):
        holds_in(big, parse_sentence("v \\/ w \\/ x \\/ y \\/ z = 1"), max_assignments=100)


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


def test_load_sentences_registry(tmp_path):
    path = tmp_path / "sentences.txt"
    path.write_text(
        "# registry\n"
        "x*' = x**\n"
        "\n"
        "a* = 0 => ((x \\/ a) /\\ y)* = y*  # trailing comment\n")
    sentences = load_sentences(path)
    assert len(sentences) == 2
    assert sentences[0] == parse_sentence("x*' = x**")
    assert sentences[1].kind == "quasi-identity"
