"""Terms, identities, and quasi-identities over the signature (\\/, /\\, *, ', 0, 1).

Surface syntax (ASCII only, so sentences embed in shell commands and golden
files):

    variables   [a-z][a-z0-9]*
    constants   0, 1
    join        s \\/ t
    meet        s /\\ t
    postfix     s*  (pseudocomplement slot),  s'  (quote slot)
    relations   s = t,  s <= t        (s <= t desugars to  s /\\ t = s)
    sentence    p1, ..., pk => concl  (premises optional)

Precedence: postfix > meet > join; join and meet are left-associative.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

from . import caps
from .algebra import FiniteAlgebra
from .errors import EvalError, ParseError


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int  # 0 or 1


@dataclass(frozen=True)
class Join:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Meet:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Star:
    arg: "Term"


@dataclass(frozen=True)
class Quote:
    arg: "Term"


Term = Union[Var, Const, Join, Meet, Star, Quote]
Equation = tuple[Term, Term]


@dataclass(frozen=True)
class Sentence:
    """An identity (no premises) or a quasi-identity.

    Inequalities are stored desugared: the parser turns ``s <= t`` into the
    equation ``s /\\ t = s`` immediately, so every stored equation is a plain
    pair of terms.
    """

    premises: tuple[Equation, ...]
    conclusion: Equation

    @property
    def kind(self) -> str:
        return "identity" if not self.premises else "quasi-identity"

    def variables(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for lhs, rhs in (*self.premises, self.conclusion):
            seen |= term_variables(lhs) | term_variables(rhs)
        return tuple(sorted(seen))

    def __str__(self) -> str:
        return format_sentence(self)


# --- scanner -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<join>\\/)
      | (?P<meet>/\\)
      | (?P<leq><=)
      | (?P<implies>=>)
      | (?P<eq>=)
      | (?P<star>\*)
      | (?P<quote>')
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<const>[01])
      | (?P<var>[a-z][a-z0-9]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        assert kind is not None
        if kind != "ws":
            tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str, expected: tuple[str, ...]) -> tuple[str, str, int]:
        token = self.peek()
        if token[0] != kind:
            self.fail(expected)
        return self.advance()

    def fail(self, expected: tuple[str, ...]) -> None:
        kind, text, pos = self.peek()
        got = "end of input" if kind == "end" else repr(text)
        raise ParseError(f"unexpected {got}", pos, expected)

    # term := join ; join := meet (\/ meet)* ; meet := unary (/\ unary)*
    def term(self) -> Term:
        node = self.meet()
        while self.peek()[0] == "join":
            self.advance()
            node = Join(node, self.meet())
        return node

    def meet(self) -> Term:
        node = self.unary()
        while self.peek()[0] == "meet":
            self.advance()
            node = Meet(node, self.unary())
        return node

    def unary(self) -> Term:
        node = self.atom()
        while self.peek()[0] in ("star", "quote"):
            kind, _, _ = self.advance()
            node = Star(node) if kind == "star" else Quote(node)
        return node

    def atom(self) -> Term:
        kind, text, _ = self.peek()
        if kind == "var":
            self.advance()
            return Var(text)
        if kind == "const":
            self.advance()
            return Const(int(text))
        if kind == "lparen":
            self.advance()
            node = self.term()
            self.expect("rparen", ("')'",))
            return node
        self.fail(("variable", "'0'", "'1'", "'('"))
        raise AssertionError("unreachable")

    def equation(self) -> Equation:
        lhs = self.term()
        kind, _, _ = self.peek()
        if kind == "eq":
            self.advance()
            return (lhs, self.term())
        if kind == "leq":
            self.advance()
            rhs = self.term()
            return (Meet(lhs, rhs), lhs)  # s <= t  ~>  s /\ t = s
        self.fail(("'='", "'<='"))
        raise AssertionError("unreachable")

    def sentence(self) -> Sentence:
        equations = [self.equation()]
        while self.peek()[0] == "comma":
            self.advance()
            equations.append(self.equation())
        if self.peek()[0] == "implies":
            self.advance()
            conclusion = self.equation()
            self.expect("end", ("end of input",))
            return Sentence(tuple(equations), conclusion)
        expected = ("'=>'", "end of input")
        if len(equations) != 1:
            self.fail(expected)  # premises need a conclusion
        self.expect("end", expected)
        return Sentence((), equations[0])


def parse_term(text: str) -> Term:
    parser = _Parser(text)
    node = parser.term()
    parser.expect("end", ("end of input",))
    return node


def parse_sentence(text: str) -> Sentence:
    return _Parser(text).sentence()


def load_sentences(path) -> list[Sentence]:
    """Read a sentence registry file: one sentence per line, '#' comments."""
    sentences = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if line:
                sentences.append(parse_sentence(line))
    return sentences


# --- printing ----------------------------------------------------------------

def format_term(term: Term) -> str:
    # level: 0 = join context, 1 = meet context, 2 = unary/atom context
    def go(node: Term, level: int) -> str:
        match node:
            case Var(name):
                return name
            case Const(value):
                return str(value)
            case Star(arg):
                return go(arg, 2) + "*"
            case Quote(arg):
                return go(arg, 2) + "'"
            case Meet(left, right):
                text = go(left, 1) + " /\\ " + go(right, 2)
                return f"({text})" if level > 1 else text
            case Join(left, right):
                text = go(left, 0) + " \\/ " + go(right, 1)
                return f"({text})" if level > 0 else text
        raise AssertionError(f"bad term {node!r}")

    return go(term, 0)


def format_equation(equation: Equation) -> str:
    return f"{format_term(equation[0])} = {format_term(equation[1])}"


def format_sentence(sentence: Sentence) -> str:
    conclusion = format_equation(sentence.conclusion)
    if not sentence.premises:
        return conclusion
    premises = ", ".join(format_equation(p) for p in sentence.premises)
    return f"{premises} => {conclusion}"


# --- evaluation --------------------------------------------------------------

def term_variables(term: Term) -> set[str]:
    match term:
        case Var(name):
            return {name}
        case Const(_):
            return set()
        case Star(arg) | Quote(arg):
            return term_variables(arg)
        case Join(left, right) | Meet(left, right):
            return term_variables(left) | term_variables(right)
    raise AssertionError(f"bad term {term!r}")


def eval_term(algebra: FiniteAlgebra, term: Term, assignment: Mapping[str, int]) -> int:
    match term:
        case Var(name):
            try:
                return assignment[name]
            except KeyError:
                raise EvalError(f"unbound variable {name!r}") from None
        case Const(value):
            return algebra.zero if value == 0 else algebra.one
        case Star(arg):
            return algebra.star[eval_term(algebra, arg, assignment)]
        case Quote(arg):
            return algebra.quote[eval_term(algebra, arg, assignment)]
        case Join(left, right):
            return algebra.join[eval_term(algebra, left, assignment)][
                eval_term(algebra, right, assignment)]
        case Meet(left, right):
            return algebra.meet[eval_term(algebra, left, assignment)][
                eval_term(algebra, right, assignment)]
    raise AssertionError(f"bad term {term!r}")


def _compile(algebra: FiniteAlgebra, term: Term,
             positions: Mapping[str, int]) -> Callable[[tuple[int, ...]], int]:
    # Closure compilation keeps the exhaustive scan in holds_in cheap.
    match term:
        case Var(name):
            index = positions[name]
            return lambda env: env[index]
        case Const(value):
            constant = algebra.zero if value == 0 else algebra.one
            return lambda env: constant
        case Star(arg):
            inner = _compile(algebra, arg, positions)
            table = algebra.star
            return lambda env: table[inner(env)]
        case Quote(arg):
            inner = _compile(algebra, arg, positions)
            table = algebra.quote
            return lambda env: table[inner(env)]
        case Join(left, right):
            fl = _compile(algebra, left, positions)
            fr = _compile(algebra, right, positions)
            table = algebra.join
            return lambda env: table[fl(env)][fr(env)]
        case Meet(left, right):
            fl = _compile(algebra, left, positions)
            fr = _compile(algebra, right, positions)
            table = algebra.meet
            return lambda env: table[fl(env)][fr(env)]
    raise AssertionError(f"bad term {term!r}")


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: dict[str, int] | None = None

    def __bool__(self) -> bool:
        return self.holds


def holds_in(algebra: FiniteAlgebra, sentence: Sentence,
             max_assignments: int | None = None) -> Verdict:
    """Exhaustively decide a sentence on one finite algebra.

    True iff every total assignment satisfying all premises also satisfies the
    conclusion.  On failure the witness is the lexicographically least failing
    assignment (variables in name order, elements in index order), which keeps
    outputs reproducible.
    """
    variables = sentence.variables()
    total = algebra.size ** len(variables) if variables else 1
    caps.guard("assignments", total, max_assignments)

    positions = {name: i for i, name in enumerate(variables)}
    compiled_premises = [
        (_compile(algebra, lhs, positions), _compile(algebra, rhs, positions))
        for lhs, rhs in sentence.premises
    ]
    lhs, rhs = sentence.conclusion
    conclusion = (_compile(algebra, lhs, positions), _compile(algebra, rhs, positions))

    for env in itertools.product(range(algebra.size), repeat=len(variables)):
        if all(pl(env) == pr(env) for pl, pr in compiled_premises):
            if conclusion[0](env) != conclusion[1](env):
                return Verdict(False, dict(zip(variables, env)))
    return Verdict(True)
