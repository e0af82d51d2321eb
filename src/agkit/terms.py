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

Precedence: postfix > meet > join; join and meet are left-associative.  A term
nests at most MAX_TERM_DEPTH operators, and MAX_TERM_DEPTH parentheses, deep.
"""

from __future__ import annotations

import itertools
import re
from functools import cache, cached_property
from operator import getitem, itemgetter
from typing import Callable, Mapping, Union

from . import caps
from .algebra import FiniteAlgebra, _known, birkhoff_bytes
from .errors import EvalError, ParseError, _Value

# Deepest term the parser accepts: operators nested in one another, and
# parentheses open at once, are each limited to this many levels.  Parsing,
# printing, hashing and evaluating recurse once per level, so a deeper term
# would exhaust the interpreter's recursion limit.
MAX_TERM_DEPTH = 100


class Var(_Value):
    name: str


class Const(_Value):
    value: int  # 0 or 1


class Join(_Value):
    left: "Term"
    right: "Term"


class Meet(_Value):
    left: "Term"
    right: "Term"


class Star(_Value):
    arg: "Term"


class Quote(_Value):
    arg: "Term"


Term = Union[Var, Const, Join, Meet, Star, Quote]
Equation = tuple[Term, Term]


class Sentence(_Value):
    """An identity (no premises) or a quasi-identity.

    Inequalities are stored desugared: the parser turns ``s <= t`` into the
    equation ``s /\\ t = s`` immediately, so every stored equation is a plain
    pair of terms.
    """

    premises: tuple[Equation, ...]
    conclusion: Equation

    def variables(self) -> tuple[str, ...]:
        return self._variables

    @cached_property
    def premise_variables(self) -> tuple[frozenset[str], ...]:
        """The variables of each premise; computed once, as a sentence is frozen."""
        return tuple(frozenset(term_variables(l) | term_variables(r)) for l, r in self.premises)

    @cached_property
    def _variables(self) -> tuple[str, ...]:
        lhs, rhs = self.conclusion
        return tuple(sorted(term_variables(lhs).union(
            term_variables(rhs), *self.premise_variables)))

    @cached_property
    def _text(self) -> str:
        return format_sentence(self)

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _hash(self) -> int:
        return hash((self.premises, self.conclusion))

    def __hash__(self) -> int:  # hashed once: a sentence keys the verdict table
        return self._hash


# --- scanner -----------------------------------------------------------------

# One match per token after any whitespace, so one findall splits a sentence:
# group 1 is the token, or "" where a character starts none (the \S).  Tried in
# order: "=>" before "=".  Tokens are texts; an error finds its offset (_offset).
_TOKEN_RE = re.compile(r"\s*(?:(\\/|/\\|<=|=>|=|\*|'|\(|\)|,|[01]|[a-z][a-z0-9]*)|\S)")


def _tokenize(text: str) -> list[str]:
    """The tokens of text, then "" for its end; a ParseError at the first
    character that starts no token."""
    tokens = _TOKEN_RE.findall(text)
    if "" in tokens:
        pos = _offset(text, tokens.index(""))
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens.append("")
    return tokens


def _offset(text: str, index: int) -> int:
    """Where token `index` of text starts, len(text) for its end.  Only a
    ParseError needs it, so it scans the text again."""
    for match in itertools.islice(_TOKEN_RE.finditer(text), index, None):
        return match.start(1) if match[1] else match.end() - 1
    return len(text)


_INFIX = {"\\/": (0, Join), "/\\": (1, Meet)}  # token: (binding level, node)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.parens = 0  # currently open

    def peek(self) -> str:
        return self.tokens[self.index]

    def advance(self) -> int:  # the index of the token stepped past
        self.index += 1
        return self.index - 1

    def expect(self, token: str, expected: tuple[str, ...]) -> None:
        if self.peek() != token:
            raise self.error(expected)
        self.advance()

    def error(self, expected: tuple[str, ...]) -> ParseError:
        token = self.peek()
        got = repr(token) if token else "end of input"
        return ParseError(f"unexpected {got}", _offset(self.text, self.index), expected)

    def nest(self, depth: int, at: int) -> int:
        """depth + 1, or a ParseError at token `at` once that passes MAX_TERM_DEPTH."""
        if depth >= MAX_TERM_DEPTH:
            raise ParseError(f"term nested deeper than {MAX_TERM_DEPTH} levels",
                             _offset(self.text, at))
        return depth + 1

    # Precedence climbing: term(least) reads a unary term, then each infix
    # operator binding at least as tightly as `least` (join 0 < meet 1), its
    # right operand one level tighter, so both are left-associative.  Each
    # returns the term and its depth, the operators nested in it.
    def term(self, least: int = 0) -> tuple[Term, int]:
        node, depth = self.unary()
        while (infix := _INFIX.get(self.peek())) and infix[0] >= least:
            at = self.advance()
            right, right_depth = self.term(infix[0] + 1)
            node, depth = infix[1](node, right), self.nest(max(depth, right_depth), at)
        return node, depth

    def unary(self) -> tuple[Term, int]:
        token = self.peek()
        if token[:1].isalpha():  # only variables start with a letter
            self.advance()
            node, depth = Var(token), 0
        elif token in ("0", "1"):
            self.advance()
            node, depth = Const(int(token)), 0
        elif token == "(":
            # the parser recurses once per open parenthesis
            self.parens = self.nest(self.parens, self.advance())
            node, depth = self.term()
            self.expect(")", ("')'",))
            self.parens -= 1
        else:
            raise self.error(("variable", "'0'", "'1'", "'('"))
        while self.peek() in ("*", "'"):
            at = self.advance()
            node = Star(node) if self.tokens[at] == "*" else Quote(node)
            depth = self.nest(depth, at)
        return node, depth

    def equation(self) -> Equation:
        lhs, depth = self.term()
        token = self.peek()
        if token == "=":
            self.advance()
            return (lhs, self.term()[0])
        if token == "<=":
            at = self.advance()
            rhs, rhs_depth = self.term()
            self.nest(max(depth, rhs_depth), at)
            return (Meet(lhs, rhs), lhs)  # s <= t  ~>  s /\ t = s
        raise self.error(("'='", "'<='"))

    def sentence(self) -> Sentence:
        equations = [self.equation()]
        while self.peek() == ",":
            self.advance()
            equations.append(self.equation())
        if self.peek() == "=>":
            self.advance()
            conclusion = self.equation()
            self.expect("", ("end of input",))
            return Sentence(tuple(equations), conclusion)
        expected = ("'=>'", "end of input")
        if len(equations) != 1:
            raise self.error(expected)  # premises need a conclusion
        self.expect("", expected)
        return Sentence((), equations[0])


def parse_term(text: str) -> Term:
    parser = _Parser(text)
    node, _ = parser.term()
    parser.expect("", ("end of input",))
    return node


def parse_sentence(text: str) -> Sentence:
    return _Parser(text).sentence()


# One Sentence per text of the shipped axiom systems, variety bases and lemmas,
# so each is hashed once; user text goes through parse_sentence, uncached.
_parse_shipped = cache(parse_sentence)


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
    names, stack = set(), [term]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var:
            names.add(node.name)
        elif kind is Star or kind is Quote:
            stack.append(node.arg)
        elif kind is Join or kind is Meet:
            stack += (node.left, node.right)
        elif kind is not Const:
            raise AssertionError(f"bad term {node!r}")
    return names


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


# A compiled term: the values of the prefix variables in, a value or a column out.
# Every column is bytes, so two compare equal exactly when their values do.  A
# closure that reads the prefix computes its value anew on each call; one that
# does not returns one shared object, such as a prefix-free column or the
# column variable's domain: only read it.
Closure = Callable[[tuple[int, ...]], "int | bytes"]


def _lookup(table) -> Callable:
    """Map a column through a unary table: one translate by the table padded
    to 256 bytes (no value reads the pad)."""
    translation = bytes(table) + bytes(256 - len(table))
    return lambda column: column.translate(translation)


def _hoist(closure: Closure, is_column: bool, reads: bool) -> tuple[Closure, bool, bool]:
    """A closure that reads no prefix variable is evaluated once, here."""
    if not reads:
        value = closure(())
        return (lambda env: value), is_column, False
    return closure, is_column, reads


def _compile(algebra: FiniteAlgebra, term: Term, positions: Mapping[str, int],
             column: str, domain: bytes) -> tuple[Closure, bool, bool]:
    """Compile a term for the column scan in holds_in: (closure, is_column, reads).

    Each closure takes the values of the variables in `positions`, as a tuple.
    A scalar closure returns the term's value.  A column closure returns its
    values, as bytes, as the variable `column` runs over `domain`.
    `reads` says whether the term reads a variable in `positions`; a node
    that reads none is evaluated here, once (_hoist).

    A lattice operation with one scalar side picks that side's row: the
    table's own bytes rows padded to 256, kept in the algebra's facts
    (_known) as ("byte rows", "join" or "meet"), 128 KiB at n = 256.
    One of two columns maps both by the algebra's Birkhoff embedding phi,
    reads them as ints, takes | or &, and maps back by phi's inverse, where
    phi fits a byte (|J| <= 8): exact, as phi is an injective lattice map
    (algebra.birkhoff_bytes).  Otherwise it reads one table row per column
    entry.
    """
    match term:
        case Var(name):
            if name == column:
                return (lambda env: domain), True, False
            return itemgetter(positions[name]), False, True
        case Const(value):
            constant = algebra.zero if value == 0 else algebra.one
            return (lambda env: constant), False, False
        case Star() | Quote():
            tables = []  # the chain of postfix operators, outermost first
            while isinstance(term, (Star, Quote)):
                tables.append(algebra.star if isinstance(term, Star) else algebra.quote)
                term = term.arg
            chain = tables.pop()  # the chain composed into one table
            for table in reversed(tables):
                chain = list(map(table.__getitem__, chain))
            inner, is_column, reads = _compile(algebra, term, positions, column, domain)
            if is_column:
                lookup = _lookup(chain)
                return _hoist(lambda env: lookup(inner(env)), True, reads)
            return _hoist(lambda env: chain[inner(env)], False, reads)
        case Join(left, right) | Meet(left, right):
            name = "join" if isinstance(term, Join) else "meet"
            table = getattr(algebra, name)
            fl, left_column, left_reads = _compile(algebra, left, positions, column, domain)
            fr, right_column, right_reads = _compile(algebra, right, positions, column, domain)
            reads = left_reads or right_reads
            if left_column and right_column:
                if embedding := birkhoff_bytes(algebra):
                    into, back = embedding
                    combine, width = (int.__or__ if name == "join" else int.__and__), len(domain)
                    return _hoist(lambda env: combine(
                        int.from_bytes(fl(env).translate(into), "big"),
                        int.from_bytes(fr(env).translate(into), "big"),
                    ).to_bytes(width, "big").translate(back), True, reads)
                rows = table.__getitem__
                return _hoist(lambda env: bytes(map(getitem, map(rows, fl(env)), fr(env))),
                              True, reads)
            if left_column or right_column:
                # Lattice tables are commutative (checked on construction and
                # kept by every internal constructor), so the scalar side may
                # pick the row.
                scalar, col = (fr, fl) if left_column else (fl, fr)
                translations = _known(algebra, ("byte rows", name), lambda: tuple(
                    row + bytes(256 - len(row)) for row in table))
                return _hoist(lambda env: col(env).translate(translations[scalar(env)]),
                              True, reads)
            return _hoist(lambda env: table[fl(env)][fr(env)], False, reads)
    raise AssertionError(f"bad term {term!r}")


def _compile_columns(algebra: FiniteAlgebra, equation: Equation, positions: Mapping[str, int],
                     column: str, domain: bytes) -> tuple[Closure, Closure]:
    """Both sides of an equation as column closures; a scalar side is repeated."""

    def as_column(term: Term) -> Closure:
        closure, is_column, reads = _compile(algebra, term, positions, column, domain)
        if is_column:
            return closure
        return _hoist(lambda env: bytes([closure(env)]) * len(domain), True, reads)[0]

    return as_column(equation[0]), as_column(equation[1])


class Verdict(_Value):
    holds: bool
    witness: dict[str, int] | None = None

    def __bool__(self) -> bool:
        return self.holds


def holds_in(algebra: FiniteAlgebra, sentence: Sentence) -> Verdict:
    """Exhaustively decide a sentence on one finite algebra.

    True iff every total assignment satisfying all premises also satisfies the
    conclusion.  On failure the witness is the lexicographically least failing
    assignment (variables in name order, elements in index order), which keeps
    outputs reproducible.

    The `assignments` cap applies on every call, to the full n^k, whatever the
    premises or the facts decided before.  Each fact is then decided once
    (_decide) and kept per algebra value (_known): callers share the Verdict, read-only.

    On a product with repeated factors, a sentence that holds on the
    diagonal D that direct_product keeps holds; else the full scan finds the
    witness.  Exact: an equation holds in a product iff it holds in every
    coordinate, so premises => e fails iff every factor satisfies the
    premises somewhere and some factor also breaks e there.  That depends
    only on the set of distinct factors, and D is isomorphic to their
    product (Gorbunov, Algebraic Theory of Quasivarieties, 1998).
    """
    caps.guard("assignments", algebra.size ** len(sentence.variables()))

    def decide() -> Verdict:
        diagonal = _known(algebra, "diagonal", lambda: None)  # None: no product seeded one
        if diagonal is not None and (verdict := _decide(algebra, sentence, diagonal)):
            return verdict
        return _decide(algebra, sentence)

    return _known(algebra, sentence, decide)


def _decide(algebra: FiniteAlgebra, sentence: Sentence,
            domain: tuple[int, ...] | None = None) -> Verdict:
    """The scan behind holds_in, with every variable over `domain` (a
    subuniverse, all elements if None).  It skips only assignments that fail
    a premise:

    - A premise without variables is decided once; if it fails, the sentence
      holds.  A premise in one variable filters that variable's domain once,
      before the scan.  Other premises are checked per assignment.
    - The last variable in name order, the fastest one, is the column
      variable.  For each assignment of the other variables (the prefix), a
      subterm without the column variable is computed once, and one with it
      as the column of its values over the column variable's filtered domain.
      The two sides of the conclusion are compared as columns; only where
      they differ are the remaining premises evaluated.
    - Columns are bytes, as an algebra has at most 256 elements.  A table
      lookup over a column is one bytes.translate, by a chain of * and '
      composed into one table or by the row of a lattice operation's scalar
      side, from the byte rows kept per algebra.  A join or meet of two
      columns is one | or & on the Birkhoff embedding where |J| <= 8.  Per
      prefix only what reads it is redone (_compile): a subterm that reads
      no prefix variable is computed once, before the scan.  The scan only
      reads columns.

    Prefixes run in the plain scan's order and each column in index order, so
    the first failing assignment found is the plain scan's witness.
    """
    variables = sentence.variables()
    domains = dict.fromkeys(variables, bytes(range(algebra.size) if domain is None else domain))
    remaining = []
    for (lhs, rhs), names in zip(sentence.premises, sentence.premise_variables):
        if len(names) > 1:
            remaining.append((lhs, rhs))
        elif names:
            (name,) = names
            domain = domains[name]
            left, right = _compile_columns(algebra, (lhs, rhs), {}, name, domain)
            domains[name] = bytes(x for x, l, r in zip(domain, left(()), right(())) if l == r)
        elif eval_term(algebra, lhs, {}) != eval_term(algebra, rhs, {}):
            return Verdict(True)
    if not variables:
        lhs, rhs = sentence.conclusion
        if eval_term(algebra, lhs, {}) == eval_term(algebra, rhs, {}):
            return Verdict(True)
        return Verdict(False, {})
    if not all(domains.values()):
        return Verdict(True)

    *prefix, column = variables
    positions = {name: i for i, name in enumerate(prefix)}
    domain = domains[column]
    left, right = _compile_columns(algebra, sentence.conclusion, positions, column, domain)
    premises = [_compile_columns(algebra, p, positions, column, domain) for p in remaining]

    for env in itertools.product(*(domains[name] for name in prefix)):
        lc, rc = left(env), right(env)
        if lc == rc:
            continue
        checks = [(pl(env), pr(env)) for pl, pr in premises]
        for j, (l, r) in enumerate(zip(lc, rc)):
            if l != r and all(a[j] == b[j] for a, b in checks):
                return Verdict(False, dict(zip(variables, (*env, domain[j]))))
    return Verdict(True)
