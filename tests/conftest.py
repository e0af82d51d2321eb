from __future__ import annotations

import itertools
import math
import random
import re
import sys
from operator import and_, ne, or_

import pytest
from hypothesis import strategies as st

from agkit import BUILTIN_NAMES, FiniteAlgebra, ParseError, builtin
from agkit.terms import Const, Join, Meet, Quote, Star, Var, _Parser

# The pairwise oracle makes n(n-1)/2 principal congruences: 0.5 s at 36
# elements, 7 s at 64, so generated members stay at or below this size.
ORACLE_MAX_SIZE = 36


@pytest.fixture(scope="session")
def builtins() -> dict[str, FiniteAlgebra]:
    return {name: builtin(name) for name in BUILTIN_NAMES}


def replace(obj, **changes):
    """A copy of a value object with some fields changed, built through its
    constructor, so __post_init__ checks run on the copy."""
    return type(obj)(**{name: getattr(obj, name) for name in obj.__match_args__} | changes)


class CountingTable(tuple):
    """An operation table that counts the entries (rows, for a binary
    table) read from it, by index or by iteration, as bytes(table) does."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        for entry in super().__iter__():
            self.reads += 1
            yield entry


def log_calls(monkeypatch, module, name: str, log: list) -> None:
    """Replace every agkit binding of module.<name> with a wrapper that
    appends (args, result) of each call to `log`."""
    original = getattr(module, name)

    def logged(*args, **kwargs):
        result = original(*args, **kwargs)
        log.append((args, result))
        return result

    for module_name, bound in list(sys.modules.items()):
        if bound is None or not module_name.startswith("agkit"):
            continue
        for attr, value in list(vars(bound).items()):
            if value is original:
                monkeypatch.setattr(bound, attr, logged)


def kept_facts(algebra: FiniteAlgebra) -> dict:
    """The facts kept about the algebra's value, shared by every algebra
    equal to it: the one way the tests read the store."""
    from agkit.algebra import _facts_of

    return _facts_of(algebra)


def forget_facts() -> None:
    """Empty the facts dict of every algebra value, so that the next call
    decides everything cold: sentence verdicts, memberships, discriminator
    verdicts and hom sets.  Live algebras keep their (now empty) dicts."""
    from agkit.algebra import _FACTS

    for facts in list(_FACTS.values()):
        facts.clear()


@st.composite
def generated_members(draw):
    """A member of the variety built as HSP of the builtins: a product of 1 to
    3 builtins, optionally the subalgebra a random seed generates in it, then
    optionally its quotient by a random principal congruence."""
    from agkit import (direct_product, principal_congruence, quotient, subalgebra,
                       subuniverse_closure)

    names = draw(st.lists(st.sampled_from(BUILTIN_NAMES), min_size=1, max_size=3).filter(
        lambda names: math.prod(builtin(n).size for n in names) <= ORACLE_MAX_SIZE))
    algebra = direct_product([builtin(n) for n in names])
    elements = st.integers(0, algebra.size - 1)
    if draw(st.booleans()):
        seed = draw(st.lists(elements, max_size=3))
        algebra = subalgebra(algebra, subuniverse_closure(algebra, seed))
        elements = st.integers(0, algebra.size - 1)
    if draw(st.booleans()):
        theta = principal_congruence(algebra, draw(elements), draw(elements))
        algebra = quotient(algebra, theta)
    return algebra


@st.composite
def renumbered_products(draw, min_size: int = 24, max_size: int = 64):
    """A product of builtins of min_size to max_size elements, its elements
    renumbered by a seeded random permutation, so that no table is in the
    product's own order."""
    from agkit import direct_product

    names = draw(st.sampled_from([
        names for k in range(2, 7)
        for names in itertools.combinations_with_replacement(BUILTIN_NAMES, k)
        if min_size <= math.prod(builtin(n).size for n in names) <= max_size]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    product = direct_product([builtin(n) for n in rng.sample(names, len(names))])
    return renumber(product, rng.sample(range(product.size), product.size))


def renumber(algebra: FiniteAlgebra, to: list[int]) -> FiniteAlgebra:
    """The algebra with element x renamed to[x], to a permutation."""
    n = algebra.size
    order = sorted(range(n), key=to.__getitem__)  # order[to[x]] == x
    return FiniteAlgebra(
        name="renumbered " + algebra.name, size=n,
        labels=tuple(algebra.labels[x] for x in order),
        join=tuple(tuple(to[algebra.join[x][y]] for y in order) for x in order),
        meet=tuple(tuple(to[algebra.meet[x][y]] for y in order) for x in order),
        star=tuple(to[algebra.star[x]] for x in order),
        quote=tuple(to[algebra.quote[x]] for x in order),
        zero=to[algebra.zero], one=to[algebra.one], validate=False)


@st.composite
def distributive_algebras(draw, max_size: int = 40, max_irreducibles: int = 39):
    """A chain, or a product of two or three chains, of at most max_size
    elements and at most max_irreducibles join-irreducibles (a chain of k
    has k - 1), renumbered at random, with arbitrary star and quote tables,
    checked on construction (validate=True).  Unlike generated_members and
    renumbered_products, it draws lattices that are no AG member and no
    lattice reduct of one: long chains, and |J| past a byte."""
    lengths: list[int] = []
    for _ in range(draw(st.integers(1, 3))):
        longest = min(max_size // math.prod(lengths),
                      max_irreducibles + 1 - sum(k - 1 for k in lengths))
        lengths.append(draw(st.integers(1, longest)))
    points = list(itertools.product(*map(range, lengths)))  # (0, ..) first, (.., k - 1) last
    index = {p: i for i, p in enumerate(points)}
    n = len(points)
    to = draw(st.permutations(range(n)))
    order = sorted(range(n), key=to.__getitem__)

    def table(pick) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(to[index[tuple(map(pick, points[x], points[y]))]] for y in order)
                     for x in order)

    unary = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)
    return FiniteAlgebra(
        name="chains " + " x ".join(map(str, lengths)), size=n,
        labels=tuple(map(str, range(n))), join=table(max), meet=table(min),
        star=draw(unary), quote=draw(unary), zero=to[0], one=to[n - 1])


def chain_algebra(n: int, star: tuple[int, ...] | None = None,
                  quote: tuple[int, ...] | None = None) -> FiniteAlgebra:
    """The n-element chain with the given star and quote tables, by default
    star its pseudocomplement and quote its order reversal.  Its
    join-irreducibles are the n - 1 elements other than 0."""
    return FiniteAlgebra(
        name=f"chain{n}", size=n, labels=tuple(map(str, range(n))),
        join=tuple(tuple(max(x, y) for y in range(n)) for x in range(n)),
        meet=tuple(tuple(min(x, y) for y in range(n)) for x in range(n)),
        star=star or (n - 1,) + (0,) * (n - 1), quote=quote or tuple(reversed(range(n))),
        zero=0, one=n - 1)


def renumbered_chains(min_size: int = 2, max_size: int = 40):
    """chain_algebra of min_size to max_size elements, renumbered at random.
    A chain of n has n - 1 join-irreducibles, past a byte from 10 on."""
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.permutations(range(n)).map(lambda to: renumber(chain_algebra(n), to)))


@st.composite
def chain_products(draw):
    """A product of two or three chains of 2 to 4 elements, at most 4
    join-irreducibles in all (at most 2^4 congruences for the DI oracle), each
    chain with its own arbitrary star and quote tables, renumbered at random.
    Its star and quote act per factor, so it is never directly
    indecomposable, unlike almost every distributive_algebras draw."""
    from agkit import direct_product

    lengths = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3).filter(
        lambda ks: sum(k - 1 for k in ks) <= 4))
    tables = [st.lists(st.integers(0, k - 1), min_size=k, max_size=k).map(tuple)
              for k in lengths]
    product = direct_product([chain_algebra(k, draw(t), draw(t))
                              for k, t in zip(lengths, tables)])
    return renumber(product, draw(st.permutations(range(product.size))))


def chain4(star: tuple[int, ...], quote: tuple[int, ...]) -> FiniteAlgebra:
    """The chain 0 < a < b < 1 with the given star and quote tables."""
    return FiniteAlgebra(
        name="chain4", size=4, labels=("0", "a", "b", "1"),
        join=tuple(tuple(max(x, y) for y in range(4)) for x in range(4)),
        meet=tuple(tuple(min(x, y) for y in range(4)) for x in range(4)),
        star=star, quote=quote, zero=0, one=3)


# Each law of a bounded distributive lattice as (arity, test at one tuple).
LATTICE_LAWS = {
    "join commutativity": (2, lambda a, x, y: a.join[x][y] == a.join[y][x]),
    "meet commutativity": (2, lambda a, x, y: a.meet[x][y] == a.meet[y][x]),
    "join absorption": (2, lambda a, x, y: a.join[x][a.meet[x][y]] == x),
    "meet absorption": (2, lambda a, x, y: a.meet[x][a.join[x][y]] == x),
    "join associativity": (3, lambda a, x, y, z:
                           a.join[x][a.join[y][z]] == a.join[a.join[x][y]][z]),
    "meet associativity": (3, lambda a, x, y, z:
                           a.meet[x][a.meet[y][z]] == a.meet[a.meet[x][y]][z]),
    "distributivity (meet over join)": (3, lambda a, x, y, z:
                                        a.meet[x][a.join[y][z]]
                                        == a.join[a.meet[x][y]][a.meet[x][z]]),
    "distributivity (join over meet)": (3, lambda a, x, y, z:
                                        a.join[x][a.meet[y][z]]
                                        == a.meet[a.join[x][y]][a.join[x][z]]),
    "zero is a join unit": (1, lambda a, x: a.join[x][a.zero] == x),
    "one is a meet unit": (1, lambda a, x: a.meet[x][a.one] == x),
}


def brute_force_lattice_axioms(algebra: FiniteAlgebra):
    """Oracle for verify_lattice_axioms: scan every tuple for every law, all
    n^3 triples for the laws in three variables.  Returns the first (law,
    witness) that fails, or None for a bounded distributive lattice."""
    for law, (arity, holds) in LATTICE_LAWS.items():
        for witness in itertools.product(range(algebra.size), repeat=arity):
            if not holds(algebra, *witness):
                return law, witness
    return None


def row_loop_birkhoff(algebra: FiniteAlgebra) -> tuple[int, ...]:
    """Oracle for algebra._birkhoff on byte rows: the loop that read the join
    rows twice, a row at a time, kept verbatim.  Its bits are numbered in the
    iteration order of set(rng) - reducible, which the kernel must keep."""
    n, jn = algebra.size, algebra.join
    rng = range(n)
    reducible = {algebra.zero}
    for x, row in enumerate(jn):
        found = set(itertools.compress(row, map(ne, row, rng)))  # the x \/ y other than y
        found.discard(x)
        reducible |= found
    bit = [0] * n  # a bit per element of J
    for i, j in enumerate(set(rng) - reducible):
        bit[j] = 1 << i
    return tuple(sum(itertools.compress(bit, map(x.__eq__, row))) for x, row in enumerate(jn))


def row_loop_homomorphic(phi, join, meet) -> bool:
    """Oracle for algebra._homomorphic on byte rows: the per-row check that
    verify_lattice_axioms made, kept verbatim."""
    at = phi.__getitem__
    return all(list(map(at, j_row)) == list(map(or_, itertools.repeat(p), phi))
               and list(map(at, m_row)) == list(map(and_, itertools.repeat(p), phi))
               for p, j_row, m_row in zip(phi, join, meet))


def breaks_law(algebra: FiniteAlgebra, law: str, witness: tuple[int, ...]) -> bool:
    """Is the witness a tuple of elements at which the named law fails?"""
    arity, holds = LATTICE_LAWS[law]
    return (len(witness) == arity and all(0 <= x < algebra.size for x in witness)
            and not holds(algebra, *witness))


def least_variety_by_bases(algebra: FiniteAlgebra):
    """Oracle for generated_subvariety on a nontrivial member of AG: the
    least of the eight varieties whose equational base the algebra satisfies.
    The varieties it satisfies must form a filter."""
    from agkit import all_varieties
    from agkit.variety import satisfies_base

    candidates = [v for v in all_varieties() if satisfies_base(algebra, v).holds]
    least = min(candidates, key=lambda v: len(v.si_names))
    assert all(least.si_names <= v.si_names for v in candidates), algebra.name
    return least


def plain_holds_in(algebra: FiniteAlgebra, sentence):
    """Oracle for holds_in: the plain scan of all n^k assignments (variables
    in name order, the last one fastest), testing every premise at each."""
    from agkit.terms import Verdict, eval_term

    variables = sentence.variables()
    lhs, rhs = sentence.conclusion
    for values in itertools.product(range(algebra.size), repeat=len(variables)):
        env = dict(zip(variables, values))
        if all(eval_term(algebra, pl, env) == eval_term(algebra, pr, env)
               for pl, pr in sentence.premises):
            if eval_term(algebra, lhs, env) != eval_term(algebra, rhs, env):
                return Verdict(False, env)
    return Verdict(True)


def iter_partitions(n: int):
    """All partitions of an n-set, via restricted growth strings."""
    from agkit import Partition

    if n == 0:
        yield Partition(())
        return

    def grow(prefix: list[int], maximum: int):
        if len(prefix) == n:
            yield Partition(tuple(prefix))
            return
        for value in range(maximum + 2):
            yield from grow(prefix + [value], max(maximum, value))

    yield from grow([0], 0)


def brute_force_congruences(algebra: FiniteAlgebra):
    """Oracle: all partitions of the universe, filtered for compatibility."""
    from agkit.congruence import is_congruence

    return [p for p in iter_partitions(algebra.size) if is_congruence(algebra, p)]


def translation_closure(algebra: FiniteAlgebra, a: int, b: int):
    """Oracle for principal_congruence: the set of related pairs, grown from
    (a, b) under symmetry, transitivity and every basic translation (x*, x',
    x \\/ c, x /\\ c) one pair at a time until nothing changes, with no
    union-find and no blocks."""
    from agkit import Partition

    rng = range(algebra.size)
    join, meet, star, quote = algebra.join, algebra.meet, algebra.star, algebra.quote
    related = {(x, x) for x in rng}
    work = [(a, b)]
    while work:
        x, y = work.pop()
        if (x, y) in related:
            continue
        related.add((x, y))
        work.append((y, x))
        work.extend((x, z) for z in rng if (y, z) in related)
        work.extend((w, y) for w in rng if (w, x) in related)
        work += (star[x], star[y]), (quote[x], quote[y])
        work.extend((join[x][c], join[y][c]) for c in rng)
        work.extend((meet[x][c], meet[y][c]) for c in rng)
    return Partition.from_assignment([min(y for y in rng if (x, y) in related) for x in rng])


def join_by_closure(theta, phi) -> tuple[int, ...]:
    """Oracle join of two partitions: the union of the two equivalence
    relations as a set of pairs, closed transitively (Warshall), then numbered
    by hand: a block's id is its rank by least element, first occurrence
    order."""
    rng = range(len(theta.blocks))
    related = {(x, y) for x in rng for y in rng
               if theta.blocks[x] == theta.blocks[y] or phi.blocks[x] == phi.blocks[y]}
    for k, x, y in itertools.product(rng, repeat=3):
        if (x, k) in related and (k, y) in related:
            related.add((x, y))
    least = [min(y for y in rng if (x, y) in related) for x in rng]
    firsts = sorted(set(least))
    return tuple(firsts.index(m) for m in least)


def pairwise_congruence_lattice(algebra: FiniteAlgebra):
    """Oracle for congruence_lattice: the principal congruence of every pair
    of elements, join-closed against every congruence found, as partitions
    finest first.  Partitions join by union-find over their block-mates.

    Con(A) is a sublattice of Con(L), L the distributive lattice reduct, and
    Con(L) is Boolean on J(L), the join-irreducibles of L: the x != 0 above
    the join of all y < x.  More than 2^|J(L)| partitions found means wrong
    principal congruences, which fails here instead of growing towards all
    Bell(n) partitions."""
    from agkit.congruence import Partition, principal_congruence

    n = algebra.size

    def join(theta, phi):
        parent = list(range(n))

        def root(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        for blocks in (theta.blocks, phi.blocks):
            first: dict[int, int] = {}
            for x, block in enumerate(blocks):
                parent[root(x)] = root(first.setdefault(block, x))
        return Partition.from_assignment([root(x) for x in range(n)])

    irreducibles = 0
    for x in range(n):
        below = algebra.zero
        for y in range(n):
            if y != x and algebra.meet[x][y] == y:
                below = algebra.join[below][y]
        irreducibles += below != x
    found = {Partition(tuple(range(n)))}
    for a, b in itertools.combinations(range(n), 2):
        found.add(principal_congruence(algebra, a, b))
    work = list(found)
    while work:
        theta = work.pop()
        for phi in list(found):
            joined = join(theta, phi)
            if joined not in found:
                found.add(joined)
                work.append(joined)
                assert len(found) <= 2 ** irreducibles, "more partitions than Con(L) has"
    return tuple(sorted(found, key=lambda p: (-p.num_blocks, p.blocks)))


def directly_indecomposable_by_definition(congruences) -> bool:
    """Oracle for classify's DI verdict on an algebra of at least 2 elements,
    given all its congruences as partitions: no pair other than {0, 1} has
    meet 0 and join 1 and permutes.  The meet is 0 iff no two elements share
    both blocks, the join is join_by_closure's, and the relational products
    are computed as sets of pairs."""

    def compose(p, q) -> frozenset[tuple[int, int]]:
        q_classes = {i: c for c in q.classes() for i in c}
        return frozenset((x, z) for cls in p.classes() for x in cls for y in cls
                         for z in q_classes[y])

    for theta, phi in itertools.combinations_with_replacement(congruences, 2):
        n = len(theta.blocks)
        if {len(set(theta.blocks)), len(set(phi.blocks))} == {n, 1}:
            continue  # {0, 1}
        if (len(set(zip(theta.blocks, phi.blocks))) == n
                and set(join_by_closure(theta, phi)) == {0}
                and compose(theta, phi) == compose(phi, theta)):
            return False
    return True


def cep_by_definition(sub: FiniteAlgebra, sup_congruences, embedding) -> bool:
    """Oracle: every member of Con(sub) is the restriction of a member of
    Con(sup), given as `sup_congruences`, to the image of the embedding."""
    from agkit.congruence import Partition, congruence_lattice

    restrictions = {Partition.from_assignment([theta.blocks[x] for x in embedding.mapping])
                    for theta in sup_congruences}
    return all(theta in restrictions for theta in congruence_lattice(sub))


def fixpoint_closure(algebra: FiniteAlgebra, seed) -> frozenset[int]:
    """Oracle for subuniverse_closure: apply every operation to every member
    and pair of members, round after round, until no new element appears."""
    members = {algebra.zero, algebra.one, *seed}
    while True:
        found = {table[x][y] for table in (algebra.join, algebra.meet)
                 for x in members for y in members}
        found |= {table[x] for table in (algebra.star, algebra.quote) for x in members}
        if found <= members:
            return frozenset(members)
        members |= found


def brute_force_subuniverses(algebra: FiniteAlgebra) -> set[frozenset[int]]:
    """Oracle: close every subset of the universe."""
    from agkit import subuniverse_closure

    out = set()
    for r in range(algebra.size + 1):
        for seed in itertools.combinations(range(algebra.size), r):
            out.add(subuniverse_closure(algebra, seed))
    return out


# The sentence scanner as a match loop, one token kind per named group.
_TOKEN_KINDS = re.compile(
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


def match_loop_tokens(text: str) -> list[tuple[str, str, int]]:
    """Oracle for terms._tokenize: (kind, text, offset) of each token, then
    ("end", "", len(text)), by one regex match per token or run of
    whitespace; a ParseError at the first character that starts none."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_KINDS.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class RecursiveDescentParser(_Parser):
    """Oracle for _Parser's precedence climbing: the recursive-descent
    grammar it replaced, one method per level, on the same tokens, errors
    and depth limits.  term := meet (\\/ meet)*, meet := unary (/\\ unary)*,
    unary := atom (* | ')*, atom := variable | 0 | 1 | ( term )."""

    def term(self):
        node, depth = self.meet()
        while self.peek() == "\\/":
            at = self.advance()
            right, right_depth = self.meet()
            node, depth = Join(node, right), self.nest(max(depth, right_depth), at)
        return node, depth

    def meet(self):
        node, depth = self.unary()
        while self.peek() == "/\\":
            at = self.advance()
            right, right_depth = self.unary()
            node, depth = Meet(node, right), self.nest(max(depth, right_depth), at)
        return node, depth

    def unary(self):
        node, depth = self.atom()
        while self.peek() in ("*", "'"):
            at = self.advance()
            node = Star(node) if self.tokens[at] == "*" else Quote(node)
            depth = self.nest(depth, at)
        return node, depth

    def atom(self):
        token = self.peek()
        if token[:1].isalpha():
            self.advance()
            return Var(token), 0
        if token in ("0", "1"):
            self.advance()
            return Const(int(token)), 0
        if token == "(":
            self.parens = self.nest(self.parens, self.advance())
            node, depth = self.term()
            self.expect(")", ("')'",))
            self.parens -= 1
            return node, depth
        raise self.error(("variable", "'0'", "'1'", "'('"))


def recursive_term_variables(term) -> set[str]:
    """Oracle for terms.term_variables: the recursive walk, one set union
    per binary node."""
    match term:
        case Var(name):
            return {name}
        case Const(_):
            return set()
        case Star(arg) | Quote(arg):
            return recursive_term_variables(arg)
        case Join(left, right) | Meet(left, right):
            return recursive_term_variables(left) | recursive_term_variables(right)
    raise AssertionError(f"bad term {term!r}")


def dual_homs(source: FiniteAlgebra, target: FiniteAlgebra,
              embeddings: bool = False) -> list[tuple[int, ...]]:
    """Oracle for enumerate_homs by Birkhoff duality, as sorted map arrays.

    The {0,1}-lattice homomorphisms h: S -> T are the maps h(x) = the join of
    {q in J(T) : f(q) <= x}, f: J(T) -> J(S) order-preserving, and h is
    one-to-one iff f is onto (Davey & Priestley, Introduction to Lattices
    and Order, ch. 5 and 11).  The homomorphisms are the h that also commute
    with star and quote; with `embeddings`, those whose f is onto.  x <= y
    iff x \\/ y = y, and J(A) is the elements other than 0 that are the join
    of no two others, both read off the join table: no agkit code runs."""

    def dual(algebra: FiniteAlgebra):
        join = algebra.join
        reducible = {algebra.zero} | {z for x, row in enumerate(join)
                                      for y, z in enumerate(row) if z not in (x, y)}
        irreducibles = [j for j in range(algebra.size) if j not in reducible]
        below = [frozenset(i for i, j in enumerate(irreducibles) if join[j][x] == x)
                 for x in range(algebra.size)]  # the J(A) below x, by position
        return irreducibles, below

    j_source, below_source = dual(source)
    j_target, below_target = dual(target)
    element = {b: m for m, b in enumerate(below_target)}
    found = []
    for f in itertools.product(range(len(j_source)), repeat=len(j_target)):
        if any(f[p] not in below_source[j_source[f[q]]]
               for q, j in enumerate(j_target) for p in below_target[j]):
            continue  # not order-preserving
        h = tuple(element[frozenset(q for q, p in enumerate(f) if p in below)]
                  for below in below_source)
        if all(h[source.star[x]] == target.star[h[x]] and h[source.quote[x]] == target.quote[h[x]]
               for x in range(source.size)):
            if not embeddings or len(set(f)) == len(j_source):
                found.append(h)
    return sorted(found)


def brute_force_discriminator_preserves(left: FiniteAlgebra, right: FiniteAlgebra) -> bool:
    """Oracle for the discriminator check: enumerate every subuniverse of
    left x right, then test the discriminator, taken in each factor, on all
    |U|^3 triples of each."""
    from agkit import direct_product, enumerate_subalgebras

    def disc(x: int, y: int, z: int) -> int:
        return z if x == y else x

    n = right.size
    for universe in enumerate_subalgebras(direct_product([left, right])):
        pairs = [(k // n, k % n) for k in universe]
        members = set(pairs)
        for (a1, b1), (a2, b2), (a3, b3) in itertools.product(pairs, repeat=3):
            if (disc(a1, a2, a3), disc(b1, b2, b3)) not in members:
                return False
    return True


def hereditarily_si(v) -> bool:
    """Oracle for Thm 3.1 (2): classify every subalgebra of every SI
    generator of v."""
    from agkit import classify, enumerate_subalgebras, subalgebra

    for si in v.si_algebras():
        for universe in enumerate_subalgebras(si):
            if not classify(subalgebra(si, universe)).subdirectly_irreducible:
                return False
    return True


def cep_spot_checks(v) -> bool:
    """Oracle for CEP (Cor 2.8(3)): every embedding of an SI generator of v
    into a generator or a 2-factor product of generators extends congruences."""
    from agkit import Homomorphism, cep_instance, direct_product, enumerate_embeddings

    sis = v.si_algebras()
    supers = list(sis)
    supers.extend(direct_product([s, t]) for s in sis for t in sis)
    for sub in sis:
        for sup in supers:
            for embedding in enumerate_embeddings(sub, sup):
                if not cep_instance(sub, sup, Homomorphism(sub, sup, embedding)):
                    return False
    return True


def refute_amal_base(v, algebra: FiniteAlgebra):
    """Oracle: the first diagram <algebra; B, C> with B, C SI members of v that
    has no amalgam in v, with its obstruction, or None.

    B, C, f and g are enumerated in the order classify_ap decides them.  A
    hit refutes membership of `algebra` in the amalgamation class; no hit
    proves nothing.
    """
    from agkit import Homomorphism, Obstruction, decide_amalgamation, enumerate_embeddings
    from agkit.amalgamation import Diagram
    from agkit.variety import require_in_variety

    require_in_variety(algebra, v)
    sis = v.si_algebras()
    for left in sis:
        fs = enumerate_embeddings(algebra, left)
        for right in sis:
            for f, g in itertools.product(fs, enumerate_embeddings(algebra, right)):
                d = Diagram(algebra, left, right, Homomorphism(algebra, left, f),
                            Homomorphism(algebra, right, g))
                result = decide_amalgamation(v, d)
                if isinstance(result, Obstruction):
                    return d, result
    return None


def brute_force_verify_amalgam(v, left: FiniteAlgebra, right: FiniteAlgebra,
                               f: tuple[int, ...], g: tuple[int, ...], amalgam) -> bool:
    """Oracle for an amalgam certificate of the diagram f: A -> left,
    g: A -> right of nontrivial algebras (map arrays), by direct table scans:

    - the factor S of every chosen pair (h, k, S) is an SI generator of v,
      h and k are among the maps that brute_force_homs finds into S, and
      h o f = k o g;
    - into the tuple-built product of those generators, the tupled maps
      f1 = (h, ...) and g1 = (k, ...) are injective and preserve the
      constants and all four operations, and f1 o f = g1 o g."""
    from agkit.morphisms import brute_force_homs

    sis = {si.name: si for si in v.si_algebras()}
    names = [s.name for _, _, s in amalgam.pairs]
    if not names or any(name not in sis for name in names):
        return False
    factors = [sis[name] for name in names]
    for si, (h, k, _) in zip(factors, amalgam.pairs):
        if h not in brute_force_homs(left, si) or k not in brute_force_homs(right, si):
            return False
        if any(h[f[x]] != k[g[x]] for x in range(len(f))):
            return False
    product = tuple_direct_product(factors)
    index = {t: i for i, t in enumerate(itertools.product(*(range(s.size) for s in factors)))}
    tupled = []
    for source, maps in ((left, [h for h, _, _ in amalgam.pairs]),
                         (right, [k for _, k, _ in amalgam.pairs])):
        mapping = tuple(index[tuple(m[x] for m in maps)] for x in range(source.size))
        if len(set(mapping)) != source.size:
            return False
        if (mapping[source.zero], mapping[source.one]) != (product.zero, product.one):
            return False
        for x in range(source.size):
            if (mapping[source.star[x]] != product.star[mapping[x]]
                    or mapping[source.quote[x]] != product.quote[mapping[x]]):
                return False
            for y in range(source.size):
                if (mapping[source.join[x][y]] != product.join[mapping[x]][mapping[y]]
                        or mapping[source.meet[x][y]] != product.meet[mapping[x]][mapping[y]]):
                    return False
        tupled.append(mapping)
    f1, g1 = tupled
    return all(f1[f[x]] == g1[g[x]] for x in range(len(f)))


def si_quotients_of_subalgebras(algebra: FiniteAlgebra) -> set[str]:
    """Oracle: names of builtins isomorphic to an SI quotient of a subalgebra,
    the slow way to the generators of generated_subvariety(algebra)."""
    from agkit import (congruence_lattice, enumerate_embeddings, enumerate_subalgebras,
                       quotient, subalgebra)

    names = set()
    for universe in enumerate_subalgebras(algebra):
        sub = subalgebra(algebra, universe)
        for theta in congruence_lattice(sub):
            q = quotient(sub, theta)
            if q.size < 2:
                continue
            for si_name in BUILTIN_NAMES:
                if q.size == builtin(si_name).size and enumerate_embeddings(q, builtin(si_name)):
                    names.add(si_name)
    return names


def tuple_direct_product(factors):
    """Oracle for direct_product: one tuple per element, last factor fastest,
    and each table entry looked up by its tuple of coordinatewise results."""
    tuples = list(itertools.product(*(range(f.size) for f in factors)))
    index = {t: i for i, t in enumerate(tuples)}

    def combine(op: str, x, y) -> int:
        return index[tuple(getattr(f, op)[a][b] for f, a, b in zip(factors, x, y))]

    return FiniteAlgebra(
        name="(" + " x ".join(f.name for f in factors) + ")",
        size=len(tuples),
        labels=tuple("(" + ",".join(f.labels[a] for f, a in zip(factors, x)) + ")"
                     for x in tuples),
        join=tuple(tuple(combine("join", x, y) for y in tuples) for x in tuples),
        meet=tuple(tuple(combine("meet", x, y) for y in tuples) for x in tuples),
        star=tuple(index[tuple(f.star[a] for f, a in zip(factors, x))] for x in tuples),
        quote=tuple(index[tuple(f.quote[a] for f, a in zip(factors, x))] for x in tuples),
        zero=index[tuple(f.zero for f in factors)],
        one=index[tuple(f.one for f in factors)],
        validate=False)


def closure_free_algebra(v, n: int):
    """Oracle for free_algebra: the subalgebra that the projection vectors
    generate in the product over every coordinate (S, t), S an SI generator
    of v and t in S^n, closed one element at a time.  Returns the algebra and
    the generator indices."""
    factors, vectors = [], [[] for _ in range(n)]
    for si in v.si_algebras():
        for t in itertools.product(range(si.size), repeat=n):
            factors.append(si)
            for i in range(n):
                vectors[i].append(t[i])

    tables = {op: [getattr(f, op) for f in factors] for op in ("join", "meet", "star", "quote")}

    def apply(op: str, x, y=None) -> tuple[int, ...]:
        if y is None:
            return tuple(table[a] for table, a in zip(tables[op], x))
        return tuple(table[a][b] for table, a, b in zip(tables[op], x, y))

    zero = tuple(f.zero for f in factors)
    one = tuple(f.one for f in factors)
    elements = dict.fromkeys([zero, one, *map(tuple, vectors)])
    work = list(elements)
    while work:
        x = work.pop()
        found = [apply(op, x, y) for y in list(elements) for op in ("join", "meet")]
        found += [apply("star", x), apply("quote", x)]
        for vector in found:
            if vector not in elements:
                elements[vector] = None
                work.append(vector)
    index = {vector: i for i, vector in enumerate(elements)}
    table = {op: tuple(tuple(index[apply(op, x, y)] for y in elements) for x in elements)
             for op in ("join", "meet")}
    algebra = FiniteAlgebra(
        name=f"closure F_{v.name}({n})", size=len(index),
        labels=tuple(str(i) for i in range(len(index))),
        join=table["join"], meet=table["meet"],
        star=tuple(index[apply("star", x)] for x in elements),
        quote=tuple(index[apply("quote", x)] for x in elements),
        zero=index[zero], one=index[one], validate=False)
    return algebra, tuple(index[tuple(vector)] for vector in vectors)
