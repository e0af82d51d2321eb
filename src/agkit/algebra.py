"""Finite algebras in the fixed signature (join, meet, star, quote, 0, 1).

Elements are dense indices 0..n-1; display labels live on the algebra.  The
quote slot holds whichever unary operation the algebra carries there: for the
regular double Stone algebra on the three-element chain that is the dual
pseudocomplement, for the Kleene-style algebras the De Morgan operation.

Construction verifies the bounded-distributive-lattice axioms exhaustively;
the star/quote tables are only range-checked here (whether they satisfy any
particular axiom system is a separate check, see agkit.axioms).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import caps
from .errors import AlgebraFormatError, LatticeAxiomError, NotFoundError, ParseError

SPEC_KEYS = ("name", "size", "labels", "join", "meet", "star", "quote", "zero", "one")


@dataclass(frozen=True)
class FiniteAlgebra:
    name: str
    size: int
    labels: tuple[str, ...]
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    star: tuple[int, ...]
    quote: tuple[int, ...]
    zero: int
    one: int
    # Products, subalgebras, and quotients of valid lattices are valid by
    # construction; internal constructors set validate=False to skip the
    # O(n^3) axiom scan.  User-facing loading always validates.
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        self._check_shape()
        if self.validate:
            self.verify_lattice_axioms()

    def _check_shape(self) -> None:
        n = self.size
        if n < 1:
            raise AlgebraFormatError(f"{self.name}: size must be >= 1")
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise AlgebraFormatError(f"{self.name}: need {n} distinct labels")
        for table_name in ("join", "meet"):
            table = getattr(self, table_name)
            if len(table) != n or any(len(row) != n for row in table):
                raise AlgebraFormatError(f"{self.name}: {table_name} table must be {n}x{n}")
            if any(not (0 <= v < n) for row in table for v in row):
                raise AlgebraFormatError(f"{self.name}: {table_name} entry out of range")
        for table_name in ("star", "quote"):
            table = getattr(self, table_name)
            if len(table) != n or any(not (0 <= v < n) for v in table):
                raise AlgebraFormatError(f"{self.name}: bad {table_name} table")
        if not (0 <= self.zero < n and 0 <= self.one < n):
            raise AlgebraFormatError(f"{self.name}: constants out of range")
        if n > 1 and self.zero == self.one:
            raise AlgebraFormatError(f"{self.name}: zero = one in a nontrivial algebra")

    def verify_lattice_axioms(self) -> None:
        """Exhaustive table scan; raises LatticeAxiomError naming the axiom
        and a witness tuple on the first violation."""
        n, jn, mt = self.size, self.join, self.meet
        rng = range(n)
        for x, y in itertools.product(rng, repeat=2):
            if jn[x][y] != jn[y][x]:
                self._axiom_fail("join commutativity", (x, y))
            if mt[x][y] != mt[y][x]:
                self._axiom_fail("meet commutativity", (x, y))
            if jn[x][mt[x][y]] != x:
                self._axiom_fail("join absorption", (x, y))
            if mt[x][jn[x][y]] != x:
                self._axiom_fail("meet absorption", (x, y))
        for x, y, z in itertools.product(rng, repeat=3):
            if jn[x][jn[y][z]] != jn[jn[x][y]][z]:
                self._axiom_fail("join associativity", (x, y, z))
            if mt[x][mt[y][z]] != mt[mt[x][y]][z]:
                self._axiom_fail("meet associativity", (x, y, z))
            if mt[x][jn[y][z]] != jn[mt[x][y]][mt[x][z]]:
                self._axiom_fail("distributivity (meet over join)", (x, y, z))
            if jn[x][mt[y][z]] != mt[jn[x][y]][jn[x][z]]:
                self._axiom_fail("distributivity (join over meet)", (x, y, z))
        for x in rng:
            if jn[x][self.zero] != x:
                self._axiom_fail("zero is a join unit", (x,))
            if mt[x][self.one] != x:
                self._axiom_fail("one is a meet unit", (x,))

    def _axiom_fail(self, axiom: str, witness: tuple[int, ...]) -> None:
        pretty = ", ".join(self.labels[i] for i in witness)
        raise LatticeAxiomError(
            axiom, witness, f"{self.name}: violates {axiom} at ({pretty})")

    # -- conveniences ---------------------------------------------------------

    def elements(self) -> range:
        return range(self.size)

    def leq(self, x: int, y: int) -> bool:
        # lattice order derived from meet
        return self.meet[x][y] == x

    def spec_dict(self) -> dict:
        return {
            "name": self.name,
            "size": self.size,
            "labels": list(self.labels),
            "join": [list(row) for row in self.join],
            "meet": [list(row) for row in self.meet],
            "star": list(self.star),
            "quote": list(self.quote),
            "zero": self.zero,
            "one": self.one,
        }


# --- builtins ----------------------------------------------------------------

def _chain_tables(n: int):
    join = tuple(tuple(max(x, y) for y in range(n)) for x in range(n))
    meet = tuple(tuple(min(x, y) for y in range(n)) for x in range(n))
    return join, meet

_JOIN3, _MEET3 = _chain_tables(3)

# The four generating algebras: the two-element Boolean algebra, the two
# expansions of the three-element chain (dual pseudocomplement resp. De Morgan
# operation in the quote slot), and the four-element De Morgan Boolean algebra
# whose star is Boolean complement and whose quote fixes both atoms.
BUILTIN_SPECS: dict[str, dict] = {
    "2": dict(
        size=2, labels=("0", "1"),
        join=((0, 1), (1, 1)), meet=((0, 0), (0, 1)),
        star=(1, 0), quote=(1, 0), zero=0, one=1,
    ),
    "3_dblst": dict(
        size=3, labels=("0", "a", "1"),
        join=_JOIN3, meet=_MEET3,
        star=(2, 0, 0), quote=(2, 2, 0), zero=0, one=2,
    ),
    "3_klst": dict(
        size=3, labels=("0", "a", "1"),
        join=_JOIN3, meet=_MEET3,
        star=(2, 0, 0), quote=(2, 1, 0), zero=0, one=2,
    ),
    "4_dmba": dict(
        size=4, labels=("0", "a", "b", "1"),
        join=((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3)),
        meet=((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3)),
        star=(3, 2, 1, 0), quote=(3, 1, 2, 0), zero=0, one=3,
    ),
}

BUILTIN_NAMES = tuple(sorted(BUILTIN_SPECS))


def builtin(name: str) -> FiniteAlgebra:
    try:
        spec = BUILTIN_SPECS[name]
    except KeyError:
        raise NotFoundError(
            f"unknown builtin algebra {name!r}; known: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return FiniteAlgebra(name=name, **spec)


# --- persistence -------------------------------------------------------------

def dump_algebra(algebra: FiniteAlgebra) -> str:
    """Canonical serialization: fixed key order, no whitespace variance."""
    return json.dumps(algebra.spec_dict(), separators=(",", ":"))


def _json_int(value) -> int:
    """A JSON integer, taken as is: booleans, fractions and strings are
    rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise AlgebraFormatError(f"expected an integer, got {json.dumps(value)}")
    return value


def _json_str(value) -> str:
    if not isinstance(value, str):
        raise AlgebraFormatError(f"expected a string label, got {json.dumps(value)}")
    return value


def load_algebra(text: str) -> FiniteAlgebra:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.pos) from None
    if not isinstance(document, dict):
        raise AlgebraFormatError("algebra document must be a JSON object")
    missing = [k for k in SPEC_KEYS if k not in document]
    extra = [k for k in document if k not in SPEC_KEYS]
    if missing or extra:
        raise AlgebraFormatError(
            f"bad keys: missing {missing or 'none'}, unexpected {extra or 'none'}")
    try:
        return FiniteAlgebra(
            name=str(document["name"]),
            size=_json_int(document["size"]),
            labels=tuple(_json_str(l) for l in document["labels"]),
            join=tuple(tuple(_json_int(v) for v in row) for row in document["join"]),
            meet=tuple(tuple(_json_int(v) for v in row) for row in document["meet"]),
            star=tuple(_json_int(v) for v in document["star"]),
            quote=tuple(_json_int(v) for v in document["quote"]),
            zero=_json_int(document["zero"]),
            one=_json_int(document["one"]),
        )
    except (TypeError, ValueError) as exc:
        raise AlgebraFormatError(f"malformed algebra document: {exc}") from None


def read_algebra(path) -> FiniteAlgebra:
    with open(path, encoding="utf-8") as handle:
        return load_algebra(handle.read())


# --- products ----------------------------------------------------------------

def product_tuples(factors: Sequence[FiniteAlgebra]) -> list[tuple[int, ...]]:
    """Element tuples of the direct product in index order (last factor
    varies fastest); position in this list is the product element index."""
    return list(itertools.product(*(range(f.size) for f in factors)))


def direct_product(factors: Sequence[FiniteAlgebra],
                   max_elements: int | None = None) -> FiniteAlgebra:
    if not factors:
        raise ValueError("direct_product needs at least one factor")
    size = math.prod(f.size for f in factors)
    caps.guard("product_elements", size, max_elements)

    tuples = product_tuples(factors)
    index = {t: i for i, t in enumerate(tuples)}

    def combine(op: str, x: tuple[int, ...], y: tuple[int, ...]) -> int:
        return index[tuple(getattr(f, op)[a][b] for f, a, b in zip(factors, x, y))]

    join = tuple(tuple(combine("join", x, y) for y in tuples) for x in tuples)
    meet = tuple(tuple(combine("meet", x, y) for y in tuples) for x in tuples)
    star = tuple(index[tuple(f.star[a] for f, a in zip(factors, x))] for x in tuples)
    quote = tuple(index[tuple(f.quote[a] for f, a in zip(factors, x))] for x in tuples)
    labels = tuple("(" + ",".join(f.labels[a] for f, a in zip(factors, x)) + ")"
                   for x in tuples)
    name = "(" + " x ".join(f.name for f in factors) + ")"
    return FiniteAlgebra(
        name=name, size=size, labels=labels, join=join, meet=meet,
        star=star, quote=quote,
        zero=index[tuple(f.zero for f in factors)],
        one=index[tuple(f.one for f in factors)],
        validate=False,
    )


# --- subuniverses ------------------------------------------------------------

def subuniverse_closure(algebra: FiniteAlgebra, seed: Iterable[int]) -> frozenset[int]:
    """Least subuniverse containing the seed: fixpoint under both constants
    and all four operations.  Idempotent and monotone in the seed."""
    closed = set(seed)
    closed.add(algebra.zero)
    closed.add(algebra.one)
    queue = list(closed)
    while queue:
        x = queue.pop()
        for y in list(closed):
            for z in (algebra.join[x][y], algebra.meet[x][y]):
                if z not in closed:
                    closed.add(z)
                    queue.append(z)
        for z in (algebra.star[x], algebra.quote[x]):
            if z not in closed:
                closed.add(z)
                queue.append(z)
    return frozenset(closed)


def enumerate_subalgebras(algebra: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All distinct subuniverses, sorted by size then lexicographically.

    Bottom-up one-point-extension search: every subuniverse is reachable from
    the constant subuniverse by adding one generator at a time, so this visits
    exactly the distinct subuniverses instead of scanning all 2^n seeds.
    """
    caps.guard("subalgebra_universe", algebra.size)
    start = subuniverse_closure(algebra, ())
    found = {start}
    queue = [start]
    while queue:
        current = queue.pop()
        for element in algebra.elements():
            if element not in current:
                extended = subuniverse_closure(algebra, current | {element})
                if extended not in found:
                    found.add(extended)
                    queue.append(extended)
    return sorted((tuple(sorted(s)) for s in found), key=lambda s: (len(s), s))


def subalgebra(algebra: FiniteAlgebra, elements: Iterable[int],
               name: str | None = None) -> FiniteAlgebra:
    """Restrict to a subuniverse (must be closed; raises ValueError if not)."""
    universe = tuple(sorted(set(elements)))
    if frozenset(universe) != subuniverse_closure(algebra, universe):
        raise ValueError(f"{universe} is not a subuniverse of {algebra.name}")
    position = {x: i for i, x in enumerate(universe)}
    join = tuple(tuple(position[algebra.join[x][y]] for y in universe) for x in universe)
    meet = tuple(tuple(position[algebra.meet[x][y]] for y in universe) for x in universe)
    return FiniteAlgebra(
        name=name or f"{algebra.name}|{{{','.join(algebra.labels[x] for x in universe)}}}",
        size=len(universe),
        labels=tuple(algebra.labels[x] for x in universe),
        join=join, meet=meet,
        star=tuple(position[algebra.star[x]] for x in universe),
        quote=tuple(position[algebra.quote[x]] for x in universe),
        zero=position[algebra.zero],
        one=position[algebra.one],
        validate=False,
    )


def lattice_reduct(algebra: FiniteAlgebra) -> FiniteAlgebra:
    """Forget star and quote.  Identity unary tables generate nothing, so
    closure and clone computations over the reduct see only the bounded
    lattice structure."""
    identity = tuple(range(algebra.size))
    return FiniteAlgebra(
        name=f"{algebra.name}_lattice", size=algebra.size, labels=algebra.labels,
        join=algebra.join, meet=algebra.meet, star=identity, quote=identity,
        zero=algebra.zero, one=algebra.one, validate=False,
    )
