"""Finite algebras in the fixed signature (join, meet, star, quote, 0, 1).

Elements are dense indices 0..n-1, at most 256 of them; display labels live
on the algebra.  The join and meet rows are bytes, however they were given,
so one spec is one value either way; star and quote are tuples.  The quote
slot holds whichever unary operation the algebra carries there: for the
regular double Stone algebra on the three-element chain that is the dual
pseudocomplement, for the Kleene-style algebras the De Morgan operation.

Construction verifies the bounded-distributive-lattice axioms by Birkhoff's
embedding (verify_lattice_axioms), in whole-table byte operations; loading
checks the entries' types a row at a time.  The star/quote tables are only
range-checked here (whether they satisfy any particular axiom system is a
separate check, see agkit.axioms).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import weakref
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Sequence

from . import caps
from .errors import AlgebraFormatError, LatticeAxiomError, NotFoundError, ParseError, _Value

SPEC_KEYS = ("name", "size", "labels", "join", "meet", "star", "quote", "zero", "one")
_spec = attrgetter(*SPEC_KEYS)  # the fields that == and the hash compare: not `validate`


class FiniteAlgebra(_Value):
    name: str
    size: int
    labels: tuple[str, ...]
    join: tuple[bytes, ...]
    meet: tuple[bytes, ...]
    star: tuple[int, ...]
    quote: tuple[int, ...]
    zero: int
    one: int
    # Products, subalgebras, and quotients of valid lattices are valid by
    # construction, so internal constructors skip the lattice laws, which would
    # more than triple building F_BA(3).  Shape and range are always checked.
    validate: bool = True

    def __post_init__(self):
        # Both slots are set here, with the fields: added later, as by a cached_property,
        # they make CPython 3.11 read every attribute of that algebra ≈1.7x slower.
        object.__setattr__(self, "_hashed", None)
        object.__setattr__(self, "_facts", None)
        self._check_shape()
        if self.validate:
            self.verify_lattice_axioms()

    def __hash__(self) -> int:  # hashed once: it keys _FACTS and the facts about other algebras
        if self._hashed is None:
            object.__setattr__(self, "_hashed", hash(_spec(self)))
        return self._hashed

    def __eq__(self, other) -> bool:  # `is` first: an algebra is mostly compared with itself
        return self is other or (type(other) is type(self) and hash(self) == hash(other)
                                 and _spec(self) == _spec(other))

    def _check_shape(self) -> None:
        n = self.size
        if not 1 <= n <= 256:  # the most elements that byte rows index
            raise AlgebraFormatError(f"{self.name}: size must be 1 to 256")
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise AlgebraFormatError(f"{self.name}: need {n} distinct labels")
        universe, below_n = frozenset(range(n)), bytes(range(n))
        for table_name in ("join", "meet"):
            table = getattr(self, table_name)
            if len(table) != n or set(map(len, table)) != {n}:
                raise AlgebraFormatError(f"{self.name}: {table_name} table must be {n}x{n}")
            try:  # bytes() refuses a non-integer, -1 and 256, and keeps a bytes row as it is
                rows = tuple(map(bytes, table))
                for row in rows:  # in range, a row is empty once 0..n-1 are deleted
                    if row.translate(None, below_n):
                        raise ValueError
            except (TypeError, ValueError):
                raise AlgebraFormatError(f"{self.name}: {table_name} entry out of range") from None
            object.__setattr__(self, table_name, table if rows == table else rows)
        for table_name in ("star", "quote"):
            table = getattr(self, table_name)
            if len(table) != n or not universe.issuperset(table):
                raise AlgebraFormatError(f"{self.name}: bad {table_name} table")
        if not (0 <= self.zero < n and 0 <= self.one < n):
            raise AlgebraFormatError(f"{self.name}: constants out of range")
        if n > 1 and self.zero == self.one:
            raise AlgebraFormatError(f"{self.name}: zero = one in a nontrivial algebra")

    def verify_lattice_axioms(self) -> None:
        """Check the bounded distributive lattice laws in O(n^2); raises
        LatticeAxiomError naming a law and a witness that breaks it.

        The tables pass iff the join row of zero and the meet row of one are
        the identity and phi (_birkhoff) is an injective \\/,/\\-map into a
        powerset (_homomorphic).  Sound: then the tables are a sublattice of a
        distributive lattice, whatever phi is, with bounds zero and one.
        Complete: in a bounded distributive lattice phi is Birkhoff's
        embedding (Davey & Priestley, ch. 5).

        Tables that fail are scanned, to name the law.  Given commutativity and
        absorption, x <= y iff x \\/ y = y is an order if transitive; if the
        tables also give its lubs and glbs, both associative laws hold.  It is
        distributive iff x -> J & down[x] preserves joins (Birkhoff).
        """
        n, jn, mt = self.size, self.join, self.meet
        rng = range(n)
        if (len(set(phi := _birkhoff(self))) == n
                and jn[self.zero] == bytes(rng) == mt[self.one]
                and _homomorphic(phi, jn, mt)):
            _known(self, "birkhoff", lambda: phi)
            return
        for x, y in itertools.product(rng, repeat=2):
            if jn[x][y] != jn[y][x]:
                self._axiom_fail("join commutativity", (x, y))
            if mt[x][y] != mt[y][x]:
                self._axiom_fail("meet commutativity", (x, y))
            if jn[x][mt[x][y]] != x:
                self._axiom_fail("join absorption", (x, y))
            if mt[x][jn[x][y]] != x:
                self._axiom_fail("meet absorption", (x, y))
        up = [sum(1 << y for y in rng if jn[x][y] == y) for x in rng]  # bitmasks: y >= x
        down = [sum(1 << y for y in rng if jn[x][y] == x) for x in rng]  # and y <= x
        for x, y in itertools.product(rng, repeat=2):
            if jn[x][y] == y and (bad := up[y] & ~up[x]):  # x <= y <= z, not x <= z
                self._axiom_fail("join associativity", (x, y, bad.bit_length() - 1))
        for x, y in itertools.product(rng, repeat=2):
            if bad := up[x] & up[y] & ~up[jn[x][y]]:  # z >= x, y but not >= x \/ y
                self._axiom_fail("join associativity", (x, y, bad.bit_length() - 1))
            if bad := down[x] & down[y] & ~down[mt[x][y]]:
                self._axiom_fail("meet associativity", (bad.bit_length() - 1, x, y))
        joins = {z for x, row in enumerate(jn) for y, z in enumerate(row) if z not in (x, y)}
        irreducible = sum(1 << j for j in rng if j not in joins and down[j] != 1 << j)
        for x, y in itertools.product(rng, repeat=2):
            if bad := irreducible & down[jn[x][y]] & ~(down[x] | down[y]):
                self._axiom_fail("distributivity (meet over join)",
                                 (bad.bit_length() - 1, x, y))
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


# one construction per name and spec value, so a replaced spec is built anew
_built = functools.cache(lambda name, spec: FiniteAlgebra(name=name, **dict(spec)))

# The facts about each algebra value: one dict, held weakly here and strongly in
# the _facts slot of every equal algebra (_known), so it lives while one does.
class _Facts(dict):
    __slots__ = ("__weakref__",)


class _Key(tuple):  # (hash, *spec) of an algebra: its tables are hashed once, by it
    def __hash__(self) -> int:
        return self[0]


_FACTS: weakref.WeakValueDictionary[_Key, _Facts] = weakref.WeakValueDictionary()
_UNKNOWN = object()


def _known(algebra: FiniteAlgebra, key, decide):
    """decide() the first time key is asked about an algebra equal to this
    one, the kept value after that.  A decide() that raises keeps nothing."""
    facts = algebra._facts or _facts_of(algebra)
    value = facts.get(key, _UNKNOWN)
    if value is _UNKNOWN:
        value = facts[key] = decide()
    return value


def _facts_of(algebra: FiniteAlgebra) -> dict:
    if algebra._facts is None:
        key = _Key((hash(algebra), *_spec(algebra)))
        object.__setattr__(algebra, "_facts", _FACTS.setdefault(key, _Facts()))
    return algebra._facts


def _birkhoff(algebra: FiniteAlgebra) -> tuple[int, ...]:
    """phi(x) = J & down(x) as a bitmask, J the elements other than zero that
    are the join of no two other elements: Birkhoff's embedding into 2^J if
    the tables are a bounded distributive lattice.  Byte k of phi ORs the k-th
    eight of J's meet rows, with j's bit where j /\\ x = j, i.e. j <= x."""
    n, jn = algebra.size, algebra.join
    rng = range(n)
    # the whole table at once: x \/ y where table ^ rows and table ^ columns are nonzero
    table, rows, columns, ones = (int.from_bytes(b, "big") for b in (
        b"".join(jn), b"".join([bytes((x,)) * n for x in rng]), bytes(rng) * n, b"\1" * n * n))
    low, high, zero = 127 * ones, 128 * ones, algebra.zero * ones  # in every byte
    nonzero = [((v & low) + low | v) & high for v in (table ^ rows, table ^ columns)]
    values = zero ^ (table ^ zero) & (nonzero[0] & nonzero[1]) // 128 * 255
    reducible = {algebra.zero, *filter(values.to_bytes(n * n, "big").__contains__, rng)}
    irreducible = set(rng) - reducible  # its order numbers the bits, as it always has
    planes = [0] * ((len(irreducible) + 7) // 8 or 1)
    for i, j in enumerate(irreducible):
        planes[i // 8] |= int.from_bytes(bytes(map(j.__eq__, algebra.meet[j])), "big") << i % 8
    return tuple(map(int.from_bytes, zip(*(p.to_bytes(n, "big") for p in planes)),
                     itertools.repeat("little")))


def _homomorphic(phi: Sequence[int], join: Sequence[bytes], meet: Sequence[bytes]) -> bool:
    """phi(x \\/ y) = phi(x) | phi(y) and phi(x /\\ y) = phi(x) & phi(y) at every
    pair of byte rows, a byte of phi at a time, on whole tables read as big ints."""
    n, joins, meets = len(phi), b"".join(join), b"".join(meet)
    for k in range(0, max(phi).bit_length() or 1, 8):
        to = bytes(p >> k & 255 for p in phi) + bytes(256 - n)
        r, c, j, m = (int.from_bytes(b, "big") for b in (  # to[x] and to[y] at (x, y)
            b"".join([to[x:x + 1] * n for x in range(n)]), to[:n] * n,
            joins.translate(to), meets.translate(to)))
        if j != r | c or m != r & c:  # | and & act bytewise
            return False
    return True


def birkhoff(algebra: FiniteAlgebra) -> tuple[int, ...]:
    """The algebra's Birkhoff embedding phi (_birkhoff), kept per algebra:
    seeded by verify_lattice_axioms and direct_product, else derived here."""
    return _known(algebra, "birkhoff", lambda: _birkhoff(algebra))


def birkhoff_bytes(algebra: FiniteAlgebra) -> tuple[bytes, bytes] | None:
    """phi and its inverse as 256-byte translations, derived from the kept phi
    and kept beside it, or None if |J| > 8 (some phi(x) > 255; phi(one) = J,
    so |J| <= 8 forces n <= 256).  phi is injective and sends \\/ to | and
    /\\ to &, so phi(x) | phi(y) = phi(x \\/ y) is an image and reads back as
    x \\/ y: terms._compile joins columns so."""
    return _known(algebra, "birkhoff bytes", lambda: _byte_embedding(birkhoff(algebra)))


def _byte_embedding(phi: Sequence[int]) -> tuple[bytes, bytes] | None:
    if max(phi) > 255:
        return None
    back = bytearray(256)
    for x, image in enumerate(phi):
        back[image] = x
    return bytes(phi) + bytes(256 - len(phi)), bytes(back)


def builtin(name: str) -> FiniteAlgebra:
    try:
        spec = BUILTIN_SPECS[name]
    except KeyError:
        raise NotFoundError(
            f"unknown builtin algebra {name!r}; known: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return _built(name, tuple(spec.items()))


# --- persistence -------------------------------------------------------------

def dump_algebra(algebra: FiniteAlgebra) -> str:
    """Canonical serialization: fixed key order, no whitespace variance."""
    return json.dumps(algebra.spec_dict(), separators=(",", ":"))


def _cut(value) -> str:
    """The value as JSON, cut short so that an error message stays one line.
    json.loads accepts nesting that json.dumps, frames deeper, may not."""
    try:
        text = json.dumps(value)
    except RecursionError:
        return "a value nested too deeply to quote"
    return text if len(text) <= 60 else text[:60] + "..."


def _json_int(value) -> int:
    """A JSON integer, taken as is: booleans, fractions and strings are
    rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise AlgebraFormatError(f"expected an integer, got {_cut(value)}")
    return value


def _json_str(value) -> str:
    if not isinstance(value, str):
        raise AlgebraFormatError(f"expected a string, got {_cut(value)}")
    return value


def _json_array(value) -> list:
    """A JSON array, taken as is: a string or an object is not iterated.
    (Tables need no such check: iterating either yields strings, which
    _json_int rejects.)"""
    if not isinstance(value, list):
        raise AlgebraFormatError(f"expected an array, got {_cut(value)}")
    return value


def _json_ints(values) -> tuple[int, ...]:
    """A JSON array of integers as a tuple.  One pass in C checks the types;
    only if it fails does the _json_int walk run, to name the first bad entry."""
    ints = tuple(values)
    if {int}.issuperset(map(type, ints)):
        return ints
    return tuple(map(_json_int, ints))


def load_algebra(text: str) -> FiniteAlgebra:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.pos) from None
    except RecursionError:
        raise AlgebraFormatError("algebra document is nested too deeply") from None
    if not isinstance(document, dict):
        raise AlgebraFormatError("algebra document must be a JSON object")
    missing = [k for k in SPEC_KEYS if k not in document]
    extra = [k for k in document if k not in SPEC_KEYS]
    if missing or extra:
        raise AlgebraFormatError(
            f"bad keys: missing {missing or 'none'}, unexpected {extra or 'none'}")
    try:
        return FiniteAlgebra(
            name=_json_str(document["name"]),
            size=_json_int(document["size"]),
            labels=tuple(_json_str(l) for l in _json_array(document["labels"])),
            join=tuple(map(_json_ints, document["join"])),
            meet=tuple(map(_json_ints, document["meet"])),
            star=_json_ints(document["star"]),
            quote=_json_ints(document["quote"]),
            zero=_json_int(document["zero"]),
            one=_json_int(document["one"]),
        )
    except (TypeError, ValueError) as exc:
        raise AlgebraFormatError(f"malformed algebra document: {exc}") from None


def read_algebra(path) -> FiniteAlgebra:
    """Load an algebra file; a ParseError at the byte offset if it is not
    UTF-8, and an AlgebraFormatError naming the path if it cannot be read."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"algebra file is not UTF-8 ({exc.reason})", exc.start) from None
    except OSError as exc:
        raise AlgebraFormatError(f"cannot read algebra file {path}: {exc.strerror}") from None
    return load_algebra(text)


# --- products ----------------------------------------------------------------

def direct_product(factors: Sequence[FiniteAlgebra]) -> FiniteAlgebra:
    """The product, its elements the tuples in lexicographic order (last
    factor fastest): (x, y) of L x R gets index x * |R| + y (_product_tables).

    A product past the `elements` cap is refused before any table is built.
    It keeps its Birkhoff embedding (birkhoff), in O(n) from the factors':
    phi(x, y) = phi_L(x) << |J_R| | phi_R(y) is injective and sends \\/ to |
    and /\\ to & as phi_L and phi_R do.

    If factors repeat, it also keeps ("diagonal") the elements whose
    coordinates agree across equal factors, in index order: a subuniverse D
    isomorphic to the product P' of the distinct factors.  The product is in
    SP(P') and D in S of it, so the product and D satisfy the same
    quasi-identities (Gorbunov, Algebraic Theory of Quasivarieties, 1998).
    holds_in scans D first.
    """
    if not factors:
        raise ValueError("direct_product needs at least one factor")
    size = math.prod(f.size for f in factors)
    caps.guard("elements", size)
    join, meet, star, quote, zero, one = _product_tables(factors, size)
    product = FiniteAlgebra(
        name=product_name(factors), size=size,
        labels=tuple("(" + ",".join(t) + ")"
                     for t in itertools.product(*(f.labels for f in factors))),
        join=join, meet=meet, star=star, quote=quote, zero=zero, one=one, validate=False)
    _known(product, "birkhoff", lambda: _product_embedding(factors))
    if len(set(factors)) < len(factors):
        _known(product, "diagonal", lambda: _diagonal(factors))
    return product


def product_name(factors: Sequence[FiniteAlgebra]) -> str:
    """The name of direct_product(factors): "(L x R)" for two factors."""
    return "(" + " x ".join(f.name for f in factors) + ")"


def _diagonal(factors: Sequence[FiniteAlgebra]) -> tuple[int, ...]:
    """The product's elements whose coordinates agree across equal factors,
    in index order (see direct_product)."""
    first = [factors.index(f) for f in factors]  # the first factor equal to each
    return tuple(i for i, t in enumerate(itertools.product(*(f.elements() for f in factors)))
                 if all(t[j] == t[k] for j, k in enumerate(first)))


def _product_tables(factors: Sequence[FiniteAlgebra], size: int) -> tuple:
    """(join, meet, star, quote, zero, one) of the product, of `size` elements:
    the halves split where the later factors first reach sqrt(size) elements,
    folded.  The last fold copies runs of about sqrt(size) entries, not of one
    factor's size.  Split so, F_RKLST(2) peaks at 268 MiB; split by count, 309."""
    if len(factors) == 1:
        (f,) = factors
        return f.join, f.meet, f.star, f.quote, f.zero, f.one
    split, k = len(factors) - 1, factors[-1].size
    while k * k < size and split > 1:
        split -= 1
        k *= factors[split].size
    lj, lm, ls, lq, lz, lo = _product_tables(factors[:split], size // k)
    rj, rm, rs, rq, rz, ro = _product_tables(factors[split:], k)
    return (_fold_table(lj, rj, k), _fold_table(lm, rm, k),
            tuple(x * k + a for x in ls for a in rs), tuple(x * k + a for x in lq for a in rq),
            lz * k + rz, lo * k + ro)


def _fold_table(table: Sequence[bytes], factor_table: Sequence[bytes],
                k: int) -> tuple[bytes, ...]:
    """A binary table of P x f from those of P and f (|f| = k): entry
    (x * k + a, y * k + b) is table[x][y] * k + factor_table[a][b].

    blocks[a][z] holds the k entries z * k + factor_table[a][b] over b:
    factor_table[a] translated by v -> z * k + v.  So a row is one join of
    the blocks[a][table[x][y]] over y, with no Python step per entry.
    """
    ramp = bytes(range(256))  # rotated by z * k: each v < k goes to z * k + v <= 255
    blocks = [[row.translate(ramp[z * k:] + ramp[:z * k]) for z in range(len(table))]
              for row in factor_table]
    return tuple(b"".join(map(block.__getitem__, row)) for row in table for block in blocks)


def _product_embedding(factors: Sequence[FiniteAlgebra]) -> tuple[int, ...]:
    """birkhoff of the product from the factors' (see direct_product)."""
    phi = (0,)
    for f in factors:
        into = birkhoff(f)
        width = into[f.one].bit_length()  # phi(one) = J
        phi = tuple(p << width | q for p in phi for q in into)
    return phi


# --- subuniverses ------------------------------------------------------------

def subuniverse_closure(algebra: FiniteAlgebra, seed: Iterable[int]) -> frozenset[int]:
    """Least subuniverse containing the seed: fixpoint under both constants
    and all four operations.  Idempotent and monotone in the seed."""
    return _adjoin(algebra, frozenset(), {algebra.zero, algebra.one, *seed})


def _adjoin(algebra: FiniteAlgebra, closed: frozenset[int],
            elements: Iterable[int]) -> frozenset[int]:
    """Least subuniverse containing the subuniverse `closed` and the
    elements; as `closed` is closed, only pairs with a new element are combined."""
    queue = list(set(elements) - closed)
    members = set(closed).union(queue)
    while queue:
        x = queue.pop()
        pick = itemgetter(x, *members)  # x is a member: at least two keys, so a tuple
        new = {*pick(algebra.join[x]), *pick(algebra.meet[x]),
               algebra.star[x], algebra.quote[x]} - members
        members |= new
        queue.extend(new)
    return frozenset(members)


def enumerate_subalgebras(algebra: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All distinct subuniverses, sorted by size then lexicographically."""
    return sorted((tuple(sorted(s)) for s in _subuniverses(algebra)), key=lambda s: (len(s), s))


def _subuniverses(algebra: FiniteAlgebra) -> Iterator[frozenset[int]]:
    """Each distinct subuniverse once, as soon as it is found.

    Bottom-up one-point-extension search: every subuniverse is reachable from
    the constant subuniverse by adding one generator at a time, so this visits
    exactly the distinct subuniverses instead of scanning all 2^n seeds.
    """
    caps.guard("subalgebra_universe", algebra.size)
    start = subuniverse_closure(algebra, ())
    found = {start}
    queue = [start]
    yield start
    while queue:
        current = queue.pop()
        for element in algebra.elements():
            if element not in current:
                extended = _adjoin(algebra, current, (element,))
                if extended not in found:
                    found.add(extended)
                    queue.append(extended)
                    yield extended


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
