from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import agkit.algebra
from agkit import (AgkitError, AlgebraFormatError, BUILTIN_NAMES, CapExceededError,
                   FiniteAlgebra, LatticeAxiomError, NotFoundError, ParseError, builtin,
                   direct_product, dump_algebra, enumerate_embeddings, enumerate_subalgebras,
                   holds_in, lattice_reduct, load_algebra, parse_sentence, subalgebra,
                   subuniverse_closure)
from agkit.algebra import BUILTIN_SPECS, SPEC_KEYS, _adjoin, _json_int
from agkit.caps import DEFAULT_CAPS
from tests.conftest import (CountingTable, breaks_law, brute_force_lattice_axioms, chain_algebra,
                            brute_force_subuniverses, fixpoint_closure, forget_facts,
                            generated_members, kept_facts, log_calls, plain_holds_in,
                            renumber, renumbered_chains, renumbered_products, replace,
                            row_loop_birkhoff, row_loop_homomorphic, tuple_direct_product)

GOLDEN_3_KLST = ('{"name":"3_klst","size":3,"labels":["0","a","1"],'
                 '"join":[[0,1,2],[1,1,2],[2,2,2]],"meet":[[0,0,0],[0,1,1],[0,1,2]],'
                 '"star":[2,0,0],"quote":[2,1,0],"zero":0,"one":2}')


def test_builtin_tables(builtins):
    dblst = builtins["3_dblst"]
    assert dblst.star == (2, 0, 0) and dblst.quote == (2, 2, 0)  # a* = 0, a' = 1
    klst = builtins["3_klst"]
    assert klst.quote == (2, 1, 0)  # a' = a
    two = builtins["2"]
    assert two.star == two.quote  # complement serves both slots
    dmba = builtins["4_dmba"]
    assert dmba.star[1] == 2 and dmba.star[2] == 1  # a* = b, b* = a
    assert dmba.quote[1] == 1 and dmba.quote[2] == 2


def test_builtin_unknown_name():
    with pytest.raises(NotFoundError):
        builtin("3_kldst")


def test_canonical_dump_is_bit_exact(builtins):
    assert dump_algebra(builtins["3_klst"]) == GOLDEN_3_KLST


def test_load_dump_round_trip(builtins):
    for algebra in builtins.values():
        assert load_algebra(dump_algebra(algebra)) == algebra


def test_load_reports_json_position():
    with pytest.raises(ParseError) as err:
        load_algebra('{"name": "x", ')
    assert err.value.position > 0


def test_load_rejects_bad_keys():
    with pytest.raises(AlgebraFormatError):
        load_algebra('{"name": "x"}')
    with pytest.raises(AlgebraFormatError):
        load_algebra(GOLDEN_3_KLST[:-1] + ',"extra":1}')


def test_load_rejects_out_of_range_table(builtins):
    for key, value in [("star", [5, 0]), ("join", [[0, 2], [1, 1]]),
                       ("meet", [[0, 0], [-1, 1]]), ("one", 2), ("zero", -1)]:
        document = json.loads(dump_algebra(builtins["2"]))
        document[key] = value
        with pytest.raises(AlgebraFormatError, match="out of range|bad star"):
            load_algebra(json.dumps(document))


def test_load_rejects_zero_equal_to_one_in_a_nontrivial_algebra(builtins):
    document = json.loads(dump_algebra(builtins["2"]))
    document["one"] = document["zero"]
    with pytest.raises(AlgebraFormatError, match="zero = one in a nontrivial algebra"):
        load_algebra(json.dumps(document))


def test_load_rejects_a_table_that_is_not_square(builtins):
    for key, value in [("join", [[0, 1], [1]]), ("meet", [[0, 0, 0], [0, 1]]),
                       ("join", [[0, 1]])]:
        document = json.loads(dump_algebra(builtins["2"]))
        document[key] = value
        with pytest.raises(AlgebraFormatError, match=f"{key} table must be 2x2"):
            load_algebra(json.dumps(document))


@pytest.mark.parametrize("key, value", [
    ("zero", False),  # a JSON boolean is not an index
    ("size", 2.7),  # nor is a fraction, which int() would truncate to 2
    ("labels", [["0"], ["1"]]),  # str() would turn these into "['0']", "['1']"
    ("name", [1, {"a": None}]),  # and this into "[1, {'a': None}]"
    ("labels", "01"),  # tuple() would split a string into labels
    ("labels", {"0": 1, "1": 2}),  # and take an object's keys as labels
], ids=["boolean_index", "fractional_size", "list_labels", "list_name",
        "string_labels", "object_labels"])
def test_load_rejects_values_it_would_coerce(builtins, key, value):
    document = json.loads(dump_algebra(builtins["2"]))
    document[key] = value
    with pytest.raises(AlgebraFormatError):
        load_algebra(json.dumps(document))


_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 5), st.floats(),
              st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=6)


@st.composite
def mangled_algebra_documents(draw):
    """The JSON of a builtin with keys dropped or added, values, rows or
    entries swapped for other JSON values, and arrays or rows resized."""
    document = json.loads(dump_algebra(builtin(draw(st.sampled_from(BUILTIN_NAMES)))))
    for key in draw(st.lists(st.sampled_from(SPEC_KEYS + ("extra",)), min_size=1,
                             max_size=3, unique=True)):
        action = draw(st.sampled_from(("swap", "entry", "resize") * 3 + ("drop",)))
        if action == "drop":
            document.pop(key, None)
            continue
        holder, slot = document, key
        holder.setdefault(key, None)
        while action != "swap" and isinstance(holder[slot], list) and holder[slot] \
                and (action == "entry" or draw(st.booleans())):
            holder, slot = holder[slot], draw(st.integers(0, len(holder[slot]) - 1))
        value = holder[slot]
        if action == "resize" and isinstance(value, list):
            holder[slot] = (value * 3)[:draw(st.integers(0, 2 * len(value) + 1))]
        else:
            holder[slot] = draw(st.one_of(st.integers(-1, 4), _JUNK))
    return json.dumps(document)


@settings(max_examples=300, deadline=None)
@given(mangled_algebra_documents())
@example("[" * 100_000)
def test_load_algebra_raises_only_typed_errors(text):
    try:
        load_algebra(text)
    except AgkitError:
        pass


def walked_error(document: dict) -> str:
    """The message of a per-entry walk: every entry of join, meet, star and
    quote through _json_int, each table in row order."""
    try:
        for key in ("join", "meet"):
            tuple(tuple(_json_int(v) for v in row) for row in document[key])
        for key in ("star", "quote"):
            tuple(_json_int(v) for v in document[key])
    except AlgebraFormatError as exc:
        return str(exc)
    except TypeError as exc:
        return f"malformed algebra document: {exc}"
    raise AssertionError("no bad entry")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_load_names_the_first_bad_entry_in_row_order(data):
    """Bad entries and rows at random positions of the tables of 2 x 3_klst:
    load_algebra raises the message of the first in row order."""
    document = json.loads(dump_algebra(direct_product([builtin("2"), builtin("3_klst")])))
    for _ in range(data.draw(st.integers(1, 3))):
        key = data.draw(st.sampled_from(("join", "meet", "star", "quote")))
        holder = document[key]
        if key in ("join", "meet"):
            row = data.draw(st.integers(0, len(holder) - 1))
            if data.draw(st.booleans()) or not isinstance(holder[row], list):
                holder[row] = data.draw(st.sampled_from(["01", {"0": 1}, 7]))
                continue
            holder = holder[row]
        holder[data.draw(st.integers(0, len(holder) - 1))] = data.draw(
            st.sampled_from([True, 1.5, "1", [0], None]))
    with pytest.raises(AlgebraFormatError) as err:
        load_algebra(json.dumps(document))
    assert str(err.value) == walked_error(document)


def test_values_nested_near_the_recursion_limit_are_typed_errors(builtins):
    """Entries nested just below and just past the depth json.loads accepts:
    the error message quotes the first kind, the second never parses."""
    document = dump_algebra(builtins["2"])
    too_deep = set()
    for depth in range(sys.getrecursionlimit() - 150, sys.getrecursionlimit() + 5):
        with pytest.raises(AgkitError) as err:
            load_algebra(document.replace('"zero":0', '"zero":' + "[" * depth + "]" * depth))
        too_deep.add("nested too deeply" in str(err.value))
    assert too_deep == {False, True}


def test_value_too_deep_to_quote_is_a_typed_error():
    value = []
    for _ in range(sys.getrecursionlimit()):
        value = [value]
    with pytest.raises(AlgebraFormatError, match="nested too deeply to quote"):
        agkit.algebra._json_int(value)


def test_non_commutative_join_names_axiom_and_witness(builtins):
    document = json.loads(dump_algebra(builtins["2"]))
    document["join"] = [[0, 1], [0, 1]]
    with pytest.raises(LatticeAxiomError) as err:
        load_algebra(json.dumps(document))
    assert err.value.axiom == "join commutativity"
    assert err.value.witness == (0, 1) or err.value.witness == (1, 0)


def relation_algebra(n: int, edges, pick=lambda table, bounds, best: (best or bounds)[0],
                     zero: int = 0, one: int | None = None) -> FiniteAlgebra:
    """Unvalidated tables on 0..n-1 that pass the commutativity and
    absorption scan.  Let r be the reflexive relation made of the edges
    (x, y), x < y, and of 0 r x r n-1.  If x r y, x \\/ y = y and x /\\ y = x.
    Otherwise x \\/ y = pick("join", the common upper bounds, [their least,
    if any]) and x /\\ y = pick("meet", the common lower bounds, [their
    greatest, if any]); with the default pick, a lattice order r gets the
    tables of its lattice."""
    r = {(x, y) for x in range(n) for y in range(n) if x == y or x == 0 or y == n - 1}
    r |= set(edges)
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for x, y in itertools.combinations(range(n), 2):
        if (x, y) in r:
            join[x][y], meet[x][y] = y, x
        else:
            ups = [z for z in range(n) if (x, z) in r and (y, z) in r]
            downs = [z for z in range(n) if (z, x) in r and (z, y) in r]
            join[x][y] = pick("join", ups, [z for z in ups if all((z, u) in r for u in ups)])
            meet[x][y] = pick("meet", downs,
                              [z for z in downs if all((d, z) in r for d in downs)])
    for x in range(n):
        join[x][x] = meet[x][x] = x
        for y in range(x):
            join[x][y], meet[x][y] = join[y][x], meet[y][x]
    return FiniteAlgebra(
        name="relation", size=n, labels=tuple(map(str, range(n))),
        join=tuple(map(tuple, join)), meet=tuple(map(tuple, meet)),
        star=tuple(range(n)), quote=tuple(range(n)), zero=zero,
        one=n - 1 if one is None else one, validate=False)


@st.composite
def relation_algebras(draw):
    """relation_algebra on 2 to 6 elements with random edges, closed
    transitively or not, and, now and then, misplaced bounds.  Joins, meets
    or both pick the least, resp. greatest, bound when there is one; the
    others pick it or a random bound."""
    n = draw(st.integers(2, 6))
    edges = {(x, y) for x, y in itertools.combinations(range(1, n - 1), 2)
             if draw(st.booleans())}
    if draw(st.booleans()):
        for z, x, y in itertools.product(range(n), repeat=3):
            if (x, z) in edges and (z, y) in edges:
                edges.add((x, y))
    zero, one = draw(st.sampled_from([(0, n - 1)] * 3 + [(n - 1, 0), (0, 1)]))
    exact = draw(st.sampled_from([{"join"}, {"meet"}, {"join", "meet"}]))

    def pick(table, bounds, best):
        if best and (table in exact or draw(st.booleans())):
            return best[0]
        return draw(st.sampled_from(bounds))

    return relation_algebra(n, edges, pick, zero, one)


def with_entry(algebra: FiniteAlgebra, table: str, x: int, y: int, z: int) -> FiniteAlgebra:
    """The algebra with z at (x, y) and (y, x) of its join or meet table."""
    rows = [list(row) for row in getattr(algebra, table)]
    rows[x][y] = rows[y][x] = z
    return replace(algebra, **{table: tuple(map(tuple, rows))})


@st.composite
def perturbed_lattices(draw):
    """A generated member with the join of one incomparable pair moved up to
    another common upper bound, or its meet moved down to another common
    lower bound.  The tables still pass the commutativity and absorption
    scan, and the order stays a distributive lattice."""
    algebra = draw(generated_members())
    def leq(x, y):
        return algebra.meet[x][y] == x
    pairs = [(x, y) for x, y in itertools.combinations(algebra.elements(), 2)
             if not leq(x, y) and not leq(y, x)]
    if not pairs:
        return algebra
    x, y = draw(st.sampled_from(pairs))
    table = draw(st.sampled_from(["join", "meet"]))
    current = getattr(algebra, table)[x][y]
    bounds = [z for z in algebra.elements() if z != current and (
        leq(x, z) and leq(y, z) if table == "join" else leq(z, x) and leq(z, y))]
    if not bounds:
        return algebra
    return with_entry(algebra, table, x, y, draw(st.sampled_from(bounds)))


@st.composite
def random_tables(draw):
    """Unvalidated join and meet tables with random entries on 1 to 6
    elements, made commutative if asked, with random bounds."""
    n = draw(st.integers(1, 6))
    tables = [[[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
              for _ in range(2)]
    if draw(st.booleans()):
        for table, (x, y) in itertools.product(tables, itertools.combinations(range(n), 2)):
            table[y][x] = table[x][y]
    zero = draw(st.integers(0, n - 1))
    one = (zero + draw(st.integers(1, n - 1))) % n if n > 1 else zero
    return FiniteAlgebra(
        name="random", size=n, labels=tuple(map(str, range(n))),
        join=tuple(map(tuple, tables[0])), meet=tuple(map(tuple, tables[1])),
        star=tuple(range(n)), quote=tuple(range(n)), zero=zero, one=one, validate=False)


M3 = relation_algebra(5, ())
N5 = relation_algebra(5, [(1, 2)])
# 2 \/ 4 = 6 above the lub 5, which only the lub test sees; no such table on
# six or fewer elements turned up in 3 x 10^4 random ones like it
WRONG_LUB = with_entry(relation_algebra(7, [(1, 2), (1, 4), (1, 5), (2, 5), (3, 4), (3, 5),
                                            (4, 5)]), "join", 2, 4, 6)
# the 3-chain with one = a, its middle: only the unit laws see 1 /\ a = a
MIDDLE_ONE = replace(builtin("3_klst"), name="3-chain, one = a", one=1, validate=False)
# and with zero = a: only the unit laws see 0 \/ a = a
MIDDLE_ZERO = replace(builtin("3_klst"), name="3-chain, zero = a", zero=1, validate=False)
# the 3-chain with 0 /\ 1 = 1 but 1 /\ 0 = 0: its join is still commutative
ONE_SIDED_MEET = replace(builtin("3_klst"), name="3-chain, one-sided meet",
                         meet=((0, 0, 2), (0, 1, 1), (0, 1, 2)), validate=False)


@st.composite
def tampered_lattices(draw):
    """A renumbered product of 36 to 64 elements, or a renumbered chain of 10
    to 40 (|J| past a byte), with one join or meet entry changed, or now and
    then the two entries of a pair, which keeps the table commutative."""
    lattice = draw(st.one_of(renumbered_products(min_size=36, max_size=64),
                             renumbered_chains(10, 40)))
    table = draw(st.sampled_from(["join", "meet"]))
    x, y = draw(st.integers(0, lattice.size - 1)), draw(st.integers(0, lattice.size - 1))
    current = getattr(lattice, table)[x][y]
    z = draw(st.integers(0, lattice.size - 1).filter(lambda z: z != current))
    if draw(st.booleans()):
        return with_entry(lattice, table, x, y, z)
    rows = list(getattr(lattice, table))
    rows[x] = rows[x][:y] + bytes((z,)) + rows[x][y + 1:]
    return replace(lattice, **{table: tuple(rows)})


@settings(max_examples=300, deadline=None)
@given(st.one_of(relation_algebras(), perturbed_lattices(), random_tables(),
                 generated_members(), renumbered_chains(),
                 renumbered_products(min_size=4, max_size=36), tampered_lattices()))
@example(M3)
@example(N5)
@example(relation_algebra(5, [(1, 2), (2, 3)]))  # 1 <= 2 <= 3, not 1 <= 3
@example(with_entry(relation_algebra(5, [(1, 3), (2, 3)]), "join", 1, 2, 4))
@example(with_entry(relation_algebra(5, [(1, 2), (1, 3)]), "meet", 2, 3, 0))
@example(WRONG_LUB)
def test_verify_lattice_axioms_matches_the_brute_force_scan(algebra):
    """Accepts exactly the tables the n^3 scan accepts, and every witness
    breaks the law it is raised for."""
    expected = brute_force_lattice_axioms(algebra)
    try:
        algebra.verify_lattice_axioms()
    except LatticeAxiomError as err:
        assert expected is not None
        assert breaks_law(algebra, err.axiom, err.witness)
    else:
        assert expected is None


def _lattice_verdict(algebra: FiniteAlgebra):
    try:
        algebra.verify_lattice_axioms()
    except LatticeAxiomError as err:
        return err.axiom, err.witness
    return None


@settings(max_examples=40, deadline=None)
@given(tampered_lattices())
def test_tampered_tables_name_the_law_and_witness_the_row_loops_name(algebra):
    """With the row loops in place of the kernels, as before the kernels,
    verify_lattice_axioms names the same law and witness."""
    verdict = _lattice_verdict(algebra)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agkit.algebra, "_birkhoff", row_loop_birkhoff)
        patch.setattr(agkit.algebra, "_homomorphic", row_loop_homomorphic)
        assert _lattice_verdict(algebra) == verdict is not None


@settings(max_examples=100, deadline=None)
@given(st.one_of(renumbered_products(min_size=4, max_size=256), renumbered_chains(),
                 generated_members()))
def test_birkhoff_kernel_matches_the_row_loop(algebra):
    """_birkhoff gives the row loop's phi, bit order included, and the
    whole-table check passes it where the row check does: on byte rows up to
    256 elements, and past |J| = 8, where phi takes more than one byte."""
    phi = agkit.algebra._birkhoff(algebra)
    assert phi == row_loop_birkhoff(algebra)
    assert agkit.algebra._homomorphic(phi, algebra.join, algebra.meet)
    assert row_loop_homomorphic(phi, algebra.join, algebra.meet)


@settings(max_examples=60, deadline=None)
@given(st.one_of(renumbered_products(min_size=4, max_size=36), renumbered_chains(),
                 generated_members()))
def test_law_scans_alone_pass_every_lattice(algebra):
    """The scans that name a broken law, run on valid tables by failing the
    whole-table check, raise on no bounded distributive lattice."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agkit.algebra, "_homomorphic", lambda phi, join, meet: False)
        algebra.verify_lattice_axioms()


@pytest.mark.parametrize("lattice", [M3, N5], ids=["M3", "N5"])
def test_non_distributive_lattices_are_rejected(lattice):
    assert brute_force_lattice_axioms(lattice)[0].startswith("distributivity")
    with pytest.raises(LatticeAxiomError) as err:
        load_algebra(dump_algebra(lattice))
    assert err.value.axiom == "distributivity (meet over join)"
    assert breaks_law(lattice, err.value.axiom, err.value.witness)


@pytest.mark.parametrize("algebra, axiom, witness", [
    (M3, "distributivity (meet over join)", (3, 1, 2)),
    (N5, "distributivity (meet over join)", (2, 1, 3)),
    (WRONG_LUB, "join associativity", (2, 4, 5)),
    (MIDDLE_ONE, "one is a meet unit", (2,)),
    (MIDDLE_ZERO, "zero is a join unit", (0,)),
    (ONE_SIDED_MEET, "meet commutativity", (0, 2)),
], ids=["M3", "N5", "WRONG_LUB", "MIDDLE_ONE", "MIDDLE_ZERO", "ONE_SIDED_MEET"])
def test_rejected_tables_name_a_fixed_law_and_witness(algebra, axiom, witness):
    with pytest.raises(LatticeAxiomError) as err:
        algebra.verify_lattice_axioms()
    assert (err.value.axiom, err.value.witness) == (axiom, witness)


@settings(max_examples=5, deadline=None)
@given(renumbered_products(min_size=36, max_size=36))
def test_lattice_checks_read_each_table_a_row_at_a_time(product):
    """On valid tables the checks read O(n) rows: a scan by entry reads
    about 5 n^2 rows of each table."""
    join, meet = CountingTable(product.join), CountingTable(product.meet)
    counting = replace(product, join=join, meet=meet)
    assert counting.join is join and counting.meet is meet  # bytes rows are kept as given
    n = counting.size
    join.reads = meet.reads = 0
    counting.verify_lattice_axioms()
    assert join.reads <= 10 * n and meet.reads <= 10 * n
    join.reads = meet.reads = 0
    counting._check_shape()
    assert join.reads <= 2 * n and meet.reads <= 2 * n


def test_product_of_eight_twos_loads():
    power = direct_product([builtin("2")] * 8)
    assert not power.validate
    loaded = load_algebra(dump_algebra(power))
    assert loaded == power and hash(loaded) == hash(power)


def test_rejected_value_is_quoted_short(builtins):
    document = json.loads(dump_algebra(builtins["2"]))
    document["labels"] = {"a": [0] * 100_000}
    with pytest.raises(AlgebraFormatError, match="expected an array") as err:
        load_algebra(json.dumps(document))
    assert len(str(err.value)) < 200


def test_builtin_is_built_once_per_spec(monkeypatch):
    assert builtin("3_klst") is builtin("3_klst")
    tampered = dict(agkit.algebra.BUILTIN_SPECS["3_klst"], quote=(2, 2, 0))
    monkeypatch.setitem(agkit.algebra.BUILTIN_SPECS, "3_klst", tampered)
    assert builtin("3_klst").quote == (2, 2, 0)


def test_equality_compares_every_field_but_validate():
    """FiniteAlgebra.__eq__ tests identity first; otherwise it must agree
    with comparing the fields one by one, `validate` left out."""
    original = builtin("4_dmba")
    variants = [original, replace(original), replace(original,
                validate=False), replace(original, name="renamed")]
    variants += [replace(original, **{key: value}) for key, value in [
        ("labels", ("0", "b", "a", "1")), ("star", (3, 1, 2, 0)), ("quote", (3, 2, 1, 0))]]
    variants += [builtin(name) for name in BUILTIN_NAMES]
    fields = ["name", "size", "labels", "join", "meet", "star", "quote", "zero", "one"]
    assert FiniteAlgebra.__match_args__ == (*fields, "validate") and len(fields) == len(SPEC_KEYS)
    for a, b in itertools.product(variants, repeat=2):
        same = all(getattr(a, f) == getattr(b, f) for f in fields)
        assert (a == b) == same and (a != b) != same, (a.name, b.name)
        assert not same or hash(a) == hash(b)


def test_chain4_with_reversal_star_loads_as_lattice():
    # star is not a pseudocomplement here; construction only checks the lattice
    document = {
        "name": "chain4", "size": 4, "labels": ["0", "a", "b", "1"],
        "join": [[max(x, y) for y in range(4)] for x in range(4)],
        "meet": [[min(x, y) for y in range(4)] for x in range(4)],
        "star": [3, 2, 1, 0], "quote": [3, 2, 1, 0], "zero": 0, "one": 3,
    }
    algebra = load_algebra(json.dumps(document))
    assert algebra.size == 4
    from agkit import satisfies_axiom_system
    report = satisfies_axiom_system(algebra, "P_ALGEBRA")
    assert not report.ok
    assert {check.label for check in report.failures()} <= {"p3", "p4", "p5", "p6"}


def test_direct_product_shape(builtins):
    square = direct_product([builtins["2"], builtins["2"]])
    assert square.size == 4
    from agkit import satisfies_axiom_system
    assert satisfies_axiom_system(square, "ALMOST_GAUTAMA").ok
    # componentwise, with tuple labels
    assert square.labels == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    square.verify_lattice_axioms()


def test_direct_product_needs_a_factor():
    with pytest.raises(ValueError, match="at least one factor"):
        direct_product([])


def test_equal_algebras_built_apart_are_equal_and_share_their_facts(builtins):
    """== compares the stored tables, as the hash does, and copies none."""
    factors = [builtins["3_dblst"], builtins["4_dmba"], builtins["4_dmba"]]
    first, second = direct_product(factors), direct_product(factors)
    assert first is not second and first.join is not second.join
    assert first == second and hash(first) == hash(second)
    assert kept_facts(first) is kept_facts(second)
    star = list(second.star)
    star[1] = star[2]
    tampered = replace(second, star=tuple(star), validate=False)
    assert tampered != first
    object.__setattr__(tampered, "_hashed", hash(first))  # as if the hashes collided
    assert tampered != first and first != tampered
    assert kept_facts(tampered) is not kept_facts(first)


def test_tuple_and_bytes_rows_give_one_value():
    """The join and meet rows are kept as bytes however they are given, so
    the two forms of one spec are one value: equal, hashed alike and with one
    facts dict.  A table of bytes rows is kept as given."""
    spec = dict(BUILTIN_SPECS["4_dmba"], name="rows")
    as_bytes = {key: tuple(map(bytes, spec[key])) for key in ("join", "meet")}
    from_tuples, from_bytes = FiniteAlgebra(**spec), FiniteAlgebra(**spec | as_bytes)
    assert from_tuples.join == as_bytes["join"] and from_bytes.join is as_bytes["join"]
    assert from_tuples == from_bytes and hash(from_tuples) == hash(from_bytes)
    assert kept_facts(from_tuples) is kept_facts(from_bytes)
    assert type(from_tuples.star) is type(from_tuples.quote) is tuple


def test_canonical_dumps_are_unchanged_by_the_row_type():
    """dump_algebra (json.dumps of spec_dict) of the builtins, a renumbered
    product and 2^8, as it was when the rows were tuples of ints."""
    product = direct_product([builtin(n) for n in ("3_dblst", "3_klst", "4_dmba")])
    algebras = [*map(builtin, BUILTIN_NAMES),
                renumber(product, random.Random(0).sample(range(36), 36)),
                direct_product([builtin("2")] * 8)]
    for algebra in algebras:
        spec = algebra.spec_dict()
        assert {int} == {type(x) for key in ("join", "meet") for row in spec[key] for x in row}
        assert dump_algebra(algebra) == json.dumps(spec, separators=(",", ":"))
    dumps = "\n".join(map(dump_algebra, algebras))
    assert hashlib.sha256(dumps.encode()).hexdigest() == \
        "46fa5028c9619b574cbd474f35ce6badebf67714f72207eda446c18418880408"


@pytest.mark.parametrize("entry, message", [
    (256, "4_dmba: {} entry out of range"), (-1, "4_dmba: {} entry out of range"),
    (True, "expected an integer, got true"), (1.5, "expected an integer, got 1.5"),
    ("1", 'expected an integer, got "1"')], ids=["256", "-1", "true", "1.5", "string"])
@pytest.mark.parametrize("table", ["join", "meet"])
def test_load_refuses_an_entry_that_fits_no_row(builtins, table, entry, message):
    """An entry that no byte row holds is refused with the message of the
    range or type check, not bytes()'s own ValueError."""
    document = json.loads(dump_algebra(builtins["4_dmba"]))
    document[table][1][2] = entry
    with pytest.raises(AlgebraFormatError) as err:
        load_algebra(json.dumps(document))
    assert str(err.value) == message.format(table)


@pytest.mark.parametrize("entry", [300, 5])
@pytest.mark.parametrize("table", ["join", "meet"])
def test_unvalidated_algebra_refuses_an_entry_out_of_range(table, entry):
    """validate=False skips the lattice laws only: an entry that no byte row
    holds, or one past the size, is refused as on load."""
    tables = {"join": [[0, 1], [1, 1]], "meet": [[0, 0], [0, 1]]}
    tables[table][1][0] = entry
    with pytest.raises(AlgebraFormatError) as err:
        FiniteAlgebra(name="2", size=2, labels=("0", "1"), star=(1, 0), quote=(1, 0),
                      zero=0, one=1, validate=False, **tables)
    assert str(err.value) == f"2: {table} entry out of range"


def test_product_of_eight_twos_allocates_its_tables_as_bytes():
    """2^8's join and meet are 512 rows of 256 bytes, ≈150 KB; as tuples of
    ints they were ≈1.2 MB (tracemalloc peak of the construction)."""
    factors = [builtin("2")] * 8
    gc.collect()
    tracemalloc.start()
    try:
        direct_product(factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024


def test_facts_outlive_the_equal_algebra_first_asked(monkeypatch):
    """Facts belong to the value: an equal product built second keeps the
    diagonal and the embedding that the first one's construction seeded
    after the first one dies, and its scans still start on the diagonal."""
    forget_facts()
    first = direct_product([builtin("2")] * 2)
    second = direct_product([builtin("2")] * 2)
    del first
    gc.collect()
    derived, decided = [], []
    log_calls(monkeypatch, agkit.algebra, "_birkhoff", derived)
    log_calls(monkeypatch, agkit.terms, "_decide", decided)
    assert agkit.algebra._known(second, "diagonal", lambda: None) == (0, 3)
    assert kept_facts(second)["birkhoff"] == agkit.algebra.birkhoff(second) == (0, 1, 2, 3)
    assert holds_in(second, parse_sentence("x \\/ x* = 1"))
    assert derived == []
    assert [args[2:] for args, _ in decided] == [((0, 3),)]


def test_product_past_a_byte_keeps_no_embedding():
    """A 10-element chain has |J| = 9, so its product with 2 keeps phi with
    |J| = 10 but no byte form, and its scans take the element-by-element path."""
    product = direct_product([chain_algebra(10), builtin("2")])
    kept = kept_facts(product)["birkhoff"]  # kept, not derived
    assert kept[product.one] == 2 ** 10 - 1 and len(set(kept)) == product.size
    assert agkit.algebra.birkhoff_bytes(product) is None
    for text in ["(a \\/ x) /\\ (a \\/ x)'* = a /\\ x'*",
                 "(x \\/ y)' /\\ (x /\\ y)* <= x' \\/ y*"]:
        sentence = parse_sentence(text)
        assert holds_in(product, sentence) == plain_holds_in(product, sentence), text


def _up_to_256_elements(names: list[str]) -> list[str]:
    """The longest prefix of the names whose product has at most 256 elements."""
    size = 1
    for i, name in enumerate(names):
        size *= builtin(name).size
        if size > 256:
            return names[:i]
    return names


# the oracle takes ~0.35 s on a 256-element product
@settings(max_examples=10, deadline=None)
@given(st.lists(st.sampled_from(BUILTIN_NAMES), min_size=1, max_size=5).map(
    _up_to_256_elements))
# The factors split where the later ones first reach sqrt(|P|): after the
# first factor, in the middle, before the last, and in F_AG(1)'s shape
@example(["4_dmba", "2", "2"])
@example(["3_dblst", "2", "4_dmba", "3_klst"])
@example(["2", "2", "4_dmba"])
@example(["2", "2", "3_dblst", "3_klst", "4_dmba"])
def test_direct_product_matches_tuple_oracle(names):
    factors = [builtin(name) for name in names]
    product = direct_product(factors)
    # equality compares name, labels, every table and both constants
    assert product == tuple_direct_product(factors)
    assert {bytes} == set(map(type, product.join)) == set(map(type, product.meet))
    assert type(product.star) is type(product.quote) is tuple


@settings(max_examples=10, deadline=None)
@given(st.lists(st.sampled_from(BUILTIN_NAMES), min_size=1, max_size=8).map(
    _up_to_256_elements))
@example(["2"] * 8)
@example(["3_klst", "2", "3_klst", "2"])
@example(["2", "3_dblst", "3_klst", "4_dmba"])
def test_direct_product_keeps_its_diagonal(names):
    """A product of at most 256 elements with equal factors keeps the
    elements whose coordinates agree across equal factors.  They are as
    many as the elements of the product of the distinct factors, taken in
    the order they first appear, and a subuniverse with that product's
    tables: repeating coordinates keeps the lexicographic order.  A product
    of distinct factors keeps none."""
    product = direct_product([builtin(name) for name in names])
    diagonal = kept_facts(product).get("diagonal")
    distinct = list(dict.fromkeys(names))
    if len(distinct) == len(names):
        assert diagonal is None
        return
    first = [names.index(name) for name in names]
    for x in diagonal:
        labels = product.labels[x][1:-1].split(",")  # the builtins' labels have no comma
        assert all(labels[j] == labels[k] for j, k in enumerate(first)), product.labels[x]
    expected = direct_product([builtin(name) for name in distinct])
    restricted = subalgebra(product, diagonal)  # raises unless it is a subuniverse
    assert restricted.size == expected.size
    assert [getattr(restricted, f) for f in ("join", "meet", "star", "quote", "zero", "one")] \
        == [getattr(expected, f) for f in ("join", "meet", "star", "quote", "zero", "one")]


def test_product_past_a_byte_keeps_no_diagonal(monkeypatch):
    """2^9 has 512 elements, past what byte rows index: it is refused at the
    `elements` cap, so no product is made to keep a diagonal."""
    monkeypatch.delenv("AGKIT_CAP", raising=False)
    with pytest.raises(CapExceededError) as err:
        direct_product([builtin("2")] * 9)
    assert (err.value.guard, err.value.limit, err.value.requested) == ("elements", 256, 512)


def test_product_past_256_elements_is_refused_whatever_agkit_cap_says(monkeypatch):
    """AGKIT_CAP may lower the `elements` cap, not raise it past 256: a
    288-element product is refused before any table is folded."""
    monkeypatch.setenv("AGKIT_CAP", "1000")
    folded = []
    log_calls(monkeypatch, agkit.algebra, "_product_tables", folded)
    with pytest.raises(CapExceededError) as err:
        direct_product([builtin("2")] * 5 + [builtin("3_klst")] * 2)
    assert (err.value.guard, err.value.limit, err.value.requested) == ("elements", 256, 288)
    assert folded == []
    assert direct_product([builtin("2")] * 8).size == 256


@pytest.mark.parametrize("validate", [True, False])
def test_hand_built_algebra_past_256_elements_is_a_format_error(validate):
    """The constructor refuses more than 256 elements before it makes byte
    rows, so the error is typed, not bytes()'s own ValueError."""
    n = 257
    with pytest.raises(AlgebraFormatError, match="chain257: size must be 1 to 256"):
        FiniteAlgebra(name="chain257", size=n, labels=tuple(map(str, range(n))),
                      join=tuple(tuple(max(x, y) for y in range(n)) for x in range(n)),
                      meet=tuple(tuple(min(x, y) for y in range(n)) for x in range(n)),
                      star=(n - 1,) + (0,) * (n - 1), quote=tuple(reversed(range(n))),
                      zero=0, one=n - 1, validate=validate)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(BUILTIN_NAMES), min_size=1, max_size=8).map(
    _up_to_256_elements))
@example(["2"] * 8)
@example(["3_klst"] * 4)
@example(["3_dblst"] * 5)
def test_direct_product_keeps_its_birkhoff_embedding(names):
    """The embedding a product of at most 256 elements keeps is injective,
    sends \\/ to | and /\\ to &, and has one bit per join-irreducible (2
    has one, the other builtins two).  Its byte form is None where |J| > 8,
    else phi and its inverse."""
    product = direct_product([builtin(name) for name in names])
    phi = kept_facts(product)["birkhoff"]
    irreducibles = sum(1 if name == "2" else 2 for name in names)
    assert phi[product.one] == 2 ** irreducibles - 1
    assert len(set(phi)) == product.size
    embedding = agkit.algebra.birkhoff_bytes(product)
    if irreducibles > 8:
        assert embedding is None
    else:
        into, back = embedding
        assert into == bytes(phi) + bytes(256 - product.size)
        assert all(back[image] == x for x, image in enumerate(phi))
    at = phi.__getitem__
    for image, join_row, meet_row in zip(phi, product.join, product.meet):
        assert list(map(at, join_row)) == [image | other for other in phi]
        assert list(map(at, meet_row)) == [image & other for other in phi]


def test_product_of_mixed_chains_satisfies_regularity(builtins):
    from agkit import holds_in, parse_sentence, satisfies_axiom_system
    product = direct_product([builtins["3_dblst"], builtins["3_klst"]])
    assert product.size == 9
    assert holds_in(product, parse_sentence("x /\\ x'*' <= y \\/ y*")).holds
    stone = satisfies_axiom_system(product, "STONE")
    assert stone.ok


def test_unary_product_isomorphic_to_factor(builtins):
    for algebra in builtins.values():
        assert enumerate_embeddings(direct_product([algebra]), algebra)


def test_product_cap(monkeypatch):
    monkeypatch.delenv("AGKIT_CAP", raising=False)
    monkeypatch.setitem(DEFAULT_CAPS, "elements", 10)
    with pytest.raises(CapExceededError):
        direct_product([builtin("4_dmba")] * 3)


def test_closure_examples(builtins):
    dmba = builtins["4_dmba"]
    assert subuniverse_closure(dmba, set()) == {0, 3}
    assert subuniverse_closure(dmba, {1}) == {0, 1, 2, 3}  # a* = b enters
    dblst = builtins["3_dblst"]
    assert subuniverse_closure(dblst, {1}) == {0, 1, 2}


def test_closure_is_idempotent_and_monotone(builtins):
    for algebra in builtins.values():
        for seed in ({0}, {algebra.size - 1}, set(), {1 % algebra.size}):
            closed = subuniverse_closure(algebra, seed)
            assert subuniverse_closure(algebra, closed) == closed
            assert {algebra.zero, algebra.one} <= closed
            bigger = subuniverse_closure(algebra, closed | {algebra.size - 1})
            assert closed <= bigger


def test_enumerate_subalgebras_examples(builtins):
    assert enumerate_subalgebras(builtins["2"]) == [(0, 1)]
    assert enumerate_subalgebras(builtins["4_dmba"]) == [(0, 3), (0, 1, 2, 3)]
    assert enumerate_subalgebras(builtins["3_klst"]) == [(0, 2), (0, 1, 2)]
    assert enumerate_subalgebras(builtins["3_dblst"]) == [(0, 2), (0, 1, 2)]


def test_enumerate_subalgebras_matches_subset_scan(builtins):
    for algebra in builtins.values():
        bfs = {frozenset(s) for s in enumerate_subalgebras(algebra)}
        assert bfs == brute_force_subuniverses(algebra)
    product = direct_product([builtin("2"), builtin("3_klst")])
    assert {frozenset(s) for s in enumerate_subalgebras(product)} == \
        brute_force_subuniverses(product)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_adjoin_matches_closure_from_scratch(data):
    algebra = data.draw(generated_members())
    elements = st.integers(0, algebra.size - 1)
    closed = subuniverse_closure(algebra, data.draw(st.lists(elements, max_size=3)))
    element = data.draw(elements)
    adjoined = _adjoin(algebra, closed, {element})
    assert adjoined == subuniverse_closure(algebra, closed | {element})
    assert adjoined == fixpoint_closure(algebra, closed | {element})


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(generated_members().filter(lambda algebra: algebra.size <= 12))
def test_enumerate_subalgebras_matches_subset_scan_on_generated_members(algebra):
    assert {frozenset(s) for s in enumerate_subalgebras(algebra)} == \
        brute_force_subuniverses(algebra)


def test_enumerate_subalgebras_cap():
    big = direct_product([builtin("3_klst")] * 4)  # 81 elements
    with pytest.raises(CapExceededError):
        enumerate_subalgebras(big)


def test_subalgebra_restriction(builtins):
    dmba = builtins["4_dmba"]
    two = subalgebra(dmba, (0, 3))
    assert two.size == 2 and two.labels == ("0", "1")
    assert enumerate_embeddings(two, builtins["2"])
    with pytest.raises(ValueError):
        subalgebra(dmba, (0, 1, 3))  # not closed: a* = b missing


def test_lattice_reduct_generates_nothing(builtins):
    reduct = lattice_reduct(builtins["4_dmba"])
    assert subuniverse_closure(reduct, {1}) == {0, 1, 3}  # no star to add b
