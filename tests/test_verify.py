from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import agkit.algebra
import agkit.amalgamation
import agkit.axioms
import agkit.congruence
import agkit.morphisms
import agkit.terms
from agkit import (check_sc, classify, direct_product, dump_algebra, free_algebra,
                   generated_subvariety, holds_in, lemma_registry, load_algebra,
                   satisfies_axiom_system, variety)
from agkit.caps import DEFAULT_CAPS
from agkit.variety import VARIETY_NAMES, _load_data
from agkit.verify import verify_paper
from tests.conftest import forget_facts, log_calls, renumber

# sha256 of the canonical records of the untampered run: sorted keys, no
# whitespace.  The digest does not depend on PYTHONHASHSEED (see
# test_golden_digest_does_not_depend_on_the_hash_seed).
GOLDEN_RECORDS_SHA256 = "bed7a894465af4beaf80f57610d6ee82195b7ebf3ccd6500c7e308bd24786698"

# closures of a mask (congruence._closure, one per principal congruence) and
# congruence_lattice calls one verify_paper() run makes: section 2's
# classifications only.  (4,863 principal congruences when
# the CEP spot checks enumerated Con(sup) for every embedding, then 755 and
# 158 lattices until one discriminator check proved CEP and hereditary SI,
# then 239, one per pair of elements, until Con(A) was generated by one
# principal congruence per join-irreducible of the lattice reduct, each the
# closure of that join-irreducible's bit.  10 lattices while classify listed
# Con(A) to scan its pairs; it now reads its verdicts off those closures.)
PRINCIPAL_CONGRUENCES = 28
CONGRUENCE_LATTICES = 0
# subuniverse searches per run from a cold start: the discriminator check
# decides each product S x T once, the 10 products of two SI generators plus
# the squares of the 4 lattice reducts.  (46 when every variety re-decided the
# products of its own SI generators.)
DISCRIMINATOR_PRODUCTS = 14
# one-point extensions (_adjoin) per run: the discriminator check stops at the
# first subuniverse it breaks, which for each lattice-reduct square comes
# early, and the hom searches build one generator sequence per source.
# (5,060 when every subuniverse of each product was enumerated before the
# scan; 326 while si_diagrams ran enumerate_embeddings, whose searches each
# built a generator sequence; 262 while each hom set built its own.)
SUBUNIVERSE_EXTENSIONS = 238
# enumerate_homs calls per run: the 16 distinct (SI member, SI generator) hom
# sets, once each, kept among the facts that both si_diagrams and the
# amalgamation decisions read.  (524 when every diagram enumerated its hom sets again; 56 while
# enumerate_embeddings made 40 more.)
HOM_ENUMERATIONS = 16
# enumerate_embeddings calls per run: si_diagrams reads the embeddings off the
# hom sets above.  (148 when each (base, right) pair was enumerated again for
# every left member; 56, the sum over the varieties of (SI generators)^2,
# while si_diagrams enumerated each base's embeddings once per variety.)
EMBEDDING_ENUMERATIONS = 0
# satisfies_axiom_system calls per run from a cold start: the 40 of section
# 1's axiom grid (4 builtins x 10 systems).  A membership checks its
# sentences with holds_in and builds no report.  (268 when
# decide_amalgamation re-proved its SI members and its amalgam product for
# each of its 228 membership checks; 80 while each amalgam was a one-factor
# product copy (S) whose 20 memberships were proved again; 60 while each of
# the 20 distinct (SI member, variety) memberships built an AxiomReport.)
AXIOM_SYSTEM_CHECKS = 40
# sentence scans (_decide) per run from a cold start: one per distinct
# (algebra, sentence) fact, all 182 on the builtins.  (1,120, one per
# holds_in call, before verdicts were kept: the axiom grid and each
# membership re-checked ALMOST_GAUTAMA on the builtins; 256 while the
# one-factor product copies added 74.)
DECIDED_FACTS = 182
# amalgams per run with more than one factor: an SI diagram's amalgam is its
# one SI member with the pair's own maps.  (Pinned as 0 tupled_hom calls
# until the certificates became their pairs; 136, two per amalgam, while each
# amalgam was the one-factor product (S).)
MULTI_FACTOR_AMALGAMS = 0
# calls one large_algebras op (perfbench) makes on a renumbered 48-element
# product, loaded from JSON: classify reads its verdicts off one closure per
# join-irreducible (6: 2 + 2 + 2) and lists no Con(A), and every congruence and
# scan reads the Birkhoff embedding that the load derived and kept.  The 15
# decided facts are the ALMOST_GAUTAMA axioms of the membership check.
LARGE_OP_CALLS = {"_closure": 6, "congruence_lattice": 0, "_birkhoff": 1,
                  "_decide": 15}

# scans one free_terms op (perfbench) makes on F_BA(3) = 2^8: the 21 lemma
# registry sentences within the assignments cap, then the 15 ALMOST_GAUTAMA
# axioms, 35 distinct sentences.  Each holds, so each is decided on the
# 2-element diagonal of the product alone: no scan of all 256 elements.  (0
# diagonal and 35 full scans when every scan ran over all the elements.)
FREE_OP_SCANS = {"diagonal": 35, "full": 0, "facts": 35}


@pytest.fixture(scope="module")
def logged_run():
    """One verify_paper() run, with the arguments and results of every
    classify_ap, decide_amalgamation, congruence_lattice,
    _closure, enumerate_embeddings, enumerate_homs,
    _subuniverses, _adjoin, satisfies_axiom_system and _decide call it made,
    with the table of kept facts (sentence verdicts, memberships,
    discriminator verdicts and hom sets) emptied first."""
    traced = {"classify_ap": agkit.amalgamation, "decide_amalgamation": agkit.amalgamation,
              "congruence_lattice": agkit.congruence,
              "_closure": agkit.congruence,
              "enumerate_embeddings": agkit.morphisms,
              "enumerate_homs": agkit.morphisms,
              # the package root rebinds agkit.variety to the function
              "_subuniverses": importlib.import_module("agkit.variety"),
              "_adjoin": agkit.algebra,
              "satisfies_axiom_system": agkit.axioms,
              "_decide": agkit.terms}
    calls = {name: [] for name in traced}
    forget_facts()
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name, module in traced.items():
            log_calls(monkeypatch, module, name, calls[name])
        report = verify_paper()
    return report, calls


def test_full_run_has_zero_mismatches():
    report = verify_paper()
    assert report.ok, [r.id for r in report.failures()]
    assert len(report.records) > 200


def test_report_round_trips_through_canonical_json():
    report = verify_paper()
    text = report.to_json()
    payload = json.loads(text)
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == text
    assert payload["schema"] == 1
    ids = [r["id"] for r in payload["records"]]
    assert len(ids) == len(set(ids))


def test_expectations_file_is_versioned():
    expect = _load_data("expected_verdicts.json")
    assert expect["version"] == 1
    assert set(expect["ap"]["expected"]) == {
        "BA", "RDBLST", "RKLST", "DMBA", "G", "V_DBLST_DMBA", "V_KLST_DMBA", "AG"}


def test_tampered_builtin_flips_multiple_records(monkeypatch):
    # turn the quote row of 3_dblst into the Kleene one (a' = a)
    tampered = dict(agkit.algebra.BUILTIN_SPECS["3_dblst"])
    tampered["quote"] = (2, 1, 0)
    monkeypatch.setitem(agkit.algebra.BUILTIN_SPECS, "3_dblst", tampered)

    report = verify_paper()
    flipped = {r.id for r in report.failures()}
    assert len(flipped) >= 3
    # the axiom grid, the base matrix, and the AP table all notice
    assert any(r.startswith("axioms/3_dblst/") for r in flipped)
    assert any(r.startswith("base_matrix/3_dblst/") for r in flipped)
    assert "ap/G" in flipped
    # a variety or theorem diagram that raises becomes error records of its
    # own, and the run goes on
    errors = {r.id: r.detail["error"] for r in report.records if r.verdict == "error"}
    broken = ("RDBLST", "V_DBLST_DMBA")
    assert set(errors) == {"diagram/3.11"} | {
        f"{section}/{name}" for name in broken
        for section in ("hereditarily_si", "cep", "ap")} | {
        f"applications/{name}/{prop}" for name in broken
        for prop in ("tp", "ei", "embedding_property", "model_companion", "two_in_amal")}
    assert all(message.startswith("3_dblst is not in") for message in errors.values())


@pytest.mark.parametrize("seed", range(5))
def test_renumbered_builtins_keep_every_record(monkeypatch, seed):
    """verify_paper() with each builtin's elements renamed by a seeded
    permutation that moves both zero and one: every record keeps its
    verdict, expected value and outcome."""
    monkeypatch.delenv("AGKIT_CAP", raising=False)

    def outcomes():
        return [(r.id, r.verdict, r.expected, r.ok) for r in verify_paper().records]

    plain, rng = outcomes(), random.Random(seed)
    for name in agkit.algebra.BUILTIN_NAMES:
        algebra = agkit.algebra.builtin(name)
        to = list(range(algebra.size))
        while to[algebra.zero] == algebra.zero or to[algebra.one] == algebra.one:
            rng.shuffle(to)
        renumbered = renumber(algebra, to)
        monkeypatch.setitem(agkit.algebra.BUILTIN_SPECS, name, {
            key: getattr(renumbered, key) for key in agkit.algebra.BUILTIN_SPECS[name]})
    assert outcomes() == plain


# (cap, limit) pairs of the sweep that some unit exceeds, so that the run has
# "error" records; under every other pair it gives the default verdicts.
CAPPED_RUNS_WITH_ERRORS = {
    ("elements", 1), ("elements", 8),
    ("assignments", 1), ("assignments", 8), ("assignments", 16),
    ("subalgebra_universe", 1), ("subalgebra_universe", 8),
    ("discriminator_universe", 1)}
# the caps that guard work whose result is kept between calls
CACHED_WORK_CAPS = ("elements", "subalgebra_universe", "discriminator_universe",
                    "assignments")


def test_cap_sweep_turns_each_capped_unit_into_error_records(monkeypatch):
    monkeypatch.delenv("AGKIT_CAP", raising=False)
    golden = {r.id: r.verdict for r in verify_paper().records}
    for cap, limit in itertools.product(list(DEFAULT_CAPS), (1, 8, 16)):
        with monkeypatch.context() as capped:
            capped.setitem(DEFAULT_CAPS, cap, limit)
            records = [r.as_dict() for r in verify_paper().records]
            if cap in CACHED_WORK_CAPS:
                # what earlier runs decided and kept changes no record
                forget_facts()
                assert [r.as_dict() for r in verify_paper().records] == records, (cap, limit)
        if cap in CACHED_WORK_CAPS:
            verify_paper()  # decide every fact again for the next warm run
        verdicts = {r["id"]: r["verdict"] for r in records}
        assert len(verdicts) == len(records) and set(verdicts) <= set(golden), (cap, limit)
        assert all(verdict in (golden[i], "error") for i, verdict in verdicts.items())
        for missing in set(golden) - set(verdicts):
            diagram, _, tail = missing.rpartition("/")
            assert tail == "reverified" and verdicts[diagram] == "error", (cap, limit, missing)
        errors = [r for r in records if r["verdict"] == "error"]
        assert bool(errors) == ((cap, limit) in CAPPED_RUNS_WITH_ERRORS), (cap, limit)
        assert all(r["detail"]["error"].startswith(f"{cap} guard exceeded") for r in errors)


def records_digest(payload: str) -> str:
    """sha256 of the canonical form of a report's records."""
    records = json.loads(payload)["records"]
    assert len(records) == 219
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_report_records_match_golden_digest(logged_run):
    report, _ = logged_run
    assert records_digest(report.to_json()) == GOLDEN_RECORDS_SHA256


def test_warm_runs_match_golden_digest():
    """Two runs in one process with every fact kept: a verdict, membership
    or hom set shared between runs must come back unchanged."""
    for _ in range(2):
        assert records_digest(verify_paper().to_json()) == GOLDEN_RECORDS_SHA256


def test_verify_paper_decides_each_diagram_once(logged_run):
    _, calls = logged_run
    ap_reports = [report for _, report in calls["classify_ap"]]
    assert sorted(r.variety_name for r in ap_reports) == sorted(VARIETY_NAMES)
    decided = {(v.name, d.base.name, d.left.name, d.right.name, d.f.mapping, d.g.mapping)
               for (v, d), _ in calls["decide_amalgamation"]}
    diagrams = sum(len(r.diagrams) for r in ap_reports)
    assert len(calls["decide_amalgamation"]) == len(decided) == diagrams == 80


def test_verify_paper_congruence_budget(logged_run):
    _, calls = logged_run
    closures = [args for args, _ in calls["_closure"]]
    assert max(algebra.size for algebra, _ in closures) <= 12
    repeated = Counter(args for args in closures if args[0].size > 4)
    assert all(count == 1 for count in repeated.values()), repeated.most_common(1)
    assert len(calls["_closure"]) == PRINCIPAL_CONGRUENCES
    assert len(calls["congruence_lattice"]) == CONGRUENCE_LATTICES


def test_verify_paper_embedding_budget(logged_run):
    _, calls = logged_run
    assert len(calls["enumerate_embeddings"]) == EMBEDDING_ENUMERATIONS


def test_verify_paper_decides_each_discriminator_product_once(logged_run):
    _, calls = logged_run
    products = [args[0] for args, _ in calls["_subuniverses"]]
    assert len(products) == len(set(products)) == DISCRIMINATOR_PRODUCTS
    assert len(calls["_adjoin"]) == SUBUNIVERSE_EXTENSIONS


def test_verify_paper_enumerates_each_hom_set_once(logged_run):
    _, calls = logged_run
    homs = Counter((args[0], args[1]) for args, _ in calls["enumerate_homs"])
    assert homs.total() == HOM_ENUMERATIONS
    assert len(homs) == 16
    assert all(count == 1 for count in homs.values()), homs.most_common(1)


def test_verify_paper_builds_no_product_for_an_amalgam(logged_run):
    _, calls = logged_run
    amalgams = [result for _, result in calls["decide_amalgamation"] if result.amalgamable]
    assert len(amalgams) == 68
    assert sum(len(result.pairs) > 1 for result in amalgams) == MULTI_FACTOR_AMALGAMS


def test_verify_paper_proves_each_membership_once(logged_run):
    _, calls = logged_run
    assert len(calls["satisfies_axiom_system"]) == AXIOM_SYSTEM_CHECKS


def test_verify_paper_decides_each_fact_once(logged_run):
    _, calls = logged_run
    facts = Counter(args for args, _ in calls["_decide"])
    assert facts.total() == len(facts) == DECIDED_FACTS, facts.most_common(1)


def test_golden_digest_does_not_depend_on_the_hash_seed(tmp_path):
    """Subuniverses are visited in discovery order and facts are kept by
    value, so two interpreters with different hash seeds must write the
    same canonical records."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = "import sys; from agkit.cli import main; sys.exit(main(sys.argv[1:]))"
    for seed in ("1", "4242"):
        out = tmp_path / f"report-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        env.pop("AGKIT_CAP", None)
        done = subprocess.run([sys.executable, "-c", script, "verify-paper", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert records_digest(out.read_text()) == GOLDEN_RECORDS_SHA256, seed


def test_large_algebra_op_counts(builtins, monkeypatch):
    """One large_algebras op, in process: load, classify, check_sc and
    generated_subvariety, with every fact forgotten.  factor_names reads each
    builtin's embedding: in a fresh process each builtin derives it when it is
    built, so here each derives it again after the facts are forgotten and
    before the count."""
    rng = random.Random(0)
    product = direct_product([builtins[n] for n in rng.sample(["3_dblst", "4_dmba", "4_dmba"], 3)])
    text = dump_algebra(renumber(product, rng.sample(range(48), 48)))
    forget_facts()
    for algebra in builtins.values():
        agkit.algebra.birkhoff(algebra)
    modules = {"_closure": agkit.congruence, "congruence_lattice": agkit.congruence,
               "_birkhoff": agkit.algebra, "_decide": agkit.terms}
    calls = {name: [] for name in modules}
    for name, module in modules.items():
        log_calls(monkeypatch, module, name, calls[name])
    algebra = load_algebra(text)
    classification, sc = classify(algebra), check_sc(algebra)
    assert generated_subvariety(algebra).name == "V_DBLST_DMBA"
    assert not (classification.simple or classification.subdirectly_irreducible
                or classification.directly_indecomposable or sc.sc or sc.join_variant)
    assert {name: len(log) for name, log in calls.items()} == LARGE_OP_CALLS
    assert {args[0] for args, _ in calls["_decide"]} == {algebra}


def test_free_algebra_op_counts(monkeypatch):
    """One free_terms op on F_BA(3), in process, with every fact forgotten:
    a scan of the diagonal passes `domain`, a full scan does not."""
    monkeypatch.delenv("AGKIT_CAP", raising=False)
    forget_facts()
    calls = []
    log_calls(monkeypatch, agkit.terms, "_decide", calls)
    free = free_algebra(variety("BA"), 3).algebra
    for record in lemma_registry():
        if free.size ** len(record.sentence.variables()) <= DEFAULT_CAPS["assignments"]:
            assert holds_in(free, record.sentence), record.id
    assert satisfies_axiom_system(free, "ALMOST_GAUTAMA").ok
    assert {args[0] for args, _ in calls} == {free}
    assert {"diagonal": sum(len(args) == 3 for args, _ in calls),
            "full": sum(len(args) == 2 for args, _ in calls),
            "facts": len({args[:2] for args, _ in calls})} == FREE_OP_SCANS


def test_membership_builds_no_axiom_report(builtins, monkeypatch):
    """A cold generated_subvariety on a loaded 36-element product proves AG
    membership by holds_in on each axiom: no satisfies_axiom_system call, and
    the same decided facts as a large_algebras op."""
    rng = random.Random(1)
    product = direct_product([builtins[n] for n in ("3_dblst", "3_klst", "4_dmba")])
    text = dump_algebra(renumber(product, rng.sample(range(36), 36)))
    forget_facts()
    calls = {"satisfies_axiom_system": [], "_decide": []}
    log_calls(monkeypatch, agkit.axioms, "satisfies_axiom_system", calls["satisfies_axiom_system"])
    log_calls(monkeypatch, agkit.terms, "_decide", calls["_decide"])
    algebra = load_algebra(text)
    assert generated_subvariety(algebra).name == "AG"
    assert len(calls["satisfies_axiom_system"]) == 0
    assert len(calls["_decide"]) == LARGE_OP_CALLS["_decide"]
