from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter

import pytest

import agkit.algebra
import agkit.amalgamation
import agkit.congruence
from agkit.variety import VARIETY_NAMES
from agkit.verify import load_expectations, verify_paper

# sha256 of the canonical records of the untampered run: sorted keys, no
# whitespace.  The digest does not depend on PYTHONHASHSEED.
GOLDEN_RECORDS_SHA256 = "bed7a894465af4beaf80f57610d6ee82195b7ebf3ccd6500c7e308bd24786698"

# principal_congruence calls one verify_paper() run makes (4,863 when the
# CEP check enumerated Con(sup) for every embedding)
PRINCIPAL_CONGRUENCES = 755


def _log_calls(monkeypatch, module, name: str, log: list) -> None:
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


@pytest.fixture(scope="module")
def logged_run():
    """One verify_paper() run, with the arguments and results of every
    classify_ap, decide_amalgamation, congruence_lattice and
    principal_congruence call it made."""
    traced = {"classify_ap": agkit.amalgamation, "decide_amalgamation": agkit.amalgamation,
              "congruence_lattice": agkit.congruence,
              "principal_congruence": agkit.congruence}
    calls = {name: [] for name in traced}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name, module in traced.items():
            _log_calls(monkeypatch, module, name, calls[name])
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
    expect = load_expectations()
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


def test_report_records_match_golden_digest(logged_run):
    report, _ = logged_run
    records = json.loads(report.to_json())["records"]
    assert len(records) == 219
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == GOLDEN_RECORDS_SHA256


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
    algebras = [args[0] for args, _ in calls["congruence_lattice"]]
    assert max(a.size for a in algebras) <= 12
    repeated = Counter(a for a in algebras if a.size > 4)
    assert all(count == 1 for count in repeated.values()), repeated.most_common(1)
    assert len(calls["principal_congruence"]) == PRINCIPAL_CONGRUENCES
