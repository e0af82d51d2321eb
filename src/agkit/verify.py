"""The end-to-end verification pipeline.

Re-derives every headline result from the operation tables alone and compares
the outcome against a versioned expectations file, so any regression names the
result it contradicts.  All verdicts are recomputed; nothing is trusted from
the expectations beyond being the comparison target.  Every record comes
from one unit of work (`_add_unit`); a unit that raises AgkitError, a cap hit
included, gives its records verdict "error", and the run goes on.
"""

from __future__ import annotations

import itertools

from . import __version__, caps
from .algebra import BUILTIN_NAMES, builtin, direct_product, lattice_reduct
from .amalgamation import (APReport, brute_force_verify_obstruction, classify_ap,
                           theorem_diagrams, Obstruction, applications)
from .axioms import SYSTEM_NAMES, satisfies_axiom_system
from .congruence import check_sc, classify
from .errors import AgkitError
from .report import Record, Report
from .variety import (LemmaRecord, _load_data, all_varieties, discriminator_is_term_op,
                      lemma_registry, quasi_identity_holds, satisfies_base, variety)


def _add_unit(report: Report, work, rows):
    """Add the records of one unit of work and return its outcome.

    The units: an axiom system on a builtin, the SI verdicts of a builtin or
    product, a variety's AP report and its applications, a (builtin, variety)
    cell of the base matrix, a discriminator check, a lemma, a theorem diagram
    and its re-verification.  `work` computes the outcome when called with no
    arguments, or is the AgkitError of the section 3 unit that a section 7 or
    8 unit builds on.  Each row is (id, label, expected, read), where
    read(outcome) gives the verdict and the detail.  No id depends on the
    outcome, so an AgkitError gives every row verdict "error" with the message
    in detail: one failing unit neither aborts the run nor hides the records
    of the others.
    """
    outcome = work
    if not isinstance(work, AgkitError):
        try:
            outcome = work()
        except AgkitError as exc:
            outcome = exc
    for record_id, label, expected, read in rows:
        if isinstance(outcome, AgkitError):
            verdict, detail = "error", {"error": str(outcome)}
        else:
            verdict, detail = read(outcome)
        report.add(Record(record_id, label, verdict, expected, detail))
    return outcome


def _add_lemma(report: Report, lemma: LemmaRecord, expected: bool = True):
    """A lemma as one unit: its record, and its verdict or AgkitError."""
    return _add_unit(report, lambda: quasi_identity_holds(variety(lemma.variety_name),
                                                          lemma.sentence), [(
        f"lemma/{lemma.id}", lemma.label, expected,
        lambda verdict: (verdict.holds, {"variety": lemma.variety_name,
                                         "sentence": str(lemma.sentence)} | (
            {"countermodel": list(verdict.countermodel)} if verdict.countermodel else {})))])


def _si_facts(names: tuple[str, ...]) -> dict[str, bool]:
    """Section 2's four verdicts on a builtin or a product of builtins."""
    algebra = builtin(names[0]) if len(names) == 1 else direct_product(
        [builtin(name) for name in names])
    c = classify(algebra)
    return {"simple": c.simple, "subdirectly_irreducible": c.subdirectly_irreducible,
            "directly_indecomposable": c.directly_indecomposable, "sc": check_sc(algebra).sc}


def verify_paper() -> Report:
    caps.cap_value("assignments")  # a malformed AGKIT_CAP fails the run, not each unit
    expect = _load_data("expected_verdicts.json")
    report = Report(["verify-paper"], __version__)

    # 1. axiom systems on the builtins
    section = expect["axiom_systems"]
    for name in BUILTIN_NAMES:
        for system in SYSTEM_NAMES:
            _add_unit(report, lambda: satisfies_axiom_system(builtin(name), system), [(
                f"axioms/{name}/{system}", section["label"], section["expected"][name][system],
                lambda outcome: (outcome.ok, {"failures": [
                    {"sentence": c.text, "witness": c.verdict.witness}
                    for c in outcome.failures()]} if not outcome.ok else {}))])

    # 2. SI classification: builtins and the six 2-factor products
    section = expect["si_classification"]
    for names in [(n,) for n in BUILTIN_NAMES] + list(itertools.combinations(BUILTIN_NAMES, 2)):
        key = "x".join(names)
        _add_unit(report, lambda: _si_facts(names), [
            (f"si/{key}/{prop}", section["label"], key in section["all_true"],
             lambda facts, prop=prop: (facts[prop], {}))
            for prop in ("simple", "subdirectly_irreducible", "directly_indecomposable", "sc")])

    # 3. reduction hypotheses, both read off the report's discriminator-variety
    # proof, and AP.  Each variety is classified once; sections 7 and 8 read
    # its report or its AgkitError.
    ap_reports: dict[str, APReport | AgkitError] = {}
    for v in all_varieties():
        ap_reports[v.name] = _add_unit(report, lambda: classify_ap(v), [
            (f"hereditarily_si/{v.name}", expect["hereditarily_si"]["label"],
             expect["hereditarily_si"]["expected"], lambda r: (r.discriminator_variety, {})),
            (f"cep/{v.name}", expect["cep_spot_checks"]["label"],
             expect["cep_spot_checks"]["expected"], lambda r: (r.discriminator_variety, {})),
            (f"ap/{v.name}", expect["ap"]["label"], expect["ap"]["expected"][v.name],
             lambda r: (r.has_ap, {"obstructed": [result.as_dict() | {
                 "diagram": [d.base.name, d.left.name, d.right.name]}
                 for d, result in r.obstructed()]} if not r.has_ap else {})),
        ])

    # 4. equational-base matrix, one unit per (builtin, variety) cell
    section = expect["base_matrix"]
    for si, v in itertools.product(BUILTIN_NAMES, all_varieties()):
        _add_unit(report, lambda: satisfies_base(builtin(si), v), [
            (f"base_matrix/{si}/{v.name}", section["label"], si in v.si_names,
             lambda verdict: (verdict.holds, {}))])

    # 5. discriminator term checks
    section = expect["discriminator"]
    for name, suffix in itertools.product(BUILTIN_NAMES, ("", "_lattice")):
        _add_unit(report, lambda: discriminator_is_term_op(
            lattice_reduct(builtin(name)) if suffix else builtin(name)), [
            (f"discriminator/{name}{suffix}", section["label"],
             section["lattice_reducts" if suffix else "builtins"], lambda ok: (ok, {}))])

    # 6. lemma suite
    for lemma in lemma_registry():
        _add_lemma(report, lemma, expect["lemmas"]["expected"])

    # 7. applications
    section = expect["applications"]
    for name, ap_report in ap_reports.items():
        _add_unit(report, ap_report if isinstance(ap_report, AgkitError)
                  else lambda: applications(ap_report), [
            (f"applications/{name}/{prop}", section["label"], section["expected"][name],
             lambda a, prop=prop: (getattr(a, prop), {"jep_failures": [
                 list(pair) for pair, ok in a.jep_on_si_pairs.items() if not ok]}
                 if prop == "embedding_property" and not a.embedding_property else {}))
            for prop in ("tp", "ei", "embedding_property", "model_companion",
                         "two_in_amal")])

    # 8. the witnessing diagrams, read off the AP reports (2 embeds uniquely in
    # every member), with independent brute-force re-verification
    section = expect["diagrams"]
    for key, (vname, *names) in theorem_diagrams().items():
        ap_report = ap_reports[vname]
        found = _add_unit(report, ap_report if isinstance(ap_report, AgkitError) else lambda: next(
            (d, result) for d, result in ap_report.diagrams
            if [d.base.name, d.left.name, d.right.name] == names), [(
            f"diagram/{key}", section["label"], section["expected"][key],
            lambda found: ("obstruction" if isinstance(found[1], Obstruction) else "amalgam",
                           found[1].as_dict() | {"variety": vname, "diagram": names}))])
        if not isinstance(found, AgkitError) and isinstance(found[1], Obstruction):
            _add_unit(report, lambda: brute_force_verify_obstruction(variety(vname), *found), [
                (f"diagram/{key}/reverified", section["label"], True, lambda ok: (ok, {}))])

    return report
