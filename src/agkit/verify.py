"""The end-to-end verification pipeline.

Re-derives every headline result from the operation tables alone and compares
the outcome against a versioned expectations file, so any regression names the
result it contradicts.  All verdicts are recomputed; nothing is trusted from
the expectations beyond being the comparison target.
"""

from __future__ import annotations

import importlib.resources
import itertools
import json

from . import __version__
from .algebra import BUILTIN_NAMES, builtin, direct_product, lattice_reduct
from .amalgamation import (APReport, brute_force_verify_obstruction, classify_ap,
                           theorem_diagrams, Obstruction, applications)
from .axioms import SYSTEM_NAMES, satisfies_axiom_system
from .congruence import check_sc, classify
from .errors import AgkitError
from .report import Record, Report
from .variety import all_varieties, discriminator_is_term_op, lemma_suite, verify_bases, variety


def load_expectations() -> dict:
    raw = json.loads(
        importlib.resources.files("agkit").joinpath("data/expected_verdicts.json").read_text())
    assert raw["version"] == 1
    return raw


def _add_unit(report: Report, outcome, rows) -> None:
    """Add the records of one unit of work: a variety or a theorem diagram.

    `outcome` is the unit's result, or the AgkitError that computing it
    raised.  Each row is (id, label, expected, read), where read(outcome)
    gives the verdict and the detail.  An error gives every row verdict
    "error" with the message in detail, so one failing unit neither aborts
    the run nor hides the records of the others.
    """
    for record_id, label, expected, read in rows:
        if isinstance(outcome, AgkitError):
            verdict, detail = "error", {"error": str(outcome)}
        else:
            verdict, detail = read(outcome)
        report.add(Record(record_id, label, verdict, expected, detail))


def verify_paper() -> Report:
    expect = load_expectations()
    report = Report(["verify-paper"], __version__)

    # 1. axiom systems on the builtins
    section = expect["axiom_systems"]
    for name in BUILTIN_NAMES:
        algebra = builtin(name)
        for system in SYSTEM_NAMES:
            outcome = satisfies_axiom_system(algebra, system)
            report.add(Record(
                id=f"axioms/{name}/{system}",
                label=section["label"],
                verdict=outcome.ok,
                expected=section["expected"][name][system],
                detail={"failures": [
                    {"sentence": c.text, "witness": c.verdict.witness}
                    for c in outcome.failures()]} if not outcome.ok else {},
            ))

    # 2. SI classification: builtins and the six 2-factor products
    section = expect["si_classification"]
    subjects: list[tuple[str, object]] = [(n, builtin(n)) for n in BUILTIN_NAMES]
    for pair in itertools.combinations(BUILTIN_NAMES, 2):
        subjects.append(("x".join(pair),
                         direct_product([builtin(pair[0]), builtin(pair[1])])))
    for key, algebra in subjects:
        expected = key in section["all_true"]
        classification = classify(algebra)
        sc = check_sc(algebra)
        for prop, value in (
                ("simple", classification.simple),
                ("subdirectly_irreducible", classification.subdirectly_irreducible),
                ("directly_indecomposable", classification.directly_indecomposable),
                ("sc", sc.sc)):
            report.add(Record(
                id=f"si/{key}/{prop}", label=section["label"],
                verdict=value, expected=expected))

    # 3. reduction hypotheses, both read off the report's discriminator-variety
    # proof, and AP.  Each variety is classified once; sections 7 and 8 read
    # its report or its AgkitError.
    ap_reports: dict[str, APReport | AgkitError] = {}
    for v in all_varieties():
        try:
            ap_reports[v.name] = classify_ap(v)
        except AgkitError as exc:
            ap_reports[v.name] = exc
    for name, ap_report in ap_reports.items():
        _add_unit(report, ap_report, [
            (f"hereditarily_si/{name}", expect["hereditarily_si"]["label"],
             expect["hereditarily_si"]["expected"], lambda r: (r.discriminator_variety, {})),
            (f"cep/{name}", expect["cep_spot_checks"]["label"],
             expect["cep_spot_checks"]["expected"], lambda r: (r.discriminator_variety, {})),
            (f"ap/{name}", expect["ap"]["label"], expect["ap"]["expected"][name],
             lambda r: (r.has_ap, {"obstructed": [result.as_dict() | {
                 "diagram": [d.base.name, d.left.name, d.right.name]}
                 for d, result in r.obstructed()]} if not r.has_ap else {})),
        ])

    # 4. equational-base matrix
    section = expect["base_matrix"]
    matrix = verify_bases()
    for si in BUILTIN_NAMES:
        for v in all_varieties():
            report.add(Record(
                id=f"base_matrix/{si}/{v.name}", label=section["label"],
                verdict=matrix[si][v.name], expected=si in v.si_names))

    # 5. discriminator term checks
    section = expect["discriminator"]
    for name in BUILTIN_NAMES:
        report.add(Record(
            id=f"discriminator/{name}", label=section["label"],
            verdict=discriminator_is_term_op(builtin(name)),
            expected=section["builtins"]))
        report.add(Record(
            id=f"discriminator/{name}_lattice", label=section["label"],
            verdict=discriminator_is_term_op(lattice_reduct(builtin(name))),
            expected=section["lattice_reducts"]))

    # 6. lemma suite
    section = expect["lemmas"]
    for record, verdict in lemma_suite():
        report.add(Record(
            id=f"lemma/{record.id}", label=record.label,
            verdict=verdict.holds, expected=section["expected"],
            detail={"variety": record.variety_name, "sentence": str(record.sentence)}
            | ({"countermodel": list(verdict.countermodel)} if verdict.countermodel else {})))

    # 7. applications
    section = expect["applications"]
    for name, ap_report in ap_reports.items():
        app = applications(ap_report) if isinstance(ap_report, APReport) else ap_report
        _add_unit(report, app, [
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
        outcome = ap_reports[vname]
        if isinstance(outcome, APReport):
            d, outcome = next((d, result) for d, result in outcome.diagrams
                              if [d.base.name, d.left.name, d.right.name] == names)
        _add_unit(report, outcome, [(
            f"diagram/{key}", section["label"], section["expected"][key],
            lambda r: ("obstruction" if isinstance(r, Obstruction) else "amalgam",
                       r.as_dict() | {"variety": vname, "diagram": names}))])
        if isinstance(outcome, Obstruction):
            report.add(Record(
                id=f"diagram/{key}/reverified", label=section["label"],
                verdict=brute_force_verify_obstruction(variety(vname), d, outcome),
                expected=True))

    return report
