"""Command-line surface.

Each command is one `_command` declaration on its handler.  A run builds only
the parser of the command it names (the whole tree for `--help`, `--version`
and a missing or unknown command), and each refusal prints one `error:` line.

Exit codes: 0 = ran and every verdict matched its expectation (commands
without baked-in expectations exit 0 on completion), 1 = a checked verdict
failed, 2 = usage, parse or configuration error, or a cap hit.  In
verify-paper, lemmas and classify-ap a cap hit fails only its unit's records,
so they give 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .algebra import BUILTIN_SPECS, builtin, dump_algebra, product_name, read_algebra
from .amalgamation import applications, classify_ap, decide_amalgamation, diagram
from .congruence import check_sc, classify, congruence_lattice
from .errors import AgkitError
from .morphisms import enumerate_homs
from .report import Record, Report, markdown_table
from .terms import parse_sentence
from .variety import all_varieties, free_algebra, lemma_registry, quasi_identity_holds, variety
from .verify import _add_lemma, _add_unit, verify_paper


_COMMANDS = {}  # name -> (help, argument adders, handler), in --help order


def _command(name: str, help: str, *arguments):
    """Declare the decorated handler as command `name`."""
    def register(handler):
        _COMMANDS[name] = (help, arguments, handler)
        return handler
    return register


def _arg(*names, **options):
    return lambda parser: parser.add_argument(*names, **options)


def _add(sub, name: str, help: str, arguments) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=help)
    for add in arguments:
        add(parser)
    return parser


_JSON = _arg("--json", action="store_true")  # print the report as JSON


def _show(parser) -> None:
    """algebra's one subcommand, which takes --json itself."""
    _add(parser.add_subparsers(required=True), "show",
         "print tables and canonical form",
         (_arg("target", help="builtin name or spec file path"), _JSON))


def _resolve_algebra(token: str):
    if token in BUILTIN_SPECS:
        return builtin(token)
    if os.path.exists(token):
        return read_algebra(token)
    raise AgkitError(f"no builtin algebra or file named {token!r}")


def _emit(report: Report, text: str, as_json: bool, out: str | None = None) -> None:
    payload = report.to_json() if as_json or out else None
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            raise AgkitError(f"cannot write {out}: {exc.strerror}") from None
    if as_json:
        sys.stdout.write(payload)
    else:
        print(text)


def _pretty_algebra(algebra) -> str:
    lines = [f"algebra {algebra.name} (size {algebra.size})",
             "elements: " + " ".join(algebra.labels)]
    header = [" "] + list(algebra.labels)
    for op in ("join", "meet"):
        rows = [[algebra.labels[x]] + [algebra.labels[v] for v in getattr(algebra, op)[x]]
                for x in algebra.elements()]
        lines.append(f"{op}:")
        lines.append(markdown_table(header, rows))
    for op in ("star", "quote"):
        table = getattr(algebra, op)
        lines.append(f"{op}:  " + "  ".join(
            f"{algebra.labels[x]}->{algebra.labels[table[x]]}" for x in algebra.elements()))
    lines.append("canonical: " + dump_algebra(algebra))
    return "\n".join(lines)


@_command("algebra", "inspect an algebra", _show)
def _cmd_algebra(args, report: Report) -> str:
    algebra = _resolve_algebra(args.target)
    report.add(Record(id=f"algebra/{algebra.name}", label="algebra",
                      verdict="ok", detail=algebra.spec_dict()))
    return _pretty_algebra(algebra)


@_command("check", "decide a sentence in a variety",
          _arg("--variety", required=True), _arg("--sentence", required=True), _JSON)
def _cmd_check(args, report: Report) -> str:
    v = variety(args.variety)
    sentence = parse_sentence(args.sentence)
    verdict = quasi_identity_holds(v, sentence)
    detail = {}
    if verdict.countermodel:
        si_name, witness = verdict.countermodel
        detail = {"countermodel": {
            "algebra": si_name,
            "witness": {k: builtin(si_name).labels[i] for k, i in witness.items()}}}
    report.add(Record(id=f"check/{args.variety}", label=str(sentence),
                      verdict=verdict.holds, detail=detail))
    text = f"{sentence}  in {v.name}: {'valid' if verdict.holds else 'fails'}"
    if detail:
        text += f"  (countermodel {detail['countermodel']['algebra']}, " \
                f"{detail['countermodel']['witness']})"
    return text


@_command("homs", "enumerate homomorphisms", _arg("source"), _arg("target"), _JSON)
def _cmd_homs(args, report: Report) -> str:
    source, target = _resolve_algebra(args.source), _resolve_algebra(args.target)
    homs = enumerate_homs(source, target)
    maps = [{"source": source.name, "target": target.name, "map": list(h)} for h in homs]
    report.add(Record(id=f"homs/{source.name}/{target.name}", label="homomorphisms",
                      verdict=len(homs), detail={"maps": maps}))
    lines = [f"{len(homs)} homomorphism(s) {source.name} -> {target.name}"]
    for h in homs:
        arrow = " ".join(f"{source.labels[x]}->{target.labels[h[x]]}"
                         for x in source.elements())
        lines.append("  " + arrow + ("  [embedding]" if len(set(h)) == source.size else ""))
    return "\n".join(lines)


@_command("congruences", "congruence lattice", _arg("target"), _JSON)
def _cmd_congruences(args, report: Report) -> str:
    algebra = _resolve_algebra(args.target)
    partitions = list(congruence_lattice(algebra))  # built once, finest first
    report.add(Record(id=f"congruences/{algebra.name}", label="congruence lattice",
                      verdict=len(partitions),
                      detail={"congruences": [list(p.blocks) for p in partitions]}))
    lines = [f"{len(partitions)} congruence(s) of {algebra.name} (finest first)"]
    for p in partitions:
        classes = " | ".join(
            "{" + ",".join(algebra.labels[x] for x in cls) + "}" for cls in p.classes())
        lines.append(f"  {list(p.blocks)}  {classes}")
    return "\n".join(lines)


@_command("classify", "simple / SI / DI / (SC)", _arg("target"), _JSON)
def _cmd_classify(args, report: Report) -> str:
    algebra = _resolve_algebra(args.target)
    result = classify(algebra)
    sc = check_sc(algebra)
    detail = {
        "simple": result.simple,
        "subdirectly_irreducible": result.subdirectly_irreducible,
        "directly_indecomposable": result.directly_indecomposable,
        "sc": sc.sc,
        "sc_join_variant": sc.join_variant,
    }
    if result.monolith:
        detail["monolith"] = list(result.monolith.blocks)
    report.add(Record(id=f"classify/{algebra.name}", label="classification",
                      verdict=detail["simple"] and detail["subdirectly_irreducible"],
                      detail=detail))
    return "\n".join(f"{key}: {value}" for key, value in detail.items())


@_command("amalgamate", "decide one diagram", _arg("--variety", required=True),
          _arg("--base", required=True), _arg("--left", required=True),
          _arg("--right", required=True), _JSON)
def _cmd_amalgamate(args, report: Report) -> str:
    v = variety(args.variety)
    d = diagram(_resolve_algebra(args.base), _resolve_algebra(args.left),
                _resolve_algebra(args.right))
    result = decide_amalgamation(v, d)
    report.add(Record(id=f"amalgamate/{v.name}", label=d.describe(),
                      verdict="amalgam" if result.amalgamable else "obstruction",
                      detail=result.as_dict()))
    if result.amalgamable:
        factors = [s for _, _, s in result.pairs]
        name = factors[0].name if len(factors) == 1 else product_name(factors)
        return (f"{d.describe()} amalgamable in {v.name}: "
                f"D = {name} ({math.prod(f.size for f in factors)} elements)")
    return (f"{d.describe()} NOT amalgamable in {v.name}: side={result.side} "
            f"pair={result.pair} census={result.hom_census}")


@_command("classify-ap", "decide AP per variety", _arg("--variety"),
          _arg("--all", action="store_true"), _JSON)
def _cmd_classify_ap(args, report: Report) -> str:
    """Each variety is a unit, as in verify-paper: a cap hit gives it an error row."""
    if args.all:
        targets = list(all_varieties())
    elif args.variety:
        targets = [variety(args.variety)]
    else:
        raise AgkitError("classify-ap needs --variety <V> or --all")
    outcomes = [(v, _add_unit(report, lambda: classify_ap(v), [(
        f"ap/{v.name}", "amalgamation property", None,
        lambda ap: (ap.has_ap, {"preconditions_ok": ap.discriminator_variety,
                                "diagrams": len(ap.diagrams),
                                "obstructed": [[d.base.name, d.left.name, d.right.name]
                                               for d, _ in ap.obstructed()]}))]))
                for v in targets]
    # rows follow the subvariety lattice top-down, like the Hasse diagram
    return markdown_table(["variety", "SI members", "AP", "preconditions"], [
        [v.name, ",".join(sorted(v.si_names)), *(
            ["error", str(ap)] if isinstance(ap, AgkitError) else
            ["yes" if ap.has_ap else "no", "ok" if ap.discriminator_variety else "FAILED"])]
        for v, ap in sorted(outcomes, key=lambda pair: (-pair[0].level, pair[0].name))])


@_command("lemmas", "run the lemma suite", _arg("--variety"), _JSON)
def _cmd_lemmas(args, report: Report) -> str:
    """Each lemma is a unit, as in verify-paper: a cap hit gives it an error row."""
    name = variety(args.variety).name if args.variety else None
    rows = []
    for lemma in lemma_registry():
        if name in (None, lemma.variety_name):
            verdict = _add_lemma(report, lemma)
            rows.append([lemma.id, lemma.variety_name, "error" if isinstance(verdict, AgkitError)
                         else "pass" if verdict.holds else "FAIL"])
    return markdown_table(["lemma", "variety", "status"], rows)


@_command("applications", "derived properties for a variety",
          _arg("--variety", required=True), _JSON)
def _cmd_applications(args, report: Report) -> str:
    v = variety(args.variety)
    app = applications(classify_ap(v))
    detail = {
        "tp": app.tp, "ei": app.ei,
        "embedding_property": app.embedding_property,
        "model_companion": app.model_companion,
        "two_in_amal": app.two_in_amal,
        "jep_on_si_pairs": {f"{a},{b}": ok for (a, b), ok in app.jep_on_si_pairs.items()},
    }
    report.add(Record(id=f"applications/{v.name}", label="applications",
                      verdict=app.has_ap, detail=detail))
    lines = [f"applications for {v.name} (has_ap={app.has_ap}):"]
    lines.extend(f"  {key}: {value}" for key, value in detail.items()
                 if key != "jep_on_si_pairs")
    lines.append("  joint embeddings: " + ", ".join(
        f"({a},{b})={'yes' if ok else 'no'}" for (a, b), ok in app.jep_on_si_pairs.items()))
    return "\n".join(lines)


@_command("free", "free algebra on n generators", _arg("--variety", required=True),
          _arg("-n", type=int, required=True), _JSON)
def _cmd_free(args, report: Report) -> str:
    v = variety(args.variety)
    free = free_algebra(v, args.n)
    factors = [{"si": si.name, "generators": [si.labels[x] for x in t]}
               for si, t in free.factors]
    report.add(Record(
        id=f"free/{v.name}/{args.n}", label="free algebra",
        verdict=free.size,
        detail={"generators": list(free.generators), "factors": factors}))
    return (f"free algebra of {v.name} on {args.n} generator(s): "
            f"{free.size} elements; generators at indices {list(free.generators)}\n"
            "factors: " + " x ".join(f"{f['si']}[{','.join(f['generators'])}]" for f in factors))


@_command("verify-paper", "run the full verification pipeline",
          _arg("--out", help="write the JSON report here"))
def _cmd_verify_paper(args, report: Report) -> str:
    report.records.extend(verify_paper().records)
    lines = [f"FAIL {record.id} [{record.label}]: got {record.verdict!r}"
             + (f" ({record.detail['error']})" if record.verdict == "error" else "")
             + f", expected {record.expected!r}" for record in report.failures()]
    summary = report.summary()
    lines.append(f"{summary['checks']} checks, {summary['failed']} failed -> "
                 f"{'OK' if summary['ok'] else 'MISMATCH'}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """Each rejection raises AgkitError; add_subparsers makes every subparser one too."""

    def error(self, message):
        raise AgkitError(message)

    def _get_values(self, action, arg_strings):  # Python 3.11 keeps a "--" for a command
        if action.nargs == argparse.PARSER and arg_strings[:1] == ["--"]:
            del arg_strings[0]
        return super()._get_values(action, arg_strings)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole tree, or only `command`'s branch when it names a command."""
    parser = _Parser(
        prog="agkit",
        description="finite-algebra workbench for the Almost Gautama subvarieties")
    parser.add_argument("--version", action="version", version=f"agkit {__version__}")
    # Optional after an option, so that parse_args names an unknown one
    sub = parser.add_subparsers(required=command is None)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help, arguments, handler = _COMMANDS[name]
        _add(sub, name, help, arguments).set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    words = argv[1:] if argv[:1] == ["--"] else argv  # as if the separator were left out
    try:
        args = build_parser(words[0] if words else None).parse_args(argv)
        report = Report(words, __version__)
        text = args.handler(args, report)
        _emit(report, text, getattr(args, "json", False), getattr(args, "out", None))
        return 0 if report.ok else 1
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except AgkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
