"""Which lines of src/agkit run, and under what.

    python3 tools/reach.py > REACH.txt

Stdlib only, and not part of Tier-1: it runs the suite under a line tracer,
which costs a few times the suite's own time.  Three phases, each in a fresh
interpreter so that no cache is warm from another phase:

  ops    one op per distinct input of each perfbench workload, through the
         `OPS` of perfbench/child.py (imported, not edited), seed 0;
  cli    all 11 CLI commands, in text and --json form (verify-paper, which
         has no --json, with and without --out), on builtins and on the
         inputs of CLI_INPUTS: algebra files (among them chains of 10 and 12,
         whose phi takes two bytes), amalgamable diagrams, a
         right-side obstruction, a base with no embedding, --variety, a free
         algebra past the `elements` cap (held as its factors, so no table is
         built), a "--" before the command, and AGKIT_CAP; and --version;
  tests  the Tier-1 suite (pytest, in process).

A line is a function-body line of src/agkit that the code objects' `co_lines`
name, other than a `def` line.  The report lists, per module, the lines that
ran in no phase and those that ran only under the tests, each with a tag:

  guard          an AssertionError that no input should reach
  untested       any other line that runs nowhere: test it or delete it
  hostile input  an error branch: input that the code refuses
  oracle         a check that shares no code with the path it checks
  API name       a public name that only the tests call (ROADMAP item 12)
  dead           none of these: reach it from a real input or delete it

A test-only line is tagged by a LINE_TAGS entry, or by FUNCTION_TAGS if no
line of its function runs outside the tests; any other is dead.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from inspect import CO_OPTIMIZED
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "agkit"
PHASES = ("ops", "cli", "tests")

# Functions that only the tests enter, tagged whole.  The tag holds only while
# no line of the function runs outside the tests; after that, each of its
# test-only lines needs a LINE_TAGS entry.
FUNCTION_TAGS = {
    "congruence.py:is_congruence": "oracle",
    "morphisms.py:brute_force_homs": "oracle",
    "algebra.py:enumerate_subalgebras": "API name",
    "algebra.py:subalgebra": "API name",
    "congruence.py:cep_instance": "API name",
    "congruence.py:quotient": "API name",
    "variety.py:identity_holds_via_free": "API name",
    "terms.py:parse_term": "API name",
    "morphisms.py:identity_hom": "API name",  # src wraps maps it did not prove, never the identity
    "terms.py:_offset": "hostile input",  # a ParseError's offset: only errors ask for it
    # congruence_lattice and cep_instance close masks with _closure
    "congruence.py:principal_congruence": "API name",
    # read in src only by is_congruence, the oracle
    "congruence.py:Partition.size": "API name",
    "errors.py:_Value.__repr__": "API name",
    # kept so that `if report:` reads the verdict: without them it is truthy
    "terms.py:Verdict.__bool__": "API name",
    "variety.py:VarietyVerdict.__bool__": "API name",
    "congruence.py:ScReport.__bool__": "API name",
    "axioms.py:AxiomReport.__bool__": "API name",
    # called only from an error branch
    "algebra.py:FiniteAlgebra._axiom_fail": "hostile input",
    "algebra.py:_cut": "hostile input",
    "errors.py:CapExceededError.__init__": "hostile input",
    "errors.py:ParseError.__init__": "hostile input",
    "errors.py:LatticeAxiomError.__init__": "hostile input",
    "errors.py:NotInVarietyError.__init__": "hostile input",
    "errors.py:_Value._refuse": "hostile input",
    "terms.py:_Parser.error": "hostile input",
    "variety.py:_coordinate": "hostile input",
}
# Test-only lines of functions that also run outside the tests.  An entry tags
# each statement of the function that starts on a line holding the fragment,
# with the statements after it in its block (just the line if no statement
# starts there).  The first entry that covers a line tags it.
LINE_TAGS = [
    ("algebra.py:FiniteAlgebra._check_shape", "raise", "hostile input"),
    ("algebra.py:FiniteAlgebra._check_shape", "except", "hostile input"),  # bytes() refuses an entry
    # the scans that name the law, after the check that the tables pass
    ("algebra.py:FiniteAlgebra.verify_lattice_axioms", "for x, y in", "hostile input"),
    ("algebra.py:builtin", "except KeyError", "hostile input"),
    ("algebra.py:_homomorphic", "return False", "hostile input"),  # tables that are no lattice
    ("algebra.py:_json_int", "raise", "hostile input"),
    ("algebra.py:_json_str", "raise", "hostile input"),
    ("algebra.py:_json_array", "raise", "hostile input"),
    ("algebra.py:_json_ints", "map(_json_int", "hostile input"),
    ("algebra.py:load_algebra", "except", "hostile input"),
    ("algebra.py:load_algebra", "raise", "hostile input"),
    ("algebra.py:read_algebra", "except", "hostile input"),
    ("algebra.py:direct_product", "raise", "hostile input"),
    # an algebra whose Con is not Boolean, or with a factor that is no builtin
    ("congruence.py:factor_names", "raise", "hostile input"),
    # == of two equal algebras that are distinct objects: the fact table
    # compares (hash, spec) keys, not algebras
    ("algebra.py:FiniteAlgebra.__eq__", "_spec(self) == _spec(other)", "API name"),
    ("amalgamation.py:Diagram.__post_init__", "raise", "hostile input"),
    # a target that receives homs from both sides: no obstruction the paper's
    # diagrams give has one
    ("amalgamation.py:brute_force_verify_obstruction", "if any(h[fz]", "oracle"),
    ("axioms.py:axiom_system", "except KeyError", "hostile input"),
    ("caps.py:cap_value", "except ValueError", "hostile input"),
    ("caps.py:guard", "raise", "hostile input"),
    ("cli.py:_resolve_algebra", "raise", "hostile input"),
    ("cli.py:_emit", "except OSError", "hostile input"),
    ("cli.py:_cmd_classify_ap", "raise", "hostile input"),
    ("cli.py:_cmd_verify_paper", '== "error"', "hostile input"),
    ("cli.py:_Parser.error", "raise", "hostile input"),
    ("morphisms.py:Homomorphism.__post_init__", "raise", "hostile input"),
    ("morphisms.py:brute_force_homs", "continue", "oracle"),
    ("terms.py:_tokenize", "raise", "hostile input"),
    ("terms.py:_tokenize", "pos = _offset", "hostile input"),
    ("terms.py:_Parser.expect", "raise", "hostile input"),
    ("terms.py:_Parser.nest", "raise", "hostile input"),
    ("terms.py:_Parser.unary", "raise", "hostile input"),
    ("terms.py:_Parser.equation", "raise", "hostile input"),
    ("terms.py:_Parser.sentence", "raise", "hostile input"),
    ("terms.py:eval_term", "except KeyError", "hostile input"),
    # a variable: only identity_holds_via_free evaluates a term that has one
    ("terms.py:eval_term", "try:", "API name"),
    ("variety.py:variety", "except KeyError", "hostile input"),
    ("variety.py:_prove_member", "raise", "hostile input"),
    ("variety.py:generated_subvariety", "raise", "hostile input"),
    ("variety.py:free_algebra", "raise", "hostile input"),
    ("verify.py:_add_unit", "except AgkitError", "hostile input"),
    ("verify.py:_add_unit", '"error"', "hostile input"),
]

CLI_COMMANDS = (
    ["algebra", "show", "4_dmba"],
    ["check", "--variety", "AG", "--sentence", "x'' = x"],
    ["homs", "4_dmba", "4_dmba"],
    ["congruences", "4_dmba"],
    ["classify", "4_dmba"],
    ["amalgamate", "--variety", "G", "--base", "2", "--left", "3_dblst", "--right", "3_klst"],
    ["classify-ap", "--all"],
    ["lemmas"],
    ["applications", "--variety", "AG"],
    ["free", "--variety", "AG", "-n", "1"],
)
# Inputs past the builtins, each to a command above; a file name below stands
# for that algebra's file.
CLI_INPUTS = (
    ["algebra", "show", "chain10"],
    ["classify", "chain12"],  # |J| = 11: phi past a byte, in the load and in the scans
    ["classify", "trivial"],
    ["homs", "trivial", "2"],
    ["check", "--variety", "AG", "--sentence", "x = y, 0 = 1 => x' = y"],
    ["check", "--variety", "AG", "--sentence", "(0 \\/ 1) /\\ 1 = 0"],
    ["amalgamate", "--variety", "V_KLST_DMBA", "--base", "2", "--left", "3_klst",
     "--right", "product"],
    ["amalgamate", "--variety", "V_KLST_DMBA", "--base", "2", "--left", "product",
     "--right", "product"],
    ["amalgamate", "--variety", "AG", "--base", "trivial", "--left", "trivial",
     "--right", "trivial"],
    ["classify-ap", "--variety", "BA"],
    ["--", "lemmas"],  # a separator before the command
    ["free", "--variety", "AG", "-n", "3"],
    ["amalgamate", "--variety", "AG", "--base", "4_dmba", "--left", "2", "--right", "2"],
)
FILES = {
    "trivial": dict(name="trivial", size=1, labels=["0"], join=[[0]], meet=[[0]],
                    star=[0], quote=[0], zero=0, one=0),
    **{f"chain{n}": dict(name=f"chain{n}", size=n, labels=[str(x) for x in range(n)],
                         join=[[max(x, y) for y in range(n)] for x in range(n)],
                         meet=[[min(x, y) for y in range(n)] for x in range(n)],
                         star=[n - 1] + [0] * (n - 1), quote=list(reversed(range(n))),
                         zero=0, one=n - 1) for n in (10, 12)},
}  # and "product", the file of 3_klst x 4_dmba


# --- lines --------------------------------------------------------------------

def executable_lines() -> dict[str, dict[int, str]]:
    """For each module, its function-body lines and the function each is in."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines: dict[int, str] = {}
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
            if not code.co_flags & CO_OPTIMIZED:  # module and class bodies run at import
                continue
            owner = code.co_qualname.split(".<locals>.")[0]
            for *_, line in code.co_lines():
                if line is not None and line != code.co_firstlineno:
                    lines.setdefault(line, owner)
        out[path.name] = lines
    return out


def traced(run) -> dict[str, set[int]]:
    """The lines of src/agkit that run() reaches, by module file name."""
    reached: dict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE) + os.sep

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        add = reached[name[len(prefix):]].add

        def line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return line
        return line

    threading.settrace(call)
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return reached


# --- phases -------------------------------------------------------------------

def phase_ops() -> dict[str, set[int]]:
    sys.path[:0] = [str(ROOT / "perfbench")]
    scratch = tempfile.TemporaryDirectory()
    out = Path(scratch.name) / "paper-report.json"

    def run():  # the import and the inputs are traced too: both run agkit code
        import child
        import run as bench
        ag = child.load_agkit()
        inputs = []
        for workload, cycle in bench.CYCLES.items():
            for task_input, _ in cycle(random.Random(0)):
                if workload == "paper":
                    task_input = dict(task_input, out=str(out))
                if (workload, task_input) not in inputs:
                    inputs.append((workload, task_input))
        with contextlib.redirect_stdout(io.StringIO()):
            for workload, task_input in inputs:
                child.OPS[workload](ag, task_input)
    with scratch:
        return traced(run)


def phase_cli() -> dict[str, set[int]]:
    sys.path[:0] = [str(ROOT / "src")]
    from agkit.algebra import builtin, direct_product, dump_algebra
    scratch = tempfile.TemporaryDirectory()
    texts = {name: json.dumps(spec) for name, spec in FILES.items()}
    texts["product"] = dump_algebra(direct_product([builtin("3_klst"), builtin("4_dmba")]))
    files = {name: str(Path(scratch.name) / f"{name}.json") for name in texts}
    for name, text in texts.items():  # untraced: not a CLI path
        Path(files[name]).write_text(text)
    commands = [[files.get(token, token) for token in c] + j
                for c in CLI_COMMANDS + CLI_INPUTS for j in ([], ["--json"])]
    commands += [["verify-paper"], ["verify-paper", "--out", str(Path(scratch.name) / "r.json")],
                 ["--version"]]

    def run():
        from agkit import cli
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in commands:
                cli.main(argv)
            os.environ["AGKIT_CAP"] = "4096"
            cli.main(["free", "--variety", "AG", "-n", "1"])
            del os.environ["AGKIT_CAP"]
    with scratch:
        return traced(run)


def phase_tests() -> dict[str, set[int]]:
    import pytest
    os.chdir(ROOT)
    result = {}

    def run():
        result["exit"] = int(pytest.main(["-q", "-p", "no:cacheprovider", "tests"]))
    reached = traced(run)
    reached["<exit>"] = {result["exit"]}
    return reached


# --- report -------------------------------------------------------------------

def block_ends(module: str) -> dict[int, int]:
    """For each line that starts a statement or an except clause, the last
    line of the block it is in: of its last sibling.  The innermost wins."""
    ends = {}
    for node in ast.walk(ast.parse("\n".join(module_source(module)))):
        for field in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(node, field, None)
            if isinstance(block, list) and block:
                for stmt in block:
                    ends[stmt.lineno] = block[-1].end_lineno
    return ends


def line_tags(lines: dict[str, dict[int, str]]) -> dict[tuple[str, int], str]:
    """The label of each line that a LINE_TAGS entry covers."""
    known = {f"{m}:{owner}" for m, owners in lines.items() for owner in owners.values()}
    if stale := set(FUNCTION_TAGS) - known:
        raise SystemExit(f"FUNCTION_TAGS names no function: {sorted(stale)}")
    labels = {}
    for function, fragment, label in LINE_TAGS:
        module = function.split(":")[0]
        ends, source = block_ends(module), module_source(module)
        starts = [n for n, owner in lines[module].items()
                  if f"{module}:{owner}" == function and fragment in source[n - 1]]
        if not starts:
            raise SystemExit(f"LINE_TAGS: no line of {function} holds {fragment!r}")
        for n in starts:
            for m in range(n, ends.get(n, n) + 1):
                labels.setdefault((module, m), label)
    return labels


@functools.cache
def module_source(module: str) -> list[str]:
    return (PACKAGE / module).read_text(encoding="utf-8").splitlines()


def report(phases: dict[str, dict[str, set[int]]]) -> str:
    lines = executable_lines()
    labels = line_tags(lines)
    everywhere: dict[str, set[int]] = defaultdict(set)
    outside: dict[str, set[int]] = defaultdict(set)
    for name, reached in phases.items():
        for module, hit in reached.items():
            everywhere[module] |= hit
            if name != "tests":
                outside[module] |= hit
    running = {(m, lines[m][n]) for m in lines for n in outside[m] if n in lines[m]}
    rows, counts = [], defaultdict(int)
    for module, owners in lines.items():
        never = sorted(set(owners) - everywhere[module])
        only = sorted(set(owners) & everywhere[module] - outside[module])
        if never or only:
            rows.append(f"\n== {module}: {len(never)} never run, {len(only)} tests only")
        for title, picked in (("never run", never), ("tests only", only)):
            for n in picked:
                owner, text = owners[n], module_source(module)[n - 1].strip()
                if "AssertionError" in text:
                    label = "guard"
                elif title == "never run":
                    label = "untested"
                elif (module, n) in labels:
                    label = labels[module, n]
                elif (module, owner) in running:
                    label = "dead"
                else:
                    label = FUNCTION_TAGS.get(f"{module}:{owner}", "dead")
                counts[title, label] += 1
                rows.append(f"{title:10}  {n:4}  {label:13}  {owner}: {text}")
    summary = [f"src/agkit: {sum(map(len, lines.values()))} function-body lines; "
               f"pytest exit {next(iter(phases['tests']['<exit>']))}"]
    for title in ("never run", "tests only"):
        tally = {label: c for (t, label), c in counts.items() if t == title}
        summary.append(f"{title}: {sum(tally.values())} "
                       f"({', '.join(f'{k} {v}' for k, v in sorted(tally.items())) or 'none'})")
    return "\n".join(summary + rows) + "\n"


def main(argv: list[str]) -> int:
    if argv[:1] == ["--phase"]:
        reached = globals()[f"phase_{argv[1]}"]()
        Path(argv[2]).write_text(json.dumps({m: sorted(s) for m, s in reached.items()}))
        return 0
    phases = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in PHASES:
            target = Path(scratch) / f"{name}.json"
            subprocess.run([sys.executable, __file__, "--phase", name, str(target)],
                           stdout=sys.stderr, check=True)
            phases[name] = {m: set(s) for m, s in json.loads(target.read_text()).items()}
    sys.stdout.write(report(phases))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
