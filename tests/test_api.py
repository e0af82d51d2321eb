from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import agkit

ROOT = Path(__file__).resolve().parent.parent

# exported functions that nothing in src/agkit or perfbench/ calls, and why
# each stays
UNCALLED_EXPORTS = {
    "cep_instance": "perfbench/tracing.py traces it by name",
    "enumerate_subalgebras": "perfbench/tracing.py traces it by name",
    "principal_congruence": "perfbench/tracing.py traces it by name",
    "identity_hom": "user-facing constructor",
    "quotient": "user-facing constructor",
    "subalgebra": "user-facing constructor",
    "parse_term": "user-facing parser",
}


def test_public_names_are_pinned():
    """Any change to the package's public names shows up in this list."""
    assert sorted(agkit.__all__) == [
        "APReport", "AgkitError", "AlgebraFormatError", "Amalgam", "AmalgamationResult",
        "AxiomSystem", "BUILTIN_NAMES", "CapExceededError", "CongruenceLattice", "Diagram",
        "EvalError", "FiniteAlgebra", "FreeAlgebra", "Homomorphism", "LatticeAxiomError",
        "NotFoundError", "NotInVarietyError", "Obstruction", "ParseError", "Partition",
        "SYSTEM_NAMES", "Sentence", "Term", "VARIETY_NAMES", "VarietyDescriptor", "Verdict",
        "algebra", "all_varieties", "amalgamation", "applications", "axiom_system", "axioms",
        "builtin", "caps", "cep_instance", "check_sc", "classify", "classify_ap",
        "congruence", "congruence_lattice", "decide_amalgamation", "diagram",
        "direct_product", "discriminator_is_term_op", "dump_algebra", "enumerate_embeddings",
        "enumerate_homs", "enumerate_subalgebras", "errors", "eval_term", "format_sentence",
        "format_term", "free_algebra", "generated_subvariety", "holds_in", "identity_hom",
        "is_congruence", "lattice_reduct", "lemma_registry", "load_algebra", "morphisms",
        "parse_sentence", "parse_term", "principal_congruence", "quasi_identity_holds",
        "quotient", "read_algebra", "report", "satisfies_axiom_system", "subalgebra",
        "subuniverse_closure", "terms", "variety", "verify", "verify_paper"]


def test_every_exported_function_has_a_caller():
    """Each exported function is named somewhere in the package modules or the
    benchmark harness, or is listed in UNCALLED_EXPORTS with its reason."""
    sources = [p for p in (ROOT / "src" / "agkit").glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").glob("*.py")
    referenced = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    functions = {name for name in agkit.__all__ if inspect.isfunction(getattr(agkit, name))}
    assert sorted(functions - referenced - UNCALLED_EXPORTS.keys()) == []
    assert sorted(UNCALLED_EXPORTS.keys() - functions) == []


def _unused_imports(path: Path) -> list[str]:
    """The names that the module's imports bind and that no expression in it
    reads, each as "<module>:<line> <name>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = [(node.lineno, alias.asname or alias.name.partition(".")[0])
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.stem}:{line} {name}" for line, name in bound if name not in read]


def test_every_module_uses_the_names_it_imports():
    """Each module of src/agkit reads every name it imports; __init__, which
    imports to re-export, is left out."""
    unused = [name for path in sorted((ROOT / "src" / "agkit").glob("*.py"))
              if path.name != "__init__.py" for name in _unused_imports(path)]
    assert unused == []


# the only places in src/agkit that keep results between calls, and why each
# is not a fact kept through algebra._known
CACHE_HOMES = {
    "algebra._built": "the constructor memo by spec that makes builtins shared objects",
    "algebra._FACTS": "the one table of facts: a dict per algebra value, held weakly, "
                      "that every algebra equal to the value holds in its _facts slot",
    "terms._parse_shipped": "the shipped sentence texts, parsed once; no algebra involved",
    "variety.discriminator_is_term_op.verdicts": "verdicts about a pair, kept in the left "
                                                 "algebra's facts and weak on the right one",
    "variety.free_algebra.square": "products local to one free_algebra call",
}
CACHE_NAMES = {"cache", "lru_cache", "WeakKeyDictionary", "WeakValueDictionary"}


def _cache_homes(path: Path) -> list[str]:
    """The qualified name of each function or variable that a cache decorator
    or constructor in the module sets up, and "<module>:<line>" for any other
    use of one."""
    homes = []

    def names_a_cache(node) -> bool:
        return (isinstance(node, ast.Name) and node.id in CACHE_NAMES
                or isinstance(node, ast.Attribute) and node.attr in CACHE_NAMES)

    def uses_a_cache(node) -> bool:
        return any(map(names_a_cache, ast.walk(node)))

    def visit(node, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
            homes.extend(scope for decorator in node.decorator_list if uses_a_cache(decorator))
            children = [n for n in ast.iter_child_nodes(node) if n not in node.decorator_list]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value and \
                uses_a_cache(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            homes.extend(f"{scope}.{ast.unparse(target)}" for target in targets)
            return
        else:
            if names_a_cache(node):
                homes.append(f"{path.stem}:{node.lineno}")
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return homes


def test_kept_facts_have_one_home():
    """A fact decided about an algebra is kept through algebra._known, in the
    facts dict of its value; functools.cache, lru_cache, a WeakKeyDictionary
    or a WeakValueDictionary anywhere else in src/agkit needs a reason here."""
    homes = [home for path in sorted((ROOT / "src" / "agkit").glob("*.py"))
             for home in _cache_homes(path)]
    assert sorted(set(homes) - CACHE_HOMES.keys()) == []
    assert sorted(CACHE_HOMES.keys() - set(homes)) == []
    assert len(homes) == len(set(homes))


def test_cold_start_loads_no_dataclasses():
    """Every agkit command is a process of its own, so each pays the import:
    `import agkit, agkit.cli` loads none of dataclasses, inspect, ast, dis and
    tokenize (≈45 ms of a start-up when it did), and no module in src/agkit
    imports dataclasses.  The probe runs with -S, so that no site hook loads
    any of them first."""
    slow = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    probe = f"import sys, agkit, agkit.cli; print(sorted({sorted(slow)} & sys.modules.keys()))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                            text=True, env=env, check=True).stdout
    assert loaded == "[]\n"

    def imported(node) -> list[str]:
        if isinstance(node, ast.ImportFrom):
            return [node.module]
        return [alias.name for alias in node.names] if isinstance(node, ast.Import) else []

    importers = [path.name for path in sorted((ROOT / "src" / "agkit").glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if "dataclasses" in imported(node)]
    assert importers == []
