from __future__ import annotations

import ast
import inspect
from pathlib import Path

import agkit

ROOT = Path(__file__).resolve().parent.parent

# exported functions that nothing in src/agkit or perfbench/ calls, and why
# each stays
UNCALLED_EXPORTS = {
    "cep_instance": "perfbench/tracing.py traces it by name",
    "enumerate_subalgebras": "perfbench/tracing.py traces it by name",
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
