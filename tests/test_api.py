from __future__ import annotations

import agkit


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
        "is_congruence", "is_isomorphic", "lattice_reduct", "lemma_registry", "lemma_suite",
        "load_algebra", "load_sentences", "morphisms", "parse_sentence", "parse_term",
        "principal_congruence", "projections", "quasi_identity_holds", "quotient",
        "read_algebra", "report", "satisfies_axiom_system", "subalgebra",
        "subuniverse_closure", "terms", "variety", "verify", "verify_bases", "verify_paper"]
