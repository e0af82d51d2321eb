"""agkit: a finite-algebra workbench for the subvarieties of Almost Gautama
algebras — congruences, homomorphism search, quasi-identity checking, and
machine-checked amalgamation certificates."""

__version__ = "0.1.0"

from .algebra import (FiniteAlgebra, builtin, BUILTIN_NAMES, direct_product,
                      dump_algebra, enumerate_subalgebras, lattice_reduct,
                      load_algebra, read_algebra, subalgebra, subuniverse_closure)
from .axioms import AxiomSystem, axiom_system, satisfies_axiom_system, SYSTEM_NAMES
from .congruence import (CongruenceLattice, Partition, cep_instance, check_sc,
                         classify, congruence_lattice, is_congruence,
                         principal_congruence, quotient)
from .errors import (AgkitError, AlgebraFormatError, CapExceededError, EvalError,
                     LatticeAxiomError, NotFoundError, NotInVarietyError, ParseError)
from .morphisms import (Homomorphism, enumerate_embeddings, enumerate_homs,
                        identity_hom)
from .terms import (Sentence, Term, Verdict, eval_term, format_sentence,
                    format_term, holds_in, parse_sentence, parse_term)
from .variety import (FreeAlgebra, VarietyDescriptor, all_varieties,
                      discriminator_is_term_op, free_algebra,
                      generated_subvariety, lemma_registry,
                      quasi_identity_holds, variety, VARIETY_NAMES)
from .amalgamation import (Amalgam, AmalgamationResult, APReport, Diagram,
                           Obstruction, applications, classify_ap,
                           decide_amalgamation, diagram)
from .verify import verify_paper

__all__ = [name for name in dir() if not name.startswith("_")]
