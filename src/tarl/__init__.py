"""tarl: proof checking, bounded proof search, finite countermodels and
relation-algebra cross-validation for Tarski's relevance logic."""

from .formulas import (
    Formula, Var, Neg, And, Or, Imp, Fusion, ParseError,
    parse_formula, print_formula, desugar_fusion, variables,
    shared_variables, substitute,
)
from .sequents import (
    Assertion, Sequent, Proof, CheckReport, RuleError,
    check_proof, check_step, permute_indices, objects_level,
    parse_proof_script, format_proof_script, substitute_proof,
)
from .derived import apply_derived_rule, DERIVED_RULES
from .search import SearchBudget, SearchOutcome, search_proof
from .models import (
    ModelStructure, Valuation, PostulateReport,
    op_fusion, op_implies, op_star, op_neg,
    interpret, verified, valid_in, find_invalidating_singletons,
    check_postulates, variable_sharing_certificate, enumerate_structures,
    load_model_file, dump_model_file,
)
from .algebra import (
    RATerm, translate, parse_ra_term, print_ra_term, eval_term,
    holds_law, verified_in_algebra, check_chain,
    parse_chain, ProperAlgebra, ComplexAlgebra,
    TARSKI_AXIOMS, DERIVED_LAWS,
)
from .registry import (
    get_structure, get_formula, get_corpus_entry, list_corpus, corpus_ids,
    NamedFormula, CorpusEntry,
)

__version__ = "0.1.0"
