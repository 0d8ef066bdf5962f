"""Schema consequences for rule-extended triplestore schemas.

The package models RDF triplestore schemas as a schema graph of wildcard
triple patterns, a no-literal set, and single-atom existential rules. Given
datalog inference rules it computes the evolved schema that models every
closure of every instance, by query rewriting over a one-triple-per-pattern
sandbox graph (fast) or over the exponential critical instance (reference),
and detects which existential rules the inference rules can violate. A
SHACL bridge translates a constraint fragment to and from such schemas.
"""

from .consequence import (
    CRITICAL,
    SCORE,
    applicable_rules,
    basic_consequence,
    build_critical,
    build_sandbox,
    choose_lambda,
    filter_and_annotate,
    find_origin_patterns,
    simple_schema_consequence,
    simple_schema_consequence_report,
    surviving_mappings,
)
from .errors import (
    BudgetExceededError,
    ChaseNonterminationError,
    CriticalInstanceTooLargeError,
    ParseError,
    RewriteDepthExceededError,
    SchemaError,
    SchemaforgeError,
    UnsupportedShaclError,
)
from .eval import (
    BudgetClock,
    build_lambda_rewriting,
    evaluate_bgp,
    evaluate_union_query,
)
from .existential import (
    ExistentialReport,
    Rewriting,
    ViolationReport,
    existential_schema_consequence,
    retained_existentials,
    rewrite_antecedents,
)
from .rules import InferenceRule, apply_rule, chase_existentials, closure
from .schema import (
    ExistentialRule,
    TriplestoreSchema,
    Violation,
    is_instance,
    normalize_schema,
    schema_contains,
    schema_equivalent,
    triple_instantiates,
    violations,
)
from .terms import (
    FreshNames,
    Graph,
    Mapping,
    Term,
    Triple,
    iri,
    is_valid_rdf_graph,
    lit,
    var,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
