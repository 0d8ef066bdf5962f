"""Schema consequences: what a rule set can make instances look like.

Given a schema S and an inference rule r: A -> C, the basic consequence of
S by r is a schema modelling every subset of every single application r(I)
over instances I of S. It is computed by evaluating A (or a rewriting of A)
over a canonical instance of S, filtering the resulting mappings to respect
RDF's literal placement rules, and instantiating C into new schema patterns.

Two canonical instances are supported:

* the critical instance: every schema variable is replaced, in all
  combinations, by every constant of the schema and the rule plus one
  reserved placeholder IRI. Sound and complete, but exponentially large.
* the sandbox graph: every schema variable is replaced by the placeholder
  alone, giving one triple per schema pattern. The antecedent is then
  matched as its union query, a join in which the placeholder is a
  wildcard (:func:`eval.evaluate_union_query`).

Both routes go through one matching step, :func:`surviving_mappings`:
evaluate, sort, and keep the mappings :func:`filter_and_annotate` passes.
The filter reads each antecedent triple's origins off its ground image
under the mapping: the patterns the index returns for it, which in score
mode are exactly the patterns whose sandbox triples the triple matched.
The critical route, the reference oracle, finds the same origins without
the index, by signature probe and per-pair test (:func:`reference_origins`).
The fixpoint and the violation search both use the step, and the two
routes produce semantically equivalent output schemas.

The full (simple) schema consequence iterates basic consequences over all
rules to a fixpoint; it terminates because only finitely many pattern
shapes exist over the fixed constant pool. Every rule of a round sees the
same schema, so the fixpoint builds one sandbox per round and fires every
rule over it into the round's new patterns and no-literal names, through
the same per-rule step as :func:`basic_consequence`. The schema is
normalised once; each round's new patterns are merged into it
(:func:`schema.merge_patterns`), and the round that merges none stops.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import CriticalInstanceTooLargeError
from .eval import BudgetClock, evaluate_bgp, evaluate_union_query
from .rules import InferenceRule
from .schema import TriplestoreSchema, merge_patterns, normalize_schema, triple_instantiates
from .terms import (
    FreshNames,
    Graph,
    Mapping,
    Term,
    Triple,
    iri,
    pattern_consts,
)

LAMBDA_NS = "urn:lambda:"


def choose_lambda(*const_sources: Iterable[Term]) -> Term:
    """The reserved placeholder IRI, picked to be absent from all inputs."""
    taken = {t.lexical for consts in const_sources for t in consts}
    n = 0
    while f"{LAMBDA_NS}{n}" in taken:
        n += 1
    return iri(f"{LAMBDA_NS}{n}")


def lambda_for(schema: TriplestoreSchema, *rules: InferenceRule) -> Term:
    """The placeholder absent from the schema, existential rules included, and the rules."""
    return choose_lambda(
        schema.constants(),
        pattern_consts(t for e in schema.existentials for t in (e.antecedent, e.consequent)),
        *(pattern_consts(r.antecedent | r.consequent) for r in rules),
    )


def build_sandbox(schema: TriplestoreSchema, lam: Term | None = None) -> Graph:
    """One triple per schema pattern, every variable collapsed to the placeholder."""
    if lam is None:
        lam = choose_lambda(schema.constants())
    return Graph(
        (Triple(*(lam if term.is_variable else term for term in t)) for t in schema.graph),
        validate=False,
    )


def build_critical(
    schema: TriplestoreSchema,
    rule: InferenceRule,
    lam: Term | None = None,
    triple_budget: int = 10**7,
    clock: BudgetClock | None = None,
) -> Graph:
    """The critical instance of the schema for one rule.

    Every variable position ranges independently over all constants of the
    schema and the rule plus the placeholder; literals are only admitted in
    object position for variables outside the no-literal set. Constant
    positions are copied through. Size grows as |constants|^|vars|, so a
    triple budget guards construction.
    """
    if lam is None:
        lam = lambda_for(schema, rule)
    pool = sorted(
        schema.constants()
        | pattern_consts(rule.antecedent)
        | pattern_consts(rule.consequent)
        | {lam},
        key=Term.sort_key,
    )
    pool_iris = [t for t in pool if t.is_iri]
    triples: set[Triple] = set()
    for pattern in schema.sorted_patterns():
        choices: list[list[Term]] = []
        for pos, term in enumerate(pattern):
            if term.is_constant:
                choices.append([term])
            elif pos == 2 and term.lexical not in schema.no_literal:
                choices.append(pool)
            else:
                choices.append(pool_iris)
        count = 1
        for c in choices:
            count *= len(c)
        if len(triples) + count > triple_budget:
            raise CriticalInstanceTooLargeError(
                f"critical instance would exceed {triple_budget} triples"
            )
        for s, p, o in product(*choices):
            triples.add(Triple(s, p, o))
        if clock is not None:
            clock.check(every=1)
    return Graph(triples, validate=False)


def find_origin_patterns(t: Triple, schema: TriplestoreSchema) -> set[Triple]:
    """Schema patterns a canonical-instance triple can arise from: those
    ``t`` instantiates under the no-literal rule (any IRI, placeholder
    included, for a variable; a literal only for an object variable outside
    the no-literal set), read off the schema's pattern index."""
    return set(schema.index.covering(t))


def reference_origins(schema: TriplestoreSchema) -> Callable[[Triple], set[Triple]]:
    """The critical route's origin lookup: what :func:`find_origin_patterns`
    returns, found as before the pattern index, by probing every
    generalisation of the triple's full constant signature and putting each
    candidate through the per-pair :func:`schema.triple_instantiates`. The
    reference oracle thus stays independent of the index, at the cost that
    acceptance criterion 4 times."""
    buckets: dict[tuple, list[Triple]] = {}
    for p in schema.graph:
        buckets.setdefault(tuple(None if term.is_variable else term for term in p), []).append(p)

    def candidates(t: Triple) -> Iterator[Triple]:
        for key in product(*[(None,) if term.is_variable else (term, None) for term in t]):
            yield from buckets.get(key, ())

    def origins(t: Triple) -> set[Triple]:
        return {p for p in candidates(t) if triple_instantiates(t, p, schema.no_literal)}

    return origins


@dataclass(frozen=True)
class FilteredMapping:
    """A surviving mapping with its temporary no-literal annotation."""

    mapping: Mapping
    temp_no_literal: frozenset[str]


SCORE = "score"
CRITICAL = "critical"


def filter_and_annotate(
    m: Mapping,
    antecedent: Iterable[Triple],
    consequent: Iterable[Triple],
    schema: TriplestoreSchema,
    lam: Term,
    origins_of: Callable[[Triple], set[Triple]] | None = None,
) -> FilteredMapping | None:
    """The post-processing of one mapping; None means it is filtered out.

    The temporary no-literal set starts with every rule variable occurring
    in subject or predicate position of the antecedent or consequent. Each
    antecedent object position is then checked against the schema patterns
    that enabled the match: a literal with no origin rejects the mapping,
    and a placeholder-bound variable whose origins all forbid literals
    joins the temporary set. Finally a mapping binding any temporary-set
    variable to a literal is rejected.

    The enabling patterns are the origins of each antecedent triple's
    ground image, which the pattern index returns only if they admit its
    object. For a mapping binding every antecedent variable, which is what
    every caller in the package passes, these are the patterns whose
    canonical triples the triple matched, less those with a no-literal
    object variable under a literal. ``origins_of`` replaces the index
    lookup, as :func:`reference_origins` does for the critical route.
    """
    antecedent = sorted(antecedent, key=Triple.sort_key)
    delta_m = {term.lexical for t in (*antecedent, *consequent) for term in (t.s, t.p) if term.is_variable}

    for t_a in antecedent:
        image = m.apply_triple(t_a)
        origins = find_origin_patterns(image, schema) if origins_of is None else origins_of(image)

        obj = t_a.o
        value = image.o
        if value.is_literal:
            if not origins:
                return None
        elif obj.is_variable and value == lam:
            if not any(o.o.is_variable and o.o.lexical not in schema.no_literal for o in origins):
                delta_m.add(obj.lexical)

    for name in sorted(delta_m):
        bound = m.get(name)
        if bound is not None and bound.is_literal:
            return None
    return FilteredMapping(m, frozenset(delta_m))


def surviving_mappings(
    antecedent: Collection[Triple],
    consequent: Collection[Triple],
    schema: TriplestoreSchema,
    mode: str,
    lam: Term,
    canonical: Graph,
    clock: BudgetClock | None = None,
) -> Iterator[FilteredMapping]:
    """The one matching step, shared by the fixpoint and the violation
    search: in sorted order, the antecedent's mappings into ``canonical``
    (the schema's sandbox in score mode, matched by the union query, or a
    critical instance) that :func:`filter_and_annotate` keeps."""
    if mode == SCORE:
        mappings = evaluate_union_query(antecedent, lam, canonical, clock)
        origins_of = None
    else:
        mappings = evaluate_bgp(antecedent, canonical, clock)
        origins_of = reference_origins(schema)
    for m in sorted(mappings, key=Mapping.sort_key):
        if clock is not None:
            clock.check(every=64)
        fm = filter_and_annotate(m, antecedent, consequent, schema, lam, origins_of)
        if fm is not None:
            yield fm


def expand_schema(
    patterns: set[Triple],
    no_literal: set[str],
    fm: FilteredMapping,
    consequent: Iterable[Triple],
    lam: Term,
    fresh: FreshNames,
) -> None:
    """Add the instantiated consequent of one surviving mapping, in place.

    Placeholder-bound variables become fresh variables, one per occurrence,
    which preserves the at-most-once rule for schema-graph variables; the
    fresh variable inherits membership in the no-literal set from the
    temporary annotation of its source variable.
    """
    m = fm.mapping
    for c in sorted(consequent, key=Triple.sort_key):
        terms: list[Term] = []
        for term in c:
            value = m.apply_term(term)
            if term.is_variable and value == lam:
                f = fresh.fresh_var()
                terms.append(f)
                if term.lexical in fm.temp_no_literal:
                    no_literal.add(f.lexical)
            else:
                terms.append(value)
        patterns.add(Triple(*terms))


def basic_consequence(
    schema: TriplestoreSchema,
    rule: InferenceRule,
    mode: str = SCORE,
    lam: Term | None = None,
    fresh: FreshNames | None = None,
    clock: BudgetClock | None = None,
) -> tuple[TriplestoreSchema, bool]:
    """One rule's schema consequence; the flag reports applicability.

    The output starts from the input's graph and no-literal parts with an
    empty existential set, and gains one instantiated consequent per
    surviving mapping. A rule is applicable iff at least one mapping
    survives filtering.

    This is the one-rule entry point: it builds its own sandbox (score
    mode) and calls the per-rule step that the fixpoint of
    :func:`simple_schema_consequence_report` shares across a round.
    """
    if lam is None:
        lam = lambda_for(schema, rule)
    if fresh is None:
        fresh = FreshNames.of(schema.graph, rule.antecedent | rule.consequent)
    sandbox = build_sandbox(schema, lam) if mode == SCORE else None
    patterns = set(schema.graph)
    no_literal = set(schema.no_literal)
    applicable = _fire_rule(schema, rule, mode, lam, sandbox, patterns, no_literal, fresh, clock)
    return TriplestoreSchema.of(patterns, no_literal), applicable


def _fire_rule(
    schema: TriplestoreSchema,
    rule: InferenceRule,
    mode: str,
    lam: Term,
    sandbox: Graph | None,
    patterns: set[Triple],
    no_literal: set[str],
    fresh: FreshNames,
    clock: BudgetClock | None,
) -> bool:
    """Fire one rule over the given sandbox (score mode) or the rule's own
    critical instance, adding every surviving mapping's consequent to
    ``patterns`` and ``no_literal`` in place; report whether any survived."""
    if mode == SCORE:
        canonical = sandbox
    elif mode == CRITICAL:
        canonical = build_critical(schema, rule, lam, clock=clock)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    applicable = False
    for fm in surviving_mappings(rule.antecedent, rule.consequent, schema, mode, lam, canonical, clock):
        applicable = True
        expand_schema(patterns, no_literal, fm, rule.consequent, lam, fresh)
    return applicable


@dataclass(frozen=True)
class ConsequenceResult:
    """The fixpoint, the names and input positions of the rules that ever
    fired, and the rounds run (the last one changes nothing)."""

    schema: TriplestoreSchema
    applicable_rules: frozenset[str]
    rounds: int
    fired: tuple[int, ...]


def simple_schema_consequence_report(
    schema: TriplestoreSchema,
    rules: Sequence[InferenceRule],
    mode: str = SCORE,
    clock: BudgetClock | None = None,
) -> ConsequenceResult:
    """Fixpoint of basic consequences over all rules, in score mode over one
    sandbox per round, each round's new patterns merged into the normalised
    schema; also reports which rules ever fired."""
    fresh = FreshNames.of(schema.graph, *(r.antecedent | r.consequent for r in rules))
    lam = lambda_for(schema, *rules)

    current = normalize_schema(schema.graph_part())
    fired: set[int] = set()
    rounds = 0
    while True:
        rounds += 1
        if clock is not None:
            clock.check(every=1)
        patterns: set[Triple] = set()
        no_literal: set[str] = set()
        sandbox = build_sandbox(current, lam) if mode == SCORE else None
        for i, rule in enumerate(rules):
            if _fire_rule(current, rule, mode, lam, sandbox, patterns, no_literal, fresh, clock):
                fired.add(i)
        del sandbox  # with its indexes, so it is not held through normalisation
        merged = merge_patterns(current, patterns - current.graph, no_literal)
        if merged is current:
            break
        current = merged
    positions = tuple(sorted(fired))
    names = frozenset(rules[i].name for i in positions)
    return ConsequenceResult(current, names, rounds, positions)


def simple_schema_consequence(
    schema: TriplestoreSchema,
    rules: Sequence[InferenceRule],
    mode: str = SCORE,
    clock: BudgetClock | None = None,
) -> TriplestoreSchema:
    return simple_schema_consequence_report(schema, rules, mode, clock).schema


def applicable_rules(
    schema: TriplestoreSchema,
    rules: Sequence[InferenceRule],
    mode: str = SCORE,
    clock: BudgetClock | None = None,
) -> frozenset[str]:
    """Names of the rules that fire on at least one instance of the schema,
    including rules enabled only by earlier consequences."""
    return simple_schema_consequence_report(schema, rules, mode, clock=clock).applicable_rules
