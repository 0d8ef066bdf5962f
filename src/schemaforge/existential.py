"""Which existential rules survive closure under a set of inference rules.

An existential rule of the input schema is violated when some instance of
the schema, closed under the inference rules, matches the rule's antecedent
without a witness for its consequent. The search works backwards: for every
inference rule whose consequent could produce a match of the existential
antecedent, every rewriting of that rule's antecedent (obtained by
repeatedly unfolding antecedent triples through other rules' consequents)
is matched against the schema's sandbox graph through the fixpoint's own
matching step, :func:`consequence.surviving_mappings`. Each surviving match is
grounded into a small candidate instance, completed with the package's one
chase (:func:`rules.chase_existentials`, given the schema so that it
repairs) so it satisfies all existential rules, closed under the inference
rules, and tested for a violation. The IRIs a grounding invents stay
negotiable during its chase: when a required triple can only exist with a
pattern's constant in some position, the invented IRI there is unified
with that constant rather than giving the grounding up. Groundings whose
completion still fails to be an instance of the schema are discarded; they
witness nothing about the schema's instances.

Rewriting uses most-general unifiers with homomorphism subsumption pruning,
which keeps the rewriting set finite on recursive rule sets; a depth bound
backs the pruning up. The homomorphism test is the package's one join,
``eval._join``, over the target rewriting frozen into a graph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .consequence import (
    SCORE,
    build_sandbox,
    choose_lambda,
    filter_and_annotate,  # not called here: perfbench's tracer test reads the name in this module
    sandbox_of_pattern,
    simple_schema_consequence,
    surviving_mappings,
)
from .errors import RewriteDepthExceededError
from .eval import BudgetClock, _join, evaluate_union_query
from .rules import InferenceRule, chase_existentials, closure
from .schema import (
    ExistentialRule,
    TriplestoreSchema,
    is_instance,
    violations,
)
from .terms import (
    FreshNames,
    Graph,
    Mapping,
    Term,
    Triple,
    pattern_consts,
    pattern_vars,
)


@dataclass(frozen=True)
class Rewriting:
    """An unfolded antecedent that can produce the original one via the rules."""

    antecedent: frozenset[Triple]
    source_rule: str
    depth: int

    def sort_key(self) -> tuple:
        return (self.depth, tuple(t.sort_key() for t in sorted(self.antecedent, key=Triple.sort_key)))


def _mgu(t1: Triple, t2: Triple) -> Mapping | None:
    """Most general unifier of two triple patterns (atomic terms only)."""
    subst: dict[str, Term] = {}

    def walk(term: Term) -> Term:
        while term.is_variable and term.lexical in subst:
            term = subst[term.lexical]
        return term

    for a, b in zip(t1, t2):
        a, b = walk(a), walk(b)
        if a == b:
            continue
        if a.is_variable:
            subst[a.lexical] = b
        elif b.is_variable:
            subst[b.lexical] = a
        else:
            return None
    # Resolve chains so every binding maps straight to its final value.
    return Mapping.of({name: walk(value) for name, value in subst.items()})


def _homomorphism_exists(src: frozenset[Triple], dst: frozenset[Triple]) -> bool:
    """Is there a variable mapping h with h(src) a subset of dst?

    This is ``src`` evaluated as a query over ``dst`` with its variables
    frozen into terms (Chandra and Merlin 1977); the first binding decides.
    """
    target = Graph(dst, validate=False)
    goals = [(t, target) for t in sorted(src, key=Triple.sort_key)]
    return next(_join(goals), None) is not None


def _rename_apart(rule: InferenceRule, fresh: FreshNames) -> InferenceRule:
    renaming = Mapping.of(
        {name: fresh.fresh_var("r") for name in sorted(pattern_vars(rule.antecedent | rule.consequent))}
    )
    return InferenceRule(
        frozenset(renaming.apply(rule.antecedent)),
        frozenset(renaming.apply(rule.consequent)),
        rule.name,
    )


def rewrite_antecedents(
    rule: InferenceRule,
    rules: Sequence[InferenceRule],
    fresh: FreshNames | None = None,
    max_depth: int = 16,
) -> list[Rewriting]:
    """The rule's antecedent plus every minimal backward unfolding.

    One step picks a triple of a rewriting, unifies it with a consequent
    triple of some rule (variables renamed apart) and replaces it with that
    rule's unified antecedent. Rewritings into which a kept rewriting has a
    homomorphism are redundant and pruned, which is what makes recursive
    rule sets terminate.
    """
    if fresh is None:
        fresh = FreshNames()
        for r in rules:
            fresh.observe(r.antecedent)
            fresh.observe(r.consequent)
        fresh.observe(rule.antecedent)
        fresh.observe(rule.consequent)

    start = Rewriting(frozenset(rule.antecedent), rule.name, 0)
    kept: list[Rewriting] = [start]
    queue: list[Rewriting] = [start]
    while queue:
        current = queue.pop(0)
        if current.depth >= max_depth:
            raise RewriteDepthExceededError(
                f"antecedent rewriting of rule {rule.name or '?'} exceeded depth {max_depth}"
            )
        # One renaming per rule keeps every candidate of this rewriting apart.
        renamings = [_rename_apart(other, fresh) for other in rules]
        for t in sorted(current.antecedent, key=Triple.sort_key):
            for renamed in renamings:
                for t_c in renamed.sorted_consequent():
                    theta = _mgu(t, t_c)
                    if theta is None:
                        continue
                    new_antecedent = frozenset(
                        theta.apply(current.antecedent - {t}) | theta.apply(renamed.antecedent)
                    )
                    candidate = Rewriting(new_antecedent, rule.name, current.depth + 1)
                    if any(_homomorphism_exists(k.antecedent, candidate.antecedent) for k in kept):
                        continue
                    dominated = [
                        k for k in kept if _homomorphism_exists(candidate.antecedent, k.antecedent)
                    ]
                    for k in dominated:
                        kept.remove(k)
                        if k in queue:
                            queue.remove(k)
                    kept.append(candidate)
                    queue.append(candidate)
    return kept


@dataclass(frozen=True)
class ViolationReport:
    """One existential rule found violable, with a concrete counterexample.

    ``witness`` is an instance of the input schema whose closure under the
    inference rules violates the rule; ``via_rule`` names the inference rule
    whose consequent triggers it.
    """

    rule: ExistentialRule
    witness: Graph
    via_rule: str


@dataclass(frozen=True)
class ExistentialReport:
    retained: tuple[ExistentialRule, ...]
    violated: tuple[ViolationReport, ...]


@dataclass(frozen=True)
class _Grounding:
    witness: Graph  # chased: an instance of the schema
    closed: Graph  # its closure under the inference rules


def _groundings_for_rule(
    rule: InferenceRule,
    schema: TriplestoreSchema,
    rules: Sequence[InferenceRule],
    sandbox: Graph,
    lam: Term,
    fresh: FreshNames,
    max_rewrite_depth: int,
    clock: BudgetClock | None,
) -> list[_Grounding]:
    out: list[_Grounding] = []
    for rewriting in rewrite_antecedents(rule, list(rules), fresh, max_rewrite_depth):
        for fm in surviving_mappings(rewriting.antecedent, (), schema, SCORE, lam, sandbox, clock):
            kept = Mapping.of({k: v for k, v in fm.mapping.bindings if v != lam})
            partially = kept.apply(rewriting.antecedent)
            grounding = Mapping.of(
                {name: fresh.fresh_iri() for name in sorted(pattern_vars(partially))}
            )
            candidate = Graph(grounding.apply(partially), validate=False)
            nulls = {term for _, term in grounding.bindings}
            chased = chase_existentials(
                candidate, schema.existentials, fresh, schema=schema, nulls=nulls, clock=clock
            )
            if not is_instance(chased, schema):
                continue
            closed = closure(chased, list(rules), clock=clock)
            out.append(_Grounding(chased, closed))
    return out


def retained_existentials(
    schema: TriplestoreSchema,
    rules: Sequence[InferenceRule],
    max_rewrite_depth: int = 16,
    clock: BudgetClock | None = None,
) -> ExistentialReport:
    """Split the schema's existential rules into retained and violable.

    An existential rule is examined against every inference rule whose
    sandboxed consequent its antecedent can match; candidate instances are
    shared across existential rules since their construction does not
    depend on the rule under test, and dropped after the last existential
    rule that can use them.
    """
    fresh = FreshNames()
    fresh.observe(schema.graph)
    for e in schema.existentials:
        fresh.observe([e.antecedent, e.consequent])
    for r in rules:
        fresh.observe(r.antecedent)
        fresh.observe(r.consequent)

    pool = schema.constants()
    for e in schema.existentials:
        pool |= pattern_consts([e.antecedent, e.consequent])
    for r in rules:
        pool |= pattern_consts(r.antecedent | r.consequent)
    lam = choose_lambda(pool)

    sandbox = build_sandbox(schema, lam)
    existentials = schema.sorted_existentials()
    consequent_sandboxes = [sandbox_of_pattern(rule.consequent, lam) for rule in rules]
    # Per existential rule, the positions of the inference rules whose
    # sandboxed consequent its antecedent matches (rule names need not be
    # unique).
    triggers = [
        [p for p, c in enumerate(consequent_sandboxes) if evaluate_union_query([e.antecedent], lam, c)]
        for e in existentials
    ]
    last_use = {position: i for i, positions in enumerate(triggers) for position in positions}
    grounding_cache: dict[int, list[_Grounding]] = {}

    violated: list[ViolationReport] = []
    for i, (e, positions) in enumerate(zip(existentials, triggers)):
        for position in positions:
            if position not in grounding_cache:
                grounding_cache[position] = _groundings_for_rule(
                    rules[position], schema, rules, sandbox, lam, fresh, max_rewrite_depth, clock
                )
            found = next((g for g in grounding_cache[position] if violations([e], g.closed)), None)
            if found is not None:
                violated.append(ViolationReport(e, found.witness, rules[position].name))
                break
        for position in positions:
            if last_use[position] == i:
                grounding_cache.pop(position, None)
    violated_rules = {v.rule for v in violated}
    retained = tuple(e for e in existentials if e not in violated_rules)
    return ExistentialReport(retained, tuple(violated))


def existential_schema_consequence(
    schema: TriplestoreSchema,
    rules: Sequence[InferenceRule],
    mode: str = SCORE,
    triple_budget: int = 10**7,
    max_rewrite_depth: int = 16,
    clock: BudgetClock | None = None,
) -> TriplestoreSchema:
    """Graph and no-literal parts of the simple consequence, existential
    part restricted to the rules no closure can violate."""
    simple = simple_schema_consequence(schema, rules, mode, triple_budget, clock)
    report = retained_existentials(schema, rules, max_rewrite_depth, clock)
    return replace(simple, existentials=frozenset(report.retained))
