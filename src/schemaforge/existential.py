"""Which existential rules survive closure under a set of inference rules.

An existential rule of the input schema is violated when some instance of
the schema, closed under the inference rules, matches the rule's antecedent
without a witness for its consequent. The search works backwards with one
most-general unifier, :func:`_mgu`, over rules renamed apart. An inference
rule triggers an existential rule when one of its consequent triples
unifies with the existential antecedent; every rewriting of the triggering
rule's antecedent (obtained by repeatedly unfolding antecedent triples
through unifiable consequent triples) is matched against the schema's
sandbox graph through the fixpoint's own matching step,
:func:`consequence.surviving_mappings`. Each surviving match is grounded
into a small candidate instance, completed with the package's one
chase (:func:`rules.chase_existentials`, given the schema so that it
repairs) so it satisfies all existential rules, closed under the inference
rules, and tested for a violation. The IRIs a grounding invents stay
negotiable during its chase: when a required triple can only exist with a
pattern's constant in some position, the invented IRI there is unified
with that constant rather than giving the grounding up. Groundings whose
completion still fails to be an instance of the schema are discarded; they
witness nothing about the schema's instances.

Rewriting touches only the rules that can fire. A consequent predicate is
always a constant, so per rewriting only the rules with a consequent
predicate among the rewriting's predicates are renamed apart (every rule
when one of them is a variable), and a constant antecedent predicate is
unified only with the renamed consequent triples on that predicate. A
skipped rule still draws the fresh names its renaming would have, so the
names that reach the witnesses do not depend on the skipping.

Rewriting prunes by homomorphism subsumption, which keeps the rewriting
set finite on recursive rule sets; the depth bound ``MAX_REWRITE_DEPTH``
backs the pruning up. The homomorphism test is the package's one join,
``eval._join``, over the target rewriting frozen into a graph, run only
when the source's constants are among the target's (a homomorphism maps
each constant to itself); each rewriting's constants are collected once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from .consequence import (
    SCORE,
    build_sandbox,
    filter_and_annotate,  # not called here: perfbench's tracer test reads the name in this module
    lambda_for,
    simple_schema_consequence,
    surviving_mappings,
)
from .errors import RewriteDepthExceededError
from .eval import BudgetClock, _join
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

MAX_REWRITE_DEPTH = 16


@dataclass(frozen=True)
class Rewriting:
    """An unfolded antecedent that can produce the original one via the rules."""

    antecedent: frozenset[Triple]
    depth: int

    @cached_property
    def constants(self) -> set[Term]:
        return pattern_consts(self.antecedent)


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


def _homomorphism_exists(src: Rewriting, dst: Rewriting) -> bool:
    """Is there a variable mapping h with h(src) a subset of dst?

    This is ``src`` evaluated as a query over ``dst`` with its variables
    frozen into terms (Chandra and Merlin 1977); the first binding decides.
    """
    if not src.constants <= dst.constants:
        return False  # h maps every constant to itself
    target = Graph(dst.antecedent, validate=False)
    goals = [(t, target) for t in sorted(src.antecedent, key=Triple.sort_key)]
    return next(_join(goals), None) is not None


def _rename_apart(rule: InferenceRule, fresh: FreshNames) -> tuple[frozenset[Triple], list[Triple]]:
    """The rule's antecedent and sorted consequent, every variable renamed
    to a fresh one."""
    renaming = Mapping.of({name: fresh.fresh_var("r") for name in rule.variable_names})
    return renaming.apply(rule.antecedent), sorted(renaming.apply(rule.consequent), key=Triple.sort_key)


def _triggers(
    existentials: Sequence[ExistentialRule], rules: Sequence[InferenceRule]
) -> list[list[int]]:
    """Per existential rule, the positions of the inference rules with a
    consequent triple its antecedent unifies with. The rules are renamed
    apart by a registry of their own, so the search's names are not drawn;
    consequent triples never repeat a variable, so this is the union query
    of the antecedent over the consequent's sandbox."""
    apart = FreshNames.of([e.antecedent for e in existentials])
    consequents = [_rename_apart(rule, apart)[1] for rule in rules]
    return [
        [p for p, c in enumerate(consequents) if any(_mgu(e.antecedent, t) is not None for t in c)]
        for e in existentials
    ]


def rewrite_antecedents(
    rule: InferenceRule,
    rules: Sequence[InferenceRule],
    fresh: FreshNames | None = None,
) -> list[Rewriting]:
    """The rule's antecedent plus every minimal backward unfolding.

    One step picks a triple of a rewriting, unifies it with a consequent
    triple of some rule (variables renamed apart) and replaces it with that
    rule's unified antecedent. Rewritings into which a kept rewriting has a
    homomorphism are redundant and pruned, which is what makes recursive
    rule sets terminate.

    The consequent triples are indexed by predicate per rewriting, and
    only the rules that have one of its predicates (all, if one is a
    variable) are renamed; the candidates, and so the result and the fresh
    names drawn, are those of renaming and unifying every rule.
    """
    if fresh is None:
        fresh = FreshNames.of(*(r.antecedent | r.consequent for r in (*rules, rule)))

    start = Rewriting(frozenset(rule.antecedent), 0)
    kept: list[Rewriting] = [start]
    queue: list[Rewriting] = [start]
    while queue:
        current = queue.pop(0)
        if current.depth >= MAX_REWRITE_DEPTH:
            raise RewriteDepthExceededError(
                f"antecedent rewriting of rule {rule.name or '?'} exceeded depth {MAX_REWRITE_DEPTH}"
            )
        # One renaming per rule keeps every candidate of this rewriting
        # apart. Only a rule with a consequent predicate of the rewriting
        # (every rule, if one of its predicates is a variable) can unify; any
        # other draws the names its renaming would have, since later names
        # reach the witnesses.
        predicates = {t.p for t in current.antecedent}
        every_rule = any(p.is_variable for p in predicates)
        built: list[tuple[frozenset[Triple], Triple]] = []
        for other in rules:
            if every_rule or not other.consequent_predicates.isdisjoint(predicates):
                antecedent, consequent = _rename_apart(other, fresh)
                built.extend((antecedent, t_c) for t_c in consequent)
            else:
                for _ in other.variable_names:
                    fresh.fresh_var("r")
        # A constant predicate unifies only with its own bucket, which keeps
        # the candidates in rule order, then sorted consequent order.
        by_predicate: dict[Term, list[tuple[frozenset[Triple], Triple]]] = {}
        for pair in built:
            by_predicate.setdefault(pair[1].p, []).append(pair)
        for t in sorted(current.antecedent, key=Triple.sort_key):
            for antecedent, t_c in built if t.p.is_variable else by_predicate.get(t.p, ()):
                theta = _mgu(t, t_c)
                if theta is None:
                    continue
                new_antecedent = theta.apply(current.antecedent - {t}) | theta.apply(antecedent)
                candidate = Rewriting(new_antecedent, current.depth + 1)
                if any(_homomorphism_exists(k, candidate) for k in kept):
                    continue
                dominated = [k for k in kept if _homomorphism_exists(candidate, k)]
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
    clock: BudgetClock | None,
) -> list[_Grounding]:
    out: list[_Grounding] = []
    for rewriting in rewrite_antecedents(rule, list(rules), fresh):
        for fm in surviving_mappings(rewriting.antecedent, (), schema, SCORE, lam, sandbox, clock):
            kept = Mapping.of({k: v for k, v in fm.mapping if v != lam})
            partially = kept.apply(rewriting.antecedent)
            grounding = Mapping.of(
                {name: fresh.fresh_iri() for name in sorted(pattern_vars(partially))}
            )
            candidate = Graph(grounding.apply(partially), validate=False)
            nulls = {term for _, term in grounding}
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
    clock: BudgetClock | None = None,
) -> ExistentialReport:
    """Split the schema's existential rules into retained and violable.

    An existential rule is examined against every inference rule with a
    consequent triple its antecedent unifies with; candidate instances are
    shared across existential rules since their construction does not
    depend on the rule under test, and dropped after the last existential
    rule that can use them.
    """
    existentials = schema.sorted_existentials()
    fresh = FreshNames.of(
        schema.graph,
        [t for e in existentials for t in (e.antecedent, e.consequent)],
        *(r.antecedent | r.consequent for r in rules),
    )
    lam = lambda_for(schema, *rules)
    sandbox = build_sandbox(schema, lam)
    triggers = _triggers(existentials, rules)  # rule names need not be unique
    last_use = {position: i for i, positions in enumerate(triggers) for position in positions}
    grounding_cache: dict[int, list[_Grounding]] = {}

    violated: list[ViolationReport] = []
    for i, (e, positions) in enumerate(zip(existentials, triggers)):
        for position in positions:
            if position not in grounding_cache:
                grounding_cache[position] = _groundings_for_rule(
                    rules[position], schema, rules, sandbox, lam, fresh, clock
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
    clock: BudgetClock | None = None,
) -> tuple[TriplestoreSchema, ExistentialReport]:
    """Graph and no-literal parts of the simple consequence, existential
    part restricted to the rules no closure can violate; returned with the
    report that splits the existential rules into retained and violated."""
    simple = simple_schema_consequence(schema, rules, mode, clock)
    report = retained_existentials(schema, rules, clock)
    return replace(simple, existentials=frozenset(report.retained)), report
