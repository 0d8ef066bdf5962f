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
:func:`consequence.surviving_mappings`. Each surviving match is grounded,
on demand, into a small candidate instance, completed with the package's one
chase (:func:`rules.chase_existentials`, given the schema so that it
repairs) so it satisfies all existential rules, closed under the inference
rules, and tested for a violation. The IRIs a grounding invents stay
negotiable during its chase: when a required triple can only exist with a
pattern's constant in some position, the invented IRI there is unified
with that constant rather than giving the grounding up. Groundings whose
completion still fails to be an instance of the schema are discarded; they
witness nothing about the schema's instances.

One violating witness is enough, so a triggering rule's groundings are a
memoised lazy sequence: an existential rule reads those already built, then
builds new ones only until one violates it. A grounding no rule reads is
never built, and draws no fresh IRIs. A rule is retained only once every
grounding of every triggering rule was built and checked.

The search compiles the inference rules once and reads their positions by
consequent predicate (``schema._RuleIndex``). Per rewriting, only the rules
that can produce one of its triples (every rule, when a predicate is a
variable) are renamed apart, and a constant predicate is unified only with
their consequent triples on it. Fresh names are drawn only for what is
built: the rules renamed, the grounded variables and the chase's
witnesses. A rewriting is defined only up to renaming and homomorphic
equivalence, and a witness only up to renaming of its invented IRIs, so
that is all the search's results keep.

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
from typing import Iterator, Sequence

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
    _RuleIndex,
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
    consequent triple its antecedent unifies with, read off the rules'
    index by the antecedent's predicate. The rules are renamed apart by a
    registry of their own, so the search's names are not drawn; consequent
    triples never repeat a variable, so this is the union query of the
    antecedent over the consequent's sandbox."""
    apart = FreshNames.of([e.antecedent for e in existentials])
    rules = _RuleIndex.of(rules)
    consequents = [_rename_apart(rule, apart)[1] for rule in rules]

    def unifies(a: Triple, position: int) -> bool:
        return any(_mgu(a, t) is not None for t in consequents[position] if a.p.is_variable or t.p == a.p)

    return [[q for q in rules.producing([e.antecedent.p]) if unifies(e.antecedent, q)] for e in existentials]


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

    Only the rules that can produce one of a rewriting's triples are
    renamed and draw fresh names. The result is that of renaming and
    unifying every rule up to homomorphic equivalence of each rewriting;
    its order can differ, since triples are visited in the sort order of
    their variable names.
    """
    rules = _RuleIndex.of(rules)
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
        # One renaming per rule that can produce a triple of the rewriting
        # keeps the candidates apart; a constant predicate meets only the
        # consequent triples on it.
        renamed = {q: _rename_apart(rules[q], fresh) for q in rules.producing(t.p for t in current.antecedent)}
        for t in sorted(current.antecedent, key=Triple.sort_key):
            for antecedent, t_c in [(renamed[q][0], t_c) for q in rules.producing([t.p]) for t_c in renamed[q][1]]:
                theta = _mgu(t, t_c) if t.p.is_variable or t_c.p == t.p else None
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
) -> Iterator[_Grounding]:
    """The rule's groundings, built one at a time: rewriting by rewriting,
    then surviving mapping by mapping."""
    for rewriting in rewrite_antecedents(rule, rules, fresh):
        for fm in surviving_mappings(rewriting.antecedent, (), schema, SCORE, lam, sandbox, clock):
            kept = Mapping.of({k: v for k, v in fm.mapping if v != lam})
            partially = kept.apply(rewriting.antecedent)
            grounding = Mapping.of(
                {name: fresh.fresh_iri() for name in sorted(pattern_vars(partially))}
            )
            candidate = Graph(grounding.apply(partially), validate=False)
            nulls = {term for _, term in grounding}
            chased = chase_existentials(
                candidate, schema.sorted_existentials(), fresh, schema=schema, nulls=nulls, clock=clock
            )
            if not is_instance(chased, schema):
                continue
            closed = closure(chased, rules, clock=clock)
            yield _Grounding(chased, closed)


def _memoised(built: list[_Grounding], pending: Iterator[_Grounding]) -> Iterator[_Grounding]:
    """The groundings built so far, then new ones pulled from ``pending``
    and kept for the next reader."""
    yield from built
    for grounding in pending:
        built.append(grounding)
        yield grounding


def retained_existentials(
    schema: TriplestoreSchema,
    rules: Sequence[InferenceRule],
    clock: BudgetClock | None = None,
) -> ExistentialReport:
    """Split the schema's existential rules into retained and violable.

    An existential rule is examined against every inference rule with a
    consequent triple its antecedent unifies with. A triggering rule's
    candidate instances are built on demand and shared across existential
    rules, since their construction does not depend on the rule under test:
    each rule reads those built so far, then builds new ones only until one
    violates it, so the search stops at the first violating witness. A rule
    is retained only after every candidate of every triggering rule was
    built and checked. Candidates are dropped after the last existential
    rule that can use them.
    """
    existentials = schema.sorted_existentials()
    rules = _RuleIndex.of(rules)
    fresh = FreshNames.of(
        schema.graph,
        [t for e in existentials for t in (e.antecedent, e.consequent)],
        *(r.antecedent | r.consequent for r in rules),
    )
    lam = lambda_for(schema, *rules)
    sandbox = build_sandbox(schema, lam)
    triggers = _triggers(existentials, rules)  # rule names need not be unique
    last_use = {position: i for i, positions in enumerate(triggers) for position in positions}
    # Per trigger position, the groundings built so far and the suspended rest.
    grounding_cache: dict[int, tuple[list[_Grounding], Iterator[_Grounding]]] = {}

    violated: list[ViolationReport] = []
    for i, (e, positions) in enumerate(zip(existentials, triggers)):
        for position in positions:
            if position not in grounding_cache:
                grounding_cache[position] = [], _groundings_for_rule(
                    rules[position], schema, rules, sandbox, lam, fresh, clock
                )
            groundings = _memoised(*grounding_cache[position])
            found = next((g for g in groundings if violations([e], g.closed)), None)
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
