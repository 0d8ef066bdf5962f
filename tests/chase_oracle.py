"""The join-based violation check and the rescanning chase, kept as the
oracles that ``schema.unsatisfied`` and ``rules.chase_existentials`` are
tested against.

Both send each side of an existential rule through the general join of
conjunctions, ``evaluate_bgp``, as a one-pattern conjunction: the
antecedent's matches are evaluated as a set and sorted, and each
instantiated consequent is evaluated in full to learn whether it has a
witness. That is a direct transcription of the definition of a violation.
The chase rebuilds its graph after every change and rescans every rule from
the first one, so it keeps no state between steps that could go stale.
"""

from __future__ import annotations

from typing import Iterable

from schemaforge import (
    ChaseNonterminationError,
    ExistentialRule,
    FreshNames,
    Graph,
    Mapping,
    Term,
    Triple,
    TriplestoreSchema,
)
from schemaforge.eval import BudgetClock, evaluate_bgp
from schemaforge.rules import _unify_with_pattern
from schemaforge.schema import Violation, instantiates_some
from schemaforge.terms import pattern_vars


def oracle_violations(rules: Iterable[ExistentialRule], graph: Graph) -> frozenset[Violation]:
    """All pairs of a rule and an antecedent match with no consequent witness."""
    found: set[Violation] = set()
    for rule in rules:
        for m in evaluate_bgp([rule.antecedent], graph):
            consequent = m.apply_triple(rule.consequent)
            if not evaluate_bgp([consequent], graph):
                found.add(Violation(m, rule))
    return frozenset(found)


def oracle_chase_step(
    graph: Graph,
    rules: list[ExistentialRule],
    fresh: FreshNames,
    schema: TriplestoreSchema | None,
    nulls: set[Term],
) -> frozenset[Triple] | None:
    """The triples after the first change the chase makes, or None when
    every rule is satisfied or cannot be."""
    for rule in rules:
        for m in sorted(evaluate_bgp([rule.antecedent], graph), key=Mapping.sort_key):
            consequent = m.apply_triple(rule.consequent)
            if evaluate_bgp([consequent], graph):
                continue
            grounding = {name: fresh.fresh_iri() for name in sorted(pattern_vars([consequent]))}
            nulls.update(grounding.values())
            witness = Mapping.of(grounding).apply_triple(consequent)
            if not (witness.s.is_iri and witness.p.is_iri):
                continue
            extended = graph.triples | {witness}
            if schema is None or instantiates_some(witness, schema):
                return extended
            for pattern in sorted(schema.graph, key=Triple.sort_key):
                subst = _unify_with_pattern(witness, pattern, schema.no_literal, nulls)
                if subst is None:
                    continue
                rewritten = frozenset(Triple(*(subst.get(x, x) for x in t)) for t in extended)
                if not all(t.s.is_iri and t.p.is_iri for t in rewritten):
                    continue
                nulls.difference_update(subst)
                return rewritten
    return None


def oracle_chase(
    graph: Graph,
    rules: Iterable[ExistentialRule],
    fresh: FreshNames,
    max_steps: int | None = None,
    schema: TriplestoreSchema | None = None,
    nulls: set[Term] | None = None,
    clock: BudgetClock | None = None,
) -> Graph:
    """``chase_existentials`` as one :func:`oracle_chase_step` after another,
    each on a graph rebuilt from the last step's triples."""
    rule_list = sorted(rules, key=ExistentialRule.sort_key)
    if nulls is None:
        nulls = set()
    if max_steps is None:
        max_steps = 10 * (len(graph) + len(rule_list) + 1) ** 2
    current = graph
    steps = 0
    while (changed := oracle_chase_step(current, rule_list, fresh, schema, nulls)) is not None:
        if clock is not None:
            clock.check(every=1)
        current = Graph(changed, validate=False)
        steps += 1
        if steps > max_steps:
            raise ChaseNonterminationError(
                f"chase exceeded {max_steps} steps; the existential rules are "
                "likely not weakly acyclic"
            )
    return current
