"""The join-based violation check and chase step, kept as the oracles that
the single-pattern matching of ``schema.unsatisfied`` is tested against.

Both send each side of an existential rule through the general join of
conjunctions, ``evaluate_bgp``, as a one-pattern conjunction: the
antecedent's matches are evaluated as a set and sorted, and each
instantiated consequent is evaluated in full to learn whether it has a
witness. That is a direct transcription of the definition of a violation.
"""

from __future__ import annotations

from typing import Iterable

from schemaforge import ExistentialRule, FreshNames, Graph, Mapping, Term, Triple, TriplestoreSchema
from schemaforge.eval import evaluate_bgp
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
