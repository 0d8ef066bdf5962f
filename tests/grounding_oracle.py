"""The eager violation search, kept as the oracle that the on-demand
grounding of ``existential.retained_existentials`` is tested against.

Each triggering rule's whole grounding list is built the first time an
existential rule needs it, and ``_triggers`` unifies every existential
antecedent with every consequent triple of every rule. The verdicts and
``via_rule`` must equal the lazy search's; the witnesses are equal up to a
renaming of the ``urn:fresh:`` IRIs, because the lazy search draws no names
for groundings it never reads.
"""

from __future__ import annotations

from typing import Sequence

from schemaforge.consequence import SCORE, build_sandbox, lambda_for, surviving_mappings
from schemaforge.eval import BudgetClock
from schemaforge.existential import (
    ExistentialReport,
    ViolationReport,
    _Grounding,
    _mgu,
    _rename_apart,
    rewrite_antecedents,
)
from schemaforge.rules import InferenceRule, chase_existentials, closure
from schemaforge.schema import ExistentialRule, TriplestoreSchema, is_instance, violations
from schemaforge.terms import FreshNames, Graph, Mapping, Term, Triple, pattern_vars


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


def oracle_retained_existentials(
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


def _fresh_iris(graph: Graph) -> list[Term]:
    return sorted(
        {term for t in graph for term in t if term.is_iri and term.lexical.startswith(FreshNames.FRESH_IRI_NS)},
        key=Term.sort_key,
    )


def equal_up_to_fresh_renaming(a: Graph, b: Graph) -> bool:
    """Is there a bijection of the ``urn:fresh:`` IRIs that maps ``a`` onto
    ``b``? Backtracking, pruned by the triples whose invented IRIs are all
    assigned; witnesses are small."""
    if len(a) != len(b):
        return False
    names_a, names_b = _fresh_iris(a), _fresh_iris(b)
    if len(names_a) != len(names_b):
        return False
    target = set(b)
    # Each triple of ``a`` is checked once its last invented IRI is assigned.
    rank = {name: i for i, name in enumerate(names_a)}
    due: list[list[Triple]] = [[] for _ in names_a]
    for t in a:
        ranks = [rank[term] for term in t if term in rank]
        if not ranks and t not in target:
            return False
        if ranks:
            due[max(ranks)].append(t)

    def extend(h: dict[Term, Term]) -> bool:
        i = len(h)
        if i == len(names_a):
            return True
        used = set(h.values())
        for image in names_b:
            if image in used:
                continue
            h[names_a[i]] = image
            if all(Triple(*(h.get(term, term) for term in t)) in target for t in due[i]) and extend(h):
                return True
            del h[names_a[i]]
        return False

    return extend({})
