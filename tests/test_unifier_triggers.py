"""The violation search's trigger check against the union-query oracle.

An inference rule triggers an existential rule when one of its consequent
triples unifies with the existential antecedent, the rules renamed apart.
``union_oracle.oracle_triggers`` keeps the earlier check, the antecedent's
union query over the sandbox of each rule's consequent; the two must agree.
A counting guard checks that the search runs no union query beyond those
of its matching step. The consequent triples are bucketed by predicate:
the trigger lists equal those of unifying every pair
(``grounding_oracle._triggers``), with one ``_mgu`` call per pair on the
antecedent's predicate, or per pair when that predicate is a variable.
"""

from __future__ import annotations

import sys
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from schemaforge import (
    ExistentialRule,
    InferenceRule,
    Triple,
    TriplestoreSchema,
    iri,
    lit,
    retained_existentials,
    var,
)
from schemaforge import consequence, existential
from schemaforge.consequence import lambda_for
from schemaforge.generator import GeneratorConfig, generate

from grounding_oracle import _triggers as unbucketed_triggers
from union_oracle import oracle_triggers

A, B = iri("urn:u:a"), iri("urn:u:b")
P, Q, R = iri("urn:u:p"), iri("urn:u:q"), iri("urn:u:r")
ONE = lit("1")
# One pool of names for both kinds of rule, so names are shared across them.
NAMES = [var(n) for n in "xyz"]

EXAMPLES = settings(derandomize=True, database=None, max_examples=400, deadline=None)


def triggers_by_oracle(es: list[ExistentialRule], rules: list[InferenceRule]) -> list[list[int]]:
    return oracle_triggers(es, rules, lambda_for(TriplestoreSchema.of([], [], es), *rules))


# Existential antecedents may hold a variable predicate and repeat a variable.
antecedents = st.builds(
    Triple,
    st.sampled_from(NAMES + [A, B]),
    st.sampled_from(NAMES + [P, Q]),
    st.sampled_from(NAMES + [A, B, ONE]),
)
existentials = st.builds(lambda a: ExistentialRule(a, Triple(a.s, R, var("w"))), antecedents)
# Consequent triples have a constant predicate and never repeat a variable.
consequent_triples = st.builds(
    Triple,
    st.sampled_from(NAMES + [A, B]),
    st.sampled_from([P, Q]),
    st.sampled_from(NAMES + [A, B, ONE]),
).filter(lambda t: not (t.s.is_variable and t.s == t.o))


def rule_of(consequent: list[Triple], k: int) -> InferenceRule:
    bound = sorted({term.lexical for t in consequent for term in t if term.is_variable})
    antecedent = [Triple(var(n), R, var(n)) for n in bound] or [Triple(A, R, B)]
    return InferenceRule.of(antecedent, consequent, f"r{k}")


inference_rules = st.lists(
    st.lists(consequent_triples, min_size=1, max_size=2), min_size=1, max_size=3
).map(lambda consequents: [rule_of(c, k) for k, c in enumerate(consequents)])


@EXAMPLES
@given(st.lists(existentials, min_size=1, max_size=3), inference_rules)
def test_unifier_triggers_match_the_union_query(es, rules):
    assert existential._triggers(es, rules) == triggers_by_oracle(es, rules)


@EXAMPLES
@given(st.lists(existentials, min_size=1, max_size=3), inference_rules)
def test_bucketed_triggers_match_every_pair_and_unify_only_on_the_predicate(es, rules):
    calls = []
    real = existential._mgu

    def counted(t1, t2):
        calls.append(1)
        return real(t1, t2)

    with mock.patch.object(existential, "_mgu", counted):
        got = existential._triggers(es, rules)
    assert got == unbucketed_triggers(es, rules)
    consequent = [t for rule in rules for t in rule.consequent]
    pairs = sum(
        sum(1 for t in consequent if e.antecedent.p.is_variable or t.p == e.antecedent.p)
        for e in es
    )
    assert len(calls) <= pairs


def test_trigger_renames_the_rules_apart():
    # ?x names a different variable in each rule: unified as one, :a and :b
    # would have to meet.
    e = ExistentialRule(Triple(A, P, var("x")), Triple(A, R, var("w")))
    rule = rule_of([Triple(var("x"), P, B)], 0)
    assert existential._mgu(e.antecedent, Triple(var("x"), P, B)) is None
    assert existential._triggers([e], [rule]) == triggers_by_oracle([e], [rule]) == [[0]]


def test_search_runs_union_queries_only_to_match(monkeypatch):
    # Every union query of the search is one of its matching step's; a
    # trigger check by union query would add |existentials| x |rules|.
    counts = {"evaluate_union_query": 0, "surviving_mappings": 0}
    for name in counts:
        real = getattr(consequence, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("schemaforge") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    schema, rules = generate(GeneratorConfig(0.1, 22, 20, 20, 20, 4, 10, 3, 0))
    retained_existentials(schema, rules)
    assert counts["surviving_mappings"] > 0
    assert counts["evaluate_union_query"] == counts["surviving_mappings"]
