"""Single-pattern matching of existential rules against the join-based oracles.

``schema.unsatisfied`` matches each side of an existential rule with one
graph lookup instead of the join of conjunctions; ``schema.violations`` and
the chase step both read it. These tests compare both against the
join-based versions kept in ``chase_oracle.py``: the violation sets, the
order in which the chase meets them, and every chase step, by its result,
the nulls it leaves and the next fresh IRI it would draw. They also guard
the work saved: a chase step makes no join, and closure plans each rule
once, however often it is called.
"""

from __future__ import annotations

import copy
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemaforge import (
    ChaseNonterminationError,
    ExistentialRule,
    FreshNames,
    Graph,
    InferenceRule,
    Triple,
    TriplestoreSchema,
    chase_existentials,
    closure,
    iri,
    lit,
    retained_existentials,
    var,
    violations,
)
from schemaforge import eval as eval_module
from schemaforge import existential as existential_module
from schemaforge import rules as rules_module
from schemaforge import schema as schema_module
from schemaforge.generator import GeneratorConfig, generate
from schemaforge.schema import unsatisfied

from chase_oracle import oracle_chase_step, oracle_violations

chase_step = rules_module._chase_step  # unpatched, whatever a test patches

A, B, C = iri("urn:m:a"), iri("urn:m:b"), iri("urn:m:c")
P, Q = iri("urn:m:p"), iri("urn:m:q")
ONE = lit("1")
N0, N1 = iri("urn:m:n0"), iri("urn:m:n1")  # invented IRIs a repair may replace
X, Y, Z, W = (var(n) for n in "xyzw")

EXAMPLES = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def e(antecedent: Triple, consequent: Triple) -> ExistentialRule:
    return ExistentialRule(antecedent, consequent)


def oracle_order(rules: list[ExistentialRule], graph: Graph) -> list:
    """The oracle's violations in the chase's order: rule, then mapping."""
    found = sorted(oracle_violations(rules, graph), key=lambda v: (rules.index(v.rule), v.mapping.sort_key()))
    return [(v.rule, v.mapping) for v in found]


def fresh_for(graph: Graph, rules: list[ExistentialRule], schema: TriplestoreSchema | None):
    fresh = FreshNames()
    fresh.observe(graph)
    for rule in rules:
        fresh.observe([rule.antecedent, rule.consequent])
    if schema is not None:
        fresh.observe(schema.graph)
    return fresh


def chase_with(step, graph, rules, schema, nulls, max_steps=40):
    """The chase run with the given step: its graph (None if it did not end
    within the bound), the nulls it leaves and the next fresh IRI."""
    fresh = fresh_for(graph, rules, schema)
    left = set(nulls)
    with mock.patch.object(rules_module, "_chase_step", step):
        try:
            out = chase_existentials(graph, rules, fresh, max_steps, schema=schema, nulls=left)
        except ChaseNonterminationError:
            out = None
    return out, left, fresh.fresh_iri()


def assert_chase_matches_oracle(graph, rules, schema=None, nulls=()):
    assert chase_with(chase_step, graph, rules, schema, nulls) == chase_with(
        oracle_chase_step, graph, rules, schema, nulls
    )


def assert_step_matches_oracle(graph, rules, fresh, schema, nulls):
    """One chase step of each on copies of the state; returns the step's result."""
    fresh_o, nulls_o = copy.deepcopy(fresh), set(nulls)
    fresh_n, nulls_n = copy.deepcopy(fresh), set(nulls)
    expected = oracle_chase_step(graph, rules, fresh_o, schema, nulls_o)
    got = chase_step(graph, rules, fresh_n, schema, nulls_n)
    assert got == expected
    assert nulls_n == nulls_o
    assert fresh_n.fresh_iri() == fresh_o.fresh_iri()
    return got


# --- the named cases --------------------------------------------------------

# Each case lists its rules, a graph, and the violations the graph has.
CASES = {
    "repeated antecedent variable": (
        [e(Triple(X, P, X), Triple(X, Q, Y))],
        [Triple(A, P, A), Triple(A, P, B), Triple(B, P, B), Triple(B, Q, C)],
        [{"x": A}],
    ),
    "residual variable repeated in the consequent": (
        [e(Triple(X, P, Y), Triple(Z, Q, Z))],
        [Triple(A, P, B), Triple(A, Q, B)],
        [{"x": A, "y": B}],
    ),
    "variable predicate": (
        [e(Triple(X, Y, B), Triple(B, Y, X))],
        [Triple(A, P, B), Triple(B, P, A), Triple(C, Q, B)],
        [{"x": C, "y": Q}],
    ),
    "ground consequent": (
        [e(Triple(X, P, B), Triple(A, Q, B))],
        [Triple(A, P, B), Triple(C, P, B)],
        [{"x": A}, {"x": C}],
    ),
    "literal objects": (
        [e(Triple(X, P, ONE), Triple(X, Q, Y)), e(Triple(X, Q, Y), Triple(Y, P, Z))],
        [Triple(A, P, ONE), Triple(B, P, A), Triple(B, Q, ONE), Triple(B, Q, C)],
        [{"x": A}, {"x": B, "y": ONE}, {"x": B, "y": C}],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_named_case_matches_the_oracle(name):
    rules, triples, expected = CASES[name]
    graph = Graph(triples)
    got = violations(rules, graph)
    assert got == oracle_violations(rules, graph)
    assert {frozenset(v.mapping) for v in got} == {frozenset(m.items()) for m in expected}
    assert list(unsatisfied(rules, graph)) == oracle_order(rules, graph)
    assert_chase_matches_oracle(graph, rules)
    schema = TriplestoreSchema.of([Triple(var("v1"), var("v2"), var("v3"))], ["v1", "v2"])
    assert_chase_matches_oracle(graph, rules, schema)


def test_repairs_and_unwitnessable_matches_match_the_oracle():
    # <n0 q fresh> covers no pattern until n0 becomes :a; the match that
    # binds ?y to a literal draws a fresh IRI but can never be witnessed.
    schema = TriplestoreSchema.of(
        [Triple(var("v1"), P, var("v2")), Triple(A, Q, var("v3"))], ["v1"]
    )
    rules = [e(Triple(X, P, Y), Triple(X, Q, Z)), e(Triple(X, P, Y), Triple(Y, Q, Z))]
    graph = Graph([Triple(N0, P, N1), Triple(N1, P, ONE)])
    out = chase_with(chase_step, graph, rules, schema, {N0, N1})[0]
    assert N0 not in out.constants() and N1 not in out.constants()
    assert_chase_matches_oracle(graph, rules, schema, {N0, N1})


# --- hypothesis inputs ------------------------------------------------------

subjects = st.sampled_from([X, Y, Z, A, B])
predicates = st.sampled_from([X, Y, W, P, Q])
objects = st.sampled_from([X, Y, Z, W, A, B, ONE])
existential_rules = st.builds(e, st.builds(Triple, subjects, predicates, objects),
                              st.builds(Triple, subjects, predicates, objects))
ground_triples = st.builds(
    Triple, st.sampled_from([A, B, N0, N1]), st.sampled_from([P, Q]), st.sampled_from([A, B, N0, ONE])
)


# A schema pattern: its constants, None at each variable, and whether its
# object variable admits literals. Constants are frequent so that witnesses
# often cover no pattern and the chase has to repair them.
pattern_shapes = st.tuples(
    st.sampled_from([None, A, B]), st.sampled_from([P, Q]), st.sampled_from([None, A, B, ONE]), st.booleans()
)


@st.composite
def schemas(draw) -> TriplestoreSchema:
    """Schema graphs of distinct-variable patterns over the same vocabulary."""
    patterns, no_literal = [], set()
    for k, (s, p, o, keep_literals) in enumerate(draw(st.lists(pattern_shapes, min_size=1, max_size=4))):
        terms = []
        for pos, term in enumerate((s, p, o)):
            if term is None:
                term = var(f"v{k}{pos}")
                if pos < 2 or not keep_literals:
                    no_literal.add(term.lexical)
            terms.append(term)
        patterns.append(Triple(*terms))
    return TriplestoreSchema.of(patterns, no_literal)


@EXAMPLES
@given(st.lists(existential_rules, unique=True, max_size=3), st.sets(ground_triples, max_size=6))
def test_unsatisfied_pairs_match_the_oracle_in_order(rules, triples):
    graph = Graph(triples)
    assert list(unsatisfied(rules, graph)) == oracle_order(rules, graph)
    assert violations(rules, graph) == oracle_violations(rules, graph)


@EXAMPLES
@given(
    st.lists(existential_rules, unique=True, min_size=1, max_size=3),
    st.sets(ground_triples, max_size=5),
    st.none() | schemas(),
)
def test_chase_matches_the_oracle(rules, triples, schema):
    graph = Graph(triples)
    fresh = fresh_for(graph, rules, schema)
    assert_step_matches_oracle(graph, rules, fresh, schema, {N0, N1})
    assert_chase_matches_oracle(graph, rules, schema, {N0, N1})


@st.composite
def inference_rules(draw) -> InferenceRule:
    """Rules of one to three antecedent triples and a consequent over their variables."""
    antecedent = draw(st.lists(st.builds(Triple, subjects, st.sampled_from([P, Q]), objects),
                               min_size=1, max_size=3))
    bound = sorted({term for t in antecedent for term in t if term.is_variable}, key=lambda t: t.lexical)
    s, o = draw(st.sampled_from(bound + [A])), draw(st.sampled_from(bound + [B]))
    if s == o:
        o = B
    return InferenceRule.of(antecedent, [Triple(s, draw(st.sampled_from([P, Q])), o)])


@EXAMPLES
@given(st.lists(inference_rules(), min_size=1, max_size=3), st.sets(ground_triples, max_size=6))
def test_planned_closure_matches_naive_closure(rules, triples):
    graph = Graph(triples)
    assert closure(graph, rules) == closure(graph, rules, naive=True)


# --- the violation search on generated problems -----------------------------


def test_generated_searches_match_the_oracles_at_every_step():
    compared = []
    real_violations = schema_module.violations

    def checked_step(graph, rules, fresh, schema, nulls):
        compared.append(assert_step_matches_oracle(graph, rules, fresh, schema, nulls))
        return chase_step(graph, rules, fresh, schema, nulls)

    def checked_violations(rules, graph):
        rules = list(rules)
        got = real_violations(rules, graph)
        assert got == oracle_violations(rules, graph)
        return got

    def search(schema, rules, step, check):
        with mock.patch.object(rules_module, "_chase_step", step), \
                mock.patch.object(schema_module, "violations", check), \
                mock.patch.object(existential_module, "violations", check):
            return retained_existentials(schema, rules)

    for g in range(40):
        schema, rules = generate(GeneratorConfig(0.1, 22, 20, 20, 20, 4, 10, 3, g))
        report = search(schema, rules, checked_step, checked_violations)
        assert report == search(schema, rules, oracle_chase_step, oracle_violations), g
    assert len(compared) > 100


# --- the work saved ---------------------------------------------------------


def counting(calls: list, function):
    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)
    return counted


def test_chase_step_makes_no_join_call(monkeypatch):
    calls: list = []
    wrapper = counting(calls, eval_module._join)
    for module in (eval_module, rules_module, schema_module):
        monkeypatch.setattr(module, "_join", wrapper, raising=False)
    rules, triples, _ = CASES["literal objects"]
    graph = Graph(triples)
    schema = TriplestoreSchema.of([Triple(var("v1"), var("v2"), var("v3"))], ["v1", "v2"])
    for s in (None, schema):
        assert chase_step(graph, rules, fresh_for(graph, rules, s), s, set()) is not None
    assert calls == []


def test_closure_plans_each_rule_once_per_call(monkeypatch):
    calls: list = []
    wrapper = counting(calls, eval_module._most_bound_first)
    monkeypatch.setattr(eval_module, "_most_bound_first", wrapper)
    monkeypatch.setattr(rules_module, "_most_bound_first", wrapper, raising=False)
    rules = [
        InferenceRule.of([Triple(X, P, Y), Triple(Y, P, Z)], [Triple(X, P, Z)], "transitive"),
        InferenceRule.of([Triple(X, P, Y)], [Triple(Y, Q, X)], "inverse"),
        InferenceRule.of([Triple(X, Q, Y), Triple(Y, Q, Z)], [Triple(X, Q, Z)], "transitive-q"),
    ]
    chain = [iri(f"urn:m:n{i}") for i in range(6)]
    graph = Graph([Triple(chain[i], P, chain[i + 1]) for i in range(5)])
    closed = closure(graph, rules)
    assert len(calls) == len(rules)
    assert Triple(chain[5], Q, chain[0]) in closed
    assert closed == closure(graph, rules, naive=True)


def test_closure_keeps_each_rule_plan_across_calls(monkeypatch):
    calls: list = []
    wrapper = counting(calls, eval_module._most_bound_first)
    monkeypatch.setattr(eval_module, "_most_bound_first", wrapper)
    monkeypatch.setattr(rules_module, "_most_bound_first", wrapper, raising=False)
    rules = [
        InferenceRule.of([Triple(X, P, Y), Triple(Y, P, Z)], [Triple(X, P, Z)], "transitive"),
        InferenceRule.of([Triple(X, P, Y)], [Triple(Y, Q, X)], "inverse"),
    ]
    first = closure(Graph([Triple(A, P, B), Triple(B, P, C)]), rules)
    second = closure(Graph([Triple(C, P, A)]), rules)
    assert len(calls) == len(rules)
    assert Triple(A, P, C) in first and Triple(A, Q, C) in second
