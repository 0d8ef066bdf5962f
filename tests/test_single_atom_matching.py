"""Single-pattern matching of existential rules against the join-based oracles.

``schema.unsatisfied`` matches each side of an existential rule with one
graph lookup instead of the join of conjunctions; ``schema.violations`` and
the chase both read it. These tests compare both against the join-based
versions kept in ``chase_oracle.py``: the violation sets, the order in
which the chase meets them, and every chase, by its result (or the error
it raises), the nulls it leaves and the next fresh IRI it would draw. The
oracle chase rescans every rule after every change, so it also checks the
pending pairs the chase keeps between steps. They also guard the work
saved: the chase makes no join, and closure plans each rule once, however
often it is called.
"""

from __future__ import annotations

import copy
from collections import Counter
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

from chase_oracle import oracle_chase, oracle_violations

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


def chase_with(chase, graph, rules, schema, nulls, fresh=None, max_steps=40):
    """The chase's graph (its error message if it did not end within the
    bound), the nulls it leaves and the next fresh IRI it would draw. The
    registry and nulls given are copied, not touched."""
    fresh = fresh_for(graph, rules, schema) if fresh is None else copy.deepcopy(fresh)
    left = set(nulls)
    try:
        out = chase(graph, rules, fresh, max_steps, schema=schema, nulls=left)
    except ChaseNonterminationError as error:
        out = str(error)
    return out, left, fresh.fresh_iri()


def assert_chase_matches_oracle(graph, rules, schema=None, nulls=(), fresh=None, max_steps=40):
    """Both chases on copies of the state; returns the chase's outcome."""
    got = chase_with(chase_existentials, graph, rules, schema, nulls, fresh, max_steps)
    assert got == chase_with(oracle_chase, graph, rules, schema, nulls, fresh, max_steps)
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
    out = chase_with(chase_existentials, graph, rules, schema, {N0, N1})[0]
    assert N0 not in out.constants() and N1 not in out.constants()
    assert_chase_matches_oracle(graph, rules, schema, {N0, N1})


# --- hypothesis inputs ------------------------------------------------------

subjects = st.sampled_from([X, Y, Z, A, B])
predicates = st.sampled_from([X, Y, W, P, Q])
objects = st.sampled_from([X, Y, Z, W, A, B, ONE])
existential_rules = st.builds(e, st.builds(Triple, subjects, predicates, objects),
                              st.builds(Triple, subjects, predicates, objects))
# Shapes mixed into the chase's rules, which drawn rules rarely take: the
# antecedent's object carried into the witness's subject (a literal there
# leaves the pair standing, a null there may need a repair), a repeated
# antecedent variable and a variable antecedent predicate.
chase_rules = st.lists(
    existential_rules | st.sampled_from([
        e(Triple(X, P, Y), Triple(Y, Q, Z)),
        e(Triple(X, Q, Y), Triple(Y, P, Z)),
        e(Triple(X, P, X), Triple(X, Q, Y)),
        e(Triple(X, Y, Z), Triple(Z, Y, W)),
    ]),
    unique=True, min_size=1, max_size=3,
)
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


def chase_cases(rules, schema, out, repairs: int) -> set[str]:
    """The cases an input exercised, of those the pending pairs must get right."""
    cases = {"repair"} if repairs else set()
    if any(rule.antecedent.p.is_variable for rule in rules):
        cases.add("variable antecedent predicate")
    if any(len({t for t in rule.antecedent if t.is_variable}) < sum(t.is_variable for t in rule.antecedent)
           for rule in rules):
        cases.add("repeated antecedent variable")
    consequents = [m.apply_triple(rule.consequent) for rule, m in unsatisfied(rules, out)] if isinstance(out, Graph) else []
    if any(t.s.is_literal or t.p.is_literal for t in consequents):
        cases.add("literal-blocked")  # no valid witness exists; passed over at every step
    if isinstance(out, str):
        cases.add("step bound")
    return cases


def test_chase_matches_the_oracle():
    seen: Counter = Counter()
    real_repair = rules_module._repair

    @EXAMPLES
    @given(chase_rules, st.sets(ground_triples, max_size=5), st.none() | schemas())
    def check(rules, triples, schema):
        repairs = []

        def counted(*args):
            repaired = real_repair(*args)
            repairs.append(repaired is not None)
            return repaired

        with mock.patch.object(rules_module, "_repair", counted):
            out = assert_chase_matches_oracle(Graph(triples), rules, schema, {N0, N1})[0]
        seen.update(chase_cases(rules, schema, out, sum(repairs)))

    check()
    # Each case occurs in at least 10 of the 300 inputs (the fewest, 13,
    # are repairs).
    assert len(seen) == 5 and min(seen.values()) >= 10, seen


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


def test_generated_searches_match_the_oracles_at_every_chase():
    compared = []
    real_violations = schema_module.violations

    def checked_chase(graph, rules, fresh, max_steps=None, schema=None, nulls=None, clock=None):
        rules = list(rules)
        out = assert_chase_matches_oracle(graph, rules, schema, nulls, fresh, max_steps)[0]
        compared.append(out != graph)  # whether the chase changed anything
        return chase_existentials(graph, rules, fresh, max_steps, schema, nulls, clock)

    def checked_violations(rules, graph):
        rules = list(rules)
        got = real_violations(rules, graph)
        assert got == oracle_violations(rules, graph)
        return got

    def search(schema, rules, chase, check):
        with mock.patch.object(existential_module, "chase_existentials", chase), \
                mock.patch.object(schema_module, "violations", check), \
                mock.patch.object(existential_module, "violations", check):
            return retained_existentials(schema, rules)

    for g in range(40):
        schema, rules = generate(GeneratorConfig(0.1, 22, 20, 20, 20, 4, 10, 3, g))
        report = search(schema, rules, checked_chase, checked_violations)
        assert report == search(schema, rules, oracle_chase, oracle_violations), g
    # 470 chases, 82 of which change their graph.
    assert len(compared) > 400 and sum(compared) > 60


# --- the work saved ---------------------------------------------------------


def counting(calls: list, function):
    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)
    return counted


def test_chase_makes_no_join_call(monkeypatch):
    calls: list = []
    wrapper = counting(calls, eval_module._join)
    for module in (eval_module, rules_module, schema_module):
        monkeypatch.setattr(module, "_join", wrapper, raising=False)
    rules, triples, _ = CASES["literal objects"]
    graph = Graph(triples)
    schema = TriplestoreSchema.of([Triple(var("v1"), var("v2"), var("v3"))], ["v1", "v2"])
    for s in (None, schema):
        assert chase_existentials(graph, rules, fresh_for(graph, rules, s), schema=s) != graph
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
