"""Rule application, closure and the existential chase."""

from __future__ import annotations

import random

import pytest

from schemaforge import (
    ChaseNonterminationError,
    ExistentialRule,
    FreshNames,
    Graph,
    InferenceRule,
    SchemaError,
    Triple,
    TriplestoreSchema,
    apply_rule,
    chase_existentials,
    closure,
    is_instance,
    iri,
    lit,
    var,
    violations,
)

from conftest import (
    CARRIED_BY,
    IS_LOCATED_IN,
    IS_TRESPASSING_IN,
    OFF_LIMIT_AREA,
    PERSONNEL_TAG,
    RDF_TYPE,
    ROOM1,
    ROOM2,
    WID1,
    WID2,
    mine_instance,
    mine_rules,
)

P = iri("urn:r:p")
Q = iri("urn:r:q")
A = iri("urn:r:a")
B = iri("urn:r:b")
C = iri("urn:r:c")


def test_rule_invariants():
    with pytest.raises(SchemaError):
        InferenceRule.of([Triple(var("x"), P, var("y"))], [Triple(var("x"), var("p"), var("y"))])
    with pytest.raises(SchemaError):
        InferenceRule.of([Triple(var("x"), P, var("y"))], [Triple(var("x"), P, var("x"))])
    with pytest.raises(SchemaError):
        InferenceRule.of([Triple(var("x"), P, var("y"))], [Triple(var("x"), P, var("z"))])


def test_apply_r1_adds_expected_triples(instance_i1):
    r1, r2, r3 = mine_rules()
    out = apply_rule(r1, instance_i1)
    delta = out.triples - instance_i1.triples
    assert delta == {
        Triple(WID2, RDF_TYPE, PERSONNEL_TAG),
        Triple(WID2, IS_LOCATED_IN, ROOM2),
        Triple(WID1, IS_LOCATED_IN, ROOM1),
    }
    assert Triple(WID1, RDF_TYPE, PERSONNEL_TAG) in out  # re-derived, already present


def test_apply_r2_and_inapplicable_r3(instance_i1):
    r1, r2, r3 = mine_rules()
    assert apply_rule(r2, instance_i1).triples - instance_i1.triples == {
        Triple(ROOM2, RDF_TYPE, OFF_LIMIT_AREA)
    }
    assert apply_rule(r3, instance_i1) == instance_i1


def test_invalid_instantiations_are_dropped():
    # consequent subject comes from a literal-valued object position
    rule = InferenceRule.of(
        [Triple(var("x"), P, var("y"))],
        [Triple(var("y"), Q, var("x"))],
    )
    g = Graph([Triple(A, P, lit("1")), Triple(A, P, B)])
    out = apply_rule(rule, g)
    assert out.triples - g.triples == {Triple(B, Q, A)}


def test_closure_of_running_example(instance_i1):
    rules = mine_rules()
    closed = closure(instance_i1, rules)
    expected_new = {
        Triple(WID1, IS_LOCATED_IN, ROOM1),
        Triple(WID2, RDF_TYPE, PERSONNEL_TAG),
        Triple(WID2, IS_LOCATED_IN, ROOM2),
        Triple(ROOM2, RDF_TYPE, OFF_LIMIT_AREA),
        Triple(WID2, IS_TRESPASSING_IN, ROOM2),
    }
    assert closed.triples == instance_i1.triples | expected_new


def test_closure_trivia(instance_i1):
    rules = mine_rules()
    assert closure(instance_i1, []) == instance_i1
    closed = closure(instance_i1, rules)
    assert closure(closed, rules) == closed  # idempotent
    for r in rules:
        assert instance_i1.triples <= apply_rule(r, instance_i1).triples <= closed.triples


def _random_case(seed: int) -> tuple[Graph, list[InferenceRule]]:
    rng = random.Random(seed)
    consts = [A, B, C, iri("urn:r:d")]
    preds = [P, Q, iri("urn:r:s")]
    triples = {
        Triple(rng.choice(consts), rng.choice(preds), rng.choice(consts + [lit("1")]))
        for _ in range(rng.randint(1, 8))
    }
    names = ["x", "y", "z"]
    rules = []
    for i in range(rng.randint(1, 4)):
        ante = []
        for _ in range(rng.randint(1, 2)):
            def term(allow_lit=False):
                if rng.random() < 0.6:
                    return var(rng.choice(names))
                return rng.choice(consts + ([lit("1")] if allow_lit else []))

            ante.append(Triple(term(), rng.choice(preds), term(True)))
        used = sorted({t.lexical for tr in ante for t in tr if t.is_variable})
        head_s = var(rng.choice(used)) if used and rng.random() < 0.8 else rng.choice(consts)
        head_o = var(rng.choice(used)) if used and rng.random() < 0.8 else rng.choice(consts)
        if head_s == head_o and head_s.is_variable:
            head_o = rng.choice(consts)
        # antecedent may contain variables unused in the head; that is fine
        rules.append(InferenceRule.of(ante, [Triple(head_s, rng.choice(preds), head_o)], name=f"g{i}"))
    return Graph(triples), rules


def test_semi_naive_equals_naive_closure_on_random_cases():
    for seed in range(100):
        graph, rules = _random_case(seed)
        assert closure(graph, rules) == closure(graph, rules, naive=True), seed


def test_closure_creates_no_new_constants(instance_i1):
    rules = mine_rules()
    closed = closure(instance_i1, rules)
    allowed = instance_i1.constants() | {
        c for r in rules for t in r.consequent for c in t if c.is_constant
    }
    assert closed.constants() <= allowed


# --- chase ------------------------------------------------------------------


def e(a: Triple, c: Triple) -> ExistentialRule:
    return ExistentialRule(a, c)


def test_chase_adds_witness():
    t1 = iri("urn:r:t1")
    rule = e(Triple(var("x"), RDF_TYPE, PERSONNEL_TAG), Triple(var("x"), CARRIED_BY, var("y")))
    g = Graph([Triple(t1, RDF_TYPE, PERSONNEL_TAG)])
    out = chase_existentials(g, [rule], FreshNames())
    added = out.triples - g.triples
    assert len(added) == 1
    (w,) = added
    assert w.s == t1 and w.p == CARRIED_BY and w.o.is_iri


def test_chase_trivia():
    g = mine_instance()
    assert chase_existentials(g, [], FreshNames()) == g
    rule = e(Triple(var("x"), RDF_TYPE, PERSONNEL_TAG), Triple(var("x"), CARRIED_BY, var("y")))
    fresh = FreshNames()
    once = chase_existentials(g, [rule], fresh)
    assert chase_existentials(once, [rule], fresh) == once
    assert violations([rule], once) == frozenset()


def test_chase_satisfies_all_rules_with_chained_witnesses():
    rules = [
        e(Triple(var("x"), P, var("y")), Triple(var("y"), Q, var("z"))),
        e(Triple(var("u"), Q, var("w")), Triple(var("w"), RDF_TYPE, A)),
    ]
    g = Graph([Triple(B, P, C)])
    out = chase_existentials(g, rules, FreshNames())
    assert violations(rules, out) == frozenset()


def test_chase_fresh_iris_only_at_consequent_variable_positions():
    rule = e(Triple(var("x"), P, var("y")), Triple(var("y"), Q, B))
    g = Graph([Triple(A, P, C)])
    out = chase_existentials(g, rule and [rule], FreshNames())
    assert Triple(C, Q, B) in out  # no fresh terms needed


def test_chase_step_bound_trips_on_cyclic_rules():
    looping = e(Triple(var("x"), P, var("y")), Triple(var("y"), P, var("z")))
    g = Graph([Triple(A, P, B)])
    with pytest.raises(ChaseNonterminationError):
        chase_existentials(g, [looping], FreshNames(), max_steps=50)


def test_chase_counts_changes_not_attempts():
    # One witness is needed. The match binding ?y to a literal is attempted
    # on every pass but can never change the graph, so it costs no step.
    rule = e(Triple(var("x"), P, var("y")), Triple(var("y"), Q, var("z")))
    g = Graph([Triple(A, P, B), Triple(A, P, lit("l"))])
    open_schema = TriplestoreSchema.of([Triple(var("v1"), var("v2"), var("v3"))], ["v1", "v2"])
    for schema in (None, open_schema):
        out = chase_existentials(g, [rule], FreshNames(), max_steps=1, schema=schema)
        assert len(out) == 3
        with pytest.raises(ChaseNonterminationError):
            chase_existentials(g, [rule], FreshNames(), max_steps=0, schema=schema)


def test_chase_with_schema_repairs_nulls_across_the_graph():
    # The witness <n2 q fresh> covers no pattern until the invented n2 is
    # unified with the subject constant of <b q ?v3>, in every triple.
    schema = TriplestoreSchema.of(
        [Triple(var("v1"), P, var("v2")), Triple(B, Q, var("v3"))], ["v1", "v2", "v3"]
    )
    rule = e(Triple(var("x"), P, var("y")), Triple(var("y"), Q, var("z")))
    n1, n2 = iri("urn:null:1"), iri("urn:null:2")
    grounding = Graph([Triple(n1, P, n2)])

    plain = chase_existentials(grounding, [rule], FreshNames())
    assert not is_instance(plain, schema)

    nulls = {n1, n2}
    out = chase_existentials(grounding, [rule], FreshNames(), schema=schema, nulls=nulls)
    (fresh_iri,) = nulls - {n1}
    assert out.triples == {Triple(n1, P, B), Triple(B, Q, fresh_iri)}
    assert n2 not in nulls and n2 not in out.constants()
    assert is_instance(out, TriplestoreSchema.of(schema.graph, schema.no_literal, [rule]))
