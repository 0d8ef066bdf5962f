"""Backward rewritings and the retained-existentials computation."""

from __future__ import annotations

import itertools
import time
from dataclasses import replace

import pytest

from schemaforge import (
    ChaseNonterminationError,
    ExistentialRule,
    Graph,
    InferenceRule,
    Triple,
    TriplestoreSchema,
    closure,
    existential_schema_consequence,
    is_instance,
    iri,
    lit,
    retained_existentials,
    rewrite_antecedents,
    schema_equivalent,
    simple_schema_consequence,
    var,
    violations,
)
from schemaforge import BudgetClock, BudgetExceededError, RewriteDepthExceededError, existential
from schemaforge.consequence import lambda_for
from schemaforge.generator import GeneratorConfig, generate
from schemaforge.terms import pattern_vars

from conftest import (
    CARRIED_BY,
    CO_LEVEL,
    HAS_FEATURE,
    HAS_RESULT,
    IS_LOCATED_IN,
    OBSERVED_PROPERTY,
    PERSONNEL_TAG,
    RDF_TYPE,
    TAG_ID,
    cyclic_chase_problem,
    mine_rules,
    mine_schema,
)
from test_violation_fuzz import random_case

A = iri("urn:x:a")
B = iri("urn:x:b")
P = iri("urn:x:p")
Q = iri("urn:x:q")
R = iri("urn:x:r")


def test_rewrite_r3_reaches_sensor_level(rules_r1):
    r1, r2, r3 = rules_r1
    rewritings = rewrite_antecedents(r3, rules_r1)
    sizes = sorted(len(w.antecedent) for w in rewritings)
    # original (2), one triple unfolded (4), both unfolded (6)
    assert sizes == [2, 4, 4, 6]
    full = max(rewritings, key=lambda w: len(w.antecedent))
    preds = sorted({t.p.lexical for t in full.antecedent})
    assert {OBSERVED_PROPERTY.lexical, HAS_RESULT.lexical, HAS_FEATURE.lexical} <= set(preds)
    assert IS_LOCATED_IN.lexical not in preds and RDF_TYPE.lexical not in preds
    # the fully rewritten variant matches both sensor branches
    assert any(t.o == TAG_ID for t in full.antecedent)
    assert any(t.o == CO_LEVEL for t in full.antecedent)
    assert any(t.o == lit("1") for t in full.antecedent)


def test_rewrite_without_matching_consequents(rules_r1):
    r1 = rules_r1[0]
    rewritings = rewrite_antecedents(r1, rules_r1)
    assert len(rewritings) == 1
    assert rewritings[0].antecedent == r1.antecedent
    assert rewrite_antecedents(r1, [])[0].antecedent == r1.antecedent


def test_rewrite_prunes_recursive_rules():
    transitive = InferenceRule.of(
        [Triple(var("x"), P, var("y")), Triple(var("y"), P, var("z"))],
        [Triple(var("x"), P, var("z"))],
        name="trans",
    )
    rewritings = rewrite_antecedents(transitive, [transitive])
    # longer chains all fold homomorphically into the 2-chain
    assert len(rewritings) == 1


def test_retained_existentials_running_example(schema_s1, rules_r1):
    report = retained_existentials(schema_s1, rules_r1)
    (e1,) = schema_s1.sorted_existentials()
    assert report.retained == ()
    assert len(report.violated) == 1
    violation = report.violated[0]
    assert violation.rule == e1
    assert violation.via_rule == "r1"


def test_witness_soundness_running_example(schema_s1, rules_r1):
    report = retained_existentials(schema_s1, rules_r1)
    for violation in report.violated:
        witness = violation.witness
        assert is_instance(witness, schema_s1)
        assert violations([violation.rule], witness) == frozenset()
        closed = closure(witness, rules_r1)
        assert violations([violation.rule], closed)


def test_no_rules_retains_everything(schema_s1):
    report = retained_existentials(schema_s1, [])
    assert report.retained == tuple(schema_s1.sorted_existentials())
    assert report.violated == ()


def test_trigger_prefilter_keeps_unrelated_existentials(rules_r1):
    # existential whose antecedent predicate no rule consequent can produce
    schema = mine_schema()
    extra = ExistentialRule(
        Triple(var("y1"), CARRIED_BY, var("y2")),
        Triple(var("y1"), RDF_TYPE, PERSONNEL_TAG),
    )
    schema = TriplestoreSchema.of(schema.graph, schema.no_literal, set(schema.existentials) | {extra})
    report = retained_existentials(schema, rules_r1)
    assert extra in report.retained


def test_existential_satisfied_by_chased_witness_is_retained():
    # r produces q-triples; e1 over q is satisfied because e2's chase
    # witness provides the required r-successor before closure runs.
    schema = TriplestoreSchema.of(
        [
            Triple(var("s1"), P, var("o1")),
            Triple(var("s2"), Q, var("o2")),
            Triple(var("s3"), R, var("o3")),
        ],
        {"s1", "s2", "s3", "o1", "o2", "o3"},
        [
            ExistentialRule(Triple(var("a1"), Q, var("a2")), Triple(var("a1"), R, var("a3"))),
            ExistentialRule(Triple(var("b1"), P, var("b2")), Triple(var("b1"), R, var("b3"))),
        ],
    )
    rule = InferenceRule.of(
        [Triple(var("x"), P, var("y"))],
        [Triple(var("x"), Q, var("y"))],
        name="pq",
    )
    report = retained_existentials(schema, [rule])
    # e1 (q needs an r-successor on its subject) is triggered by the rule,
    # but every grounding of the rule's antecedent is chased by e2 into
    # having exactly that r-successor, so e1 survives; e2 is untriggered.
    assert report.violated == ()
    assert len(report.retained) == 2


def test_violated_when_chase_cannot_help():
    schema = TriplestoreSchema.of(
        [
            Triple(var("s1"), P, var("o1")),
            Triple(var("s2"), Q, var("o2")),
            Triple(var("s3"), R, var("o3")),
        ],
        {"s1", "s2", "s3", "o1", "o2", "o3"},
        [ExistentialRule(Triple(var("a1"), Q, var("a2")), Triple(var("a2"), R, var("a3")))],
    )
    rule = InferenceRule.of(
        [Triple(var("x"), P, var("y"))],
        [Triple(var("x"), Q, var("y"))],
        name="pq",
    )
    report = retained_existentials(schema, [rule])
    assert len(report.violated) == 1
    assert report.violated[0].via_rule == "pq"


def test_existential_consequence_running_example(schema_s1, rules_r1):
    out, report = existential_schema_consequence(schema_s1, rules_r1)
    assert out.existentials == frozenset()
    assert report == retained_existentials(schema_s1, rules_r1)
    simple = simple_schema_consequence(schema_s1, rules_r1)
    assert out.graph == simple.graph and out.no_literal == simple.no_literal


def test_existential_consequence_trivia(schema_s1):
    out, _ = existential_schema_consequence(schema_s1, [])
    assert schema_equivalent(out, schema_s1)


def test_retained_subset_of_input(schema_s1, rules_r1):
    out, _ = existential_schema_consequence(schema_s1, rules_r1)
    assert out.existentials <= schema_s1.existentials


# --- empirical completeness check on small cases ----------------------------


def _enumerate_violating_instances(schema, rules, universe_triples, max_size):
    """Ground-truth search: does any instance of the schema (over the given
    triple universe) have a closure violating some existential rule?"""
    found = set()
    for size in range(0, max_size + 1):
        for combo in itertools.combinations(universe_triples, size):
            g = Graph(combo)
            if not is_instance(g, schema):
                continue
            closed = closure(g, rules)
            for v in violations(schema.existentials, closed):
                found.add(v.rule)
    return found


def test_reported_violations_match_enumeration_on_small_case():
    schema = TriplestoreSchema.of(
        [Triple(var("s1"), P, var("o1")), Triple(var("s2"), Q, var("o2"))],
        {"s1", "s2", "o1", "o2"},
        [ExistentialRule(Triple(var("a1"), Q, var("a2")), Triple(var("a2"), Q, var("a3")))],
    )
    rule = InferenceRule.of(
        [Triple(var("x"), P, var("y"))], [Triple(var("x"), Q, var("y"))], name="pq"
    )
    universe = [Triple(s, p, o) for s in (A, B) for p in (P, Q) for o in (A, B)]
    truth = _enumerate_violating_instances(schema, [rule], universe, 2)
    report = retained_existentials(schema, [rule])
    assert {v.rule for v in report.violated} == truth


def test_union_query_over_ground_graph_equals_plain_evaluation(rules_r1, instance_i1):
    """The chase and final checks evaluate rewritten queries over ground,
    placeholder-free graphs, where only the identity variant can match."""
    from schemaforge import evaluate_bgp, evaluate_union_query
    from schemaforge.consequence import lambda_for
    from conftest import mine_schema

    lam = lambda_for(mine_schema(), *rules_r1)
    closed = closure(instance_i1, rules_r1)
    for rule in rules_r1:
        for antecedent in ([t] for t in rule.sorted_antecedent()):
            assert evaluate_union_query(antecedent, lam, closed) == evaluate_bgp(antecedent, closed)
        assert evaluate_union_query(rule.antecedent, lam, closed) == evaluate_bgp(rule.antecedent, closed)


def test_reported_violations_match_enumeration_running_example(schema_s1, rules_r1):
    report = retained_existentials(schema_s1, rules_r1)
    got = {v.rule for v in report.violated}
    # ground-truth: the closure of I1 (a real instance) violates e1
    assert got == set(schema_s1.existentials)


def test_rules_sharing_a_name_are_searched_separately():
    # A rule's name is a label, not its identity: a second rule named like
    # the first must still have its own groundings searched. Only r1 can
    # violate the carrier existential, so naming it like the carrier rule
    # must not turn the answer into "retained".
    carrier = InferenceRule.of(
        [Triple(var("t"), CARRIED_BY, var("c"))], [Triple(var("t"), RDF_TYPE, PERSONNEL_TAG)], "x"
    )
    r1 = mine_rules()[0]
    for second in ("y", "x"):
        report = retained_existentials(mine_schema(), [carrier, replace(r1, name=second)])
        assert report.retained == (), second
        assert [v.via_rule for v in report.violated] == [second]


def test_each_rule_is_renamed_once_per_dequeued_rewriting(monkeypatch):
    # No rewriting of this chain is dominated after it is queued, so every
    # kept rewriting is dequeued exactly once. Only a rule with a consequent
    # predicate in the rewriting is renamed: lift (consequent Q) for the
    # three rewritings that hold Q, none for {P, P}, and never chain
    # (consequent R). Renaming every rule would make 8 calls, one per
    # antecedent triple 16.
    chain = InferenceRule.of(
        [Triple(var("x"), Q, var("y")), Triple(var("y"), Q, var("z"))],
        [Triple(var("x"), R, var("z"))],
        name="chain",
    )
    lift = InferenceRule.of([Triple(var("x"), P, var("y"))], [Triple(var("x"), Q, var("y"))], "lift")
    renamed = []
    real = existential._rename_apart

    def counting(rule, fresh):
        renamed.append(rule.name)
        return real(rule, fresh)

    monkeypatch.setattr(existential, "_rename_apart", counting)
    rewritings = rewrite_antecedents(chain, [chain, lift])
    assert sorted(sorted(t.p.lexical for t in w.antecedent) for w in rewritings) == [
        [P.lexical, P.lexical],
        [P.lexical, Q.lexical],
        [P.lexical, Q.lexical],
        [Q.lexical, Q.lexical],
    ]
    assert renamed == ["lift"] * 3


def test_long_rewritings_finish_within_budget():
    # Generator seed 3 of the fig2b shape at (100 patterns, 20 rules, 50
    # existential rules) unfolds antecedents into rewritings of up to 19
    # triples; a union query that reaches each mapping once per choice of
    # placeholder variants does not finish it in minutes.
    schema, rules = generate(GeneratorConfig(0.1, 110, 100, 100, 100, 20, 50, 3, 3))
    report = retained_existentials(schema, rules, clock=BudgetClock(30))
    assert len(report.retained) + len(report.violated) == len(schema.existentials)
    for v in report.violated:
        assert is_instance(v.witness, schema)
        assert violations([v.rule], closure(v.witness, rules))


def test_budget_bounds_the_chase():
    # Without a clock the chase runs to its step bound (207,360 steps) for
    # 7 to 9 s and then reports nontermination instead of the spent budget.
    schema, rules = cyclic_chase_problem()
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as raised:
        retained_existentials(schema, rules, clock=BudgetClock(1.0))
    assert time.perf_counter() - start < 3.0
    assert not isinstance(raised.value, ChaseNonterminationError)


def test_each_rule_is_grounded_once(monkeypatch):
    # Groundings are released after the last existential rule they can
    # trigger, never before: a rule grounded twice would draw other fresh
    # IRIs and change the witnesses.
    grounded = []
    real = existential._groundings_for_rule

    def counting(rule, *args):
        grounded.append(rule.name)
        return real(rule, *args)

    monkeypatch.setattr(existential, "_groundings_for_rule", counting)
    for seed in range(3):
        grounded.clear()
        schema, rules = generate(GeneratorConfig(0.1, 22, 20, 20, 20, 4, 10, 3, seed))
        retained_existentials(schema, rules)
        assert grounded and len(grounded) == len(set(grounded))


def test_rewriting_stops_at_the_depth_bound():
    # Subsumption pruning does not end the rewriting of fuzz case 69's
    # rules; the depth bound does, with an error naming the rule.
    assert existential.MAX_REWRITE_DEPTH == 16
    schema, rules = random_case(69)
    with pytest.raises(RewriteDepthExceededError, match="rule r0 exceeded depth 16$"):
        retained_existentials(schema, rules)


def test_report_does_not_depend_on_a_placeholder_named_constant():
    # The existential rules name the placeholder the search would pick
    # first; the search must pick another and report as it does when the
    # constant has any other name.
    s, t, p = iri("urn:x:s"), iri("urn:x:t"), iri("urn:x:p")
    x, y = var("x"), var("y")
    rule = InferenceRule.of([Triple(x, s, y)], [Triple(x, p, y)], "lift")

    def problem(c):
        patterns = [Triple(var(f"a{i}"), q, var(f"b{i}")) for i, q in enumerate((s, p, t))]
        existentials = [
            ExistentialRule(Triple(x, s, y), Triple(x, t, c)),  # holds in every witness
            ExistentialRule(Triple(x, p, y), Triple(y, t, c)),  # violable via lift
            ExistentialRule(Triple(x, p, y), Triple(x, t, c)),  # retained
        ]
        return TriplestoreSchema.of(patterns, pattern_vars(patterns), existentials)

    def renamed(report, old, new):
        def term(u):
            return new if u == old else u

        def rule_of(e):
            return ExistentialRule(Triple(*map(term, e.antecedent)), Triple(*map(term, e.consequent)))

        violated = {
            (rule_of(v.rule), frozenset(Triple(*map(term, u)) for u in v.witness.triples), v.via_rule)
            for v in report.violated
        }
        return {rule_of(e) for e in report.retained}, violated

    placeholder, other = iri("urn:lambda:0"), iri("urn:x:c")
    clashing = problem(placeholder)
    assert lambda_for(clashing, rule) != placeholder
    report = retained_existentials(clashing, [rule])
    expected = retained_existentials(problem(other), [rule])
    assert len(report.retained) == len(report.violated) + 1 == 2
    assert renamed(report, placeholder, other) == renamed(expected, other, other)
