"""The violation search touches only the rules that can fire.

``rewrite_antecedents`` renames and unifies only the rules with a
consequent predicate among the rewriting's predicates, and ``closure``
visits in a semi-naive round only the rules with an antecedent predicate
among the delta's. Rules with a variable predicate are the cases an index
by predicate can drop by mistake, so the inputs here hold them. The
rewritings are compared with ``rewrite_oracle``, which renames every rule
for every rewriting; the closure with its naive iteration. Counting guards
check that the work skipped stays skipped.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from schemaforge import FreshNames, Graph, InferenceRule, Triple, closure, iri, lit, var
from schemaforge import existential
from schemaforge import rules as rules_module
from schemaforge.errors import RewriteDepthExceededError
from schemaforge.existential import rewrite_antecedents
from schemaforge.generator import GeneratorConfig, generate

from rewrite_oracle import oracle_rewrite_antecedents

A, B, C = iri("urn:i:a"), iri("urn:i:b"), iri("urn:i:c")
P, Q, R = iri("urn:i:p"), iri("urn:i:q"), iri("urn:i:r")
ABSENT = iri("urn:i:absent")  # in no graph; only rules derive it in consequents
ONE = lit("1")
NAMES = [var(n) for n in "xyz"]

EXAMPLES = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# Antecedents may repeat a variable, hold constants and have a variable
# predicate; consequent predicates are constant, ABSENT one that no
# antecedent uses, so a rule with it unifies only with a variable predicate.
antecedent_triples = st.builds(
    Triple,
    st.sampled_from(NAMES + [A, B]),
    st.sampled_from(NAMES + [P, Q, R]),
    st.sampled_from(NAMES + [A, B, ONE]),
)


@st.composite
def inference_rules(draw) -> InferenceRule:
    antecedent = draw(st.lists(antecedent_triples, min_size=1, max_size=2))
    bound = sorted({term for t in antecedent for term in t if term.is_variable})
    consequent = []
    for _ in range(draw(st.integers(1, 2))):
        s, o = draw(st.sampled_from(bound + [A])), draw(st.sampled_from(bound + [B, ONE]))
        if s == o:
            o = B
        consequent.append(Triple(s, draw(st.sampled_from([P, Q, R, ABSENT])), o))
    return InferenceRule.of(antecedent, consequent)


def rewritings_or_error(search, rule, rules):
    fresh = FreshNames.of(*(r.antecedent | r.consequent for r in (*rules, rule)))
    try:
        found = search(rule, rules, fresh)
    except RewriteDepthExceededError:
        found = "depth exceeded"
    return found, fresh.fresh_var("r")


def assert_rewritings_match_the_oracle(rule, rules):
    assert rewritings_or_error(rewrite_antecedents, rule, rules) == rewritings_or_error(
        oracle_rewrite_antecedents, rule, rules
    )


# --- rewriting --------------------------------------------------------------


@EXAMPLES
@given(st.lists(inference_rules(), min_size=1, max_size=3), st.data())
def test_rewritings_match_the_oracle(rules, data):
    # Equal lists: the same rewritings and depths in the same order, and
    # the same fresh names drawn, so the next one is equal too.
    assert_rewritings_match_the_oracle(data.draw(st.sampled_from(rules)), rules)


def test_rewritings_match_the_oracle_on_generated_problems():
    for g in range(40):
        _, rules = generate(GeneratorConfig(0.1, 22, 20, 20, 20, 4, 10, 3, g))
        for rule in rules:
            assert_rewritings_match_the_oracle(rule, rules)


def test_a_variable_predicate_unifies_with_every_rule():
    # ?p meets both consequent predicates, although the start rewriting
    # holds neither of them as a constant.
    x, y, p = var("x"), var("y"), var("p")
    rule = InferenceRule.of([Triple(x, p, y), Triple(y, p, x)], [Triple(x, R, y)], "symmetric")
    to_q = InferenceRule.of([Triple(x, P, y)], [Triple(x, Q, y)], "to-q")
    to_absent = InferenceRule.of([Triple(x, P, y)], [Triple(y, ABSENT, x)], "to-absent")
    rules = [rule, to_q, to_absent]
    found, _ = rewritings_or_error(rewrite_antecedents, rule, rules)
    assert [{t.p for t in w.antecedent} for w in found] == [{p}, {P, Q}, {P, ABSENT}]
    assert_rewritings_match_the_oracle(rule, rules)


def search_log(monkeypatch) -> list:
    """The renamings and unifications of the search, in call order."""
    log: list = []
    real_rename, real_mgu = existential._rename_apart, existential._mgu

    def renaming(rule, fresh):
        log.append(("rename", rule))
        return real_rename(rule, fresh)

    def unifying(t, t_c):
        log.append(("mgu", (t, t_c)))
        return real_mgu(t, t_c)

    monkeypatch.setattr(existential, "_rename_apart", renaming)
    monkeypatch.setattr(existential, "_mgu", unifying)
    return log


def dequeues(log: list) -> list[tuple[list, list]]:
    """The log split per dequeued rewriting: its renamed rules, then its
    unified pairs. A dequeue that renames a rule unifies with it, so a
    renaming after a unification starts the next dequeue."""
    groups: list[tuple[list, list]] = []
    for kind, item in log:
        if kind == "rename" and (not groups or groups[-1][1]):
            groups.append(([], []))
        groups[-1][0 if kind == "rename" else 1].append(item)
    return groups


def test_only_rules_that_can_fire_are_renamed_and_unified(monkeypatch):
    log = search_log(monkeypatch)
    skipped = 0
    for g in range(10):
        _, rules = generate(GeneratorConfig(0.1, 22, 20, 20, 20, 4, 10, 3, g))
        for rule in rules:
            del log[:]
            rewrite_antecedents(rule, rules)
            for renamed, pairs in dequeues(log):
                # A constant predicate is unified only with its own.
                assert all(t_c.p == t.p for t, t_c in pairs if t.p.is_constant)
                predicates = {t.p for t, _ in pairs}
                if any(p.is_variable for p in predicates):
                    assert len(renamed) == len(rules)
                    continue
                # Renamings per dequeue <= rules whose consequent predicate
                # occurs in the rewriting.
                can_fire = [r for r in rules if r.consequent_predicates & predicates]
                assert len(renamed) <= len(can_fire)
                assert all(r in can_fire for r in renamed)
                skipped += len(rules) - len(renamed)
    assert skipped > 0


# --- closure ----------------------------------------------------------------


ground_triples = st.builds(
    Triple, st.sampled_from([A, B, C]), st.sampled_from([P, Q]), st.sampled_from([A, B, C, ONE])
)


@EXAMPLES
@given(st.lists(inference_rules(), min_size=1, max_size=3), st.sets(ground_triples, max_size=6))
def test_closure_matches_naive_closure_with_variable_predicates(rules, triples):
    # R occurs in no graph and ABSENT in no antecedent, so a rule on R
    # wakes only once another rule derives it.
    graph = Graph(triples)
    assert closure(graph, rules) == closure(graph, rules, naive=True)


def test_a_variable_predicate_rule_is_woken_by_every_delta():
    rule = InferenceRule.of([Triple(var("x"), var("p"), var("y"))], [Triple(var("y"), Q, var("x"))])
    graph = Graph([Triple(A, P, B)])
    closed = closure(graph, [rule])
    assert closed == closure(graph, [rule], naive=True)
    assert closed == Graph([Triple(A, P, B), Triple(B, Q, A), Triple(A, Q, B)])


def test_closure_matches_only_the_rules_woken_by_the_delta(monkeypatch):
    rules = [
        InferenceRule.of([Triple(var("x"), P, var("y"))], [Triple(var("x"), Q, var("y"))], "lift"),
        InferenceRule.of([Triple(var("x"), ABSENT, var("y"))], [Triple(var("x"), R, var("y"))], "never"),
        InferenceRule.of([Triple(var("x"), var("p"), var("y"))], [Triple(var("y"), R, var("x"))], "any"),
    ]
    by_plan = {id(rule._seminaive_plan): rule for rule in rules}
    joined: list[str] = []
    matched: list[str] = []
    real_join, real_seminaive = rules_module._rule_matches, rules_module._rule_matches_seminaive

    def counting_join(plan, graph, clock):
        joined.append(by_plan[id(plan)].name)
        return real_join(plan, graph, clock)

    def counting_seminaive(plan, full, delta, clock):
        rule = by_plan[id(plan)]
        woken = {t.p for t in delta.triples} | {var("p")}
        assert {t.p for t in rule.antecedent} & woken
        matched.append(rule.name)
        return real_seminaive(plan, full, delta, clock)

    monkeypatch.setattr(rules_module, "_rule_matches", counting_join)
    monkeypatch.setattr(rules_module, "_rule_matches_seminaive", counting_seminaive)
    graph = Graph([Triple(A, P, B), Triple(B, P, C)])
    closed = closure(graph, rules)
    # Round 1 (the whole graph, on P) joins lift and any once each; rounds
    # 2 (Q and R) and 3 (R) wake only any. Visiting every rule would make
    # 9 calls.
    assert joined == ["lift", "any"]
    assert matched == ["any", "any"]
    assert closed == closure(graph, rules, naive=True)
