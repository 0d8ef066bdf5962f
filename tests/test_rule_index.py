"""The violation search touches only the rules that can fire.

``rewrite_antecedents`` renames and unifies only the rules with a
consequent predicate among the rewriting's predicates, and ``closure``
visits in a semi-naive round only the rules with an antecedent predicate
among the delta's. Rules with a variable predicate are the cases an index
by predicate can drop by mistake, so the inputs here hold them. The
rewritings are compared with ``rewrite_oracle``, which renames every rule
for every rewriting, up to homomorphic equivalence, since only the renamed
rules draw fresh names; the closure with its naive iteration, and both of
them and the single rule application with ``chase_oracle.oracle_closure``,
which matches and instantiates by the definition. Counting guards check
that the work skipped stays skipped, fresh names included.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from schemaforge import FreshNames, Graph, InferenceRule, Triple, apply_rule, closure, iri, lit, var
from schemaforge import existential
from schemaforge import rules as rules_module
from schemaforge.errors import RewriteDepthExceededError
from schemaforge.eval import evaluate_bgp
from schemaforge.existential import Rewriting, rewrite_antecedents
from schemaforge.generator import GeneratorConfig, generate

from chase_oracle import oracle_closure, oracle_consequences
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
    try:
        return search(rule, rules)
    except RewriteDepthExceededError:
        return "depth exceeded"


def homomorphism_exists(src: frozenset[Triple], dst: frozenset[Triple]) -> bool:
    """Is some mapping of the variables of ``src`` into ``dst``, frozen
    into a graph, an answer of ``src`` as a query?"""
    return bool(evaluate_bgp(src, Graph(dst, validate=False)))


def equivalent(a: Rewriting, b: Rewriting) -> bool:
    return (
        a.depth == b.depth
        and homomorphism_exists(a.antecedent, b.antecedent)
        and homomorphism_exists(b.antecedent, a.antecedent)
    )


def assert_rewritings_match_the_oracle(rule, rules):
    """Equal as multisets up to homomorphic equivalence at equal depths, or
    the same error. The search draws names only for the rules it renames,
    so names, and with them the sort order of triples, differ."""
    got = rewritings_or_error(rewrite_antecedents, rule, rules)
    expected = rewritings_or_error(oracle_rewrite_antecedents, rule, rules)
    if isinstance(got, str) or isinstance(expected, str):
        assert got == expected
        return
    assert len(got) == len(expected)
    unmatched = list(expected)
    for rewriting in got:
        match = next((w for w in unmatched if equivalent(rewriting, w)), None)
        assert match is not None, rewriting
        unmatched.remove(match)


# --- rewriting --------------------------------------------------------------


@EXAMPLES
@given(st.lists(inference_rules(), min_size=1, max_size=3), st.data())
def test_rewritings_match_the_oracle(rules, data):
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
    found = rewritings_or_error(rewrite_antecedents, rule, rules)
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
                can_fire = [r for r in rules if {t.p for t in r.consequent} & predicates]
                assert len(renamed) <= len(can_fire)
                assert all(r in can_fire for r in renamed)
                skipped += len(rules) - len(renamed)
    assert skipped > 0


def test_rewriting_draws_names_only_for_the_rules_it_renames(monkeypatch):
    drawn: list[str] = []
    real_fresh_var = FreshNames.fresh_var

    def counted(self, stem="n"):
        drawn.append(stem)
        return real_fresh_var(self, stem)

    monkeypatch.setattr(FreshNames, "fresh_var", counted)
    log = search_log(monkeypatch)
    ours = theirs = 0
    for g in range(40):
        _, rules = generate(GeneratorConfig(0.1, 22, 20, 20, 20, 4, 10, 3, g))
        for rule in rules:
            del log[:], drawn[:]
            rewritings_or_error(rewrite_antecedents, rule, rules)
            renamed = [item for kind, item in log if kind == "rename"]
            assert len(drawn) == sum(len(r.variable_names) for r in renamed)
            ours += len(drawn)
            del drawn[:]
            rewritings_or_error(oracle_rewrite_antecedents, rule, rules)
            theirs += len(drawn)
    # The oracle renames every rule per rewriting, so it draws more.
    assert ours < theirs


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
    graph = Graph([Triple(A, P, B), Triple(B, P, C)])
    expected = closure(graph, rules, naive=True)
    joined: list[str] = []
    matched: list[str] = []
    grown: list[Graph] = []  # the graph the closure grows: round 1 fires over it first
    real_fire = rules_module._fire

    def counting_fire(rule, goals, clock):
        if not grown:
            grown.append(goals[0][1])
        forced = [(pattern, g) for pattern, g in goals if g is not grown[0]]
        if not forced:
            joined.append(rule.name)
        else:
            [(pattern, delta)] = forced
            woken = {t.p for t in delta.triples} | {var("p")}
            assert {t.p for t in rule.antecedent} & woken
            assert delta.match(*(term if term.is_constant else None for term in pattern))
            matched.append(rule.name)
        return real_fire(rule, goals, clock)

    monkeypatch.setattr(rules_module, "_fire", counting_fire)
    closed = closure(graph, rules)
    # Round 1 (the whole graph, on P) joins lift and any once each; rounds
    # 2 (Q and R) and 3 (R) wake only any. Visiting every rule would make
    # 9 calls.
    assert joined == ["lift", "any"]
    assert matched == ["any", "any"]
    assert closed == expected


def test_a_closure_round_reads_the_plans_only_of_the_rules_it_wakes(monkeypatch):
    rules = [
        InferenceRule.of([Triple(var("x"), P, var("y"))], [Triple(var("x"), Q, var("y"))], "lift"),
        InferenceRule.of([Triple(var("x"), ABSENT, var("y"))], [Triple(var("x"), R, var("y"))], "never"),
        InferenceRule.of([Triple(var("x"), var("p"), var("y"))], [Triple(var("y"), R, var("x"))], "any"),
    ]
    read: list[str] = []
    plan = InferenceRule.__dict__["_plan"].func

    def counting(rule):
        read.append(rule.name)
        return plan(rule)

    monkeypatch.setattr(InferenceRule, "_plan", property(counting))
    closure(Graph([Triple(A, P, B), Triple(B, P, C)]), rules)
    # Round 1 (on P) wakes lift and any; rounds 2 (Q and R) and 3 (R) wake
    # only any. Reading every rule's plan in each round would make 9 reads.
    assert read == ["lift", "any", "any", "any"]


# Fired alongside the drawn rules: an empty antecedent, whose consequent is
# ground, and a consequent whose subject takes the object of a P triple, a
# literal when the graph holds ``(a p "1")``; that instantiation is dropped
# whole, so neither of its triples is added.
EMPTY_ANTECEDENT = InferenceRule.of([], [Triple(A, R, C)], "empty")
LITERAL_SUBJECT = InferenceRule.of(
    [Triple(var("x"), P, var("y"))], [Triple(var("y"), Q, var("x")), Triple(var("x"), R, var("y"))], "flip"
)


def test_an_empty_antecedent_fires_and_a_literal_subject_is_dropped():
    graph = Graph([Triple(A, P, ONE), Triple(A, P, B)])
    closed = Graph([*graph, Triple(A, R, C), Triple(B, Q, A), Triple(A, R, B)])
    assert closure(graph, [EMPTY_ANTECEDENT, LITERAL_SUBJECT]) == closed
    assert oracle_closure(graph, [EMPTY_ANTECEDENT, LITERAL_SUBJECT]) == closed


@EXAMPLES
@given(st.lists(inference_rules(), max_size=3), st.sets(ground_triples, max_size=6), st.data())
def test_closure_and_apply_rule_match_the_oracle(drawn, triples, data):
    rules = data.draw(st.permutations([*drawn, EMPTY_ANTECEDENT, LITERAL_SUBJECT]))
    graph = Graph(triples)
    expected = oracle_closure(graph, rules)
    assert closure(graph, rules) == expected
    assert closure(graph, rules, naive=True) == expected
    for rule in rules:
        assert apply_rule(rule, graph) == graph.union(oracle_consequences(graph, [rule]))
