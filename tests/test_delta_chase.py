"""The chase and the closure extend one indexed graph and probe only what a
new triple can wake.

``Graph.insert`` keeps every index a graph has built up to date, so the
chase and the closure grow one graph instead of rebuilding it per change.
``schema.unsatisfied`` skips the rules on a predicate the graph lacks; the
chase scans for unsatisfied pairs once and, after a witness, probes only
the rules on its predicate or on a variable one; closure round 1 joins
each woken rule once and fires the rules with an empty antecedent. Their
outputs are checked against ``chase_oracle`` and ``naive=True`` in
``test_single_atom_matching.py`` and ``test_rule_index.py``; the guards
here count the work, not the time.
"""

from __future__ import annotations

from schemaforge import (
    ChaseNonterminationError,
    ExistentialRule,
    FreshNames,
    Graph,
    InferenceRule,
    Triple,
    chase_existentials,
    closure,
    iri,
    lit,
    var,
)
from schemaforge import rules as rules_module
from schemaforge import schema as schema_module
from schemaforge.formats import parse_rules
from schemaforge.schema import unsatisfied

from chase_oracle import oracle_chase, oracle_violations
from conftest import cyclic_chase_problem

A, B, C, D = (iri(f"urn:d:{n}") for n in "abcd")
P, Q, R = iri("urn:d:p"), iri("urn:d:q"), iri("urn:d:r")
ABSENT = iri("urn:d:absent")
X, Y, Z = var("x"), var("y"), var("z")


def e(antecedent: Triple, consequent: Triple) -> ExistentialRule:
    return ExistentialRule(antecedent, consequent)


def test_insert_keeps_every_built_index_up_to_date():
    graph = Graph([Triple(A, P, B), Triple(B, P, C)], validate=False)
    probes = [(None, P, None), (A, None, None), (None, None, D), (A, Q, None), (None, Q, D), (A, None, D)]
    for probe in probes[:4]:
        graph.match(*probe)  # builds four of the six indexes
    assert graph.insert(Triple(A, Q, D))
    assert not graph.insert(Triple(A, Q, D))
    assert set(graph.predicates()) == {P, Q}
    rebuilt = Graph(graph.triples)
    for probe in [*probes, (None, None, None), (A, Q, D)]:
        assert sorted(graph.match(*probe)) == sorted(rebuilt.match(*probe)), probe
    frozen = graph.freeze()
    assert frozen is graph and isinstance(graph.triples, frozenset)
    assert graph == rebuilt and hash(graph) == hash(rebuilt)


def test_unsatisfied_probes_no_rule_on_an_absent_predicate(monkeypatch):
    rules = [
        e(Triple(X, ABSENT, Y), Triple(Y, Q, Z)),
        e(Triple(X, P, Y), Triple(Y, Q, Z)),
        e(Triple(X, Y, B), Triple(B, R, X)),
    ]
    graph = Graph([Triple(A, P, B), Triple(B, P, C)])
    probed: list = []
    real = schema_module._pattern_matches

    def counting(probe, repeats, graph):
        probed.append(probe)
        return real(probe, repeats, graph)

    monkeypatch.setattr(schema_module, "_pattern_matches", counting)
    pairs = list(unsatisfied(rules, graph))
    assert {(rule, m) for rule, m in pairs} == {(v.rule, v.mapping) for v in oracle_violations(rules, graph)}
    assert all(probe[1] != ABSENT for probe in probed)
    # One antecedent probe for each of the two other rules, one consequent
    # probe per match: two of (?x :p ?y), one of (?x ?y :b).
    assert len(probed) == 2 + 2 + 1


def test_the_chase_probes_only_the_rules_a_witness_wakes(monkeypatch):
    fillers = [iri(f"urn:d:e{i}") for i in range(10)]
    rules = [
        e(Triple(X, P, Y), Triple(Y, Q, Z)),
        e(Triple(X, Q, Y), Triple(Y, R, Z)),
        *(e(Triple(X, f, Y), Triple(Y, f, X)) for f in fillers),
    ]
    anywhere = e(Triple(X, Y, Z), Triple(X, Y, Z))  # any triple matches; never unsatisfied
    probed: list = []
    real = rules_module._antecedent_match

    def counting(rule, t):
        probed.append((rule.antecedent.p, t.p))
        return real(rule, t)

    monkeypatch.setattr(rules_module, "_antecedent_match", counting)
    graph = Graph([Triple(A, P, B)])
    out = chase_existentials(graph, [*rules, anywhere], FreshNames.of(graph))
    assert out == oracle_chase(graph, [*rules, anywhere], FreshNames.of(graph))
    # Two witnesses, (b :q n1) and (n1 :r n2): the first wakes the rule on
    # :q and the variable-predicate rule, the second only the latter.
    assert sorted(probed, key=repr) == sorted([(Q, Q), (Y, Q), (Y, R)], key=repr)


def match_calls(monkeypatch, max_steps: int) -> int:
    """Graph.match calls of the chase on the cyclic problem's :p chain,
    cut by the step bound after ``max_steps + 1`` steps."""
    schema, _ = cyclic_chase_problem()
    p = iri("urn:cyc:p")
    graph = Graph([Triple(iri("urn:cyc:a"), p, iri("urn:cyc:b"))])
    calls: list = []
    real = Graph.match

    def counting(self, s, p, o):
        calls.append(1)
        return real(self, s, p, o)

    monkeypatch.setattr(Graph, "match", counting)
    try:
        chase_existentials(graph, schema.existentials, FreshNames.of(graph, schema.graph),
                           max_steps, schema=schema)
    except ChaseNonterminationError:
        pass
    monkeypatch.undo()
    return len(calls)


def test_chase_match_calls_per_step_do_not_grow_with_the_steps(monkeypatch):
    n = 50
    base, once, twice = (match_calls(monkeypatch, steps) for steps in (0, n, 2 * n))
    # The same number of calls for steps 2..n+1 as for steps n+2..2n+1;
    # rescanning the growing chain at every step would make the second
    # share larger.
    assert once - base == twice - once > 0


def test_closure_fires_rules_with_an_empty_antecedent():
    (axiom,), _ = parse_rules("CONSTRUCT { <urn:d:a> <urn:d:p> <urn:d:b> } WHERE { }")
    inverse = InferenceRule.of([Triple(X, P, Y)], [Triple(Y, Q, X)], "inverse")
    for triples in ([], [Triple(C, P, D)], [Triple(C, R, lit("1"))]):
        graph = Graph(triples)
        for rules in ([axiom], [inverse, axiom]):
            closed = closure(graph, rules)
            assert closed == closure(graph, rules, naive=True)
            assert Triple(A, P, B) in closed and graph.triples <= closed.triples
        assert Triple(B, Q, A) in closure(graph, [inverse, axiom])
