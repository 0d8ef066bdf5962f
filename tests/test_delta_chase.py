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
    TriplestoreSchema,
    chase_existentials,
    closure,
    iri,
    is_instance,
    lit,
    retained_existentials,
    var,
)
from schemaforge import schema as schema_module
from schemaforge.formats import parse_rules
from schemaforge.generator import GeneratorConfig, generate
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
    real = schema_module._pattern_matches
    graph = Graph([Triple(A, P, B)])

    def counting(probe, repeats, g):
        if len(g) == 1 and g != graph:  # a witness's own graph: an antecedent probe
            (t,) = g
            probed.append((Y if probe[1] is None else probe[1], t.p))
        return real(probe, repeats, g)

    monkeypatch.setattr(schema_module, "_pattern_matches", counting)
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


def test_a_pair_the_chase_cannot_act_on_draws_once():
    # Ten (s_i :p :b) matches of ?x :p ?y -> ?x :q ?z; a witness (s_i :q n)
    # covers a pattern only for the five subjects the schema names, and
    # s_i is no null, so no repair helps the first five. Taking each pair
    # once draws one IRI per pair; rescanning the five from the front at
    # every step would draw 5 * 6 + 5 = 35.
    subjects = [iri(f"urn:d:s{i}") for i in range(10)]
    schema = TriplestoreSchema.of(
        [Triple(var("v"), P, B), *(Triple(s, Q, var(f"w{i}")) for i, s in enumerate(subjects[5:]))], ["v"]
    )
    rule = e(Triple(X, P, Y), Triple(X, Q, Z))
    graph = Graph([Triple(s, P, B) for s in subjects])
    fresh, nulls = FreshNames.of(graph, schema.graph), set()
    out = chase_existentials(graph, [rule], fresh, schema=schema, nulls=nulls)
    assert {t.s for t in out.match(None, Q, None)} == set(subjects[5:])
    assert len(out) == 15
    assert len(nulls) == 10
    assert fresh.fresh_iri() == iri(f"{FreshNames.FRESH_IRI_NS}11")


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


def test_a_search_sorts_each_existential_rule_once(monkeypatch):
    # The schema's rules are sorted and indexed once and every chase reads
    # them; sorting per chase made 29,700 calls here, 99 per rule.
    generated, rules = generate(GeneratorConfig(0.1, 1100, 1000, 1000, 1000, 100, 300, 3, 0))
    schema = TriplestoreSchema(generated.graph, generated.no_literal, generated.existentials)
    calls: list = []
    real = ExistentialRule.sort_key

    def counting(rule):
        calls.append(rule)
        return real(rule)

    monkeypatch.setattr(ExistentialRule, "sort_key", counting)
    report = retained_existentials(schema, rules)
    assert len(report.violated) > 90  # the search chased many groundings
    assert len(calls) == len(schema.existentials) == 300


def test_an_instance_check_without_existential_rules_indexes_no_predicates():
    schema = TriplestoreSchema.of([Triple(var("s"), P, var("o"))], ["s"])
    graph = Graph([Triple(A, P, B), Triple(B, P, lit("1"))])
    assert is_instance(graph, schema)
    assert not graph._idx and not graph._parts  # no index built on the checked graph
    assert not is_instance(graph, TriplestoreSchema.of(schema.graph, ["s", "o"]))
