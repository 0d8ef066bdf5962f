"""On-demand grounding in the violation search against the eager oracle.

``existential.retained_existentials`` builds a triggering rule's groundings
only as far as an existential rule reads them, and stops at the first
violating witness. ``grounding_oracle.oracle_retained_existentials`` builds
every grounding of a triggering rule up front. Verdicts and ``via_rule``
must be equal; witnesses are equal up to a renaming of the invented
``urn:fresh:`` IRIs, since the lazy search draws none for the groundings it
never builds. Counting guards check that a violation costs only the
groundings read up to its witness, and that a retained rule has read every
grounding of every rule that triggers it.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

from schemaforge import (
    ExistentialRule,
    InferenceRule,
    SchemaforgeError,
    Triple,
    TriplestoreSchema,
    closure,
    existential,
    is_instance,
    iri,
    retained_existentials,
    var,
    violations,
)
from schemaforge.generator import GeneratorConfig, generate

import grounding_oracle
from grounding_oracle import equal_up_to_fresh_renaming, oracle_retained_existentials
from test_violation_fuzz import random_case

C = iri("urn:g:c")
P, Q, R = iri("urn:g:p"), iri("urn:g:q"), iri("urn:g:r")
X, Y, Z = var("x"), var("y"), var("z")

LIFT = InferenceRule.of([Triple(X, P, Y)], [Triple(X, Q, Y)], "lift")
# Violated by the first grounding of LIFT, whichever it is: no :r triple
# follows the lifted one.
BROKEN = ExistentialRule(Triple(X, Q, Y), Triple(Y, R, Z))
# Retained: the :p triple each lifted :q triple came from is its witness.
KEPT = ExistentialRule(Triple(X, Q, Y), Triple(X, P, Z))


def lift_schema(*existentials: ExistentialRule) -> TriplestoreSchema:
    """LIFT has one rewriting and two surviving mappings, one per :p pattern."""
    patterns = [
        Triple(var("a"), P, var("b")),
        Triple(var("c"), P, C),
        Triple(var("d"), Q, var("e")),
        Triple(var("f"), R, var("g")),
    ]
    return TriplestoreSchema.of(patterns, ["a", "c", "d", "f"], existentials)


def assert_matches_oracle(schema, rules, report, expected) -> None:
    assert report.retained == expected.retained
    assert [(v.rule, v.via_rule) for v in report.violated] == [
        (v.rule, v.via_rule) for v in expected.violated
    ]
    for got, want in zip(report.violated, expected.violated):
        assert equal_up_to_fresh_renaming(got.witness, want.witness)
        assert is_instance(got.witness, schema)
        assert violations([got.rule], closure(got.witness, rules))


def counted_search(search, module, schema, rules) -> tuple:
    """The search's report and how many chases and closures it ran."""
    counts: Counter = Counter()

    def counting(name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return mock.patch.object(module, name, counted)

    with counting("chase_existentials"), counting("closure"):
        report = search(schema, rules)
    return report, counts["chase_existentials"], counts["closure"]


def test_generated_searches_match_the_eager_oracle():
    for g in range(60):
        schema, rules = generate(GeneratorConfig(0.1, 22, 20, 20, 20, 4, 10, 3, g))
        report = retained_existentials(schema, rules)
        assert_matches_oracle(schema, rules, report, oracle_retained_existentials(schema, rules))


def test_fuzz_searches_match_the_eager_oracle():
    # Where the oracle answers, the lazy search answers the same. The lazy
    # search may answer where the oracle raised (seed 81): a grounding it
    # never reads cannot fail its chase.
    both = 0
    for seed in range(120):
        schema, rules = random_case(seed)
        try:
            expected = oracle_retained_existentials(schema, rules)
        except SchemaforgeError:
            continue
        assert_matches_oracle(schema, rules, retained_existentials(schema, rules), expected)
        both += 1
    assert both == 102


def test_first_violating_grounding_ends_the_search():
    schema, rules = lift_schema(BROKEN), [LIFT]
    report, chases, closures = counted_search(retained_existentials, existential, schema, rules)
    assert [v.rule for v in report.violated] == [BROKEN]
    assert (chases, closures) == (1, 1)
    # The eager search builds both groundings of LIFT.
    expected, chases, closures = counted_search(
        oracle_retained_existentials, grounding_oracle, schema, rules
    )
    assert (chases, closures) == (2, 2)
    assert_matches_oracle(schema, rules, report, expected)


def test_retained_rule_reads_every_grounding():
    for existentials in ([KEPT], [KEPT, BROKEN]):
        schema, rules = lift_schema(*existentials), [LIFT]
        report, chases, closures = counted_search(retained_existentials, existential, schema, rules)
        assert report.retained == (KEPT,)
        assert (chases, closures) == (2, 2)


def test_retained_rules_read_as_many_groundings_as_the_oracle_builds():
    # Per triggering rule, the groundings the lazy search built equal the
    # oracle's whole list whenever the rule triggers a retained rule.
    def lazy_counting(built, real):
        def counted(rule, *args):
            for grounding in real(rule, *args):
                built[id(rule)] += 1
                yield grounding

        return counted

    def eager_counting(built, real):
        def counted(rule, *args):
            out = real(rule, *args)
            built[id(rule)] += len(out)
            return out

        return counted

    checked = 0
    for g in range(60):
        schema, rules = generate(GeneratorConfig(0.1, 22, 20, 20, 20, 4, 10, 3, g))
        lazy_built: Counter = Counter()
        eager_built: Counter = Counter()
        real = existential._groundings_for_rule
        with mock.patch.object(existential, "_groundings_for_rule", lazy_counting(lazy_built, real)):
            report = retained_existentials(schema, rules)
        real = grounding_oracle._groundings_for_rule
        with mock.patch.object(
            grounding_oracle, "_groundings_for_rule", eager_counting(eager_built, real)
        ):
            oracle_retained_existentials(schema, rules)
        existentials = schema.sorted_existentials()
        triggers = existential._triggers(existentials, rules)
        for e, positions in zip(existentials, triggers):
            if e in report.retained:
                for position in positions:
                    key = id(rules[position])
                    assert lazy_built[key] == eager_built[key], (g, position)
                    checked += eager_built[key]
        # Violated rules read only a prefix, so fewer groundings are built.
        assert sum(lazy_built.values()) <= sum(eager_built.values())
    assert checked > 0
