"""Instance coverage and origins from the pattern index, against the
per-pair instance test.

``instantiates_some`` and ``find_origin_patterns`` answer from the schema's
pattern index: one dict probe per signature mask, in the table for the
triple's object kind, with no per-pair test. They are compared here with
``triple_instantiates`` on every schema pattern, and with the index's
unfiltered candidates each put through the per-pair test, kept below as an
oracle. Inputs include what the index must turn away: literal objects
under no-literal variables, literal subjects and predicates, and variable
terms in graphs built without validation.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from schemaforge import (
    Graph,
    Triple,
    TriplestoreSchema,
    find_origin_patterns,
    iri,
    is_instance,
    lit,
    retained_existentials,
    triple_instantiates,
    var,
)
from schemaforge import existential as existential_module
from schemaforge.generator import GeneratorConfig, generate
from schemaforge.schema import instantiates_some

from chase_oracle import oracle_violations

EXAMPLES = settings(derandomize=True, database=None, max_examples=400, deadline=None)

IRIS = [iri("urn:cv:a"), iri("urn:cv:b")]
LITS = [lit("1"), lit("urn:cv:a")]  # a literal spelled like an IRI
# Query terms add constants no schema mentions and variables.
QUERY_TERMS = IRIS + LITS + [iri("urn:cv:probe"), lit("probe"), var("q"), var("v0")]


# --- oracles -------------------------------------------------------------------


def scan_origins(t: Triple, schema: TriplestoreSchema) -> set[Triple]:
    return {p for p in schema.graph if triple_instantiates(t, p, schema.no_literal)}


def scan_instantiates_some(t: Triple, schema: TriplestoreSchema) -> bool:
    return any(triple_instantiates(t, p, schema.no_literal) for p in schema.graph)


def index_instantiates_some(t: Triple, schema: TriplestoreSchema) -> bool:
    """The index's constant-compatible candidates, each put through the
    per-pair test."""
    return any(triple_instantiates(t, p, schema.no_literal) for p in schema.index.candidates(t))


def oracle_is_instance(graph: Graph, schema: TriplestoreSchema) -> bool:
    return all(scan_instantiates_some(t, schema) for t in graph) and not oracle_violations(
        schema.existentials, graph
    )


# --- generated schemas and queries ---------------------------------------------


@st.composite
def schemas(draw) -> TriplestoreSchema:
    """Small schemas over a tiny vocabulary. Subjects and predicates are an
    IRI or a variable; objects an IRI, a constant literal, or a variable
    drawn both inside and outside the no-literal set."""
    patterns: list[Triple] = []
    no_literal: set[str] = set()
    for i in range(draw(st.integers(0, 8))):
        terms = []
        for pos in range(3):
            kind = draw(st.sampled_from(["var", "iri", "lit"] if pos == 2 else ["var", "iri"]))
            if kind == "var":
                name = f"v{i}_{pos}"
                terms.append(var(name))
                if pos < 2 or draw(st.booleans()):
                    no_literal.add(name)
            else:
                terms.append(draw(st.sampled_from(IRIS if kind == "iri" else LITS)))
        patterns.append(Triple(*terms))
    return TriplestoreSchema.of(patterns, no_literal)


queries = st.builds(
    Triple, st.sampled_from(QUERY_TERMS), st.sampled_from(QUERY_TERMS), st.sampled_from(QUERY_TERMS)
)


@EXAMPLES
@given(schemas(), st.lists(queries, max_size=10))
def test_coverage_matches_the_per_pair_test(schema, batch):
    for t in batch:
        expected = scan_instantiates_some(t, schema)
        assert index_instantiates_some(t, schema) == expected, t
        assert instantiates_some(t, schema) == expected, t


@EXAMPLES
@given(schemas(), st.lists(queries, max_size=10))
def test_is_instance_matches_the_oracle_on_unvalidated_graphs(schema, batch):
    graph = Graph(batch, validate=False)
    assert is_instance(graph, schema) == oracle_is_instance(graph, schema)


def test_edge_cases_of_the_coverage_table():
    a, b = IRIS
    schema = TriplestoreSchema.of(
        [Triple(var("s"), a, var("nolit")), Triple(var("t"), b, var("free")),
         Triple(a, var("p"), lit("1")), Triple(b, b, b)],
        {"s", "t", "p", "nolit"},
    )
    cases = {
        Triple(b, a, b): True,  # IRI under a no-literal object variable
        Triple(b, a, lit("2")): False,  # literal under a no-literal object variable
        Triple(a, b, lit("2")): True,  # literal under a literal-allowed variable
        Triple(a, a, lit("1")): True,  # the constant literal object
        Triple(a, a, lit("3")): False,
        Triple(a, b, var("x")): True,  # a variable term binds a schema variable
        Triple(b, b, var("x")): True,
        Triple(a, var("x"), lit("1")): True,
        Triple(var("x"), a, b): True,
        Triple(lit("1"), a, b): False,  # a literal subject is covered by nothing
        Triple(a, lit("1"), lit("1")): False,  # nor a literal predicate
        Triple(b, iri("urn:cv:other"), b): False,
    }
    for t, expected in cases.items():
        assert scan_instantiates_some(t, schema) == expected, t
        assert instantiates_some(t, schema) == expected, t
        assert find_origin_patterns(t, schema) == scan_origins(t, schema), t
    # A schema with an all-variable pattern covers every triple without a
    # literal at subject or predicate, and the empty schema covers none.
    wildcard = TriplestoreSchema.of([Triple(var("x"), var("y"), var("z"))], {"x", "y"})
    for t, target, expected in [
        (Triple(a, b, lit("9")), wildcard, True),
        (Triple(lit("9"), b, a), wildcard, False),
        (Triple(a, b, a), TriplestoreSchema.of([]), False),
    ]:
        assert instantiates_some(t, target) == expected, t
        assert find_origin_patterns(t, target) == scan_origins(t, target), t


def test_is_instance_matches_the_oracle_on_generated_chase_outputs():
    # Every graph the violation search chases is checked with is_instance
    # before it is closed; on 60 generated problems each chase output must
    # get the oracle's verdict, and both verdicts must occur.
    real_chase = existential_module.chase_existentials
    verdicts = []

    def checked_chase(graph, rules, fresh, max_steps=None, schema=None, nulls=None, clock=None):
        out = real_chase(graph, rules, fresh, max_steps, schema, nulls, clock)
        verdict = is_instance(out, schema)
        assert verdict == oracle_is_instance(out, schema)
        verdicts.append(verdict)
        return out

    with mock.patch.object(existential_module, "chase_existentials", checked_chase):
        for g in range(60):
            schema, rules = generate(GeneratorConfig(0.1, 22, 20, 20, 20, 4, 10, 3, g))
            retained_existentials(schema, rules)
    assert len(verdicts) > 400 and 0 < sum(verdicts) < len(verdicts)
