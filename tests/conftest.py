"""Shared fixtures: the mining running example used across the test suite."""

from __future__ import annotations

import random

import pytest

from schemaforge import ExistentialRule, Graph, InferenceRule, Triple, TriplestoreSchema, iri, lit, var

EX = "http://example.org/mine#"
SN = "http://www.w3.org/ns/ssn/"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"

RDF_TYPE = iri(RDF + "type")
OBSERVED_PROPERTY = iri(SN + "observedProperty")
HAS_RESULT = iri(SN + "hasResult")
HAS_FEATURE = iri(SN + "hasFeatureOfInterest")
OBSERVATION = iri(SN + "Observation")

CO_LEVEL = iri(EX + "COLevel")
TAG_ID = iri(EX + "TagID")
PERSONNEL_TAG = iri(EX + "PersonnelTag")
CARRIED_BY = iri(EX + "carriedBy")
IS_LOCATED_IN = iri(EX + "isLocatedIn")
IS_TRESPASSING_IN = iri(EX + "isTrespassingIn")
OFF_LIMIT_AREA = iri(EX + "OffLimitArea")

O1 = iri(EX + "o1")
O2 = iri(EX + "o2")
O3 = iri(EX + "o3")
WID1 = iri(EX + "WID1")
WID2 = iri(EX + "WID2")
ROOM1 = iri(EX + "room1")
ROOM2 = iri(EX + "room2")
ALEX = iri(EX + "Alex")


def mine_schema() -> TriplestoreSchema:
    patterns = [
        Triple(var("v1"), OBSERVED_PROPERTY, CO_LEVEL),
        Triple(var("v2"), OBSERVED_PROPERTY, TAG_ID),
        Triple(var("v3"), RDF_TYPE, OBSERVATION),
        Triple(var("v4"), RDF_TYPE, PERSONNEL_TAG),
        Triple(var("v5"), CARRIED_BY, var("v6")),
        Triple(var("v7"), HAS_FEATURE, var("v8")),
        Triple(var("v9"), HAS_RESULT, var("v10")),
    ]
    e1 = ExistentialRule(
        Triple(var("x1"), RDF_TYPE, PERSONNEL_TAG),
        Triple(var("x1"), CARRIED_BY, var("x2")),
    )
    return TriplestoreSchema.of(patterns, {"v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9"}, [e1])


def mine_rules() -> list[InferenceRule]:
    r1 = InferenceRule.of(
        [
            Triple(var("v1"), OBSERVED_PROPERTY, TAG_ID),
            Triple(var("v1"), HAS_RESULT, var("v2")),
            Triple(var("v1"), HAS_FEATURE, var("v3")),
        ],
        [
            Triple(var("v2"), RDF_TYPE, PERSONNEL_TAG),
            Triple(var("v2"), IS_LOCATED_IN, var("v3")),
        ],
        name="r1",
    )
    r2 = InferenceRule.of(
        [
            Triple(var("v1"), OBSERVED_PROPERTY, CO_LEVEL),
            Triple(var("v1"), HAS_RESULT, lit("1")),
            Triple(var("v1"), HAS_FEATURE, var("v2")),
        ],
        [Triple(var("v2"), RDF_TYPE, OFF_LIMIT_AREA)],
        name="r2",
    )
    r3 = InferenceRule.of(
        [
            Triple(var("v1"), IS_LOCATED_IN, var("v2")),
            Triple(var("v2"), RDF_TYPE, OFF_LIMIT_AREA),
        ],
        [Triple(var("v1"), IS_TRESPASSING_IN, var("v2"))],
        name="r3",
    )
    return [r1, r2, r3]


def mine_instance() -> Graph:
    return Graph(
        [
            Triple(O1, OBSERVED_PROPERTY, TAG_ID),
            Triple(O1, HAS_FEATURE, ROOM1),
            Triple(O1, HAS_RESULT, WID1),
            Triple(O2, OBSERVED_PROPERTY, TAG_ID),
            Triple(O2, HAS_FEATURE, ROOM2),
            Triple(O2, HAS_RESULT, WID2),
            Triple(O3, OBSERVED_PROPERTY, CO_LEVEL),
            Triple(O3, HAS_FEATURE, ROOM2),
            Triple(O3, HAS_RESULT, lit("1")),
            Triple(WID1, RDF_TYPE, PERSONNEL_TAG),
            Triple(WID1, CARRIED_BY, ALEX),
        ]
    )


@pytest.fixture
def schema_s1() -> TriplestoreSchema:
    return mine_schema()


@pytest.fixture
def rules_r1() -> list[InferenceRule]:
    return mine_rules()


@pytest.fixture
def instance_i1() -> Graph:
    return mine_instance()


def cyclic_chase_problem() -> tuple[TriplestoreSchema, list[InferenceRule]]:
    """A schema whose chase cannot terminate, and a rule that reaches it.

    The existential rule ``?x :p ?y => ?y :p ?z`` extends any ``:p`` chain
    forever, and grounding the rule ``{?a :p ?b} => {?a :q ?b}`` for the
    existential rule on ``:q`` starts such a chain. The chase's step bound
    is ``10 * (|graph| + |rules| + 1) ** 2``, and a step costs it the same
    however long the chain, so 140 acyclic filler rules raise the bound to
    207,360 steps, which take 7 to 9 s on a 2-core host, before the bound
    trips.
    """
    ns = "urn:cyc:"
    p, q, r = iri(ns + "p"), iri(ns + "q"), iri(ns + "r")
    fillers = [iri(f"{ns}e{i}") for i in range(140)]
    x, y, z = var("x"), var("y"), var("z")
    patterns = [Triple(var(f"s{i}"), pred, var(f"o{i}")) for i, pred in enumerate([p, q, r, *fillers])]
    existentials = [
        ExistentialRule(Triple(x, p, y), Triple(y, p, z)),
        ExistentialRule(Triple(x, q, y), Triple(x, r, z)),
        *(ExistentialRule(Triple(x, e, y), Triple(y, e, x)) for e in fillers),
    ]
    no_literal = [t.s.lexical for t in patterns] + [t.o.lexical for t in patterns]
    rules = [InferenceRule.of([Triple(var("a"), p, var("b"))], [Triple(var("a"), q, var("b"))], "lift")]
    return TriplestoreSchema.of(patterns, no_literal, existentials), rules


def generated_instance(schema, per_pattern: int = 5, pool: int = 10, seed: int = 0) -> Graph:
    """Random instantiations of every schema pattern over a small pool of
    IRIs and literals; literals go only where the schema allows them."""
    rng = random.Random(seed)
    iris = [iri(f"urn:inst:i{i}") for i in range(pool)]
    lits = [lit(f"l{i}") for i in range(pool)]
    triples = set()
    for pattern in schema.sorted_patterns():
        for _ in range(per_pattern):
            values = []
            for pos, term in enumerate(pattern):
                if term.is_constant:
                    values.append(term)
                elif pos == 2 and term.lexical not in schema.no_literal and rng.random() < 0.5:
                    values.append(rng.choice(lits))
                else:
                    values.append(rng.choice(iris))
            triples.add(Triple(*values))
    return Graph(triples)
