"""The pattern index answers exactly what a linear scan over the schema does.

Each lookup that goes through :class:`PatternIndex` is checked against a
brute-force scan over every schema pattern: normalisation (the index's
candidates) against the all-pairs subsumption loop, and origin lookups and
instance checks (the index's per-object-kind tables) against the
positionwise test and ``triple_instantiates`` on every pattern. The scans
live here and in ``test_coverage.py`` only, as oracles: a guard below
checks that the lookups themselves make no per-pair test. The critical
route's ``reference_origins``, which keeps the lookup from before the
index, is checked against the same scan.
"""

from __future__ import annotations

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from schemaforge import (
    FreshNames,
    Triple,
    TriplestoreSchema,
    basic_consequence,
    build_sandbox,
    find_origin_patterns,
    iri,
    lit,
    normalize_schema,
    triple_instantiates,
    var,
)
from schemaforge.consequence import lambda_for, reference_origins
from schemaforge.generator import GeneratorConfig, generate
from schemaforge.schema import (
    PatternIndex,
    instantiates_some,
    pattern_shape_key,
    pattern_subsumed,
)

IRIS = [iri("urn:ix:a"), iri("urn:ix:b"), iri("urn:ix:c")]
LITS = [lit("1"), lit("2")]
# Query terms also include constants no schema mentions, and a variable.
QUERY_TERMS = IRIS + LITS + [iri("urn:ix:probe"), lit("probe"), var("q")]

EXAMPLES = settings(derandomize=True, database=None, max_examples=300, deadline=None)


# --- brute-force oracles -----------------------------------------------------


def scan_origins(t: Triple, schema: TriplestoreSchema) -> set[Triple]:
    found = set()
    for pattern in schema.graph:
        if all(
            p_term == value
            if p_term.is_constant
            else not (value.is_literal and (pos < 2 or p_term.lexical in schema.no_literal))
            for pos, (p_term, value) in enumerate(zip(pattern, t))
        ):
            found.add(pattern)
    return found


def scan_instantiates_some(t: Triple, schema: TriplestoreSchema) -> bool:
    return any(triple_instantiates(t, p, schema.no_literal) for p in schema.graph)


def scan_kept_shapes(schema: TriplestoreSchema) -> list[tuple]:
    """Shape keys of the patterns normalisation keeps, by all-pairs scan.

    Normalisation's output is a function of these shapes alone: it sorts
    the kept patterns by shape key and renames their variables in order.
    """
    delta = schema.no_literal
    by_key: dict[tuple, Triple] = {}
    for t in sorted(schema.graph, key=Triple.sort_key):
        by_key.setdefault(pattern_shape_key(t, delta), t)
    unique = list(by_key.values())
    kept = [
        p for p in unique if not any(q is not p and pattern_subsumed(p, q, delta) for q in unique)
    ]
    return sorted(pattern_shape_key(p, delta) for p in kept)


def normalised_shapes(schema: TriplestoreSchema) -> list[tuple]:
    n = normalize_schema(schema)
    return sorted(pattern_shape_key(t, n.no_literal) for t in n.graph)


# --- generated schemas -------------------------------------------------------


@st.composite
def schemas(draw) -> TriplestoreSchema:
    """Small schemas over a tiny vocabulary, so patterns collide and subsume.

    Positions hold an IRI, a variable (predicates included) or, in object
    position, a literal; object variables are drawn both no-literal and
    literal-allowed.
    """
    patterns: list[Triple] = []
    no_literal: set[str] = set()
    for i in range(draw(st.integers(0, 12))):
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
@given(schemas())
def test_normalize_matches_all_pairs_scan(schema):
    assert normalised_shapes(schema) == scan_kept_shapes(schema)


@EXAMPLES
@given(schemas(), st.lists(queries, max_size=8))
def test_origin_lookup_matches_scan(schema, batch):
    reference = reference_origins(schema)
    for t in batch:
        assert find_origin_patterns(t, schema) == scan_origins(t, schema), t
        assert reference(t) == scan_origins(t, schema), t


@EXAMPLES
@given(schemas(), st.lists(queries, max_size=8))
def test_instantiates_some_matches_scan(schema, batch):
    for t in batch:
        assert instantiates_some(t, schema) == scan_instantiates_some(t, schema), t


@EXAMPLES
@given(schemas(), queries)
def test_candidates_are_the_constant_compatible_patterns(schema, t):
    got = list(PatternIndex(schema.graph, schema.no_literal).candidates(t))
    expected = {
        p for p in schema.graph if all(pt.is_variable or pt == qt for pt, qt in zip(p, t))
    }
    assert len(got) == len(expected) and set(got) == expected


def generated_consequence_inputs():
    """Per seed, the un-normalised union of one round of basic consequences,
    which is the input normalisation sees inside the fixpoint, and its
    sandbox, whose triples are the queries the origin lookup answers there."""
    for seed in range(6):
        config = GeneratorConfig(
            pi_c=0.3, p_count=4, u_count=3, l_count=2, schema_size=24, rule_count=4,
            existential_count=0, antecedent_len=2, seed=seed,
        )
        schema, rules = generate(config)
        fresh = FreshNames()
        for r in rules:
            fresh.observe(r.antecedent | r.consequent)
        fresh.observe(schema.graph)
        lam = lambda_for(schema, *rules)
        patterns = set(schema.graph)
        no_literal = set(schema.no_literal)
        for rule in rules:
            out, _ = basic_consequence(schema.graph_part(), rule, lam=lam, fresh=fresh)
            patterns |= out.graph
            no_literal |= out.no_literal
        merged = TriplestoreSchema.of(patterns, no_literal)
        yield seed, merged, build_sandbox(merged, lam)


def test_index_over_generated_consequence_inputs():
    for seed, merged, sandbox in generated_consequence_inputs():
        assert normalised_shapes(merged) == scan_kept_shapes(merged), seed
        for t in sandbox:
            assert find_origin_patterns(t, merged) == scan_origins(t, merged), (seed, t)
            assert instantiates_some(t, merged) == scan_instantiates_some(t, merged), (seed, t)


def test_origin_and_instance_lookups_make_no_per_pair_test():
    # Calls are counted by code object, so a caller that imported
    # triple_instantiates by name is counted too.
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is triple_instantiates.__code__:
            calls.append(frame.f_back.f_code.co_name)

    queries = 0
    for seed, merged, sandbox in generated_consequence_inputs():
        sys.setprofile(count)
        try:
            for t in sandbox:
                find_origin_patterns(t, merged)
                instantiates_some(t, merged)
        finally:
            sys.setprofile(None)
        queries += len(sandbox)
        assert not calls, (seed, sorted(set(calls)))
    assert queries > 100
    # The guard sees a direct call.
    t = next(iter(sandbox))
    sys.setprofile(count)
    try:
        triple_instantiates(t, t, frozenset())
    finally:
        sys.setprofile(None)
    assert len(calls) == 1
