"""The pattern index answers exactly what a linear scan over the schema does.

Each lookup that goes through :class:`PatternIndex` is checked against a
brute-force scan over every schema pattern: normalisation (the index's
candidates) against the all-pairs subsumption loop, and origin lookups and
instance checks (the index's per-object-kind tables) against the
positionwise test and ``triple_instantiates`` on every pattern. The scans
live here and in ``test_coverage.py`` only, as oracles: a guard below
checks that the lookups themselves make no per-pair test. The critical
route's ``reference_origins``, which keeps the lookup from before the
index, is checked against the same scan. Merging patterns into a
normalised schema is checked against normalising the union.
"""

from __future__ import annotations

import sys
from unittest import mock

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
from schemaforge import consequence
from schemaforge.consequence import lambda_for, reference_origins, simple_schema_consequence_report
from schemaforge import schema as schema_module
from schemaforge.formats import serialize_schema
from schemaforge.generator import GeneratorConfig, generate
from schemaforge.schema import (
    PatternIndex,
    instantiates_some,
    merge_patterns,
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
def schemas(draw, stem: str = "v") -> TriplestoreSchema:
    """Small schemas over a tiny vocabulary, so patterns collide and subsume.

    Positions hold an IRI, a variable (predicates included) or, in object
    position, a literal; object variables are drawn both no-literal and
    literal-allowed. Variable names start with ``stem``.
    """
    patterns: list[Triple] = []
    no_literal: set[str] = set()
    for i in range(draw(st.integers(0, 12))):
        terms = []
        for pos in range(3):
            kind = draw(st.sampled_from(["var", "iri", "lit"] if pos == 2 else ["var", "iri"]))
            if kind == "var":
                name = f"{stem}{i}_{pos}"
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


def generated_problem(seed: int):
    """A small generated schema and rule set, dense enough that rules chain."""
    return generate(GeneratorConfig(
        pi_c=0.3, p_count=4, u_count=3, l_count=2, schema_size=24, rule_count=4,
        existential_count=0, antecedent_len=2, seed=seed,
    ))


def generated_consequence_inputs():
    """Per seed, the un-normalised union of one round of basic consequences,
    which is the input normalisation sees inside the fixpoint, and its
    sandbox, whose triples are the queries the origin lookup answers there."""
    for seed in range(6):
        schema, rules = generated_problem(seed)
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


# --- merging into a normalised schema ----------------------------------------


def assert_merge_is_normalisation(base, added, no_literal):
    """Merging ``added`` into the normalised ``base`` gives, byte for byte,
    what normalising the union does, and ``base`` itself exactly when that
    is ``base`` again; returns the merge."""
    union = TriplestoreSchema.of(base.graph | set(added), base.no_literal | set(no_literal))
    expected = normalize_schema(union)
    merged = merge_patterns(base, added, no_literal)
    assert merged.graph == expected.graph
    assert merged.no_literal == expected.no_literal
    assert serialize_schema(merged) == serialize_schema(expected)
    assert sorted(merged.shape_keys.values()) == scan_kept_shapes(union)
    assert (merged is base) == (expected == base)
    return merged


@EXAMPLES
@given(schemas(), schemas(stem="a"))
def test_merge_into_a_normalised_base_equals_normalising_the_union(base, added):
    assert_merge_is_normalisation(normalize_schema(base), added.graph, added.no_literal)


def test_merge_over_generated_consequence_rounds():
    """Round by round as the fixpoint merges, each round's new patterns
    taken from one basic consequence per rule over the normalised base,
    until a round adds nothing the base does not subsume."""
    for seed in range(6):
        schema, rules = generated_problem(seed)
        base = normalize_schema(schema)
        fresh = FreshNames.of(base.graph, *(r.antecedent | r.consequent for r in rules))
        lam = lambda_for(base, *rules)
        for _ in range(10):
            added: set[Triple] = set()
            no_literal: set[str] = set()
            for rule in rules:
                out, _ = basic_consequence(base, rule, lam=lam, fresh=fresh)
                added |= out.graph - base.graph
                no_literal |= out.no_literal - base.no_literal
            merged = assert_merge_is_normalisation(base, added, no_literal)
            if merged is base:
                break
            base = merged
        else:
            raise AssertionError(f"seed {seed}: no fixpoint in 10 rounds")
        # Nothing to add, or the base's own patterns renamed apart, leave it as it is.
        assert merge_patterns(base, (), ()) is base
        apart = {Triple(*(var("a" + x[1]) if x.is_variable else x for x in t)) for t in base.graph}
        assert merge_patterns(base, apart, {"a" + name for name in base.no_literal}) is base


# --- work counts -------------------------------------------------------------


def test_normalisation_keys_each_input_pattern_once():
    calls = []

    def counted(t, delta):
        calls.append(t)
        return pattern_shape_key(t, delta)

    for seed, merged, _ in generated_consequence_inputs():
        calls.clear()
        with mock.patch.object(schema_module, "pattern_shape_key", counted):
            normalize_schema(merged)
        assert sorted(calls) == sorted(merged.graph), seed


def test_candidates_alone_never_build_the_literal_object_table():
    built = []

    class Recorded(PatternIndex):
        __slots__ = ()

        def _admitting_literals(self):
            built.append(self)
            return super()._admitting_literals()

    for seed, merged, sandbox in generated_consequence_inputs():
        with mock.patch.object(schema_module, "PatternIndex", Recorded):
            normalize_schema(merged)
            index = Recorded(merged.graph, merged.no_literal)
            for t in sandbox:
                list(index.candidates(t))
        assert not built, seed
        # The first lookup for a literal object builds it, once.
        literal = Triple(IRIS[0], IRIS[1], LITS[0])
        assert index.covering(literal) == index.covering(literal)
        assert built == [index]
        built.clear()


def test_fixpoint_keys_only_each_rounds_new_patterns():
    """After the first normalisation, a round keys once each pattern it adds
    and checks one schema, the merge; the round that changes nothing builds
    no schema and no index over the whole schema but the one its origin
    lookups read."""
    schema, rules = generate(GeneratorConfig(0.1, 150, 100, 100, 100, 4, 0, 2, 1))  # fig2a, 100 patterns
    events: list[tuple] = []
    real_key, real_sandbox, real_check = (
        pattern_shape_key, consequence.build_sandbox, TriplestoreSchema.__post_init__
    )

    class Recorded(PatternIndex):
        __slots__ = ()

        def __init__(self, patterns, no_literal):
            patterns = list(patterns)
            events.append(("index", self, len(patterns)))
            super().__init__(patterns, no_literal)

    def keyed(t, delta):
        events.append(("key", t))
        return real_key(t, delta)

    def sandbox(current, lam=None):  # one per round: marks where each round starts
        events.append(("round", current))
        return real_sandbox(current, lam)

    def checked(self):
        events.append(("schema", self))
        real_check(self)

    with mock.patch.object(schema_module, "pattern_shape_key", keyed), \
            mock.patch.object(schema_module, "PatternIndex", Recorded), \
            mock.patch.object(consequence, "build_sandbox", sandbox), \
            mock.patch.object(TriplestoreSchema, "__post_init__", checked):
        report = simple_schema_consequence_report(schema, rules)

    rounds, segments = [], [[]]
    for event in events:
        if event[0] == "round":
            rounds.append(event[1])
            segments.append([])
        else:
            segments[-1].append(event)
    assert len(rounds) == report.rounds >= 2

    def of_kind(segment, kind):
        return [event[1:] for event in segment if event[0] == kind]

    def checked_over_patterns(segment):  # the empty base normalisation starts from checks nothing
        return [s for s, in of_kind(segment, "schema") if s.graph]

    first, *per_round = segments
    assert sorted(t for t, in of_kind(first, "key")) == sorted(schema.graph)
    assert len(checked_over_patterns(first)) == 1
    lam = lambda_for(schema, *rules)
    for current, segment in zip(rounds, per_round):
        added: set[Triple] = set()
        for rule in rules:
            fresh = FreshNames.of(current.graph, rule.antecedent | rule.consequent)
            out, _ = basic_consequence(current, rule, lam=lam, fresh=fresh)
            added |= out.graph - current.graph
        keyed_now = [t for t, in of_kind(segment, "key")]
        assert len(keyed_now) == len(set(keyed_now)) == len(added)
        assert not set(keyed_now) & current.graph
    changed, last = per_round[:-1], per_round[-1]
    assert all(len(checked_over_patterns(segment)) == 1 for segment in changed)
    assert not of_kind(last, "schema")
    whole = [index for index, size in of_kind(last, "index") if size >= len(rounds[-1].graph)]
    assert whole == [rounds[-1].index]
