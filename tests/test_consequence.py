"""Basic and full schema consequences over canonical instances."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemaforge import (
    CRITICAL,
    SCORE,
    CriticalInstanceTooLargeError,
    FreshNames,
    Graph,
    InferenceRule,
    Mapping,
    Triple,
    TriplestoreSchema,
    applicable_rules,
    basic_consequence,
    build_critical,
    build_sandbox,
    evaluate_bgp,
    evaluate_union_query,
    filter_and_annotate,
    find_origin_patterns,
    is_instance,
    iri,
    lit,
    normalize_schema,
    schema_contains,
    schema_equivalent,
    simple_schema_consequence,
    simple_schema_consequence_report,
    surviving_mappings,
    var,
)
from schemaforge import consequence
from schemaforge.consequence import lambda_for
from schemaforge.consequence import FilteredMapping
from schemaforge.eval import lambda_variants
from schemaforge.formats import serialize_schema
from schemaforge.generator import GeneratorConfig, generate

from conftest import (
    CARRIED_BY,
    CO_LEVEL,
    HAS_RESULT,
    IS_LOCATED_IN,
    IS_TRESPASSING_IN,
    OBSERVED_PROPERTY,
    OFF_LIMIT_AREA,
    PERSONNEL_TAG,
    RDF_TYPE,
    mine_rules,
)

A = iri("urn:c:a")
B = iri("urn:c:b")
P = iri("urn:c:p")


def test_sandbox_of_running_example(schema_s1):
    lam = lambda_for(schema_s1)
    sandbox = build_sandbox(schema_s1, lam)
    assert len(sandbox) == 7
    assert Triple(lam, CARRIED_BY, lam) in sandbox
    assert Triple(lam, OBSERVED_PROPERTY, CO_LEVEL) in sandbox
    assert is_instance(sandbox, schema_s1.graph_part())


def test_sandbox_of_ground_schema_is_itself():
    s = TriplestoreSchema.of([Triple(A, P, B)], set())
    assert build_sandbox(s).triples == {Triple(A, P, B)}


def test_sandbox_subset_of_critical(schema_s1, rules_r1):
    for rule in rules_r1:
        lam = lambda_for(schema_s1, rule)
        assert build_sandbox(schema_s1, lam).triples <= build_critical(schema_s1, rule, lam).triples


def test_critical_contains_cross_constant_triple(schema_s1, rules_r1):
    r2 = rules_r1[1]
    lam = lambda_for(schema_s1, r2)
    critical = build_critical(schema_s1, r2, lam)
    assert Triple(lam, HAS_RESULT, OFF_LIMIT_AREA) in critical


def test_critical_of_ground_schema_is_schema_graph():
    s = TriplestoreSchema.of([Triple(A, P, B)], set())
    rule = InferenceRule.of([Triple(var("x"), P, var("y"))], [Triple(var("x"), P, var("y"))])
    assert build_critical(s, rule).triples == {Triple(A, P, B)}


def test_critical_literal_case_split():
    s = TriplestoreSchema.of([Triple(var("x"), P, var("y"))], {"x"})
    rule = InferenceRule.of([Triple(var("u"), P, A)], [Triple(var("u"), P, A)])
    # constants: P, A from schema/rule plus the literal below
    s2 = TriplestoreSchema.of(
        [Triple(var("x"), P, var("y")), Triple(var("z"), P, lit("l"))], {"x", "z"}
    )
    lam = lambda_for(s2, rule)
    critical = build_critical(s2, rule, lam)
    objects_of_wildcard = {
        t.o for t in critical if t.s in (A, lam) or True
    }
    # subjects never take the literal
    assert all(t.s.is_iri for t in critical)
    assert Triple(lam, P, lit("l")) in critical


def test_critical_budget_guard():
    patterns = [Triple(var(f"s{i}"), iri(f"urn:c:p{i}"), var(f"o{i}")) for i in range(4)]
    delta = {f"s{i}" for i in range(4)}
    s = TriplestoreSchema.of(patterns, delta)
    rule = InferenceRule.of(
        [Triple(var("x"), iri("urn:c:p0"), var("y"))],
        [Triple(var("x"), iri("urn:c:q"), var("y"))],
    )
    with pytest.raises(CriticalInstanceTooLargeError):
        build_critical(s, rule, triple_budget=10)


def test_find_origin_patterns(schema_s1):
    lam = lambda_for(schema_s1)
    assert find_origin_patterns(Triple(lam, CARRIED_BY, lam), schema_s1) == {
        Triple(var("v5"), CARRIED_BY, var("v6"))
    }
    # literal object: only the no-literal-free pattern qualifies
    assert find_origin_patterns(Triple(lam, HAS_RESULT, lit("1")), schema_s1) == {
        Triple(var("v9"), HAS_RESULT, var("v10"))
    }
    strict = TriplestoreSchema.of([Triple(var("a"), HAS_RESULT, var("b"))], {"a", "b"})
    assert find_origin_patterns(Triple(lam, HAS_RESULT, lit("1")), strict) == set()


def test_overlapping_origins_both_returned():
    s = TriplestoreSchema.of(
        [Triple(var("x"), P, A), Triple(var("u"), P, var("w"))], {"x", "u", "w"}
    )
    lam = lambda_for(s)
    assert find_origin_patterns(Triple(lam, P, A), s) == s.graph


# --- filtering --------------------------------------------------------------


def test_filtering_trace_for_r2(schema_s1, rules_r1):
    """The literal-"1" antecedent triple of r2 survives because the result
    pattern permits literals, and both bound variables stay no-literal."""
    r2 = rules_r1[1]
    lam = lambda_for(schema_s1, r2)
    sandbox = build_sandbox(schema_s1, lam)
    mappings = evaluate_union_query(r2.antecedent, lam, sandbox)
    assert mappings == {Mapping.of({"v1": lam, "v2": lam})}
    (m,) = mappings
    fm = filter_and_annotate(m, r2.antecedent, r2.consequent, schema_s1, lam)
    assert fm is not None
    assert fm.temp_no_literal == {"v1", "v2"}


def test_filtering_rejects_subject_literal():
    s = TriplestoreSchema.of([Triple(var("x"), P, var("y"))], {"x"})
    rule = InferenceRule.of(
        [Triple(var("u"), P, var("w"))],
        [Triple(var("w"), P, var("u"))],  # w lands in subject position
    )
    lam = lambda_for(s, rule)
    m = Mapping.of({"u": lam, "w": lit("1")})
    fm = filter_and_annotate(m, rule.antecedent, rule.consequent, s, lam)
    assert fm is None


def test_filtering_literal_value_needs_permitting_origin():
    strict = TriplestoreSchema.of([Triple(var("x"), P, var("y"))], {"x", "y"})
    rule = InferenceRule.of([Triple(var("u"), P, lit("1"))], [Triple(var("u"), RDF_TYPE, A)])
    lam = lambda_for(strict, rule)
    critical = build_critical(strict, rule, lam)
    # the literal never enters the critical instance, so no mapping exists at all
    out, applicable = basic_consequence(strict, rule, CRITICAL)
    assert not applicable
    # in score mode the rewriting matches via the placeholder but filtering rejects
    out, applicable = basic_consequence(strict, rule, SCORE)
    assert not applicable


def test_all_iri_rule_passes_with_seed_delta_only(schema_s1):
    rule = InferenceRule.of(
        [Triple(var("a"), RDF_TYPE, PERSONNEL_TAG)],
        [Triple(var("a"), RDF_TYPE, PERSONNEL_TAG)],
    )
    lam = lambda_for(schema_s1, rule)
    m = Mapping.of({"a": lam})
    fm = filter_and_annotate(m, rule.antecedent, rule.consequent, schema_s1, lam)
    assert fm is not None and fm.temp_no_literal == {"a"}


# --- expansion through basic consequence ------------------------------------


def _new_patterns(before: TriplestoreSchema, after: TriplestoreSchema) -> set[Triple]:
    return set(after.graph) - set(before.graph)


def test_r2_expansion_adds_offlimit_typing(schema_s1, rules_r1):
    out, applicable = basic_consequence(schema_s1, rules_r1[1], SCORE)
    assert applicable
    new = _new_patterns(schema_s1, out)
    assert len(new) == 1
    (pattern,) = new
    assert pattern.p == RDF_TYPE and pattern.o == OFF_LIMIT_AREA
    assert pattern.s.is_variable and pattern.s.lexical in out.no_literal


def test_r1_expansion_uses_fresh_variable_per_occurrence(schema_s1, rules_r1):
    out, applicable = basic_consequence(schema_s1, rules_r1[0], SCORE)
    assert applicable
    new = _new_patterns(schema_s1, out)
    # v2 occurs twice in the consequent and v3 once: three distinct fresh
    # variables across the two new patterns
    typing = [t for t in new if t.p == RDF_TYPE and t.o == PERSONNEL_TAG]
    located = [t for t in new if t.p == IS_LOCATED_IN]
    assert len(typing) == 1 and len(located) == 1
    fresh_vars = {t.s.lexical for t in typing} | {located[0].s.lexical, located[0].o.lexical}
    assert len(fresh_vars) == 3
    assert fresh_vars <= out.no_literal


def test_ground_consequent_added_verbatim():
    s = TriplestoreSchema.of([Triple(var("x"), P, var("y"))], {"x"})
    rule = InferenceRule.of([Triple(var("u"), P, var("w"))], [Triple(A, RDF_TYPE, B)])
    out, applicable = basic_consequence(s, rule, SCORE)
    assert applicable
    assert _new_patterns(s, out) == {Triple(A, RDF_TYPE, B)}
    assert out.no_literal == s.no_literal


def test_unmatched_rule_is_not_applicable(schema_s1):
    rule = InferenceRule.of(
        [Triple(var("x"), iri("urn:c:nosuch"), var("y"))],
        [Triple(var("x"), P, var("y"))],
    )
    out, applicable = basic_consequence(schema_s1, rule, SCORE)
    assert not applicable
    assert out.graph == schema_s1.graph


def test_score_equals_critical_on_running_example(schema_s1, rules_r1):
    for rule in rules_r1:
        left, _ = basic_consequence(schema_s1, rule, SCORE)
        right, _ = basic_consequence(schema_s1, rule, CRITICAL)
        assert schema_equivalent(left, right), rule.name


# --- full consequence -------------------------------------------------------


def test_simple_consequence_of_running_example(schema_s1, rules_r1):
    out = simple_schema_consequence(schema_s1, rules_r1, SCORE)
    preds = {t.p for t in out.graph}
    assert IS_LOCATED_IN in preds and IS_TRESPASSING_IN in preds
    assert any(t.p == RDF_TYPE and t.o == OFF_LIMIT_AREA for t in out.graph)
    assert not out.existentials
    # the original schema is still modelled
    assert schema_contains(schema_s1, out)
    report = simple_schema_consequence_report(schema_s1, rules_r1, SCORE)
    assert report.rounds == 3
    # no placeholder leaks into the output
    lam = lambda_for(schema_s1, *rules_r1)
    assert lam not in {c for t in out.graph for c in t if c.is_constant}


def test_simple_consequence_trivia(schema_s1, rules_r1):
    fixed = simple_schema_consequence(schema_s1, [], SCORE)
    assert schema_equivalent(fixed, schema_s1.graph_part())
    once = simple_schema_consequence(schema_s1, rules_r1, SCORE)
    twice = simple_schema_consequence(once, rules_r1, SCORE)
    assert schema_equivalent(once, twice)


def test_output_delta_covers_subject_predicate_positions(schema_s1, rules_r1):
    out = simple_schema_consequence(schema_s1, rules_r1, SCORE)
    for t in out.graph:
        for term in (t.s, t.p):
            if term.is_variable:
                assert term.lexical in out.no_literal


def test_applicable_rules_running_example(schema_s1, rules_r1):
    assert applicable_rules(schema_s1, rules_r1) == {"r1", "r2", "r3"}
    r3 = rules_r1[2]
    assert applicable_rules(schema_s1, [r3]) == frozenset()
    assert applicable_rules(schema_s1, []) == frozenset()


def test_fired_reports_rules_by_position(schema_s1, rules_r1):
    # Two rules sharing a name are still two rules.
    rules = [replace(rules_r1[0], name=""), replace(rules_r1[1], name=""), rules_r1[2]]
    report = simple_schema_consequence_report(schema_s1, rules)
    assert report.fired == (0, 1, 2)
    assert report.applicable_rules == {"", "r3"}
    assert simple_schema_consequence_report(schema_s1, [rules_r1[2]]).fired == ()


# --- the shared-sandbox fixpoint against one basic consequence per rule ------


def per_rule_fixpoint(schema, rules, mode=SCORE):
    """The fixpoint as one basic consequence per rule per round, each over
    its own canonical instance, with the round's union normalised."""
    fresh = FreshNames()
    fresh.observe(schema.graph)
    for r in rules:
        fresh.observe(r.antecedent)
        fresh.observe(r.consequent)
    lam = lambda_for(schema, *rules)
    current = normalize_schema(schema.graph_part())
    applicable: set[str] = set()
    rounds = 0
    while True:
        rounds += 1
        patterns = set(current.graph)
        no_literal = set(current.no_literal)
        for rule in rules:
            out, fired = basic_consequence(current, rule, mode, lam=lam, fresh=fresh)
            patterns |= out.graph
            no_literal |= out.no_literal
            if fired:
                applicable.add(rule.name)
        merged = normalize_schema(TriplestoreSchema.of(patterns, no_literal))
        if merged.graph == current.graph and merged.no_literal == current.no_literal:
            return serialize_schema(current), frozenset(applicable), rounds
        current = merged


def assert_matches_per_rule_fixpoint(schema, rules, mode=SCORE):
    report = simple_schema_consequence_report(schema, rules, mode)
    got = (serialize_schema(report.schema), report.applicable_rules, report.rounds)
    assert got == per_rule_fixpoint(schema, rules, mode)
    return report


U = iri("urn:c:u")
Q = iri("urn:c:q")
R = iri("urn:c:r")
VOCAB = [A, P, Q]
LITS = [lit("1"), lit("2")]
EXAMPLES = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@st.composite
def small_schemas(draw, max_size=6):
    """Schemas over a tiny vocabulary, so rules match and chain; variables
    may stand in every position, and object variables are drawn both
    no-literal and literal-allowed."""
    patterns: list[Triple] = []
    no_literal: set[str] = set()
    for i in range(draw(st.integers(1, max_size))):
        terms = []
        for pos in range(3):
            kind = draw(st.sampled_from(["var", "iri", "lit"] if pos == 2 else ["var", "iri"]))
            if kind == "var":
                name = f"s{i}_{pos}"
                terms.append(var(name))
                if pos < 2 or draw(st.booleans()):
                    no_literal.add(name)
            else:
                terms.append(draw(st.sampled_from(VOCAB if kind == "iri" else LITS)))
        patterns.append(Triple(*terms))
    return TriplestoreSchema.of(patterns, no_literal)


@st.composite
def small_rules(draw, max_rules=3):
    """Rules whose antecedents use variables and constants in every position
    and whose consequents reuse the antecedent's variables."""
    rules = []
    rule_vars = [var("x"), var("y"), var("z")]
    for i in range(draw(st.integers(1, max_rules))):
        antecedent = []
        for _ in range(draw(st.integers(1, 2))):
            s = draw(st.sampled_from(rule_vars + [A]))
            p = draw(st.sampled_from(rule_vars + [P, Q]))
            o = draw(st.sampled_from(rule_vars + [A] + LITS))
            antecedent.append(Triple(s, p, o))
        bound = sorted({term for t in antecedent for term in t if term.is_variable}, key=str)
        consequent = []
        for _ in range(draw(st.integers(1, 2))):
            s = draw(st.sampled_from(bound + [A]))
            o = draw(st.sampled_from([t for t in bound if t != s] + [A] + LITS))
            consequent.append(Triple(s, draw(st.sampled_from([P, Q, U])), o))
        rules.append(InferenceRule.of(antecedent, consequent, name=f"h{i}"))
    return rules


@EXAMPLES
@given(small_schemas(), small_rules())
def test_shared_sandbox_fixpoint_matches_per_rule_fixpoint(schema, rules):
    assert_matches_per_rule_fixpoint(schema, rules)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(small_schemas(max_size=3), small_rules(max_rules=2))
def test_critical_fixpoint_matches_per_rule_fixpoint(schema, rules):
    assert_matches_per_rule_fixpoint(schema, rules, CRITICAL)


def test_shared_sandbox_fixpoint_on_generated_problems():
    for g in range(20):
        schema, rules = generate(GeneratorConfig(0.1, 60, 50, 50, 50, 10, 0, 3, g))
        assert_matches_per_rule_fixpoint(schema, rules)


def test_shared_sandbox_fixpoint_on_running_example(schema_s1):
    assert assert_matches_per_rule_fixpoint(schema_s1, mine_rules()).rounds == 3


def test_literal_verdict_changes_on_an_old_sandbox_triple():
    # Round 1 adds `:a :p ?v` with literals allowed; it shares the sandbox
    # triple (:a :p λ) with the no-literal `:a :p ?x`, so only round 2 sees
    # that r2 may copy a literal object, through a triple that is not new.
    schema = TriplestoreSchema.of([Triple(A, P, var("x")), Triple(var("u"), R, var("w"))], {"x", "u"})
    r1 = InferenceRule.of([Triple(var("s"), R, var("o"))], [Triple(A, P, var("o"))], name="r1")
    r2 = InferenceRule.of([Triple(var("s"), P, var("o"))], [Triple(var("s"), Q, var("o"))], name="r2")
    out = assert_matches_per_rule_fixpoint(schema, [r1, r2])
    assert out.rounds == 3
    (qt,) = [t for t in out.schema.graph if t.p == Q]
    assert qt.s == A and qt.o.is_variable and qt.o.lexical not in out.schema.no_literal


def test_one_sandbox_per_round(monkeypatch, schema_s1, rules_r1):
    builds = []
    real = consequence.build_sandbox

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(consequence, "build_sandbox", counting)
    report = simple_schema_consequence_report(schema_s1, rules_r1, SCORE)
    assert len(builds) == report.rounds == 3
    builds.clear()
    simple_schema_consequence_report(schema_s1, rules_r1, CRITICAL)
    assert builds == []


# --- one matching step: surviving_mappings, origins from the ground image ----


def per_variant_origins(t, schema):
    """Origins by a scan of the schema, with the positionwise literal test
    written out rather than through ``triple_instantiates``."""
    delta = schema.no_literal
    return {
        pattern
        for pattern in schema.graph
        if all(
            p_term == value
            if p_term.is_constant
            else not value.is_literal or (pos == 2 and p_term.lexical not in delta)
            for pos, (p_term, value) in enumerate(zip(pattern, t))
        )
    }


def per_variant_filter(m, antecedent, consequent, schema, mode, lam, canonical):
    """filter_and_annotate with origins taken from the images of each
    antecedent triple's own placeholder variants."""
    antecedent = sorted(antecedent, key=Triple.sort_key)
    consequent = sorted(consequent, key=Triple.sort_key)
    delta_m = set()
    for t in list(antecedent) + list(consequent):
        for term in (t.s, t.p):
            if term.is_variable:
                delta_m.add(term.lexical)

    for t_a in antecedent:
        if mode == CRITICAL:
            candidates = [t_a]
        else:
            candidates = lambda_variants(t_a, lam)
        origins = set()
        for t_q in candidates:
            image = m.apply_triple(t_q)
            if image in canonical:
                origins |= per_variant_origins(image, schema)

        obj = t_a.o
        value = m.apply_term(obj)
        if value.is_literal:
            permitted = any(
                o.o == value or (o.o.is_variable and o.o.lexical not in schema.no_literal)
                for o in origins
            )
            if not permitted:
                return None
        elif obj.is_variable and value == lam:
            if not any(o.o.is_variable and o.o.lexical not in schema.no_literal for o in origins):
                delta_m.add(obj.lexical)

    for name in sorted(delta_m):
        bound = m.get(name)
        if bound is not None and bound.is_literal:
            return None
    return FilteredMapping(m, frozenset(delta_m))


def canonical_and_mappings(schema, rule, mode, lam):
    if mode == SCORE:
        sandbox = build_sandbox(schema, lam)
        return sandbox, evaluate_union_query(rule.antecedent, lam, sandbox)
    critical = build_critical(schema, rule, lam)
    return critical, evaluate_bgp(rule.antecedent, critical)


@EXAMPLES
@given(small_schemas(), small_rules(max_rules=1), st.sampled_from([SCORE, CRITICAL]))
def test_ground_image_origins_match_per_variant_origins(schema, rules, mode):
    (rule,) = rules
    lam = lambda_for(schema, rule)
    canonical, mappings = canonical_and_mappings(schema, rule, mode, lam)
    for m in mappings:
        expected = per_variant_filter(m, rule.antecedent, rule.consequent, schema, mode, lam, canonical)
        assert filter_and_annotate(m, rule.antecedent, rule.consequent, schema, lam) == expected
    for t in canonical:
        assert find_origin_patterns(t, schema) == per_variant_origins(t, schema)


@EXAMPLES
@given(small_schemas(), small_rules(max_rules=1), st.sampled_from([SCORE, CRITICAL]))
def test_surviving_mappings_is_evaluate_sort_and_filter(schema, rules, mode):
    (rule,) = rules
    lam = lambda_for(schema, rule)
    canonical, mappings = canonical_and_mappings(schema, rule, mode, lam)
    expected = []
    for m in sorted(mappings, key=Mapping.sort_key):
        fm = per_variant_filter(m, rule.antecedent, rule.consequent, schema, mode, lam, canonical)
        if fm is not None:
            expected.append(fm)
    got = surviving_mappings(rule.antecedent, rule.consequent, schema, mode, lam, canonical)
    assert list(got) == expected


def test_variable_predicate_schema_matches_through_a_placeholder_predicate():
    schema = TriplestoreSchema.of([Triple(var("s"), var("p"), var("o"))], {"s", "p"})
    rule = InferenceRule.of([Triple(var("x"), P, var("y"))], [Triple(var("y"), Q, var("x"))], name="r")
    lam = lambda_for(schema, rule)
    sandbox = build_sandbox(schema, lam)
    assert sandbox == Graph([Triple(lam, lam, lam)])
    (fm,) = surviving_mappings(rule.antecedent, rule.consequent, schema, SCORE, lam, sandbox)
    assert fm.mapping == Mapping.of({"x": lam, "y": lam})
    assert fm.temp_no_literal == {"x", "y"}
    out, applicable = basic_consequence(schema, rule)
    assert applicable and len(out.graph) == 2


def test_unknown_mode_raises_before_any_instance_is_built(monkeypatch, schema_s1, rules_r1):
    built = []
    monkeypatch.setattr(consequence, "build_critical", lambda *a, **k: built.append(a))
    monkeypatch.setattr(consequence, "build_sandbox", lambda *a, **k: built.append(a))
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        basic_consequence(schema_s1, rules_r1[0], mode="bogus")
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        simple_schema_consequence_report(schema_s1, rules_r1, mode="bogus")
    assert built == []


@pytest.mark.parametrize("mode", [SCORE, CRITICAL])
def test_origins_are_looked_up_once_per_antecedent_triple_on_its_image(monkeypatch, mode, schema_s1, rules_r1):
    looked_up = []
    real = consequence.find_origin_patterns

    def recording(t, schema):
        looked_up.append(t)
        return real(t, schema)

    monkeypatch.setattr(consequence, "find_origin_patterns", recording)
    for rule in rules_r1:
        lam = lambda_for(schema_s1, rule)
        canonical, mappings = canonical_and_mappings(schema_s1, rule, mode, lam)
        for m in mappings:
            looked_up.clear()
            filter_and_annotate(m, rule.antecedent, rule.consequent, schema_s1, lam)
            assert looked_up == [m.apply_triple(t_a) for t_a in rule.sorted_antecedent()]
