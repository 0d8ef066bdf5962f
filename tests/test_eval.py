"""Pattern evaluation, including the exhaustive-assignment oracle check."""

from __future__ import annotations

import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemaforge import (
    BudgetClock,
    BudgetExceededError,
    Graph,
    Mapping,
    Triple,
    build_lambda_rewriting,
    closure,
    evaluate_bgp,
    evaluate_union_query,
    iri,
    lit,
    var,
)
from schemaforge.existential import Rewriting, _homomorphism_exists
from schemaforge.terms import pattern_vars

from conftest import (
    O1,
    O2,
    PERSONNEL_TAG,
    RDF_TYPE,
    ROOM1,
    ROOM2,
    WID1,
    WID2,
    mine_instance,
    mine_rules,
)
from union_oracle import oracle_union_query

LAM = iri("urn:lambda:0")
PA = iri("urn:e:a")
PB = iri("urn:e:b")
PC = iri("urn:e:c")


def test_rule_antecedent_over_instance(instance_i1):
    r1 = mine_rules()[0]
    got = evaluate_bgp(r1.antecedent, instance_i1)
    assert got == {
        Mapping.of({"v1": O1, "v2": WID1, "v3": ROOM1}),
        Mapping.of({"v1": O2, "v2": WID2, "v3": ROOM2}),
    }


def test_ground_pattern_contained_yields_empty_mapping(instance_i1):
    got = evaluate_bgp([Triple(WID1, RDF_TYPE, PERSONNEL_TAG)], instance_i1)
    assert got == {Mapping()}


def test_unmatched_predicate_yields_no_mappings(instance_i1):
    assert evaluate_bgp([Triple(var("x"), iri("urn:e:nosuch"), var("y"))], instance_i1) == set()


def test_empty_pattern_yields_empty_mapping(instance_i1):
    assert evaluate_bgp([], instance_i1) == {Mapping()}


def test_repeated_variable_within_pattern():
    g = Graph([Triple(PA, PB, PA), Triple(PA, PB, PC)])
    got = evaluate_bgp([Triple(var("x"), PB, var("x"))], g)
    assert got == {Mapping.of({"x": PA})}


# --- lambda rewriting -------------------------------------------------------


def test_rewriting_expands_each_triple_into_eight():
    q = build_lambda_rewriting([Triple(var("v3"), PA, var("v4"))], LAM)
    (entry,) = q.entries
    assert len(entry.alternatives) == 8
    assert Triple(LAM, PA, var("v4")) in entry.alternatives
    assert Triple(var("v3"), LAM, var("v4")) in entry.alternatives
    assert Triple(LAM, LAM, LAM) in entry.alternatives


def test_rewriting_of_ground_triple():
    q = build_lambda_rewriting([Triple(PA, PB, PC)], LAM)
    (entry,) = q.entries
    expected = {
        Triple(s, p, o)
        for s in (PA, LAM)
        for p in (PB, LAM)
        for o in (PC, LAM)
    }
    assert set(entry.alternatives) == expected


def test_union_query_binds_all_source_variables():
    # A1 = {<?v3 :a ?v4>, <?v3 :b :c>} over its own sandbox image.
    a1 = [Triple(var("v3"), PA, var("v4")), Triple(var("v3"), PB, PC)]
    sandbox = Graph([Triple(LAM, PA, LAM), Triple(LAM, PB, PC)], validate=False)
    got = evaluate_union_query(a1, LAM, sandbox)
    assert Mapping.of({"v3": LAM, "v4": LAM}) in got


def test_union_query_contains_direct_matches(instance_i1):
    r1 = mine_rules()[0]
    direct = evaluate_bgp(r1.antecedent, instance_i1)
    assert direct <= evaluate_union_query(r1.antecedent, LAM, instance_i1)
    # the instance is placeholder-free, so the two are equal
    assert direct == evaluate_union_query(r1.antecedent, LAM, instance_i1)


def test_union_query_of_empty_antecedent():
    assert evaluate_union_query([], LAM, mine_instance()) == {Mapping()}


# --- enumeration oracle -----------------------------------------------------


def brute_force_bgp(patterns, graph: Graph) -> set[Mapping]:
    """All total assignments of the pattern's variables into the graph's
    terms whose image is a subset of the graph."""
    patterns = list(patterns)
    names = sorted(pattern_vars(patterns))
    universe = sorted({term for t in graph for term in t}, key=lambda t: t.sort_key())
    found = set()
    for combo in itertools.product(universe, repeat=len(names)):
        m = Mapping.of(dict(zip(names, combo)))
        if all(m.apply_triple(t) in graph for t in patterns):
            found.add(m)
    return found


def test_bgp_matches_enumeration_oracle_exhaustively_small():
    subjects = [PA, PB]
    objects = [PA, PB, lit("l")]
    preds = [iri("urn:e:p"), iri("urn:e:q")]
    space = [Triple(s, p, o) for s in subjects for p in preds for o in objects]
    patterns_under_test = [
        [Triple(var("x"), preds[0], var("y"))],
        [Triple(var("x"), preds[0], var("y")), Triple(var("y"), preds[1], var("z"))],
        [Triple(var("x"), preds[0], var("x"))],
        [Triple(PA, preds[1], var("y")), Triple(var("y"), preds[0], lit("l"))],
    ]
    for size in range(0, 3):
        for combo in itertools.combinations(space, size):
            g = Graph(combo)
            for patterns in patterns_under_test:
                assert evaluate_bgp(patterns, g) == brute_force_bgp(patterns, g)


def test_bgp_matches_enumeration_oracle_sampled():
    rng = random.Random(7)
    consts = [PA, PB, PC, lit("l")]
    preds = [iri("urn:e:p"), iri("urn:e:q")]
    space = [
        Triple(s, p, o)
        for s in consts
        if s.is_iri
        for p in preds
        for o in consts
    ]
    names = ["x", "y", "z"]
    for _ in range(300):
        g = Graph(rng.sample(space, rng.randint(0, 6)))
        patterns = []
        for _ in range(rng.randint(1, 3)):
            def pick_term(allow_lit):
                r = rng.random()
                if r < 0.5:
                    return var(rng.choice(names))
                pool = consts if allow_lit else [c for c in consts if c.is_iri]
                return rng.choice(pool)

            patterns.append(Triple(pick_term(False), rng.choice(preds), pick_term(True)))
        assert evaluate_bgp(patterns, g) == brute_force_bgp(patterns, g)


def test_join_order_does_not_change_results(instance_i1):
    r1 = mine_rules()[0]
    patterns = sorted(r1.antecedent, key=Triple.sort_key)
    expected = evaluate_bgp(patterns, instance_i1)
    for perm in itertools.permutations(patterns):
        assert evaluate_bgp(perm, instance_i1) == expected


def brute_force_union(query, graph: Graph) -> set[Mapping]:
    """The union, over every choice of one alternative per entry, of that
    choice's brute-force evaluation, keeping only total bindings: those
    over every variable of the source antecedent."""
    required = pattern_vars(entry.source for entry in query.entries)
    found = set()
    for choice in itertools.product(*(entry.alternatives for entry in query.entries)):
        if pattern_vars(choice) == required:
            found |= brute_force_bgp(choice, graph)
    return found


# Small terms for generated inputs: variables and constants in every
# position, the placeholder among the graph's terms, a literal in objects.
NAMES = ["x", "y", "z"]
GEN_IRIS = [PA, PB, PC]
GEN_LIT = lit("l")


def _pattern_terms(allow_literal: bool):
    consts = GEN_IRIS + ([GEN_LIT] if allow_literal else [])
    return st.sampled_from([var(n) for n in NAMES] + consts)


patterns = st.builds(Triple, _pattern_terms(False), _pattern_terms(False), _pattern_terms(True))
ground_triples = st.builds(
    Triple,
    st.sampled_from([PA, PB, LAM]),
    st.sampled_from([PA, LAM]),
    st.sampled_from([PA, PB, LAM, GEN_LIT]),
)
EXAMPLES = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@EXAMPLES
@given(st.lists(patterns, min_size=1, max_size=2), st.sets(ground_triples, max_size=5))
def test_union_query_matches_enumeration_oracle(antecedent, triples):
    graph = Graph(triples, validate=False)
    expected = brute_force_union(build_lambda_rewriting(antecedent, LAM), graph)
    assert evaluate_union_query(antecedent, LAM, graph) == expected


# Longer antecedents than the enumeration oracle can afford, against the
# disjunctive join over the placeholder variants. Four variable names over up to
# four triples, with few constants, repeat variables within and across
# triples and in predicate position; the placeholder may occur in the
# antecedent and in every position of a graph dense enough to match.
LONG_NAMES = ["x", "y", "z", "w"]


def _long_terms(allow_literal: bool):
    consts = [PA, LAM] + ([GEN_LIT] if allow_literal else [])
    return st.sampled_from([var(n) for n in LONG_NAMES] + consts)


long_patterns = st.builds(Triple, _long_terms(False), _long_terms(False), _long_terms(True))
placeholder_triples = st.builds(
    Triple,
    st.sampled_from([PA, PB, LAM]),
    st.sampled_from([PA, LAM]),
    st.sampled_from([PA, PB, LAM, GEN_LIT]),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    st.lists(long_patterns, min_size=0, max_size=4),
    st.sets(placeholder_triples, max_size=8),
)
def test_union_query_matches_disjunctive_join(antecedent, triples):
    graph = Graph(triples, validate=False)
    expected = oracle_union_query(build_lambda_rewriting(antecedent, LAM), graph)
    assert evaluate_union_query(antecedent, LAM, graph) == expected


def test_union_query_needs_one_choice_keeping_every_variable():
    # Under {x: :a, y: :c} the image (:a :p :c) holds the variant keeping
    # only y and the one keeping only x, but no variant keeping both: a
    # check per variable would wrongly accept it.
    p = iri("urn:e:p")
    graph = Graph([Triple(LAM, p, PC), Triple(PA, p, LAM)], validate=False)
    antecedent = [Triple(var("x"), p, var("y"))]
    expected = {Mapping.of({"x": PA, "y": LAM}), Mapping.of({"x": LAM, "y": PC})}
    assert evaluate_union_query(antecedent, LAM, graph) == expected
    assert oracle_union_query(build_lambda_rewriting(antecedent, LAM), graph) == expected


class CountingGraph(Graph):
    """A graph that counts its index lookups."""

    def __init__(self, triples):
        super().__init__(triples, validate=False)
        self.calls = 0

    def match(self, s, p, o):
        self.calls += 1
        return super().match(s, p, o)


def test_union_query_extends_each_binding_once_per_depth():
    # Each of the 16 triples matches both graph triples, so without the
    # per-depth memo the search tree doubles at every depth; with it, two
    # bindings ({} and {x: :a}) are extended per depth.
    p = iri("urn:e:p")
    graph = CountingGraph([Triple(PA, p, LAM), Triple(LAM, p, LAM)])
    ys = [f"y{i:02d}" for i in range(16)]
    antecedent = [Triple(var("x"), p, var(y)) for y in ys]
    got = evaluate_union_query(antecedent, LAM, graph)
    placeholders = {y: LAM for y in ys}
    assert got == {Mapping.of({**placeholders, "x": PA}), Mapping.of({**placeholders, "x": LAM})}
    assert graph.calls <= 200


def test_union_query_stops_on_an_expired_budget():
    # 1600 triples give more search nodes than the clock's check interval,
    # for one antecedent triple and for several.
    p = iri("urn:e:p")
    graph = Graph(
        [Triple(iri(f"urn:e:s{i}"), p, iri(f"urn:e:o{j}")) for i in range(40) for j in range(40)]
    )
    x, y, z, w = var("x"), var("y"), var("z"), var("w")
    for antecedent in ([Triple(x, p, y)], [Triple(x, p, y), Triple(z, p, w)]):
        with pytest.raises(BudgetExceededError):
            evaluate_union_query(antecedent, LAM, graph, BudgetClock(0))


def homomorphism_exists(src: frozenset[Triple], dst: frozenset[Triple]) -> bool:
    """The search's homomorphism test between two sets of patterns."""
    return _homomorphism_exists(Rewriting(src, 0), Rewriting(dst, 0))


def brute_force_homomorphism(src, dst) -> bool:
    """Some assignment of src's variables to dst's terms sends src into dst."""
    names = sorted(pattern_vars(src))
    universe = sorted({term for t in dst for term in t}, key=lambda t: t.sort_key())
    return any(
        Mapping.of(dict(zip(names, combo))).apply(src) <= dst
        for combo in itertools.product(universe, repeat=len(names))
    )


@EXAMPLES
@given(st.frozensets(patterns, max_size=3), st.frozensets(patterns, max_size=4))
def test_homomorphism_matches_assignment_search(src, dst):
    # src and dst draw on the same variable names: dst's variables are
    # frozen terms, never renamed by the homomorphism.
    assert homomorphism_exists(src, dst) == brute_force_homomorphism(src, dst)


def test_homomorphism_treats_target_variables_as_terms():
    x, y = var("x"), var("y")
    assert homomorphism_exists(frozenset({Triple(x, PA, x)}), frozenset({Triple(y, PA, y)}))
    assert not homomorphism_exists(frozenset({Triple(x, PA, x)}), frozenset({Triple(x, PA, y)}))
    assert not homomorphism_exists(frozenset({Triple(x, PA, PB)}), frozenset({Triple(x, PA, y)}))
    assert homomorphism_exists(frozenset(), frozenset())


def test_evaluation_leaves_no_garbage_cycles(instance_i1):
    # Reference cycles would keep indexed graphs alive until the cyclic
    # collector runs, which inflates peak memory over closure rounds.
    rules = mine_rules()
    src = frozenset(rules[0].antecedent)
    gc.collect()
    gc.disable()
    try:
        evaluate_bgp(rules[0].antecedent, instance_i1)
        evaluate_union_query(rules[0].antecedent, LAM, instance_i1)
        closure(instance_i1, rules)
        homomorphism_exists(src, src | frozenset(rules[1].antecedent))
        assert gc.collect() == 0
    finally:
        gc.enable()
