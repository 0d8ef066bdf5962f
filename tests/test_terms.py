from __future__ import annotations

import pytest

from schemaforge import (
    FreshNames,
    Graph,
    Mapping,
    SchemaError,
    Term,
    Triple,
    iri,
    is_valid_rdf_graph,
    lit,
    var,
)
from schemaforge.terms import is_valid_pattern, is_valid_triple, pattern_consts, pattern_vars

A = iri("urn:t:a")
B = iri("urn:t:b")
C = iri("urn:t:c")
P = iri("urn:t:p")


def test_term_equality_is_structural():
    assert iri("urn:t:a") == A
    assert iri("urn:t:a") != lit("urn:t:a")
    assert hash(iri("urn:t:a")) == hash(A)
    assert var("x") == var("x")


def test_empty_lexical_rejected():
    with pytest.raises(SchemaError):
        iri("")
    with pytest.raises(SchemaError):
        Term("bogus", "x")


def test_substitution_replaces_bound_and_keeps_unbound():
    pattern = {Triple(var("v1"), P, var("v2"))}
    out = Mapping.of({"v1": B}).apply(pattern)
    assert out == {Triple(B, P, var("v2"))}


def test_empty_substitution_is_identity():
    pattern = frozenset({Triple(var("v"), P, A), Triple(A, P, B)})
    assert Mapping().apply(pattern) == pattern


def test_substitution_may_produce_invalid_triple():
    out = Mapping.of({"v": lit("1")}).apply({Triple(var("v"), P, A)})
    (t,) = out
    assert not is_valid_triple(t)
    assert not is_valid_rdf_graph(out)


def test_graph_validity_cases():
    assert is_valid_rdf_graph([Triple(A, P, lit("1"))])
    assert not is_valid_rdf_graph([Triple(lit("1"), P, A)])
    assert not is_valid_rdf_graph([Triple(A, lit("p"), B)])


def test_pattern_validity():
    assert is_valid_pattern(Triple(var("s"), var("p"), lit("1")))
    assert not is_valid_pattern(Triple(lit("1"), P, A))
    assert not is_valid_pattern(Triple(A, lit("p"), var("o")))


def test_vars_and_consts():
    a1 = {Triple(var("v3"), A, var("v4")), Triple(var("v3"), B, C)}
    assert pattern_vars(a1) == {"v3", "v4"}
    assert pattern_consts(a1) == {A, B, C}
    assert (pattern_vars([]), pattern_consts([])) == (set(), set())
    ground = [Triple(A, P, B)]
    assert (pattern_vars(ground), pattern_consts(ground)) == (set(), {A, P, B})


def test_graph_rejects_invalid_and_deduplicates():
    g = Graph([Triple(A, P, B), Triple(A, P, B)])
    assert len(g) == 1
    with pytest.raises(SchemaError):
        Graph([Triple(lit("1"), P, A)])


def test_graph_match_lookup():
    g = Graph([Triple(A, P, B), Triple(B, P, C), Triple(A, P, C)])
    assert set(g.match(A, None, None)) == {Triple(A, P, B), Triple(A, P, C)}
    assert set(g.match(None, P, C)) == {Triple(B, P, C), Triple(A, P, C)}
    assert g.match(C, None, None) == []


def test_fresh_names_avoid_observed_and_are_deterministic():
    reg = FreshNames()
    reg.observe([Triple(var("n1"), P, var("n2"))])
    first = reg.fresh_var()
    second = reg.fresh_var()
    assert first.lexical not in {"n1", "n2"}
    assert first != second

    reg2 = FreshNames()
    reg2.observe([Triple(var("n1"), P, var("n2"))])
    assert reg2.fresh_var() == first


def test_idempotent_substitution():
    s = Mapping.of({"x": A, "y": B})
    pattern = {Triple(var("x"), P, var("y")), Triple(var("z"), P, var("x"))}
    once = s.apply(pattern)
    assert s.apply(once) == once
