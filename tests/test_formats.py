"""Parsers and serialisers, including round trips of the shipped fixtures."""

from __future__ import annotations

from pathlib import Path

import pytest

from schemaforge import ParseError, lit
from schemaforge.formats import (
    parse_graph,
    parse_rules,
    parse_schema,
    parse_turtle,
    serialize_graph,
    serialize_rules,
    serialize_schema,
    serialize_turtle,
)
from schemaforge.terms import BNODE_NS, RDF_FIRST, RDF_NIL, RDF_REST

from conftest import mine_instance, mine_rules, mine_schema

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


def test_parse_graph_fixture_matches_inline_instance():
    graph, prefixes = parse_graph(DATA.joinpath("mine.instance.nt").read_text(), "mine.instance.nt")
    assert graph == mine_instance()
    assert prefixes[""] == "http://example.org/mine#"


def test_parse_rules_fixture_matches_inline_rules():
    rules, _ = parse_rules(DATA.joinpath("mine.rules.rq").read_text(), "mine.rules.rq")
    assert [r.name for r in rules] == ["r1", "r2", "r3"]
    for parsed, built in zip(rules, mine_rules()):
        assert parsed.antecedent == built.antecedent
        assert parsed.consequent == built.consequent


def test_parse_schema_fixture_matches_inline_schema():
    schema, _ = parse_schema(DATA.joinpath("mine.schema.txt").read_text(), "mine.schema.txt")
    built = mine_schema()
    assert schema.graph == built.graph
    assert schema.no_literal == built.no_literal
    assert schema.existentials == built.existentials


@pytest.mark.parametrize(
    "name,parse,serialize",
    [
        ("mine.instance.nt", parse_graph, serialize_graph),
        ("mine.schema.txt", parse_schema, serialize_schema),
        ("mine.shapes.ttl", parse_turtle, serialize_turtle),
    ],
)
def test_fixture_round_trips(name, parse, serialize):
    text = DATA.joinpath(name).read_text()
    value, prefixes = parse(text, name)
    again, _ = parse(serialize(value, prefixes), name + "(reserialised)")
    assert again == value


def test_rules_fixture_round_trips():
    text = DATA.joinpath("mine.rules.rq").read_text()
    rules, prefixes = parse_rules(text, "mine.rules.rq")
    again, _ = parse_rules(serialize_rules(rules, prefixes))
    assert again == rules


def test_literal_escapes_round_trip():
    g, _ = parse_graph('<urn:f:a> <urn:f:p> "line\\nbreak \\"quoted\\" tab\\t" .')
    (t,) = g
    assert t.o == lit('line\nbreak "quoted" tab\t')
    reparsed, _ = parse_graph(serialize_graph(g))
    assert reparsed == g


def test_semicolon_and_comma_groups():
    text = """
    @prefix ex: <urn:f:> .
    ex:s ex:p ex:a , ex:b ; ex:q "1" .
    """
    g, _ = parse_graph(text)
    assert len(g) == 3


def test_turtle_lists_and_bnodes():
    text = """
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix ex: <urn:f:> .
    ex:s1 a sh:NodeShape ; sh:in ( ex:a "1" ) ; sh:property [ sh:minCount 1 ; sh:path ex:p ] .
    """
    g, _ = parse_turtle(text)
    firsts = [t for t in g if t.p == RDF_FIRST]
    rests = [t for t in g if t.p == RDF_REST]
    assert len(firsts) == 2 and len(rests) == 2
    assert any(t.o == RDF_NIL for t in rests)
    bnode_subjects = {t.s for t in g if t.s.lexical.startswith(BNODE_NS)}
    assert bnode_subjects


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as err:
        parse_graph("<urn:a> <urn:p>\n<urn:x .", "broken.nt")
    assert "broken.nt" in str(err.value)
    with pytest.raises(ParseError):
        parse_graph("ex:a ex:p ex:b .")  # unknown prefix
    with pytest.raises(ParseError):
        parse_graph('"literal" <urn:p> <urn:o> .')  # literal subject
    with pytest.raises(ParseError):
        parse_schema("GRAPH { ?v <urn:p> <urn:o> . }")  # delta misses ?v


def test_duplicate_rule_names_rejected():
    block = "CONSTRUCT { ?a <urn:p> ?b . } WHERE { ?a <urn:q> ?b . }\n"
    with pytest.raises(ParseError) as err:
        parse_rules("# name: x\n" + block + "# name: x\n" + block, "dup.rq")
    assert str(err.value) == "dup.rq:4: duplicate rule name 'x'"
    rules, _ = parse_rules("# name: x\n" + block + "# name: y\n" + block)
    assert [r.name for r in rules] == ["x", "y"]


def test_variables_rejected_in_ground_graphs():
    with pytest.raises(ParseError):
        parse_graph("?x <urn:p> <urn:o> .")


def test_schema_sections_optional():
    schema, _ = parse_schema("GRAPH { <urn:a> <urn:p> <urn:b> . }")
    assert not schema.no_literal and not schema.existentials


def test_comments_inside_nolit_and_exists_blocks():
    text = (
        "GRAPH { ?s <urn:p> ?o . }\n"
        "NOLIT { # subject and object\n"
        "  ?s # the subject\n"
        "  ?o\n"
        "  # nothing more\n"
        "}\n"
        "EXISTS { # one rule\n"
        "  ?a <urn:p> ?b => ?b <urn:q> ?c ;\n"
        "  # a trailing comment\n"
        "}\n"
    )
    schema, _ = parse_schema(text)
    assert schema.no_literal == {"s", "o"}
    assert len(schema.existentials) == 1


def test_ill_formed_existential_rule_reports_its_own_line():
    text = (
        "GRAPH { ?s <urn:p> ?o . }\n"
        "NOLIT { ?s }\n"
        "EXISTS {\n"
        "  ?a <urn:p> ?b => ?b <urn:q> ?c ;\n"
        '  ?a <urn:p> ?b => "lit" <urn:q> ?c ;\n'
        "}\n"
    )
    with pytest.raises(ParseError) as err:
        parse_schema(text, "bad.schema")
    assert str(err.value).startswith("bad.schema:5: ")
