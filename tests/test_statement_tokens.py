"""Statement tokens, per-parse term sharing and the cached term writer.

The tokenizer reads one-line statements, ground or with variables, as one
run token and every other token with one expression, and the parser builds
one ``Term`` per distinct name of a parse. None of this may change what a
parse returns or how it fails: the tokens, with every run expanded, and
every parser are compared here with the character-by-character oracle in
``parse_oracle``, on statement-shaped texts and on the mutants of
``test_parser_fuzz``. The serialisers compact each distinct term once per
call, and must write what per-term ``compact_term`` writes.
"""

from __future__ import annotations

import itertools
import random
from unittest import mock

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from schemaforge import formats
from schemaforge.errors import ParseError
from schemaforge.formats import parse_graph, parse_rules, parse_schema, parse_turtle
from schemaforge.rules import InferenceRule
from schemaforge.schema import ExistentialRule, TriplestoreSchema
from schemaforge.terms import RDF_NS, RDF_TYPE, Graph, Triple, iri, lit, var

from parse_oracle import oracle_parse, tokenize as oracle_tokenize
from test_parser_fuzz import CASES, DATA, mutate

EXAMPLES = settings(derandomize=True, database=None, max_examples=400, deadline=None)

PARSERS = [parse_graph, parse_rules, parse_schema, parse_turtle]


def outcome(parse, text: str):
    """What a parse returns, or the type and text of what it raises."""
    try:
        return ("ok", parse(text, "t.txt"))
    except Exception as exc:  # noqa: BLE001 - any difference is a failure
        return ("raised", type(exc).__name__, str(exc))


def assert_as_oracle(text: str) -> None:
    for parse in PARSERS:
        expected = outcome(lambda t, s: oracle_parse(parse, t, s), text)
        assert outcome(parse, text) == expected, (parse.__name__, text)


# --- line numbers ------------------------------------------------------------


def test_lines_after_an_iri_spanning_a_newline():
    with pytest.raises(ParseError, match=r"^f\.nt:4: "):
        parse_graph("<urn:a\nb> <urn:p> <urn:o> .\n\n<urn:x> <urn:p> .", "f.nt")


def test_lines_after_an_escaped_newline_in_a_literal():
    with pytest.raises(ParseError, match=r"^f\.nt:3: "):
        parse_graph('<urn:a> <urn:p> "x\\\ny" .\n<urn:x> <urn:p> .', "f.nt")


# --- the differential oracle ---------------------------------------------------

TERMS = [
    "<urn:s>", "<urn:p>", "<urn:o>", "<>", "<urn:a\nb>", "<urn:x y>", "<a<b>",
    "ex:a", "ex:b", "ex:b.", "ex:a.b", "ex:a..b", "ex:", ":x", "ex:-_1", "zz:a",
    "-", "a", "true", "false", "12", "²", "word", "GRAPH", "CONSTRUCT", "WHERE",
    '"lit"', '""', '"a\\"b"', '"t\\tq\\\\"', '"two\nlines"', '"esc\\\nline"', '"\\q"',
    '"ex:a"', "?v", "?", "éx:ü", ".5", ".b",
]
# Terms that read as terms on every path, so that whole statements parse.
GOOD_NAMES = ["<urn:s>", "ex:a", "<urn:o>", "ex:b", "ex:a.b", ":x", "a", "ex:-_1"]
GOOD_OBJECTS = GOOD_NAMES + ["12", '"lit"', "true", '"a\\"b"', '"t\\tq\\\\"']
PREFIXES = ["@prefix ex: <urn:one/> .", "@prefix ex: <urn:two/> .", "@prefix : <urn:empty/> ."]
PUNCTUATION = PREFIXES + [
    ".", "..", ";", ",", "{", "}", "[", "]", "(", ")", "=>", "# note\n", "#\n",
    "@²", "@prefix ex <urn:x> .", "NOLIT", "EXISTS",
]
GAPS = [" ", "", "\t", "\n", " \n ", "\u00a0", "\r\n", "\x0b"]

gaps = st.sampled_from(GAPS)


def mostly(good: list[str]) -> st.SearchStrategy[str]:
    return st.one_of(*[st.sampled_from(good)] * 6, st.sampled_from(TERMS))


@st.composite
def statements(draw) -> str:
    """A statement of three terms, mostly well formed, a prefix declaration
    or token noise."""
    kind = draw(st.integers(0, 9))
    if kind == 9:
        parts = draw(st.lists(st.sampled_from(TERMS + PUNCTUATION), min_size=1, max_size=5))
        return draw(gaps).join(parts)
    if kind > 6:
        return draw(st.sampled_from(PREFIXES))
    s, p, o = draw(mostly(GOOD_NAMES)), draw(mostly(GOOD_NAMES)), draw(mostly(GOOD_OBJECTS))
    tail = draw(st.sampled_from([" .", ".", "\t.", " ;\n  ex:b ex:a .", " , <urn:o> .", ""]))
    return f"{s}{draw(gaps)}{p} {o}{tail}"


@st.composite
def texts(draw) -> str:
    """Statements at the top level, in rule blocks or in a schema GRAPH."""
    header = "" if draw(st.integers(0, 5)) == 5 else "@prefix ex: <urn:ex/> .\n@prefix : <urn:/> .\n"
    body = "\n".join(draw(st.lists(statements(), min_size=1, max_size=8)))
    other = "\n".join(draw(st.lists(statements(), max_size=3)))
    frame = draw(st.sampled_from(["{b}"] * 4 + ["CONSTRUCT {{ {b} }} WHERE {{ {o} }}",
                                  "# name: r\nCONSTRUCT {{\n{b}\n}} WHERE {{\n{o}\n}}",
                                  "GRAPH {{\n{b}\n}}\nNOLIT {{ }}", "GRAPH {{ {b} }} EXISTS {{ {o} }}"]))
    return header + frame.format(b=body, o=other) + draw(gaps)


@st.composite
def graph_texts(draw) -> str:
    """Well-formed graph texts: statements of good terms, one a line, with
    prefixes declared and redeclared between them."""
    header = "@prefix ex: <urn:ex/> .\n@prefix : <urn:/> .\n"
    names, objects = st.sampled_from(GOOD_NAMES), st.sampled_from(GOOD_OBJECTS)
    line = st.one_of(
        st.builds("{} {} {} .".format, names, names, objects), st.sampled_from(PREFIXES)
    )
    return header + "\n".join(draw(st.lists(line, min_size=1, max_size=10)))


@given(graph_texts())
@EXAMPLES
def test_well_formed_graphs_parse_as_the_oracle_parses(text):
    assert outcome(parse_graph, text)[0] == "ok"
    assert_as_oracle(text)


@given(texts())
@example("@prefix ex: <urn:one/> .\nex:a ex:b ex:c.\n@prefix ex: <urn:two/> .\nex:a ex:b ex:a.b .\n")
@example("ex:b.ex:a ex:a. <> <urn:p> <urn:o> .")
@example('<urn:s> a "x\\"y\\\\z\\n" .\n<urn:s> a "two\nlines" .\n@²')
@example("<urn:s> <urn:p> ?v .\n<urn:s> <urn:p> <urn:o> ..")
@example("- <urn:p> <urn:o> .\n")
@example("@prefix ex: <urn:ex/> .\nex:a ex:b .c .\n")
@example("<urn:s> <urn:p> <urn:o> ;\n <urn:q> <urn:o>, <urn:r> .\n")
@example("GRAPH <urn:p> <urn:o> .\n")
@example("<GRAPH> <urn:p> <urn:o> .\n")
@example("EXISTS { <urn:a> <urn:b> <urn:c> . }")
@example("# name: r\nCONSTRUCT { ex:a ex:b ex:c . } WHERE { ex:a ex:b ex:c }")
@EXAMPLES
def test_parsers_agree_with_the_oracle(text):
    assert_as_oracle(text)


@pytest.mark.parametrize("fixture", [name for _, name in CASES])
def test_parsers_agree_with_the_oracle_on_mutants(fixture):
    text = DATA.joinpath(fixture).read_text()
    rng = random.Random(0)
    for _ in range(500):
        assert_as_oracle(mutate(text, rng))


@pytest.mark.parametrize("parse", PARSERS)
def test_statement_texts_parse_as_well_as_fail(parse):
    """The generated texts reach both outcomes, so results are compared too."""
    for kind in ("ok", "raised"):
        find(texts(), lambda text: outcome(parse, text)[0] == kind,
             settings=settings(EXAMPLES, phases=[Phase.generate]))


def token_outcome(tokenize, text: str):
    """Each token's type, value and line, every run expanded into its
    parts, or the text of the ``ParseError`` raised."""
    try:
        tokens = tokenize(text, "t.txt")
    except ParseError as exc:
        return ("raised", str(exc))
    parts = [part for tok in tokens for part in (tok.parts() if tok.typ == "RUN" else [tok])]
    return [(tok.typ, tok.value, tok.line) for tok in parts]


@given(texts())
@example("@²")
@example('"open\nliteral')
@example("<urn:a\nb> ?\n")
@example("a =b")
@EXAMPLES
def test_tokens_agree_with_the_oracle(text):
    assert token_outcome(formats.tokenize, text) == token_outcome(oracle_tokenize, text)


@pytest.mark.parametrize("fixture", [name for _, name in CASES])
def test_tokens_agree_with_the_oracle_on_mutants(fixture):
    text = DATA.joinpath(fixture).read_text()
    rng = random.Random(0)
    for _ in range(200):
        mutant = mutate(text, rng)
        assert token_outcome(formats.tokenize, mutant) == token_outcome(oracle_tokenize, mutant), mutant


# --- one Term per name -----------------------------------------------------------


def test_a_parse_shares_one_term_per_name():
    text = DATA.joinpath("mine.instance.nt").read_text() + (
        "@prefix rdf: <%s> .\n:o1 rdf:type <%stype> .\n:o1 a <http://example.org/mine#o1> .\n"
        ':o1 :n "1", 1 .\n' % (RDF_NS, RDF_NS)
    )
    graph, _ = parse_graph(text, "mine.instance.nt")
    terms = [term for t in graph for term in t]
    assert len({id(term) for term in terms}) == len(set(terms))
    assert all(term is RDF_TYPE for term in terms if term == RDF_TYPE)


def test_rules_share_one_term_per_name():
    rules, _ = parse_rules(DATA.joinpath("mine.rules.rq").read_text(), "mine.rules.rq")
    terms = [term for r in rules for t in r.antecedent | r.consequent for term in t]
    assert len({id(term) for term in terms}) == len(set(terms))


# --- the cached term writer ----------------------------------------------------------

NAMESPACES = ["urn:ex/", "urn:ex/deep/", "urn:", "http://example.org/mine#"]
LOCALS = ["a", "b1", "x-y_z", "", "1st", "has space", "dot.ted", "é", "deep/a"]
LEXICALS = ["1", "plain", 'q"uote', "back\\slash", "new\nline", "tab\tbed", "urn:ex/a"]

prefix_maps = st.dictionaries(
    st.sampled_from(["", "ex", "e2", "m"]), st.sampled_from(NAMESPACES), max_size=4
)
constants = st.one_of(
    st.builds(lambda ns, local: iri(ns + local) if ns + local else RDF_TYPE,
              st.sampled_from(NAMESPACES + [""]), st.sampled_from(LOCALS)),
    st.just(RDF_TYPE),
    st.sampled_from([iri(RDF_NS + "first"), iri("other:thing")]),
    st.builds(lit, st.sampled_from(LEXICALS)),
)
subjects = constants.filter(lambda t: t.is_iri)
graphs = st.builds(Graph, st.lists(st.builds(Triple, subjects, subjects, constants), max_size=12))
patterns = st.builds(
    Triple,
    st.one_of(subjects, st.builds(var, st.sampled_from(["x", "y"]))),
    subjects,
    st.one_of(constants, st.builds(var, st.sampled_from(["z", "w"]))),
)


def schema_of(triples: list[Triple]) -> TriplestoreSchema:
    """A schema of the triples, each variable occurrence renamed apart."""
    names = itertools.count()

    def apart(term):
        return var(f"v{next(names)}") if term.is_variable else term

    graph = frozenset(Triple(*map(apart, t)) for t in triples)
    no_literal = frozenset(term.lexical for t in graph for term in t if term.is_variable)
    return TriplestoreSchema(graph, no_literal, frozenset({ExistentialRule(triples[0], triples[-1])}))


def per_term_writer(prefixes):
    return lambda term: formats.compact_term(term, prefixes)


def written_both_ways(serialize, value, prefixes):
    cached = serialize(value, prefixes)
    with mock.patch.object(formats, "_term_writer", per_term_writer):
        uncached = serialize(value, prefixes)
    return cached, uncached


@given(graphs, prefix_maps)
@EXAMPLES
def test_cached_writer_writes_graphs_as_compact_term(graph, prefixes):
    for serialize in (formats.serialize_graph, formats.serialize_turtle):
        cached, uncached = written_both_ways(serialize, graph, prefixes)
        assert cached == uncached
    for t in graph:
        assert formats.triple_str(t, prefixes) == " ".join(formats.compact_term(x, prefixes) for x in t)


@given(st.lists(patterns, min_size=1, max_size=8), prefix_maps)
@EXAMPLES
def test_cached_writer_writes_rules_and_schemas_as_compact_term(triples, prefixes):
    rules = [InferenceRule(frozenset(triples[:1]), frozenset(triples[:1]), "r1"),
             InferenceRule(frozenset(triples), frozenset(triples[-1:]), "r2")]
    cached, uncached = written_both_ways(formats.serialize_rules, rules, prefixes)
    assert cached == uncached
    cached, uncached = written_both_ways(formats.serialize_schema, schema_of(triples), prefixes)
    assert cached == uncached
