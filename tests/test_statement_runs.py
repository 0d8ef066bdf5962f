"""Statement runs against the character-by-character oracle.

The tokenizer folds one-line statements, ground or with variables,
separated only by whitespace into one run token. Where statements are
expected (the top level of graph and shape documents, the triple blocks of
rules and schemas) a run turns into triples in one loop; anywhere else it
is split into the tokens the character path makes of it. On texts whose runs are
broken by comments, prefix declarations, ``;``/``,`` continuations,
multi-line IRIs and literals, with LF or CRLF line ends and with a bad
statement (an unknown prefix, a bare-word literal subject, a variable in a
graph) at the first, a middle or the last statement of a run, every parser
must return what the oracle returns, or fail with its error text and line.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemaforge import formats
from schemaforge.generator import GeneratorConfig, generate

from test_statement_tokens import assert_as_oracle, outcome

EXAMPLES = settings(derandomize=True, database=None, max_examples=300, deadline=None)

HEADER = "@prefix ex: <urn:ex/> .{eol}@prefix : <urn:/> .{eol}"
GOOD = ["ex:a ex:b ex:c .", "<urn:s> a <urn:o> .", ':x ex:b "lit" .', "ex:a.b :x 12 .",
        'ex:a ex:b "a\\"b" .', "<urn:s>\t<urn:p> true ."]
# Pattern statements, with a variable in every position; each names its own
# variables, so that any one of them fits a schema graph.
GOOD_PATTERNS = ["?s1 ex:b ex:c .", "ex:a ?p2 ex:c .", ':x ex:b ?o3 .', "?s4 ?p5 ?o6 .",
                 '?s7\t<urn:p> "lit" .', "?s_8 a ?o_9."]
BAD = {
    "unknown prefix": "zz:a ex:b ex:c .",
    "bare-word literal subject": "12 ex:b ex:c .",
    "bare-word boolean subject": "true ex:b <urn:o> .",
    "unexpected word": "ex:a word ex:c .",
    "variable in a graph": "ex:a ex:b ?o .",
    "unknown prefix before a variable": "zz:a ?p ?o .",
}
BREAKS = {
    "comment": "# a comment",
    "prefix": "@prefix ex: <urn:other/> .",
    "semicolon": "ex:a ex:b ex:c ;{eol}  ex:d ex:e .",
    "comma": "ex:a ex:b ex:c , ex:d .",
    "multi-line IRI": "<urn:a{eol}b> ex:b ex:c .",
    "multi-line literal": 'ex:a ex:b "two{eol}lines" .',
    "escaped newline": 'ex:a ex:b "esc\\{eol}line" .',
}
FRAMES = {
    "top level": "{h}{b}{eol}",
    "rule blocks": "{h}# name: r{eol}CONSTRUCT {{{eol}{b}{eol}}} WHERE {{{eol}{b}{eol}}}{eol}",
    "schema graph": "{h}GRAPH {{{eol}{b}{eol}}}{eol}NOLIT {{ }}{eol}",
}


def run_text(eol: str, bad: str | None, at: int, length: int = 5) -> list[str]:
    lines = [GOOD[i % len(GOOD)] for i in range(length)]
    if bad is not None:
        lines[at] = bad
    return lines


def texts(eol: str, break_: str, bad: str | None, at: int) -> dict[str, str]:
    body = eol.join([*run_text(eol, bad, at), break_.format(eol=eol), *run_text(eol, None, 0)])
    return {name: frame.format(h=HEADER.format(eol=eol), b=body, eol=eol)
            for name, frame in FRAMES.items()}


def runs_in(text: str) -> list[int]:
    return [len(tok.statements) for tok in formats.tokenize(text) if tok.typ == "RUN"]


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("break_", list(BREAKS), ids=list(BREAKS))
def test_broken_runs_parse_as_the_oracle_parses(eol, break_):
    for bad, at in itertools.chain([(None, 0)], itertools.product(BAD.values(), (0, 2, 4))):
        for frame, text in texts(eol, BREAKS[break_], bad, at).items():
            # The statements before the break are one run of five.
            assert runs_in(text)[0] == 5, (frame, text)
            assert_as_oracle(text)


def test_a_bad_statement_fails_on_its_own_line_anywhere_in_a_run():
    for eol in ("\n", "\r\n"):
        for at in range(5):
            text = HEADER.format(eol=eol) + eol.join(run_text(eol, BAD["unknown prefix"], at)) + eol
            assert outcome(formats.parse_graph, text)[2] == f"t.txt:{3 + at}: unknown prefix 'zz:'"
            assert_as_oracle(text)


def test_a_variable_in_a_graph_fails_on_its_own_line_anywhere_in_a_run():
    for parse in (formats.parse_graph, formats.parse_turtle):
        for eol in ("\n", "\r\n"):
            for at in (0, 2, 4):
                for bad in ("?s ex:b ex:c .", "ex:a ?p ex:c .", BAD["variable in a graph"]):
                    text = HEADER.format(eol=eol) + eol.join(run_text(eol, bad, at)) + eol
                    assert runs_in(text) == [5]
                    message = f"t.txt:{3 + at}: variables are not allowed here"
                    assert outcome(parse, text)[2] == message, (parse.__name__, text)
                    assert_as_oracle(text)


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_pattern_runs_parse_as_the_oracle_parses(eol):
    nolit = "NOLIT {{ ?s1 ?p2 ?s4 ?p5 ?o6 ?s7 ?s_8 }}"
    frames = {**FRAMES,
              "schema with no-literal set": FRAMES["schema graph"].replace("NOLIT {{ }}", nolit)}
    for at in range(len(GOOD_PATTERNS)):
        # The first ``at`` statements are ground, the rest patterns.
        body = eol.join(GOOD[:at] + GOOD_PATTERNS[at:])
        for name, frame in frames.items():
            text = frame.format(h=HEADER.format(eol=eol), b=body, eol=eol)
            assert runs_in(text)[0] == len(GOOD_PATTERNS), (name, text)
            assert_as_oracle(text)
    # The schema frame with the no-literal set reads every pattern.
    text = frames["schema with no-literal set"].format(
        h=HEADER.format(eol=eol), b=eol.join(GOOD_PATTERNS), eol=eol
    )
    assert len(outcome(formats.parse_schema, text)[1][0].graph) == len(GOOD_PATTERNS)


@pytest.mark.parametrize("text", [
    # A variable name runs to its last word character: '?v2' is not '?v'
    # followed by the bare-word literal '2'.
    HEADER.format(eol="\n") + "GRAPH {\n  ?v2  :OffLimitArea .\n}\n",
    HEADER.format(eol="\n") + "?v2  :OffLimitArea .\n",
    HEADER.format(eol="\n") + "CONSTRUCT { ?v2  :OffLimitArea . } WHERE { }\n",
    # Variables read as one statement are still split into the no-literal set.
    HEADER.format(eol="\n") + "GRAPH { ?s :p ?x . :a ?y :b . }\nNOLIT { ?s ?x ?y . }\n",
    HEADER.format(eol="\n") + "GRAPH { ?s :p ?x . :a ?y :b . }\nNOLIT { ?s ?x ?y . ?z }\n",
], ids=["graph block", "top level", "rule block", "no-literal set", "no-literal set, more after"])
def test_variables_that_read_one_way_on_each_path(text):
    assert_as_oracle(text)


def test_the_graph_of_a_generated_schema_is_read_as_runs_only():
    config = GeneratorConfig(0.1, 150, 100, 100, 100, 4, 0, 2, 0)
    text = formats.serialize_schema(generate(config)[0])
    tokens = formats.tokenize(text)
    start = [tok.value for tok in tokens].index("GRAPH") + 2
    end = [tok.typ for tok in tokens].index("RBRACE")
    assert tokens[start - 1].typ == "LBRACE"
    assert {tok.typ for tok in tokens[start:end]} == {"RUN"}
    assert sum(len(tok.statements) for tok in tokens[start:end]) == 100


def test_a_run_spans_every_statement_between_breaks():
    text = "ex:a ex:b ex:c .\n\n  ex:a ex:b ex:d .ex:a ex:b ex:e .\r\n# c\nex:a ex:b ex:f .\n"
    tokens = formats.tokenize(text)
    assert [tok.typ for tok in tokens] == ["RUN", "COMMENT", "RUN", "EOF"]
    assert [line for _, line in tokens[0].statements] == [1, 3, 3]
    assert tokens[2].line == 5 and tokens[3].line == 6


lines = st.one_of(
    st.sampled_from(GOOD), st.sampled_from(GOOD_PATTERNS), st.sampled_from(list(BAD.values())),
    st.sampled_from(list(BREAKS.values())),
)


@given(st.lists(lines, min_size=1, max_size=12), st.sampled_from(["\n", "\r\n", " ", "\n\n"]),
       st.sampled_from(list(FRAMES.values())))
@EXAMPLES
def test_mixed_runs_parse_as_the_oracle_parses(parts, eol, frame):
    body = eol.join(part.format(eol=eol) for part in parts)
    assert_as_oracle(frame.format(h=HEADER.format(eol=eol), b=body, eol=eol))
