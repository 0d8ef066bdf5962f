"""Text formats for graphs, rules, schemas and SHACL shape documents.

All four formats share one tokenizer and one term grammar: IRIs are written
as prefixed names (``ex:thing``) or bracketed absolutes (``<urn:x>``),
literals as double-quoted strings (bare integers and ``true``/``false`` are
accepted and read as plain literals), variables as ``?name``, and ``a``
abbreviates ``rdf:type``. Prefixes are declared with ``@prefix name: <iri> .``
and expanded at parse time; serialisers compact IRIs back against the same
prefix map.

* graphs: one ground triple per statement, Turtle-style ``;``/``,``
  continuation allowed.
* rules: blocks of ``CONSTRUCT { ... } WHERE { ... }``, each optionally
  preceded by a ``# name: r1`` comment; rule names must be unique.
* schemas: three labelled sections, ``GRAPH { patterns }``,
  ``NOLIT { ?v ... }`` and ``EXISTS { pattern => pattern ; ... }``.
* shape documents: a Turtle subset with blank nodes (``[ ... ]``) and RDF
  lists (``( ... )``), both lowered to IRIs in reserved namespaces.

Where a statement can begin (at the start, or after '.', '{', a comment or
another statement), the tokenizer first tries one regular expression for a
one-line statement ``term term term .`` of IRIs, names, variables and, in
object position, literals. On a match it goes on matching statements for
as long as only whitespace separates them, and emits the whole run as one
token that keeps each statement's match groups and line; every other input
is read character by character. Where statements are expected (at the top
of a graph or shape document, and in a triple block) a run turns into its
triples in one loop, and a variable in a graph or shape document fails on
its statement's line. A parser that meets a run anywhere else, or looks
for a variable where one begins (a no-literal set such as ``?s ?x ?y .``),
splits it into the tokens the character path makes of it, so results,
error messages and error lines are the same either way. Data graphs are
almost all such statements, one long run between prefix declarations and
comments, and so are the pattern blocks of machine-written rules and
schemas.

One parse builds one :class:`Term` per distinct IRI, literal and variable,
shared by every triple it occurs in. Equality stays by value, so terms
from different parses, or built by hand, still compare and hash alike.
The serialisers compact each distinct term once per call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from .errors import ParseError
from .rules import InferenceRule
from .schema import ExistentialRule, TriplestoreSchema
from .terms import (
    BNODE_NS,
    Graph,
    RDF_FIRST,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    Term,
    Triple,
    iri,
    lit,
    var,
)

# --- tokenizer ---------------------------------------------------------------

_PUNCT = {
    ".": "DOT",
    ";": "SEMI",
    ",": "COMMA",
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACKET",
    "]": "RBRACKET",
}

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)

# A one-line statement ``term term term .``. Each position holds an IRI, a
# name or a variable, and the object may also be a literal. A name is what
# the character path reads as a prefixed name or bare word: a run of word
# characters and ``_-:.`` that neither begins nor ends with '.'; a variable
# is '?' and a run of word characters. The lookaheads stop a shorter name or
# variable from matching inside a longer one. Empty IRIs and literals, and
# '?' with no name, are left to the character path, which reports them.
_IRI = r"<([^>\n]+)>"
_NAME = r"([\w:-](?:[\w:.-]*[\w:-])?)(?!\.*[\w:-])"
_VAR = r"\?(\w+)(?!\w)"
_LITERAL = r'"((?:[^"\\\n]|\\.)+)"'
_GAP = r"[^\S\n]*"
_TERM = rf"(?:{_IRI}|{_NAME}|{_VAR})"
_STATEMENT = re.compile(
    rf"{_TERM}{_GAP}{_TERM}{_GAP}(?:{_IRI}|{_NAME}|{_LITERAL}|{_VAR}){_GAP}\."
)
# What may separate the statements of a run; ``\s`` is ``str.isspace``.
_SPACE = re.compile(r"\s*")


@dataclass(frozen=True)
class Token:
    typ: str
    value: str
    line: int


@dataclass(frozen=True)
class StatementRun(Token):
    """One-line statements separated only by whitespace, type ``RUN``: it
    stands for the tokens of each statement's three terms and closing '.',
    each on its statement's line. ``statements`` holds each statement's
    :data:`_STATEMENT` match groups (IRI, name or variable for subject and
    predicate, IRI, name, literal or variable for the object, unused ones
    None) and line. ``value`` and ``line`` are the first subject token's,
    so a message about the run names what the character path would have
    found there."""

    statements: tuple[tuple[tuple[str | None, ...], int], ...]

    def parts(self) -> list[Token]:
        """The tokens the character path makes of the statements."""
        tokens = []
        for groups, line in self.statements:
            s_iri, s_name, s_var, p_iri, p_name, p_var, o_iri, o_name, o_lit, o_var = groups
            tokens += (
                _term_token(s_iri, s_name, None, s_var, line),
                _term_token(p_iri, p_name, None, p_var, line),
                _term_token(o_iri, o_name, o_lit, o_var, line),
                Token("DOT", ".", line),
            )
        return tokens


def _term_token(
    iri_text: str | None, name: str | None, literal: str | None, variable: str | None, line: int
) -> Token:
    if iri_text is not None:
        return Token("IRIREF", iri_text, line)
    if name is not None:
        return Token("PNAME" if ":" in name else "WORD", name, line)
    if variable is not None:
        return Token("VAR", variable, line)
    return Token("STRING", _unescape(literal), line)


def _unescape(raw: str) -> str:
    if "\\" not in raw:
        return raw
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), raw)


def tokenize(text: str, source: str = "<string>") -> list[Token]:
    tokens: list[Token] = []
    i, n, line = 0, len(text), 1
    statement_may_begin = True  # at the start, after '.', '{', a comment or a statement
    match_statement, match_space = _STATEMENT.match, _SPACE.match
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if statement_may_begin and (c == "<" or c == "?" or c.isalnum() or c in "_-:"):
            m = match_statement(text, i)
            if m is not None:
                run = []
                while m is not None:
                    run.append((m.groups(), line))
                    j = m.end()
                    i = match_space(text, j).end()
                    line += text.count("\n", j, i)
                    m = match_statement(text, i)
                groups, first = run[0]
                subject = groups[0] or groups[1] or groups[2]
                tokens.append(StatementRun("RUN", subject, first, tuple(run)))
                continue
        statement_may_begin = c in ".{#"
        if c == "#":
            j = i
            while i < n and text[i] != "\n":
                i += 1
            tokens.append(Token("COMMENT", text[j + 1 : i].strip(), line))
            continue
        if c == "=" and i + 1 < n and text[i + 1] == ">":
            tokens.append(Token("ARROW", "=>", line))
            i += 2
            continue
        if c in _PUNCT:
            tokens.append(Token(_PUNCT[c], c, line))
            i += 1
            continue
        if c == "<":
            j = text.find(">", i + 1)
            if j < 0:
                raise ParseError("unterminated IRI", source, line)
            tokens.append(Token("IRIREF", text[i + 1 : j], line))
            line += text.count("\n", i + 1, j)
            i = j + 1
            continue
        if c == '"':
            out = []
            i += 1
            while i < n and text[i] != '"':
                ch = text[i]
                if ch == "\\":
                    i += 1
                    if i >= n:
                        break
                    esc = text[i]
                    if esc == "\n":
                        line += 1
                    out.append(_ESCAPES.get(esc, esc))
                else:
                    if ch == "\n":
                        line += 1
                    out.append(ch)
                i += 1
            if i >= n:
                raise ParseError("unterminated literal", source, line)
            i += 1
            tokens.append(Token("STRING", "".join(out), line))
            continue
        if c == "?":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise ParseError("empty variable name", source, line)
            tokens.append(Token("VAR", text[i + 1 : j], line))
            i = j
            continue
        if c == "@":
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(Token("AT", text[i + 1 : j], line))
            i = j
            continue
        # prefixed name, bare word or integer
        j = i
        while j < n and (text[j].isalnum() or text[j] in "_-:."):
            j += 1
        # a trailing dot is a statement terminator, not part of the name
        while j > i and text[j - 1] == ".":
            j -= 1
        if j == i:
            raise ParseError(f"unexpected character {c!r}", source, line)
        word = text[i:j]
        if ":" in word:
            tokens.append(Token("PNAME", word, line))
        else:
            tokens.append(Token("WORD", word, line))
        i = j
    tokens.append(Token("EOF", "", line))
    return tokens


# --- statement parser --------------------------------------------------------

# Terms the parser builds itself; seeded into every parse's IRI table.
_BUILT_IN = (RDF_TYPE, RDF_FIRST, RDF_REST, RDF_NIL)


@dataclass
class _Parser:
    """Parses a token list. Each distinct IRI, literal and variable of one
    parse becomes one :class:`Term` object, shared by every triple it occurs
    in; names are resolved once per prefix map."""

    tokens: list[Token]
    source: str
    prefixes: dict[str, str] = field(default_factory=dict)
    allow_vars: bool = False
    allow_bnodes: bool = False
    pos: int = 0
    extra_triples: list[Triple] = field(default_factory=list)
    _bnode_counter: int = 0
    _iris: dict[str, Term] = field(default_factory=lambda: {t.lexical: t for t in _BUILT_IN})
    _literals: dict[str, Term] = field(default_factory=dict)
    _variables: dict[str, Term] = field(default_factory=dict)
    _names: dict[str, Term] = field(default_factory=dict)  # emptied when a prefix is declared

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.typ == "RUN":
            tok = self.split_run()
        if tok.typ != "EOF":
            self.pos += 1
        return tok

    def split_run(self) -> Token:
        """Replace the run at the cursor by its parts, for a caller that
        reads it token by token; returns the first part."""
        tok = self.tokens[self.pos]
        self.tokens[self.pos : self.pos + 1] = tok.parts()
        return self.tokens[self.pos]

    def error(self, message: str, token: Token | None = None) -> ParseError:
        tok = token or self.peek()
        return ParseError(message, self.source, tok.line)

    def expect(self, typ: str, what: str) -> Token:
        tok = self.next()
        if tok.typ != typ:
            raise self.error(f"expected {what}, found {tok.value!r}", tok)
        return tok

    def skip_comments(self) -> None:
        while self.peek().typ == "COMMENT":
            self.next()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok.typ == "RUN" and tok.value == word:
            tok = self.split_run()
        return tok.typ == "WORD" and tok.value == word

    def parse_prefix_decl(self) -> None:
        self.next()  # AT token
        name_tok = self.expect("PNAME", "prefix name")
        if not name_tok.value.endswith(":"):
            raise self.error("prefix declaration must end with ':'", name_tok)
        iri_tok = self.expect("IRIREF", "namespace IRI")
        self.expect("DOT", "'.'")
        self.prefixes[name_tok.value[:-1]] = iri_tok.value
        self._names.clear()

    def iri(self, lexical: str) -> Term:
        term = self._iris.get(lexical)
        if term is None:
            term = self._iris[lexical] = iri(lexical)
        return term

    def literal(self, lexical: str) -> Term:
        term = self._literals.get(lexical)
        if term is None:
            term = self._literals[lexical] = lit(lexical)
        return term

    def name(self, name: str, line: int) -> Term:
        """A prefixed name or bare word read on ``line``."""
        term = self._names.get(name)
        if term is not None:
            return term
        if ":" in name:
            prefix, _, local = name.partition(":")
            if prefix not in self.prefixes:
                raise ParseError(f"unknown prefix {prefix + ':'!r}", self.source, line)
            term = self.iri(self.prefixes[prefix] + local)
        elif name == "a":
            term = RDF_TYPE
        elif name in ("true", "false") or name.isdigit():
            term = self.literal(name)
        else:
            raise ParseError(f"unexpected word {name!r}", self.source, line)
        self._names[name] = term
        return term

    def variable(self, name: str, line: int) -> Term:
        """The variable ``?name`` read on ``line``."""
        if not self.allow_vars:
            raise ParseError("variables are not allowed here", self.source, line)
        term = self._variables.get(name)
        if term is None:
            term = self._variables[name] = var(name)
        return term

    def fresh_bnode(self) -> Term:
        self._bnode_counter += 1
        return self.iri(f"{BNODE_NS}{self._bnode_counter}")

    def parse_term(self) -> Term:
        tok = self.next()
        if tok.typ == "IRIREF":
            if not tok.value:
                raise self.error("empty IRI", tok)
            return self.iri(tok.value)
        if tok.typ in ("PNAME", "WORD"):
            return self.name(tok.value, tok.line)
        if tok.typ == "STRING":
            if not tok.value:
                raise self.error("empty literal", tok)
            return self.literal(tok.value)
        if tok.typ == "VAR":
            return self.variable(tok.value, tok.line)
        if tok.typ == "LBRACKET":
            if not self.allow_bnodes:
                raise self.error("blank nodes are not allowed here", tok)
            node = self.fresh_bnode()
            if self.peek().typ != "RBRACKET":
                self.parse_predicate_object_list(node)
            self.expect("RBRACKET", "']'")
            return node
        if tok.typ == "LPAREN":
            if not self.allow_bnodes:
                raise self.error("lists are not allowed here", tok)
            items = []
            while self.peek().typ != "RPAREN":
                items.append(self.parse_term())
            self.next()  # RPAREN
            return self.make_list(items)
        raise self.error(f"expected a term, found {tok.value!r}", tok)

    def run_triples(self, run: StatementRun) -> list[Triple]:
        """The triples of a run's statements, in one loop. Terms resolve,
        and fail, as :meth:`parse_term` resolves them one by one; the term
        tables are probed inline, since nearly every name repeats."""
        iris, names, literals, variables = self._iris, self._names, self._literals, self._variables
        triples = []
        for groups, line in run.statements:
            s_iri, s_name, s_var, p_iri, p_name, p_var, o_iri, o_name, o_lit, o_var = groups
            if s_iri is not None:
                s = iris.get(s_iri) or self.iri(s_iri)
            elif s_name is not None:
                s = names.get(s_name) or self.name(s_name, line)
            else:
                s = variables.get(s_var) or self.variable(s_var, line)
            if p_iri is not None:
                p = iris.get(p_iri) or self.iri(p_iri)
            elif p_name is not None:
                p = names.get(p_name) or self.name(p_name, line)
            else:
                p = variables.get(p_var) or self.variable(p_var, line)
            if o_iri is not None:
                o = iris.get(o_iri) or self.iri(o_iri)
            elif o_name is not None:
                o = names.get(o_name) or self.name(o_name, line)
            elif o_lit is not None:
                o = literals.get(o_lit) if "\\" not in o_lit else None
                if o is None:
                    o = self.literal(_unescape(o_lit))
            else:
                o = variables.get(o_var) or self.variable(o_var, line)
            triples.append(Triple(s, p, o))
        return triples

    def make_list(self, items: list[Term]) -> Term:
        head: Term = RDF_NIL
        for item in reversed(items):
            node = self.fresh_bnode()
            self.extra_triples.append(Triple(node, RDF_FIRST, item))
            self.extra_triples.append(Triple(node, RDF_REST, head))
            head = node
        return head

    def parse_predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self.parse_term()
            while True:
                obj = self.parse_term()
                self.extra_triples.append(Triple(subject, predicate, obj))
                if self.peek().typ == "COMMA":
                    self.next()
                    continue
                break
            if self.peek().typ == "SEMI":
                self.next()
                if self.peek().typ in ("DOT", "RBRACKET"):  # dangling ';'
                    return
                continue
            return

    def parse_statement(self) -> list[Triple]:
        tok = self.peek()
        if tok.typ == "RUN":
            self.pos += 1
            return self.run_triples(tok)
        before = len(self.extra_triples)
        subject = self.parse_term()
        self.parse_predicate_object_list(subject)
        self.expect("DOT", "'.'")
        triples = self.extra_triples[before:]
        del self.extra_triples[before:]
        return triples

    def parse_triple_block(self) -> list[Triple]:
        """Triples between braces; the final '.' may be omitted."""
        self.expect("LBRACE", "'{'")
        triples: list[Triple] = []
        while True:
            self.skip_comments()
            tok = self.peek()
            if tok.typ == "RBRACE":
                self.next()
                return triples
            if tok.typ == "RUN":
                self.pos += 1
                triples.extend(self.run_triples(tok))
                continue
            before = len(self.extra_triples)
            subject = self.parse_term()
            self.parse_predicate_object_list(subject)
            triples.extend(self.extra_triples[before:])
            del self.extra_triples[before:]
            if self.peek().typ == "DOT":
                self.next()


# --- graphs ------------------------------------------------------------------


def parse_graph(text: str, source: str = "<graph>") -> tuple[Graph, dict[str, str]]:
    return _parse_statements(text, source, allow_bnodes=False)


def _parse_statements(text: str, source: str, allow_bnodes: bool) -> tuple[Graph, dict[str, str]]:
    """Prefix declarations and '.'-terminated statements up to the end."""
    p = _Parser(tokenize(text, source), source, allow_bnodes=allow_bnodes)
    triples: list[Triple] = []
    while True:
        p.skip_comments()
        if p.peek().typ == "EOF":
            break
        if p.peek().typ == "AT":
            p.parse_prefix_decl()
            continue
        triples.extend(p.parse_statement())
    try:
        return Graph(triples), dict(p.prefixes)
    except Exception as exc:
        raise ParseError(str(exc), source) from exc


# --- rules -------------------------------------------------------------------


def parse_rules(text: str, source: str = "<rules>") -> tuple[list[InferenceRule], dict[str, str]]:
    p = _Parser(tokenize(text, source), source, allow_vars=True)
    rules: list[InferenceRule] = []
    names: set[str] = set()
    pending_name = ""
    while True:
        tok = p.peek()
        if tok.typ == "EOF":
            break
        if tok.typ == "COMMENT":
            p.next()
            if tok.value.startswith("name:"):
                pending_name = tok.value[len("name:") :].strip()
            continue
        if tok.typ == "AT":
            p.parse_prefix_decl()
            continue
        if p.at_keyword("CONSTRUCT"):
            p.next()
            consequent = p.parse_triple_block()
            if not (p.at_keyword("WHERE")):
                raise p.error("expected WHERE after the CONSTRUCT block")
            p.next()
            antecedent = p.parse_triple_block()
            name = pending_name or f"rule{len(rules) + 1}"
            pending_name = ""
            if name in names:
                raise ParseError(f"duplicate rule name {name!r}", source, tok.line)
            names.add(name)
            try:
                rules.append(InferenceRule.of(antecedent, consequent, name))
            except Exception as exc:
                raise ParseError(str(exc), source, tok.line) from exc
            continue
        raise p.error(f"expected CONSTRUCT, found {tok.value!r}")
    return rules, dict(p.prefixes)


# --- schemas -----------------------------------------------------------------


def parse_schema(text: str, source: str = "<schema>") -> tuple[TriplestoreSchema, dict[str, str]]:
    # A comment carries nothing in a schema file, so none reaches the parser.
    p = _Parser([tok for tok in tokenize(text, source) if tok.typ != "COMMENT"], source, allow_vars=True)
    patterns: list[Triple] = []
    no_literal: set[str] = set()
    existentials: list[ExistentialRule] = []
    seen_graph = False
    while True:
        tok = p.peek()
        if tok.typ == "EOF":
            break
        if tok.typ == "AT":
            p.parse_prefix_decl()
            continue
        if p.at_keyword("GRAPH"):
            p.next()
            patterns.extend(p.parse_triple_block())
            seen_graph = True
            continue
        if p.at_keyword("NOLIT"):
            p.next()
            p.expect("LBRACE", "'{'")
            # Variables that read as a statement (``?s ?x ?y .``) are one run.
            while p.peek().typ == "VAR" or p.peek().typ == "RUN" and p.split_run().typ == "VAR":
                no_literal.add(p.next().value)
            p.expect("RBRACE", "'}'")
            continue
        if p.at_keyword("EXISTS"):
            p.next()
            p.expect("LBRACE", "'{'")
            while p.peek().typ != "RBRACE":
                first = p.peek()
                a = Triple(p.parse_term(), p.parse_term(), p.parse_term())
                p.expect("ARROW", "'=>'")
                c = Triple(p.parse_term(), p.parse_term(), p.parse_term())
                try:
                    existentials.append(ExistentialRule(a, c))
                except Exception as exc:
                    raise ParseError(str(exc), source, first.line) from exc
                if p.peek().typ == "SEMI":
                    p.next()
            p.next()  # RBRACE
            continue
        raise p.error(f"expected GRAPH, NOLIT or EXISTS, found {tok.value!r}")
    if not seen_graph:
        raise ParseError("schema file has no GRAPH section", source)
    try:
        schema = TriplestoreSchema.of(patterns, no_literal, existentials)
    except Exception as exc:
        raise ParseError(str(exc), source) from exc
    return schema, dict(p.prefixes)


# --- turtle subset (shape documents) -----------------------------------------


def parse_turtle(text: str, source: str = "<turtle>") -> tuple[Graph, dict[str, str]]:
    """Turtle subset with blank nodes and lists, both lowered to IRIs."""
    return _parse_statements(text, source, allow_bnodes=True)


def serialize_turtle(graph: Graph, prefixes: dict[str, str] | None = None) -> str:
    """Subject-grouped serialisation. Blank-node and list structures stay in
    their lowered IRI form, which round-trips through :func:`parse_turtle`."""
    prefixes = prefixes or {}
    write = _term_writer(prefixes)
    lines = _prefix_header(prefixes)
    grouped: dict[str, list[Triple]] = {}
    for t in graph.sorted_triples():
        grouped.setdefault(write(t.s), []).append(t)
    for subject_str in sorted(grouped):
        if lines:
            lines.append("")
        entries = grouped[subject_str]
        for k, t in enumerate(entries):
            head = subject_str if k == 0 else " " * len(subject_str)
            tail = " ;" if k + 1 < len(entries) else " ."
            lines.append(f"{head} {write(t.p)} {write(t.o)}{tail}")
    return "\n".join(lines) + "\n"


# --- serialisation -----------------------------------------------------------


def _name_safe(local: str) -> bool:
    return bool(local) and all(ch.isalnum() or ch in "_-" for ch in local) and not local[0].isdigit()


def compact_term(term: Term, prefixes: dict[str, str]) -> str:
    if term.is_variable:
        return f"?{term.lexical}"
    if term.is_literal:
        escaped = (
            term.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\t", "\\t")
        )
        return f'"{escaped}"'
    if term == RDF_TYPE:
        return "a"
    best: tuple[str, str] | None = None
    for name, ns in prefixes.items():
        if term.lexical.startswith(ns):
            local = term.lexical[len(ns) :]
            if _name_safe(local) and (best is None or len(ns) > len(prefixes[best[0]])):
                best = (name, local)
    if best is not None:
        return f"{best[0]}:{best[1]}"
    return f"<{term.lexical}>"


def _term_writer(prefixes: dict[str, str]) -> Callable[[Term], str]:
    """:func:`compact_term` against ``prefixes``, computed once per distinct
    term: a serialiser writes the same few names many times over."""
    written: dict[Term, str] = {}

    def write(term: Term) -> str:
        text = written.get(term)
        if text is None:
            text = written[term] = compact_term(term, prefixes)
        return text

    return write


def triple_str(t: Triple, prefixes: dict[str, str]) -> str:
    return _triple_str(t, _term_writer(prefixes))


def _triple_str(t: Triple, write: Callable[[Term], str]) -> str:
    return f"{write(t.s)} {write(t.p)} {write(t.o)}"


def _prefix_header(prefixes: dict[str, str]) -> list[str]:
    return [f"@prefix {name}: <{ns}> ." for name, ns in sorted(prefixes.items())]


def serialize_graph(graph: Graph, prefixes: dict[str, str] | None = None) -> str:
    prefixes = prefixes or {}
    write = _term_writer(prefixes)
    lines = _prefix_header(prefixes)
    if lines:
        lines.append("")
    for t in graph.sorted_triples():
        lines.append(f"{_triple_str(t, write)} .")
    return "\n".join(lines) + "\n"


def serialize_rules(rules: list[InferenceRule], prefixes: dict[str, str] | None = None) -> str:
    prefixes = prefixes or {}
    write = _term_writer(prefixes)
    lines = _prefix_header(prefixes)
    for rule in rules:
        if lines:
            lines.append("")
        lines.append(f"# name: {rule.name}")
        lines.append("CONSTRUCT {")
        for t in rule.sorted_consequent():
            lines.append(f"  {_triple_str(t, write)} .")
        lines.append("} WHERE {")
        for t in rule.sorted_antecedent():
            lines.append(f"  {_triple_str(t, write)} .")
        lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_schema(schema: TriplestoreSchema, prefixes: dict[str, str] | None = None) -> str:
    prefixes = prefixes or {}
    write = _term_writer(prefixes)
    lines = _prefix_header(prefixes)
    if lines:
        lines.append("")
    lines.append("GRAPH {")
    for t in schema.sorted_patterns():
        lines.append(f"  {_triple_str(t, write)} .")
    lines.append("}")
    lines.append("NOLIT { " + " ".join(f"?{name}" for name in sorted(schema.no_literal)) + " }")
    lines.append("EXISTS {")
    for e in schema.sorted_existentials():
        lines.append(
            f"  {_triple_str(e.antecedent, write)} => {_triple_str(e.consequent, write)} ;"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
