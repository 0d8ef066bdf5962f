"""The parser as it was before statement tokens and per-parse interning.

A differential oracle for :mod:`schemaforge.formats`: :func:`oracle_parse`
runs one of its four ``parse_*`` functions with the tokenizer and the
statement parser below swapped in, so every input goes through the
character-by-character path and every term is built afresh. The only
change from that parser is the line count: newlines inside an IRI or after
a backslash in a literal are counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from schemaforge import formats
from schemaforge.errors import ParseError
from schemaforge.terms import (
    BNODE_NS,
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


@dataclass(frozen=True)
class Token:
    typ: str
    value: str
    line: int


def tokenize(text: str, source: str = "<string>") -> list[Token]:
    tokens: list[Token] = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c.isspace():
            i += 1
            continue
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
                    out.append({"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}.get(esc, esc))
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


@dataclass
class _Parser:
    tokens: list[Token]
    source: str
    prefixes: dict[str, str] = field(default_factory=dict)
    allow_vars: bool = False
    allow_bnodes: bool = False
    pos: int = 0
    extra_triples: list[Triple] = field(default_factory=list)
    _bnode_counter: int = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.typ != "EOF":
            self.pos += 1
        return tok

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
        return tok.typ == "WORD" and tok.value == word

    def parse_prefix_decl(self) -> None:
        self.next()  # AT token
        name_tok = self.expect("PNAME", "prefix name")
        if not name_tok.value.endswith(":"):
            raise self.error("prefix declaration must end with ':'", name_tok)
        iri_tok = self.expect("IRIREF", "namespace IRI")
        self.expect("DOT", "'.'")
        self.prefixes[name_tok.value[:-1]] = iri_tok.value

    def expand_pname(self, tok: Token) -> Term:
        prefix, _, local = tok.value.partition(":")
        if prefix not in self.prefixes:
            raise self.error(f"unknown prefix {prefix + ':'!r}", tok)
        return iri(self.prefixes[prefix] + local)

    def fresh_bnode(self) -> Term:
        self._bnode_counter += 1
        return iri(f"{BNODE_NS}{self._bnode_counter}")

    def parse_term(self) -> Term:
        tok = self.next()
        if tok.typ == "IRIREF":
            if not tok.value:
                raise self.error("empty IRI", tok)
            return iri(tok.value)
        if tok.typ == "PNAME":
            return self.expand_pname(tok)
        if tok.typ == "STRING":
            if not tok.value:
                raise self.error("empty literal", tok)
            return lit(tok.value)
        if tok.typ == "VAR":
            if not self.allow_vars:
                raise self.error("variables are not allowed here", tok)
            return var(tok.value)
        if tok.typ == "WORD":
            if tok.value == "a":
                return RDF_TYPE
            if tok.value in ("true", "false") or tok.value.isdigit():
                return lit(tok.value)
            raise self.error(f"unexpected word {tok.value!r}", tok)
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
            if self.peek().typ == "RBRACE":
                self.next()
                return triples
            before = len(self.extra_triples)
            subject = self.parse_term()
            self.parse_predicate_object_list(subject)
            triples.extend(self.extra_triples[before:])
            del self.extra_triples[before:]
            if self.peek().typ == "DOT":
                self.next()


def oracle_parse(parse: Callable, text: str, source: str):
    """``parse(text, source)`` for one of the ``formats.parse_*`` functions,
    run with the oracle's tokenizer and parser."""
    saved = formats.tokenize, formats._Parser
    formats.tokenize, formats._Parser = tokenize, _Parser
    try:
        return parse(text, source)
    finally:
        formats.tokenize, formats._Parser = saved
