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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    p = _Parser(tokenize(text, source), source, allow_vars=True)
    patterns: list[Triple] = []
    no_literal: set[str] = set()
    existentials: list[ExistentialRule] = []
    seen_graph = False
    while True:
        p.skip_comments()
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
            while p.peek().typ == "VAR":
                no_literal.add(p.next().value)
            p.expect("RBRACE", "'}'")
            continue
        if p.at_keyword("EXISTS"):
            p.next()
            p.expect("LBRACE", "'{'")
            while p.peek().typ != "RBRACE":
                p.skip_comments()
                a = Triple(p.parse_term(), p.parse_term(), p.parse_term())
                p.expect("ARROW", "'=>'")
                c = Triple(p.parse_term(), p.parse_term(), p.parse_term())
                try:
                    existentials.append(ExistentialRule(a, c))
                except Exception as exc:
                    raise ParseError(str(exc), source, tok.line) from exc
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
    lines = _prefix_header(prefixes)
    grouped: dict[str, list[Triple]] = {}
    for t in graph.sorted_triples():
        grouped.setdefault(compact_term(t.s, prefixes), []).append(t)
    for subject_str in sorted(grouped):
        if lines:
            lines.append("")
        entries = grouped[subject_str]
        for k, t in enumerate(entries):
            head = subject_str if k == 0 else " " * len(subject_str)
            tail = " ;" if k + 1 < len(entries) else " ."
            lines.append(
                f"{head} {compact_term(t.p, prefixes)} {compact_term(t.o, prefixes)}{tail}"
            )
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


def triple_str(t: Triple, prefixes: dict[str, str]) -> str:
    return " ".join(compact_term(term, prefixes) for term in t)


def _prefix_header(prefixes: dict[str, str]) -> list[str]:
    return [f"@prefix {name}: <{ns}> ." for name, ns in sorted(prefixes.items())]


def serialize_graph(graph: Graph, prefixes: dict[str, str] | None = None) -> str:
    prefixes = prefixes or {}
    lines = _prefix_header(prefixes)
    if lines:
        lines.append("")
    for t in graph.sorted_triples():
        lines.append(f"{triple_str(t, prefixes)} .")
    return "\n".join(lines) + "\n"


def serialize_rules(rules: list[InferenceRule], prefixes: dict[str, str] | None = None) -> str:
    prefixes = prefixes or {}
    lines = _prefix_header(prefixes)
    for rule in rules:
        if lines:
            lines.append("")
        lines.append(f"# name: {rule.name}")
        lines.append("CONSTRUCT {")
        for t in rule.sorted_consequent():
            lines.append(f"  {triple_str(t, prefixes)} .")
        lines.append("} WHERE {")
        for t in rule.sorted_antecedent():
            lines.append(f"  {triple_str(t, prefixes)} .")
        lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_schema(schema: TriplestoreSchema, prefixes: dict[str, str] | None = None) -> str:
    prefixes = prefixes or {}
    lines = _prefix_header(prefixes)
    if lines:
        lines.append("")
    lines.append("GRAPH {")
    for t in schema.sorted_patterns():
        lines.append(f"  {triple_str(t, prefixes)} .")
    lines.append("}")
    lines.append("NOLIT { " + " ".join(f"?{name}" for name in sorted(schema.no_literal)) + " }")
    lines.append("EXISTS {")
    for e in schema.sorted_existentials():
        lines.append(
            f"  {triple_str(e.antecedent, prefixes)} => {triple_str(e.consequent, prefixes)} ;"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
