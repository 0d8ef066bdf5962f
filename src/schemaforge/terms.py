"""Terms, triples, graphs and variable substitutions.

The object model is deliberately small. A term is an IRI, a literal or a
variable, identified by its kind and lexical form; two terms are equal iff
both coincide. A triple is any 3-tuple of terms. Ground RDF-valid triples
and well-formed triple patterns are distinguished by predicate functions
rather than separate classes, because applying a substitution can turn a
well-formed pattern into an ill-formed triple and the caller decides what
to do with the result.

Blank nodes are not modelled: inputs that need them use IRIs in a reserved
namespace. Literals carry no datatype or language tag; they are compared by
lexical form alone.

Everything here is immutable and safe to share. The one stateful object is
:class:`FreshNames`, which hands out variable names and IRIs guaranteed not
to collide with anything it has been shown; a given sequence of calls always
produces the same names, so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import SchemaError

IRI = "iri"
LITERAL = "literal"
VARIABLE = "variable"

_KINDS = (IRI, LITERAL, VARIABLE)


@dataclass(frozen=True)
class Term:
    """An IRI, literal or variable.

    ``lexical`` holds the absolute IRI string, the literal's lexical form
    (without quotes) or the variable name (without the ``?`` sigil).
    """

    kind: str
    lexical: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown term kind {self.kind!r}")
        if not self.lexical:
            raise SchemaError("term lexical form must be nonempty")

    @property
    def is_iri(self) -> bool:
        return self.kind == IRI

    @property
    def is_literal(self) -> bool:
        return self.kind == LITERAL

    @property
    def is_variable(self) -> bool:
        return self.kind == VARIABLE

    @property
    def is_constant(self) -> bool:
        return self.kind != VARIABLE

    def sort_key(self) -> tuple[str, str]:
        return (self.kind, self.lexical)

    def __repr__(self) -> str:
        if self.is_variable:
            return f"?{self.lexical}"
        if self.is_literal:
            return f'"{self.lexical}"'
        return f"<{self.lexical}>"


def iri(lexical: str) -> Term:
    return Term(IRI, lexical)


def lit(lexical: str) -> Term:
    return Term(LITERAL, lexical)


def var(name: str) -> Term:
    return Term(VARIABLE, name)


RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE = iri(RDF_NS + "type")
RDF_FIRST = iri(RDF_NS + "first")
RDF_REST = iri(RDF_NS + "rest")
RDF_NIL = iri(RDF_NS + "nil")

# Reserved namespace for blank nodes encountered while parsing.
BNODE_NS = "urn:bnode:"


@dataclass(frozen=True)
class Triple:
    """A 3-tuple of terms; doubles as triple and triple pattern."""

    s: Term
    p: Term
    o: Term

    def __iter__(self) -> Iterator[Term]:
        return iter((self.s, self.p, self.o))

    def __getitem__(self, i: int) -> Term:
        return (self.s, self.p, self.o)[i]

    def sort_key(self) -> tuple:
        return (self.s.sort_key(), self.p.sort_key(), self.o.sort_key())

    def __repr__(self) -> str:
        return f"({self.s!r} {self.p!r} {self.o!r})"


def is_valid_triple(t: Triple) -> bool:
    """Ground and RDF-valid: literals may appear in the object position only."""
    return t.s.is_iri and t.p.is_iri and (t.o.is_iri or t.o.is_literal)


def is_valid_pattern(t: Triple) -> bool:
    """Well-formed triple pattern: no literal in subject or predicate position."""
    return not (t.s.is_literal or t.p.is_literal)


def is_valid_rdf_graph(triples: Iterable[Triple]) -> bool:
    return all(is_valid_triple(t) for t in triples)


def pattern_vars(patterns: Iterable[Triple]) -> set[str]:
    return {term.lexical for t in patterns for term in t if term.is_variable}


def pattern_consts(patterns: Iterable[Triple]) -> set[Term]:
    return {term for t in patterns for term in t if term.is_constant}


def vars_and_consts(patterns: Iterable[Triple]) -> tuple[set[str], set[Term]]:
    """The variable names and the constants occurring in a pattern."""
    ps = list(patterns)
    return pattern_vars(ps), pattern_consts(ps)


@dataclass(frozen=True)
class Mapping:
    """A partial function from variable names to terms.

    Doubles as the result of pattern evaluation (all targets constant) and
    as a general substitution (targets may be variables). Bindings are kept
    sorted by variable name so iteration and repr are deterministic.
    """

    bindings: tuple[tuple[str, Term], ...] = ()

    @staticmethod
    def of(items: dict[str, Term] | Iterable[tuple[str, Term]]) -> Mapping:
        pairs = items.items() if isinstance(items, dict) else items
        return Mapping(tuple(sorted(pairs)))

    def get(self, name: str) -> Term | None:
        for k, v in self.bindings:
            if k == name:
                return v
        return None

    def apply_term(self, term: Term) -> Term:
        if term.is_variable:
            bound = self.get(term.lexical)
            if bound is not None:
                return bound
        return term

    def apply_triple(self, t: Triple) -> Triple:
        return Triple(self.apply_term(t.s), self.apply_term(t.p), self.apply_term(t.o))

    def apply(self, patterns: Iterable[Triple]) -> frozenset[Triple]:
        return frozenset(self.apply_triple(t) for t in patterns)

    def sort_key(self) -> tuple:
        return tuple((k, v.sort_key()) for k, v in self.bindings)

    def __repr__(self) -> str:
        inner = ", ".join(f"?{k}->{v!r}" for k, v in self.bindings)
        return "{" + inner + "}"


EMPTY_MAPPING = Mapping()


def apply_substitution(subst: Mapping, patterns: Iterable[Triple]) -> frozenset[Triple]:
    """Replace every bound variable occurrence; unbound variables stay.

    The result may violate triple validity (e.g. a literal substituted into
    a subject); validate with :func:`is_valid_rdf_graph` where it matters.
    """
    return subst.apply(patterns)


class Graph:
    """An immutable set of ground RDF-valid triples with positional indexes.

    Indexes are built lazily on first use of the corresponding lookup shape,
    which keeps construction cheap for graphs that are only ever iterated.
    """

    __slots__ = ("triples", "_idx")

    def __init__(self, triples: Iterable[Triple] = (), validate: bool = True):
        ts = frozenset(triples)
        if validate:
            for t in ts:
                if not is_valid_triple(t):
                    raise SchemaError(f"not a valid RDF triple: {t!r}")
        object.__setattr__(self, "triples", ts)
        object.__setattr__(self, "_idx", {})

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self.triples

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.triples == other.triples

    def __hash__(self) -> int:
        return hash(self.triples)

    def __repr__(self) -> str:
        return f"Graph({len(self.triples)} triples)"

    def sorted_triples(self) -> list[Triple]:
        return sorted(self.triples, key=Triple.sort_key)

    def constants(self) -> set[Term]:
        return pattern_consts(self.triples)

    def _index(self, positions: tuple[int, ...]) -> dict:
        idx = self._idx.get(positions)
        if idx is None:
            idx = {}
            for t in self.triples:
                key = tuple(t[i] for i in positions)
                idx.setdefault(key, []).append(t)
            self._idx[positions] = idx
        return idx

    def match(self, s: Term | None, p: Term | None, o: Term | None) -> list[Triple]:
        """All triples agreeing with the given constants (None = wildcard)."""
        bound = tuple(i for i, term in enumerate((s, p, o)) if term is not None)
        if not bound:
            return list(self.triples)
        key = tuple(term for term in (s, p, o) if term is not None)
        return self._index(bound).get(key, [])

    def union(self, triples: Iterable[Triple]) -> "Graph":
        return Graph(self.triples | frozenset(triples), validate=False)


class FreshNames:
    """Hands out variable names and IRIs distinct from everything observed.

    Sequences are counter-based and therefore deterministic for a fixed
    series of observe/fresh calls. Confine an instance to one coordinator;
    it is the only mutable state in the core model.
    """

    FRESH_IRI_NS = "urn:fresh:"

    def __init__(self) -> None:
        self._seen_vars: set[str] = set()
        self._seen_iris: set[str] = set()
        self._var_counter = 0
        self._iri_counter = 0

    def observe_term(self, term: Term) -> None:
        if term.is_variable:
            self._seen_vars.add(term.lexical)
        elif term.is_iri:
            self._seen_iris.add(term.lexical)

    def observe(self, patterns: Iterable[Triple]) -> None:
        for t in patterns:
            for term in t:
                self.observe_term(term)

    def fresh_var(self, stem: str = "n") -> Term:
        while True:
            self._var_counter += 1
            name = f"{stem}{self._var_counter}"
            if name not in self._seen_vars:
                self._seen_vars.add(name)
                return var(name)

    def fresh_iri(self) -> Term:
        while True:
            self._iri_counter += 1
            name = f"{self.FRESH_IRI_NS}{self._iri_counter}"
            if name not in self._seen_iris:
                self._seen_iris.add(name)
                return iri(name)


def fresh_term(kind: str, registry: FreshNames) -> Term:
    """A term of the requested kind guaranteed distinct from all seen names."""
    if kind == VARIABLE:
        return registry.fresh_var()
    if kind == IRI:
        return registry.fresh_iri()
    raise SchemaError(f"cannot generate fresh terms of kind {kind!r}")
