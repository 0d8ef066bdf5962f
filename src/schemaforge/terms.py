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

Terms, triples and mappings are tuples, so they hash, compare, unpack and
pickle as tuples do.

A graph indexes its triples lazily, per mask of bound positions. Lookups
with subject and predicate, or predicate and object, bound go to a small
index of the predicate's triples alone, built on the first such lookup, so
closing a large data graph under rules that probe a few predicates indexes
only those predicates' triples.

Everything here is immutable and safe to share, but for a graph that its
builder grows in place with :meth:`Graph.insert` and hands out only once
frozen. The one stateful object is :class:`FreshNames`, which hands out
variable names and IRIs guaranteed not to collide with anything it has been
shown; a given sequence of calls always produces the same names, so runs
are reproducible.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, KeysView, NamedTuple

from .errors import SchemaError

IRI = "iri"
LITERAL = "literal"
VARIABLE = "variable"

_KINDS = (IRI, LITERAL, VARIABLE)


class Term(tuple):
    """An IRI, literal or variable: the pair ``(kind, lexical)``.

    ``lexical`` holds the absolute IRI string, the literal's lexical form
    (without quotes) or the variable name (without the ``?`` sigil).
    """

    __slots__ = ()
    kind = property(itemgetter(0))
    lexical = property(itemgetter(1))

    def __new__(cls, kind: str, lexical: str) -> Term:
        if kind not in _KINDS:
            raise SchemaError(f"unknown term kind {kind!r}")
        if not lexical:
            raise SchemaError("term lexical form must be nonempty")
        return tuple.__new__(cls, (kind, lexical))

    def __getnewargs__(self) -> tuple[str, str]:
        return tuple(self)

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


class Triple(NamedTuple):
    """A 3-tuple of terms; doubles as triple and triple pattern."""

    s: Term
    p: Term
    o: Term

    def sort_key(self) -> tuple:
        s, p, o = self
        return (s.kind, s.lexical, p.kind, p.lexical, o.kind, o.lexical)

    def __repr__(self) -> str:
        return f"({self.s!r} {self.p!r} {self.o!r})"


def is_valid_triple(t: Triple) -> bool:
    """Ground and RDF-valid: literals may appear in the object position only."""
    s, p, o = t
    return s[0] == IRI and p[0] == IRI and o[0] != VARIABLE  # the terms' kinds


def is_valid_pattern(t: Triple) -> bool:
    """Well-formed triple pattern: no literal in subject or predicate position."""
    s, p, _ = t
    return s[0] != LITERAL and p[0] != LITERAL  # the terms' kinds


def is_valid_rdf_graph(triples: Iterable[Triple]) -> bool:
    return all(is_valid_triple(t) for t in triples)


def pattern_vars(patterns: Iterable[Triple]) -> set[str]:
    return {term.lexical for t in patterns for term in t if term.is_variable}


def pattern_consts(patterns: Iterable[Triple]) -> set[Term]:
    return {term for t in patterns for term in t if term.is_constant}


class Mapping(tuple):
    """A partial function from variable names to terms: the tuple of its
    ``(name, term)`` pairs.

    Doubles as the result of pattern evaluation (all targets constant) and
    as a general substitution (targets may be variables). Pairs are kept
    sorted by variable name so iteration and repr are deterministic.
    """

    __slots__ = ()

    @staticmethod
    def of(items: dict[str, Term] | Iterable[tuple[str, Term]]) -> Mapping:
        pairs = items.items() if isinstance(items, dict) else items
        return Mapping(sorted(pairs))

    def get(self, name: str) -> Term | None:
        for k, v in self:
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
        """Replace every bound variable occurrence; unbound variables stay.
        The result may hold invalid triples (a literal substituted into a
        subject); check with :func:`is_valid_rdf_graph` where it matters."""
        return frozenset(self.apply_triple(t) for t in patterns)

    def sort_key(self) -> tuple:
        return tuple((k, v.sort_key()) for k, v in self)

    def __repr__(self) -> str:
        inner = ", ".join(f"?{k}->{v!r}" for k, v in self)
        return "{" + inner + "}"


def _key_getter(mask: int) -> itemgetter:
    """The key of a triple, or of a probe ``(s, p, o)``, in the index for a
    mask of bound positions (1 subject, 2 predicate, 4 object): a bare term
    for one bound position, a tuple for two."""
    return itemgetter(*(i for i in range(3) if mask >> i & 1))


# A fully bound probe is a membership test and needs no index; the masks
# (s, p) and (p, o) go to the predicate partitions below.
_KEY_GETTERS = {mask: _key_getter(mask) for mask in (1, 2, 4, 5)}


# The masks whose lookups go to a predicate's partition, with the position
# that keys the partition: (s, p) by subject, (p, o) by object.
_PARTITIONED = {3: 0, 6: 2}


class Graph:
    """An immutable set of ground RDF-valid triples with positional indexes.

    Indexes are built lazily, on the first lookup that needs them, which
    keeps construction cheap for graphs that are only ever iterated: one
    per mask of bound positions, except that (s, p) and (p, o) get one per
    probed predicate, built from its bucket of the predicate index (see the
    module notes). The one exception to immutability is :meth:`insert`,
    for the closure and the chase, which grow a graph of their own and
    never hand it out unfrozen.
    """

    __slots__ = ("triples", "_idx", "_parts")

    def __init__(self, triples: Iterable[Triple] = (), validate: bool = True):
        ts = frozenset(triples)
        if validate:
            for t in ts:
                if not is_valid_triple(t):
                    raise SchemaError(f"not a valid RDF triple: {t!r}")
        object.__setattr__(self, "triples", ts)
        object.__setattr__(self, "_idx", {})
        object.__setattr__(self, "_parts", {})  # (mask, predicate) -> partition

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

    def match(self, s: Term | None, p: Term | None, o: Term | None) -> list[Triple]:
        """All triples agreeing with the given constants (None = wildcard)."""
        mask = (s is not None) | (p is not None) << 1 | (o is not None) << 2
        if mask == 7:
            t = Triple(s, p, o)
            return [t] if t in self.triples else []
        if not mask:
            return list(self.triples)
        if mask == 3 or mask == 6:
            part = self._parts.get((mask, p))
            if part is None:
                part = self._partition(mask, p)
            return part.get(o if mask == 6 else s, [])
        key = _KEY_GETTERS[mask]
        index = self._idx.get(mask)
        if index is None:
            index = self._index(mask)
        return index.get(key((s, p, o)), [])

    def _index(self, mask: int) -> dict:
        index = self._idx.get(mask)
        if index is None:
            key = _KEY_GETTERS[mask]
            index = self._idx[mask] = {}
            for t in self.triples:
                index.setdefault(key(t), []).append(t)
        return index

    def _partition(self, mask: int, p: Term) -> dict:
        """The index of predicate ``p``'s triples for a partitioned mask,
        by subject or by object. None is kept for a predicate the graph
        lacks: an insert on it makes the bucket a later lookup partitions."""
        bucket = self._index(2).get(p)
        if bucket is None:
            return {}
        pos = _PARTITIONED[mask]
        part = self._parts[mask, p] = {}
        for t in bucket:
            part.setdefault(t[pos], []).append(t)
        return part

    def predicates(self) -> KeysView[Term]:
        """The distinct predicates: the keys of the predicate index."""
        return self._index(2).keys()

    def insert(self, t: Triple) -> bool:
        """Add a ground triple in place, to the triples and to every index
        and predicate partition built so far; False if it was there. Only
        for a graph its builder has not handed out: the first insert turns
        ``triples`` into a set, so the graph no longer hashes, and lists
        that :meth:`match` returned grow with the indexes."""
        if t in self.triples:
            return False
        if isinstance(self.triples, frozenset):
            self.triples = set(self.triples)
        self.triples.add(t)
        for mask, index in self._idx.items():
            index.setdefault(_KEY_GETTERS[mask](t), []).append(t)
        if self._parts:
            for mask, pos in _PARTITIONED.items():
                part = self._parts.get((mask, t[1]))
                if part is not None:
                    part.setdefault(t[pos], []).append(t)
        return True

    def freeze(self) -> "Graph":
        """This graph, immutable again after :meth:`insert`, indexes kept."""
        self.triples = frozenset(self.triples)
        return self

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

    @classmethod
    def of(cls, *pattern_groups: Iterable[Triple]) -> "FreshNames":
        """A registry that has observed every group of patterns."""
        fresh = cls()
        for patterns in pattern_groups:
            fresh.observe(patterns)
        return fresh

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

