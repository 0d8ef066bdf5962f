"""Triplestore schemas: instance checking, violations, containment.

A triplestore schema is a triple of parts: a schema graph (triple patterns
whose variables are independent wildcards, each occurring at most once), a
no-literal set (variables that may not be instantiated by literals, which
must cover every subject- and predicate-position variable), and a set of
existential rules (single-atom if-then constraints on instances).

A graph is an instance of a schema when every triple instantiates some
schema pattern without binding a no-literal variable to a literal, and no
existential rule is violated. An existential rule a -> c is violated on a
graph when some match of a has no match of the correspondingly instantiated
c; a ground instantiated consequent counts as matched exactly when it is in
the graph. Both sides are single triple patterns, so each is matched by one
graph lookup on its constants and a check that a repeated variable meets
one value, not by the join of conjunctions; the antecedent's lookup is
worked out once per rule. :func:`unsatisfied` yields the failing pairs
lazily, in rule order and then mapping order, for the violation check and
for the chase that repairs them, probing only the rules that the rule
set's index files under the graph's predicates or a variable one.

A pattern's constant signature is its constants, with None at each
variable position; its mask is the set of its constant positions. Every
lookup of the patterns a triple can instantiate asks the schema's
:class:`PatternIndex`. For each mask that occurs it maps the projection of
a signature onto the mask to the patterns under it, in two tables: one of
every pattern, one of the patterns that admit a literal object (a constant
object, or an object variable outside the no-literal set), built from the
first on the first lookup for a literal object. A query triple
(ground, sandboxed, or itself a pattern) is projected onto each mask and
looked up, at most 8 dict probes: a query variable at a pattern's constant
position projects to a key no pattern has, so it is matched only by a
variable. Normalisation takes the hits of the first table. Origins and
instance checks take those of the table for the query's object kind, which
the schema's invariants make exactly the patterns the triple instantiates,
with no per-pair test: each variable occurs once, so no pattern asks two
positions to agree; subject and predicate variables are no-literal and
valid patterns hold no literal there, so a literal subject or predicate is
covered by nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import count, product
from typing import Collection, Iterable, Iterator

from .errors import SchemaError
from .terms import (
    LITERAL,
    VARIABLE,
    Graph,
    Mapping,
    Term,
    Triple,
    _key_getter,
    is_valid_pattern,
    iri,
    lit,
    pattern_consts,
    var,
)


class PatternIndex:
    """Triple patterns by projected constant signature (see the module notes)."""

    __slots__ = ("_every", "_literal", "_no_literal")

    def __init__(self, patterns: Iterable[Triple], no_literal: Collection[str]) -> None:
        every: dict[int, dict] = {}
        for t in patterns:
            s, p, o = t  # kinds read as tuple items, not properties: this runs per pattern
            mask = (s[0] != VARIABLE) | (p[0] != VARIABLE) << 1 | (o[0] != VARIABLE) << 2
            every.setdefault(mask, {}).setdefault(_PROJECTIONS[mask](t), []).append(t)
        self._every = tuple((_PROJECTIONS[mask], buckets) for mask, buckets in sorted(every.items()))
        self._no_literal = no_literal
        self._literal: tuple | None = None  # built on the first literal-object lookup

    def candidates(self, query: Triple) -> Iterator[Triple]:
        """Every indexed pattern whose constants agree with ``query`` positionwise."""
        for project, buckets in self._every:
            yield from buckets.get(project(query), ())

    def _table(self, t: Triple) -> tuple:
        """The table for ``t``'s object kind, or none for a literal subject or predicate."""
        s, p, o = t
        if s[0] == LITERAL or p[0] == LITERAL:
            return ()
        if o[0] != LITERAL:
            return self._every
        if self._literal is None:
            self._literal = self._admitting_literals()
        return self._literal

    def _admitting_literals(self) -> tuple:
        """The table of every pattern, cut to those that admit a literal object."""
        no_literal = self._no_literal
        table = []
        for project, buckets in self._every:
            kept = {}
            for key, patterns in buckets.items():
                admitting = [
                    t for t in patterns if t[2][0] != VARIABLE or t[2][1] not in no_literal
                ]
                if admitting:
                    kept[key] = admitting
            if kept:
                table.append((project, kept))
        return tuple(table)

    def covering(self, t: Triple) -> list[Triple]:
        """The indexed patterns ``t`` instantiates under the no-literal rule."""
        return [q for project, buckets in self._table(t) for q in buckets.get(project(t), ())]


# A triple's terms at a mask's positions (1 subject, 2 predicate, 4
# object): a bare term for one, a tuple for more, () for none.
_PROJECTIONS = {0: lambda t: (), **{mask: _key_getter(mask) for mask in range(1, 8)}}


@dataclass(frozen=True)
class ExistentialRule:
    """Single-atom if-then constraint: whenever ``antecedent`` matches, a
    matching instantiation of ``consequent`` must exist."""

    antecedent: Triple
    consequent: Triple

    def __post_init__(self) -> None:
        for t in (self.antecedent, self.consequent):
            if not is_valid_pattern(t):
                raise SchemaError(f"ill-formed pattern in existential rule: {t!r}")

    def canonical(self) -> tuple:
        """Shape up to variable renaming, for set comparison and dedup."""
        return self._canonical

    @cached_property
    def _canonical(self) -> tuple:
        names: dict[str, str] = {}

        def key(term: Term) -> tuple:
            if term.is_variable:
                name = names.setdefault(term.lexical, f"x{len(names)}")
                return ("v", name)
            return ("c", term.kind, term.lexical)

        return tuple(key(t) for t in self.antecedent) + tuple(key(t) for t in self.consequent)

    def sort_key(self) -> tuple:
        """A total order: the canonical form, then the rule's own terms, so
        that rules equal up to renaming still sort the same in every run."""
        return self._sort_key

    @cached_property
    def _sort_key(self) -> tuple:
        return (*self._canonical, self.antecedent, self.consequent)

    @cached_property
    def _antecedent_probe(self) -> tuple[tuple, tuple, list[tuple[str, int]]]:
        """The antecedent's probe and repeated positions, and its variables
        by name, each with one position."""
        names = {term.lexical: i for i, term in enumerate(self.antecedent) if term.is_variable}
        return (*_probe(self.antecedent), sorted(names.items()))


class _RuleIndex(tuple):
    """Rules in a fixed order, compiled once for every reader: per side,
    antecedent and consequent, the rule positions by the predicates of that
    side's triples, a single atom being a side of one triple. None files a
    variable predicate and an empty antecedent, which any triple wakes."""

    @classmethod
    def of(cls, rules: Iterable) -> "_RuleIndex":
        """The rules as given if compiled, else compiled in their order."""
        return rules if isinstance(rules, cls) else cls(rules)

    @cached_property
    def _by_predicate(self) -> tuple[dict[Term | None, list[int]], dict[Term | None, list[int]]]:
        sides: tuple[dict, dict] = ({}, {})
        for position, rule in enumerate(self):
            if not rule.antecedent:
                sides[0].setdefault(None, []).append(position)
            for by_predicate, side in zip(sides, (rule.antecedent, rule.consequent)):
                for t in (side,) if isinstance(side, Triple) else side:
                    by_predicate.setdefault(None if t.p.is_variable else t.p, []).append(position)
        return sides

    def _positions(self, side: int, predicates: Iterable[Term]) -> list[int] | range:
        """In order, the side's positions under the predicates or None; all, for a variable."""
        by_predicate = self._by_predicate[side]
        found = set(by_predicate.get(None, ()))
        for p in predicates:
            if p[0] == VARIABLE:  # read as a tuple item: this runs per chase witness
                return range(len(self))
            found.update(by_predicate.get(p, ()))
        return sorted(found)

    def woken_by(self, predicates: Iterable[Term]) -> list[int] | range:
        """The positions of the rules a triple on one of the predicates wakes."""
        return self._positions(0, predicates)

    def producing(self, predicates: Iterable[Term]) -> list[int] | range:
        """The positions of the rules that derive triples on the predicates."""
        return self._positions(1, predicates)


@dataclass(frozen=True)
class Violation:
    """A witness that an existential rule fails on a graph."""

    mapping: Mapping
    rule: ExistentialRule

    def sort_key(self) -> tuple:
        return (self.rule.sort_key(), self.mapping.sort_key())


@dataclass(frozen=True)
class TriplestoreSchema:
    graph: frozenset[Triple]
    no_literal: frozenset[str]
    existentials: frozenset[ExistentialRule] = frozenset()

    def __post_init__(self) -> None:
        # Terms are read as (kind, lexical) pairs, not through properties:
        # every fixpoint round checks its schemas pattern by pattern.
        seen: set[str] = set()
        for t in self.graph:
            if not is_valid_pattern(t):
                raise SchemaError(f"ill-formed schema pattern: {t!r}")
            for kind, name in t:
                if kind == VARIABLE:
                    if name in seen:
                        raise SchemaError(
                            f"variable ?{name} occurs more than once in the schema graph"
                        )
                    seen.add(name)
        if not self.no_literal <= seen:
            extra = sorted(self.no_literal - seen)
            raise SchemaError(f"no-literal set names unknown variables: {extra}")
        for s, p, _ in self.graph:
            for kind, name in (s, p):
                if kind == VARIABLE and name not in self.no_literal:
                    raise SchemaError(
                        f"subject/predicate variable ?{name} missing from the no-literal set"
                    )

    @staticmethod
    def of(
        patterns: Iterable[Triple],
        no_literal: Iterable[str] = (),
        existentials: Iterable[ExistentialRule] = (),
    ) -> "TriplestoreSchema":
        return TriplestoreSchema(frozenset(patterns), frozenset(no_literal), frozenset(existentials))

    def sorted_patterns(self) -> tuple[Triple, ...]:
        """The schema patterns in sort order, sorted once per schema."""
        return self._sorted_patterns

    def sorted_existentials(self) -> "_RuleIndex":
        """The existential rules in sort order, sorted and indexed once per schema."""
        return self._sorted_existentials

    @cached_property
    def _sorted_patterns(self) -> tuple[Triple, ...]:
        return tuple(sorted(self.graph, key=Triple.sort_key))

    @cached_property
    def _sorted_existentials(self) -> "_RuleIndex":
        return _RuleIndex(sorted(self.existentials, key=ExistentialRule.sort_key))

    def constants(self) -> set[Term]:
        return pattern_consts(self.graph)

    def graph_part(self) -> "TriplestoreSchema":
        """The schema with its existential rules dropped: itself if it has none."""
        return replace(self, existentials=frozenset()) if self.existentials else self

    @cached_property
    def index(self) -> PatternIndex:
        """The schema graph's pattern index, built on first use."""
        return PatternIndex(self.graph, self.no_literal)

    @cached_property
    def shape_keys(self) -> dict[Triple, tuple]:
        """Each pattern's shape key; normalisation records those of its output."""
        return {t: pattern_shape_key(t, self.no_literal) for t in self.graph}


def triple_instantiates(t: Triple, pattern: Triple, delta: frozenset[str] | set[str]) -> bool:
    """True iff some mapping sends the pattern to ``t`` without binding a
    no-literal variable to a literal."""
    bound: dict[str, Term] = {}
    for p_term, value in zip(pattern, t):
        if p_term.is_constant:
            if p_term != value:
                return False
        else:
            if value.is_literal and p_term.lexical in delta:
                return False
            prior = bound.get(p_term.lexical)
            if prior is not None and prior != value:
                return False
            bound[p_term.lexical] = value
    return True


def instantiates_some(t: Triple, schema: TriplestoreSchema) -> bool:
    """Whether ``t`` instantiates some schema pattern: a lookup per mask in
    the schema's pattern index (see the module notes), stopping at the first hit."""
    for project, buckets in schema.index._table(t):
        if project(t) in buckets:
            return True
    return False


def _probe(pattern: Triple) -> tuple[tuple, tuple]:
    """The pattern's constants with None at its variables, and the position
    pairs that a repeated variable must fill alike."""
    probe = tuple(None if term.is_variable else term for term in pattern)
    pairs = ((0, 1), (0, 2), (1, 2))
    return probe, tuple((i, j) for i, j in pairs if probe[i] is None and pattern[i] == pattern[j])


def _pattern_matches(probe: tuple, repeats: tuple, graph: Graph) -> list[Triple]:
    """The graph triples a pattern maps onto: one lookup on its constants,
    then each repeated variable checked to meet one value."""
    found = graph.match(*probe)
    if repeats and found:
        return [t for t in found if all(t[i] == t[j] for i, j in repeats)]
    return found


def _has_match(pattern: Triple, graph: Graph) -> bool:
    """Whether some graph triple is an instance of the pattern."""
    return bool(_pattern_matches(*_probe(pattern), graph))


def unsatisfied(
    rules: Iterable[ExistentialRule], graph: Graph
) -> Iterator[tuple[ExistentialRule, Mapping]]:
    """Lazily, each rule with each antecedent match that has no consequent
    witness, in rule order and then mapping order.

    Only the rules on the graph's predicates (the keys of its predicate
    index) or on a variable one are probed. Residual variables of the
    instantiated consequent are matched as a pattern, so any witness
    triple satisfies the rule.
    """
    rules = _RuleIndex.of(rules)
    for position, m in _unsatisfied_at(rules, graph, graph):
        yield rules[position], m


def _unsatisfied_at(rules: _RuleIndex, graph: Graph, whole: Graph) -> Iterator[tuple[int, Mapping]]:
    """:func:`unsatisfied` with antecedents matched in ``graph`` and
    consequents in ``whole``, each pair by the rule's position."""
    if not rules:
        return  # nothing to probe, so no predicate index to build
    for position in rules.woken_by(graph.predicates()):
        rule = rules[position]
        probe, repeats, slots = rule._antecedent_probe
        found = _pattern_matches(probe, repeats, graph)
        if not found:
            continue
        matches = [Mapping(tuple((name, t[i]) for name, i in slots)) for t in found]
        for m in sorted(matches, key=Mapping.sort_key):
            if not _has_match(m.apply_triple(rule.consequent), whole):
                yield position, m


def violations(rules: Iterable[ExistentialRule], graph: Graph) -> frozenset[Violation]:
    """All pairs of a rule and an antecedent match with no consequent witness."""
    return frozenset(Violation(m, rule) for rule, m in unsatisfied(rules, graph))


def is_instance(graph: Graph, schema: TriplestoreSchema) -> bool:
    """Instance check: pattern coverage plus existential-rule satisfaction."""
    if any(not instantiates_some(t, schema) for t in graph):
        return False
    return not violations(schema.sorted_existentials(), graph)


# ---------------------------------------------------------------------------
# Containment and equivalence of the graph/no-literal parts.
#
# Schema variables are independent wildcards, so a finite set of
# representative instantiations decides containment: each variable is
# replaced by every constant both schemas mention, by one fresh IRI, and
# (for literal-permitting object variables) by one fresh literal. A pattern
# is covered iff every representative instantiates the other schema.
# ---------------------------------------------------------------------------


def _fresh_probe_terms(pool: set[Term]) -> tuple[Term, Term]:
    taken = {t.lexical for t in pool}
    n = 0
    while f"urn:probe:{n}" in taken:
        n += 1
    probe_iri = iri(f"urn:probe:{n}")
    n = 0
    while f"probe-{n}" in taken:
        n += 1
    return probe_iri, lit(f"probe-{n}")


def _representatives(pattern: Triple, schema: TriplestoreSchema, pool_iris: list[Term],
                     pool_lits: list[Term], probe_iri: Term, probe_lit: Term) -> Iterable[Triple]:
    choices: list[list[Term]] = []
    for pos, term in enumerate(pattern):
        if term.is_constant:
            choices.append([term])
        elif pos < 2 or term.lexical in schema.no_literal:
            choices.append(pool_iris + [probe_iri])
        else:
            choices.append(pool_iris + [probe_iri] + pool_lits + [probe_lit])
    for s, p, o in product(*choices):
        yield Triple(s, p, o)


def schema_contains(s1: TriplestoreSchema, s2: TriplestoreSchema) -> bool:
    """True iff every instance of s1's graph part is an instance of s2's.

    Existential rules are ignored on both sides. Inputs are normalised
    first, which preserves the instance sets and keeps the representative
    enumeration small even for machine-built schemas full of subsumed
    patterns.
    """
    s1 = normalize_schema(s1.graph_part())
    s2 = normalize_schema(s2.graph_part())
    pool = pattern_consts(s1.graph) | pattern_consts(s2.graph)
    pool_iris = sorted((t for t in pool if t.is_iri), key=Term.sort_key)
    pool_lits = sorted((t for t in pool if t.is_literal), key=Term.sort_key)
    probe_iri, probe_lit = _fresh_probe_terms(pool)
    target = s2.graph_part()
    for pattern in s1.sorted_patterns():
        for rep in _representatives(pattern, s1, pool_iris, pool_lits, probe_iri, probe_lit):
            if not instantiates_some(rep, target):
                return False
    return True


def existentials_equal(e1: Iterable[ExistentialRule], e2: Iterable[ExistentialRule]) -> bool:
    return {e.canonical() for e in e1} == {e.canonical() for e in e2}


def schema_equivalent(s1: TriplestoreSchema, s2: TriplestoreSchema) -> bool:
    """Containment both ways; existential sets compared up to renaming."""
    return (
        existentials_equal(s1.existentials, s2.existentials)
        and schema_contains(s1, s2)
        and schema_contains(s2, s1)
    )


# ---------------------------------------------------------------------------
# Normalisation: canonical variable names plus removal of patterns that are
# positionwise subsumed by another pattern of the same schema.
# ---------------------------------------------------------------------------


def pattern_shape_key(t: Triple, delta: set[str] | frozenset[str]) -> tuple:
    """Identity of a pattern up to variable renaming (no-literal aware)."""
    return tuple(
        [("v", name in delta) if kind == VARIABLE else ("c", kind, name) for kind, name in t]
    )


def pattern_subsumed(p: Triple, q: Triple, delta: set[str] | frozenset[str]) -> bool:
    """Every instantiation of p is an instantiation of q (within one schema)."""
    for pos, (pt, qt) in enumerate(zip(p, q)):
        if qt == pt:
            continue
        if not qt.is_variable:
            return False
        q_nolit = qt.lexical in delta
        if pt.is_iri:
            continue
        if pt.is_literal:
            if pos == 2 and not q_nolit:
                continue
            return False
        # pt is a (different) variable
        if not q_nolit or pt.lexical in delta:
            continue
        return False
    return True


def merge_patterns(
    base: TriplestoreSchema, added: Iterable[Triple], no_literal: Collection[str]
) -> TriplestoreSchema:
    """The normalisation of a normalised graph part ``base`` with ``added``
    patterns, whose variables are apart from its own and whose no-literal
    ones are in ``no_literal``: ``base`` itself if every added one is redundant.

    Subsumption (instance-set inclusion) orders shape keys partially and
    ``base``'s keys are an antichain, so the union's maximal keys are the
    added ones nothing else subsumes (an equal key does) and the base's that
    none of those subsumes. Added patterns are keyed and indexed one per key,
    so none meets its own duplicate; variables are renamed in key order.
    """
    delta = base.no_literal | frozenset(no_literal)
    by_key: dict[tuple, Triple] = {}
    for t in added:
        by_key.setdefault(pattern_shape_key(t, delta), t)
    among = PatternIndex(by_key.values(), delta)
    survivors = [
        (key, p) for key, p in by_key.items()
        if not any(pattern_subsumed(p, q, delta) for q in base.index.candidates(p))
        and not any(q is not p and pattern_subsumed(p, q, delta) for q in among.candidates(p))
    ]
    if not survivors:
        return base
    above = PatternIndex([p for _, p in survivors], delta)
    kept = sorted(survivors + [
        (key, t) for t, key in base.shape_keys.items()
        if not any(pattern_subsumed(t, q, delta) for q in above.candidates(t))
    ])
    names = count(1)
    renamed = {
        Triple(*(var(f"v{next(names)}") if term[0] == VARIABLE else term for term in t)): key
        for key, t in kept
    }
    new_delta = {term[1] for t, key in renamed.items() for term, part in zip(t, key) if part == ("v", True)}
    merged = TriplestoreSchema.of(renamed, new_delta)
    vars(merged)["shape_keys"] = renamed  # what shape_keys would compute, for the next merge
    return merged


def normalize_schema(schema: TriplestoreSchema) -> TriplestoreSchema:
    """Equivalent schema with canonical names and no subsumed patterns: its
    graph part merged into the empty schema by :func:`merge_patterns`.

    Idempotent; two schemas are equal after normalisation iff their maximal
    pattern sets coincide up to renaming.
    """
    merged = merge_patterns(TriplestoreSchema.of(()), schema.graph, schema.no_literal)
    if not schema.existentials:
        return merged

    by_shape: dict[tuple, ExistentialRule] = {}
    for e in schema.sorted_existentials():
        names: dict[str, str] = {}

        def rename(term: Term) -> Term:
            if term.is_variable:
                return var(names.setdefault(term.lexical, f"e{len(names) + 1}"))
            return term

        canon = ExistentialRule(
            Triple(*(rename(x) for x in e.antecedent)),
            Triple(*(rename(x) for x in e.consequent)),
        )
        by_shape.setdefault(canon.canonical(), canon)
    return TriplestoreSchema(merged.graph, merged.no_literal, frozenset(by_shape.values()))
