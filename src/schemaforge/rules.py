"""Datalog rule application, closure, and the existential chase.

Inference rules are plain datalog: conjunctive antecedent and consequent,
no existential variables, every consequent triple with a constant predicate
and distinct subject/object variables. A single application of a rule adds
the instantiated consequent for every antecedent match, keeping only
instantiations that are valid RDF graphs. The closure applies all rules to
a fixpoint; it terminates because rules never invent constants.

Each analysis compiles its rule sets once (``schema._RuleIndex``): the
rules in a fixed order, with their positions by the predicates of their
antecedent and consequent triples. Closure and the chase read them in
position order, visiting only the rules that a triple on a new predicate
can wake; a plain sequence is compiled at entry.

Closure and the chase each grow one graph of their own with
:meth:`Graph.insert`, which keeps the indexes the graph has built up to
date. The chase hands its graph out frozen, indexes and all, for the
instance check that follows; closure hands out a new graph of the same
triples, without the indexes its rounds built.

Closure is computed with delta-driven (semi-naive) evaluation. Round 1,
whose delta is the whole graph, joins each woken rule once and fires the
rules with an empty antecedent; in each later round, at least one
antecedent triple must match a triple derived in the previous round, and
only the delta is built as a graph of its own. One firing step serves rule
application, every round and the naive oracle, which fires every rule in
every round: it runs the join over the rule's plan (the sorted antecedent
in the join's most-bound-first order, with each pattern's constant probe,
kept on the rule) and instantiates the consequent from each binding.

The chase extends a ground graph until every existential rule is satisfied,
inventing one fresh IRI per residual consequent variable. Each step acts on
the first unsatisfied (rule, mapping) pair, in the order
:func:`schema.unsatisfied` yields them, that it can act on. It finds those
pairs by one scan, keeps them in that order and takes each once; a new
witness triple adds the pairs the same scan finds on it alone. Given a
schema it also repairs: a witness that instantiates no schema pattern may
have the IRIs its graph invented (the nulls) unified with the constants of
a covering pattern, across the whole graph, after which the chase scans
the graph again. Termination is only guaranteed for weakly acyclic rule
sets, so a bound on the number of changes guards the loop and a diagnostic
error names the likely cause when it trips.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import ChaseNonterminationError, SchemaError
from .eval import BudgetClock, Goal, _extend, _most_bound_first
from .schema import (
    ExistentialRule,
    TriplestoreSchema,
    _has_match,
    _RuleIndex,
    _unsatisfied_at,
    instantiates_some,
)
from .terms import (
    FreshNames,
    Graph,
    Mapping,
    Term,
    Triple,
    is_valid_pattern,
    is_valid_rdf_graph,
    pattern_vars,
)


_Plan = list[tuple[Triple, tuple]]


@dataclass(frozen=True)
class InferenceRule:
    antecedent: frozenset[Triple]
    consequent: frozenset[Triple]
    name: str = ""

    def __post_init__(self) -> None:
        for t in self.antecedent:
            if not is_valid_pattern(t):
                raise SchemaError(f"rule {self.name or '?'}: ill-formed antecedent triple {t!r}")
        for t in self.consequent:
            if not is_valid_pattern(t):
                raise SchemaError(f"rule {self.name or '?'}: ill-formed consequent triple {t!r}")
            if not t.p.is_constant:
                raise SchemaError(f"rule {self.name or '?'}: consequent predicate must be constant: {t!r}")
            if t.s.is_variable and t.s == t.o:
                raise SchemaError(
                    f"rule {self.name or '?'}: consequent triple repeats a variable in subject and object: {t!r}"
                )
        missing = pattern_vars(self.consequent) - pattern_vars(self.antecedent)
        if missing:
            raise SchemaError(
                f"rule {self.name or '?'}: consequent variables {sorted(missing)} not bound by the antecedent"
            )

    @staticmethod
    def of(antecedent: Iterable[Triple], consequent: Iterable[Triple], name: str = "") -> "InferenceRule":
        return InferenceRule(frozenset(antecedent), frozenset(consequent), name)

    def sorted_antecedent(self) -> list[Triple]:
        return sorted(self.antecedent, key=Triple.sort_key)

    def sorted_consequent(self) -> list[Triple]:
        return sorted(self.consequent, key=Triple.sort_key)

    def canonical(self) -> tuple:
        names: dict[str, str] = {}

        def key(term: Term) -> tuple:
            if term.is_variable:
                return ("v", names.setdefault(term.lexical, f"x{len(names)}"))
            return ("c", term.kind, term.lexical)

        return (
            tuple(tuple(key(x) for x in t) for t in self.sorted_antecedent()),
            tuple(tuple(key(x) for x in t) for t in self.sorted_consequent()),
        )

    @cached_property
    def variable_names(self) -> list[str]:
        """Every variable name of the rule, sorted: the names renaming the
        rule apart replaces, in the order it draws their fresh names."""
        return sorted(pattern_vars(self.antecedent | self.consequent))

    @cached_property
    def _plan(self) -> _Plan:
        """The antecedent in join order, each pattern with the constant
        probe that tells whether any delta triple can fit it."""
        antecedent = self.sorted_antecedent()
        return [
            (antecedent[i], tuple(term if term.is_constant else None for term in antecedent[i]))
            for i in _most_bound_first(antecedent)
        ]


def _fire(rule: InferenceRule, goals: Sequence[Goal], clock: BudgetClock | None) -> Iterator[Triple]:
    """The rule's consequent instantiated by each binding of the goals,
    whenever the instantiation is a valid RDF graph."""
    for binding in _extend(goals, 0, {}, clock):
        instantiated = [
            Triple(*(binding[term.lexical] if term.is_variable else term for term in t))
            for t in rule.consequent
        ]
        if is_valid_rdf_graph(instantiated):
            yield from instantiated


def apply_rule(rule: InferenceRule, graph: Graph, clock: BudgetClock | None = None) -> Graph:
    """One rule application: the graph plus every valid instantiated consequent."""
    return graph.union(_fire(rule, [(t, graph) for t, _ in rule._plan], clock))


def closure(
    graph: Graph,
    rules: Sequence[InferenceRule],
    naive: bool = False,
    clock: BudgetClock | None = None,
) -> Graph:
    """Least fixpoint of applying all rules.

    One graph, built once, grows by each round's new triples; only the
    round's delta is built afresh. A round visits, in order, only the rules
    the index files under the delta's predicates, a variable one or an
    empty antecedent, since no other rule has an antecedent triple a delta
    triple can fit. Round 1, whose delta is the whole graph, fires each
    once over it; later rounds fire once per antecedent triple forced into
    the delta that a delta triple fits. ``naive=True`` switches to the
    direct definition (fire every rule against the whole graph each
    round); it is the oracle the semi-naive rounds are tested against.
    """
    rules = _RuleIndex.of(rules)
    full = Graph(graph.triples, validate=False)  # a copy this call may grow
    delta = full
    while True:
        if clock is not None:
            clock.check(every=1)
        new: set[Triple] = set()
        for rule in rules if naive else [rules[i] for i in rules.woken_by(delta.predicates())]:
            plan = rule._plan
            if naive or delta is full:
                new.update(_fire(rule, [(t, full) for t, _ in plan], clock))
                continue
            for i, (_, probe) in enumerate(plan):
                if delta.match(*probe):  # some delta triple fits the forced pattern
                    goals = [(t, delta if j == i else full) for j, (t, _) in enumerate(plan)]
                    new.update(_fire(rule, goals, clock))
        added = [t for t in new if full.insert(t)]
        if not added:
            # Handed out without the indexes the rounds built: a caller
            # probes few of them, and a kept closure would hold them all.
            return Graph(full.triples, validate=False)
        delta = Graph(added, validate=False)


def _unify_with_pattern(
    witness: Triple, pattern: Triple, delta: frozenset[str], nulls: set[Term]
) -> dict[Term, Term] | None:
    """A null-to-constant substitution making the witness instantiate the
    pattern, or None. Positions already matching bind nothing."""
    subst: dict[Term, Term] = {}
    for pos, (value, p_term) in enumerate(zip(witness, pattern)):
        if p_term.is_variable:
            if value.is_literal and (pos < 2 or p_term.lexical in delta):
                return None
            continue
        if p_term == value:
            continue
        if value in nulls:
            if subst.get(value, p_term) != p_term:
                return None
            subst[value] = p_term
        else:
            return None
    return subst if subst else None


def _repair(
    witness: Triple, triples: Iterable[Triple], schema: TriplestoreSchema, nulls: set[Term]
) -> frozenset[Triple] | None:
    """The triples and the witness with the nulls substituted by the
    constants of the first pattern, in sorted order, that the witness can
    then instantiate; None if no pattern can be covered."""
    extended = {*triples, witness}
    for pattern in schema.sorted_patterns():
        subst = _unify_with_pattern(witness, pattern, schema.no_literal, nulls)
        if subst is None:
            continue
        rewritten = frozenset(Triple(*(subst.get(x, x) for x in t)) for t in extended)
        if not all(t.s.is_iri and t.p.is_iri for t in rewritten):
            continue  # a literal constant landed in a subject
        nulls.difference_update(subst)
        return rewritten
    return None


def chase_existentials(
    graph: Graph,
    rules: Iterable[ExistentialRule],
    fresh: FreshNames,
    max_steps: int | None = None,
    schema: TriplestoreSchema | None = None,
    nulls: set[Term] | None = None,
    clock: BudgetClock | None = None,
) -> Graph:
    """Extend the graph until every existential rule is satisfied.

    The first antecedent match (rules and matches in sorted order; a
    compiled rule set is the schema's, sorted already) whose instantiated
    consequent has no match gets the consequent, each residual variable
    bound to a fresh IRI, and the search goes on from the first match
    again. Without a schema every valid witness is accepted; with one, a
    witness covering no pattern is repaired by substituting ``nulls``
    (invented IRIs, to which the chase adds its own) with the constants of
    the first covering pattern in sorted order, across the graph. The
    caller's instance check gates the result, so an unlucky choice costs
    completeness, never soundness.

    The unsatisfied pairs are found by one scan and kept in order; each is
    taken from the front once and dropped, witnessed, acted on or not.
    Whether a pair can be acted on rests on its consequent, the schema and
    which terms are nulls (fresh IRIs are never schema constants once the
    registry has observed the schema), and a growing graph only adds
    literal subjects to a repair, so a pair that cannot be acted on stays
    so until a repair, which rebuilds the graph and rescans it. A new
    witness adds the pairs a scan of it alone finds, consequents witnessed
    in the whole graph. One step is one witness added or one repair
    applied; exceeding the bound (quadratic in the input size by default)
    raises, flagging a non-weakly-acyclic rule set. The clock is checked
    once per step.
    """
    if not isinstance(rules, _RuleIndex):
        rules = _RuleIndex(sorted(rules, key=ExistentialRule.sort_key))
    if nulls is None:
        nulls = set()
    if max_steps is None:
        max_steps = 10 * (len(graph) + len(rules) + 1) ** 2
    current = Graph(graph.triples, validate=False)  # a copy this call may grow
    pending = list(_unsatisfied_at(rules, current, current))
    steps = 0
    while pending:
        position, m = pending.pop(0)
        consequent = m.apply_triple(rules[position].consequent)
        if _has_match(consequent, current):
            continue  # witnessed since it was found
        grounding = {name: fresh.fresh_iri() for name in sorted(pattern_vars([consequent]))}
        nulls.update(grounding.values())
        witness = Mapping.of(grounding).apply_triple(consequent)
        if not (witness.s.is_iri and witness.p.is_iri):
            # No valid RDF witness can exist (literal forced into the
            # subject or predicate); the violation is left standing.
            continue
        repaired = None
        if schema is not None and not instantiates_some(witness, schema):
            repaired = _repair(witness, current, schema, nulls)
            if repaired is None:
                continue  # no pattern can be covered, nor after more witnesses
        if clock is not None:
            clock.check(every=1)
        steps += 1
        if steps > max_steps:
            raise ChaseNonterminationError(
                f"chase exceeded {max_steps} steps; the existential rules are "
                "likely not weakly acyclic"
            )
        if repaired is not None:
            current = Graph(repaired, validate=False)
            pending = list(_unsatisfied_at(rules, current, current))
            continue
        current.insert(witness)
        for pair in _unsatisfied_at(rules, Graph([witness], validate=False), current):
            insort(pending, pair)
    return current.freeze()
