"""Datalog rule application, closure, and the existential chase.

Inference rules are plain datalog: conjunctive antecedent and consequent,
no existential variables, every consequent triple with a constant predicate
and distinct subject/object variables. A single application of a rule adds
the instantiated consequent for every antecedent match, keeping only
instantiations that are valid RDF graphs. The closure applies all rules to
a fixpoint; it terminates because rules never invent constants.

Closure and the chase each grow one graph of their own with
:meth:`Graph.insert`, which keeps the indexes the graph has built up to
date; neither rebuilds the whole graph per change. The chase hands its
graph out frozen, indexes and all, for the instance check that follows;
closure hands out a new graph of the same triples, without the indexes
its rounds built.

Closure is computed with delta-driven (semi-naive) evaluation. Round 1,
whose delta is the whole graph, joins each rule once; in each later round,
at least one antecedent triple must match a triple derived in the previous
round, and only the delta is built as a graph of its own. Each rule is
planned once per rule object (its sorted antecedent in the join's
most-bound-first order, with the constant probe of each pattern), and the
plan, kept on the rule, serves every closure call, every round and every
choice of the pattern forced into the delta. A round visits only the rules
the delta can wake: those with an antecedent predicate among the delta's
predicates, through a predicate index built once per call, and every rule
with a variable antecedent predicate; round 1 also fires the rules with an
empty antecedent. The direct-from-definition naive iteration, which visits
every rule in every round, is kept behind a flag as the testing oracle.

The chase extends a ground graph until every existential rule is satisfied,
inventing one fresh IRI per residual consequent variable. Each step acts on
the first unsatisfied (rule, mapping) pair, in the order
:func:`schema.unsatisfied` yields them, that it can act on. It finds those
pairs by one scan and keeps them in that order; a pair is dropped once it
has a witness, and a new witness triple adds the pairs of the rules on its
predicate or on a variable one, the only rules it can match. Given a schema
it also repairs: a witness that instantiates no schema pattern may have the
IRIs its graph invented (the nulls) unified with the constants of a
covering pattern, across the whole graph, after which the chase scans the
graph again. Termination is only guaranteed for weakly acyclic rule sets,
so a bound on the number of changes guards the loop and a diagnostic error
names the likely cause when it trips.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import ChaseNonterminationError, SchemaError
from .eval import BudgetClock, _extend, _most_bound_first, evaluate_bgp
from .schema import (
    ExistentialRule,
    TriplestoreSchema,
    _antecedent_match,
    _has_match,
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
        """Every variable name of the rule, sorted: the order in which
        renaming the rule apart draws fresh names."""
        return sorted(pattern_vars(self.antecedent | self.consequent))

    @cached_property
    def consequent_predicates(self) -> frozenset[Term]:
        return frozenset(t.p for t in self.consequent)

    @cached_property
    def _seminaive_plan(self) -> _Plan:
        """The antecedent in join order, each pattern with the constant
        probe that tells whether any delta triple can fit it."""
        antecedent = self.sorted_antecedent()
        return [
            (antecedent[i], tuple(term if term.is_constant else None for term in antecedent[i]))
            for i in _most_bound_first(antecedent)
        ]


def apply_rule(rule: InferenceRule, graph: Graph, clock: BudgetClock | None = None) -> Graph:
    """One rule application: the graph plus every valid instantiated consequent."""
    added: set[Triple] = set()
    for m in evaluate_bgp(rule.antecedent, graph, clock):
        instantiated = m.apply(rule.consequent)
        if is_valid_rdf_graph(instantiated):
            added |= instantiated
    return graph.union(added)


def _rule_matches(plan: _Plan, graph: Graph, clock: BudgetClock | None) -> Iterator[Mapping]:
    """Matches of the planned antecedent in the graph: one plain join."""
    return map(Mapping.of, _extend([(t, graph) for t, _ in plan], 0, {}, clock))


def _rule_matches_seminaive(
    plan: _Plan, full: Graph, delta: Graph, clock: BudgetClock | None
) -> set[Mapping]:
    """Matches of the planned antecedent using at least one delta triple.

    Realised as the union over which antecedent triple is forced into the
    delta; duplicates collapse in the result set.
    """
    found: set[Mapping] = set()
    for i, (_, probe) in enumerate(plan):
        if not delta.match(*probe):
            continue  # no delta triple fits the forced pattern
        goals = [(t, delta if j == i else full) for j, (t, _) in enumerate(plan)]
        found.update(map(Mapping.of, _extend(goals, 0, {}, clock)))
    return found


def closure(
    graph: Graph,
    rules: Sequence[InferenceRule],
    naive: bool = False,
    clock: BudgetClock | None = None,
) -> Graph:
    """Least fixpoint of applying all rules.

    One graph, built once, grows by each round's new triples; only the
    round's delta is built afresh. Round 1, whose delta is the whole
    graph, joins each rule it visits once over it; later rounds match
    semi-naively, with an antecedent triple forced into the delta. A round
    visits only the rules with an antecedent predicate in its delta or a
    variable one, since no other rule has an antecedent triple a delta
    triple can fit; round 1 also fires the rules with an empty antecedent.
    Each rule is planned once per rule object, on its first use.
    ``naive=True`` switches to the direct definition (re-evaluate every
    rule against the whole graph each round); it is the oracle the
    semi-naive path is tested against.
    """
    # Predicate -> positions of the rules with an antecedent triple on it;
    # a rule with a variable antecedent predicate is woken by every delta.
    woken_by: dict[Term, list[int]] = {}
    always: list[int] = []
    unconditional: list[int] = []
    for i, rule in enumerate(rules):
        predicates = {t.p for t in rule.antecedent}
        if not predicates:
            unconditional.append(i)
        elif any(p.is_variable for p in predicates):
            always.append(i)
        else:
            for p in predicates:
                woken_by.setdefault(p, []).append(i)

    full = Graph(graph.triples, validate=False)  # a copy this call may grow
    delta = full
    while True:
        if clock is not None:
            clock.check(every=1)
        if naive:
            visited = rules
        else:
            woken = set(always).union(*(woken_by.get(p, ()) for p in delta.predicates()))
            if delta is full:
                woken.update(unconditional)
            visited = [rules[i] for i in sorted(woken)]
        new: set[Triple] = set()
        for rule in visited:
            if naive:
                mappings = evaluate_bgp(rule.antecedent, full, clock)
            elif delta is full:
                mappings = _rule_matches(rule._seminaive_plan, full, clock)
            else:
                mappings = _rule_matches_seminaive(rule._seminaive_plan, full, delta, clock)
            for m in mappings:
                instantiated = m.apply(rule.consequent)
                if is_valid_rdf_graph(instantiated):
                    new |= instantiated
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
    for pattern in sorted(schema.graph, key=Triple.sort_key):
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

    The first antecedent match (rules and matches in sorted order) whose
    instantiated consequent has no match gets the consequent, each residual
    variable bound to a fresh IRI, and the search goes on from the first
    match again. Without a schema every valid witness is accepted; with
    one, a witness covering no pattern is repaired by substituting
    ``nulls`` (invented IRIs, to which the chase adds its own) with the
    constants of the first covering pattern in sorted order, across the
    graph. The caller's instance check gates the result, so an unlucky
    choice costs completeness, never soundness. A match that cannot be
    acted on still draws its fresh IRIs each time it is passed, so the
    names drawn are those of rescanning every rule at every step.

    The unsatisfied pairs are found by one scan and kept in order. A pair
    is dropped when it is next visited with a witness. A new witness
    triple, inserted into the one graph the chase grows, can only add
    antecedent matches of the rules on its predicate or on a variable one,
    so only those rules are probed for new pairs. A repair substitutes
    nulls across the graph, so after one the graph is rebuilt and scanned
    in full. One step is one witness added or one repair applied;
    exceeding the bound (quadratic in the input size by default) raises,
    flagging a non-weakly-acyclic rule set. The clock is checked once per
    step.
    """
    rule_list = sorted(rules, key=ExistentialRule.sort_key)
    if nulls is None:
        nulls = set()
    if max_steps is None:
        max_steps = 10 * (len(graph) + len(rule_list) + 1) ** 2
    # Predicate -> positions of the rules with an antecedent on it, and None
    # -> those with a variable one, which can match any triple; built at the
    # first witness, since many chases add none.
    woken_by: dict[Term | None, list[int]] | None = None
    current = Graph(graph.triples, validate=False)  # a copy this call may grow
    pending = list(_unsatisfied_at(rule_list, current))
    steps = 0
    while True:
        repaired = None
        i = 0
        while i < len(pending):
            position, m = pending[i]
            consequent = m.apply_triple(rule_list[position].consequent)
            if _has_match(consequent, current):
                del pending[i]  # witnessed since it was found
                continue
            i += 1
            grounding = {name: fresh.fresh_iri() for name in sorted(pattern_vars([consequent]))}
            nulls.update(grounding.values())
            witness = Mapping.of(grounding).apply_triple(consequent)
            if not (witness.s.is_iri and witness.p.is_iri):
                # No valid RDF witness can exist (literal forced into the
                # subject or predicate); the violation is left standing.
                continue
            if schema is None or instantiates_some(witness, schema):
                break
            repaired = _repair(witness, current, schema, nulls)
            if repaired is not None:
                break
        else:
            return current.freeze()
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
            pending = list(_unsatisfied_at(rule_list, current))
            continue
        del pending[i - 1]  # the witness satisfies it
        current.insert(witness)
        if woken_by is None:
            woken_by = {}
            for position, rule in enumerate(rule_list):
                p = rule.antecedent.p
                woken_by.setdefault(None if p.is_variable else p, []).append(position)
        for position in (*woken_by.get(witness.p, ()), *woken_by.get(None, ())):
            rule = rule_list[position]
            m = _antecedent_match(rule, witness)
            if m is not None and not _has_match(m.apply_triple(rule.consequent), current):
                insort(pending, (position, m))
