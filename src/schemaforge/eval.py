"""Conjunctive-pattern evaluation over in-memory graphs.

Every pattern match in the package is one join, :func:`_join`. Its goals
are disjunctive: each pairs a tuple of alternative triple patterns with
the graph they are matched in, and a binding sends one alternative of
every goal into that goal's graph. A basic graph pattern (a conjunction of
triple patterns) gives each goal one alternative; so does a homomorphism
test, over the target pattern frozen into a graph. A union query gives
each antecedent triple its placeholder variants. It rewrites a rule
antecedent for the sandbox graph, in which every schema variable is
collapsed to one reserved placeholder IRI: each triple expands into the 8
variants that substitute any subset of its positions with the placeholder,
or 4 when the graph cannot hold the placeholder in predicate position.

The join is a left-deep nested loop with index lookups on the positions
already bound. It plans the goals once per call: most-bound first, each
scored by its first alternative, ties kept in list order; the goal at a
depth is fixed when the search first reaches it. It yields only bindings
that bind every variable of the goals' first alternatives. A basic graph
pattern always does; in a union query, a choice that substitutes away a
variable's last occurrence does not, and its partial bindings are
dropped. Graphs here are small (the sandbox has one triple per schema
pattern), except for critical instances where the cost explosion is
exactly the phenomenon under study, so a simple correct join is the right
tool. Results are duplicate-free sets of mappings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError
from .terms import Graph, Mapping, Term, Triple


class BudgetClock:
    """Cooperative wall-clock budget. check() raises once the deadline passes.

    Checks are throttled so callers may invoke it in tight loops.
    """

    def __init__(self, seconds: float | None):
        self.deadline = None if seconds is None else time.perf_counter() + seconds
        self._ticks = 0

    def check(self, every: int = 1024) -> None:
        if self.deadline is None:
            return
        self._ticks += 1
        if self._ticks % every == 0 and time.perf_counter() > self.deadline:
            raise BudgetExceededError("wall-clock budget exceeded")


Goal = tuple[Sequence[Triple], Graph]


class _Plan:
    """The goals in join order (see the module notes), most-bound meaning
    fewest unbound variable positions. A join that dies early plans no
    further; at a leaf ``bound`` holds every first alternative's variables."""

    __slots__ = ("order", "pending", "bound")

    def __init__(self, goals: Sequence[Goal]) -> None:
        self.order: list[Goal] = []
        self.pending = list(goals)
        self.bound: set[str] = set()

    def at(self, depth: int) -> Goal | None:
        """The goal at ``depth``, or None past the last one."""
        if depth == len(self.order):
            if not self.pending:
                return None
            bound = self.bound
            unbound = [
                sum(term.is_variable and term.lexical not in bound for term in alternatives[0])
                for alternatives, _ in self.pending
            ]
            goal = self.pending.pop(unbound.index(min(unbound)))
            self.order.append(goal)
            bound.update(term.lexical for term in goal[0][0] if term.is_variable)
        return self.order[depth]


def _extend(
    plan: _Plan, depth: int, binding: dict[str, Term], clock: BudgetClock | None
) -> Iterator[dict[str, Term]]:
    """The total bindings extending ``binding`` through the goals from
    ``depth`` on. A module-level generator rather than a nested function, so
    no reference cycle keeps the goals' graphs alive after the join."""
    if clock is not None:
        clock.check()
    goal = plan.at(depth)
    if goal is None:
        if binding.keys() >= plan.bound:
            yield binding
        return
    alternatives, graph = goal
    for pattern in alternatives:
        lookup = [term if term.is_constant else binding.get(term.lexical) for term in pattern]
        for t in graph.match(*lookup):
            new = dict(binding)
            for term, value in zip(pattern, t):
                if term.is_variable and term.lexical not in binding:
                    prior = new.setdefault(term.lexical, value)
                    if prior is not value and prior != value:
                        break
            else:
                yield from _extend(plan, depth + 1, new, clock)


def _join(goals: Sequence[Goal], clock: BudgetClock | None = None) -> Iterator[dict[str, Term]]:
    """Lazily, every binding sending one alternative of each goal into the
    goal's graph and binding every variable of the first alternatives."""
    return _extend(_Plan(goals), 0, {}, clock)


def evaluate_bgp(
    patterns: Iterable[Triple],
    graph: Graph,
    clock: BudgetClock | None = None,
) -> set[Mapping]:
    """All mappings m with domain vars(P) and m(P) contained in the graph.

    A ground pattern contained in the graph yields the singleton set holding
    the empty mapping; an empty pattern likewise.
    """
    goals = [((t,), graph) for t in sorted(patterns, key=Triple.sort_key)]
    return set(map(Mapping.of, _join(goals, clock)))


@dataclass(frozen=True)
class UnionEntry:
    """One antecedent triple with its placeholder-substituted alternatives."""

    source: Triple
    alternatives: tuple[Triple, ...]


@dataclass(frozen=True)
class UnionQuery:
    """Conjunction over entries, disjunction over each entry's alternatives."""

    entries: tuple[UnionEntry, ...]


def lambda_variants(
    t: Triple, lam: Term, drop_lambda_predicates: bool = False
) -> tuple[Triple, ...]:
    """The triple with every subset of its positions replaced by the
    placeholder, the triple itself first.

    ``drop_lambda_predicates`` applies the optimisation that is sound when
    the target graph has no placeholder in predicate position (schemas with
    constant predicates): variants with the placeholder as predicate can
    never match and are omitted.
    """
    alts: list[Triple] = []
    for s_term in (t.s, lam):
        for p_term in (t.p, lam):
            if drop_lambda_predicates and p_term == lam and t.p != lam:
                continue
            for o_term in (t.o, lam):
                alt = Triple(s_term, p_term, o_term)
                if alt not in alts:
                    alts.append(alt)
    return tuple(alts)


def build_lambda_rewriting(
    antecedent: Iterable[Triple],
    lam: Term,
    drop_lambda_predicates: bool = False,
) -> UnionQuery:
    """Expand each triple into its placeholder variants."""
    return UnionQuery(
        tuple(
            UnionEntry(t, lambda_variants(t, lam, drop_lambda_predicates))
            for t in sorted(antecedent, key=Triple.sort_key)
        )
    )


def evaluate_union_query(
    query: UnionQuery,
    graph: Graph,
    clock: BudgetClock | None = None,
) -> set[Mapping]:
    """Union over all alternative choices, one alternative per entry.

    Only mappings that bind every variable of the source antecedent are
    kept; a choice that substitutes away a variable's last occurrence
    produces partial mappings, which are discarded.
    """
    goals = [(entry.alternatives, graph) for entry in query.entries]
    return set(map(Mapping.of, _join(goals, clock)))
