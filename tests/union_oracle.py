"""The disjunctive join over the placeholder variants of the union query
Q^λ, kept as the oracle that the wildcard join of ``evaluate_union_query``
is tested against.

Each antecedent triple is a goal whose alternatives are its placeholder
variants, and a binding sends one alternative of every goal into the
graph. The join is a left-deep nested loop, most-bound goal first; at a
leaf it keeps only bindings over every variable of the first alternatives,
so a choice that substitutes away a variable's last occurrence is dropped.
It reaches the same total mapping through every combination of variants
that produces it, which is why it is too slow for long antecedents, but it
is a direct transcription of the union query's meaning.

It also keeps the trigger check the violation search used before it
unified: an existential rule is triggered by an inference rule when the
existential antecedent's union query has an answer over the sandbox of the
rule's consequent (every consequent variable collapsed to the placeholder).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from schemaforge import ExistentialRule, Graph, InferenceRule, Mapping, Triple
from schemaforge.eval import BudgetClock, UnionQuery, evaluate_union_query
from schemaforge.terms import Term

Goal = tuple[Sequence[Triple], Graph]


class _Plan:
    """The goals in join order, scored by their first alternative."""

    __slots__ = ("order", "pending", "bound")

    def __init__(self, goals: Sequence[Goal]) -> None:
        self.order: list[Goal] = []
        self.pending = list(goals)
        self.bound: set[str] = set()

    def at(self, depth: int) -> Goal | None:
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


def oracle_union_query(
    query: UnionQuery, graph: Graph, clock: BudgetClock | None = None
) -> set[Mapping]:
    """Union over all alternative choices, one alternative per entry, of
    the mappings binding every variable of the source antecedent."""
    goals = [(entry.alternatives, graph) for entry in query.entries]
    return set(map(Mapping.of, _extend(_Plan(goals), 0, {}, clock)))


def oracle_triggers(
    existentials: Sequence[ExistentialRule], rules: Sequence[InferenceRule], lam: Term
) -> list[list[int]]:
    """Per existential rule, the positions of the inference rules whose
    sandboxed consequent its antecedent's union query matches."""
    sandboxes = [
        Graph([Triple(*(lam if t.is_variable else t for t in c)) for c in rule.consequent], validate=False)
        for rule in rules
    ]
    return [
        [p for p, graph in enumerate(sandboxes) if evaluate_union_query([e.antecedent], lam, graph)]
        for e in existentials
    ]
