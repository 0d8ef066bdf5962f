"""Conjunctive-pattern evaluation over in-memory graphs.

The join, :func:`_join`, matches a conjunction of triple patterns, each in
its own graph: basic graph patterns, semi-naive closure steps (one pattern
in the delta) and the homomorphism test of the rewriting search (over the
target frozen into a graph). It is a left-deep nested loop with index
lookups on the positions already bound, the patterns planned once per
call, most-bound first; closure plans each rule once and runs the planned
goals through :func:`_extend`, the join's loop.

A union query rewrites a rule antecedent for the sandbox graph, in which
every schema variable is collapsed to one reserved placeholder IRI λ: each
triple expands into the 8 variants that substitute any subset of its
positions with λ. Its answers are the mappings over all the antecedent's
variables that send one chosen variant per triple into the graph while the
chosen variants together keep every variable. :func:`evaluate_union_query`
finds them without expanding the variants, by a join over the graph in
which λ is a wildcard: a constant matches itself or λ, a variable binds to
the non-λ terms at its positions, which must agree, and a variable seen
only against λ takes λ. The answers are the same. A variant sends its
triple onto one graph triple and keeps a variable exactly where that triple
holds the variable's value; so a choice of variants keeps every variable
exactly when each variable bound to a constant has it at one of its
positions in some matched triple and every other variable is λ, which is
what the join yields. Over ``{(λ :p :c), (:a :p λ)}``, ``?x :p ?y`` gives
``{x: :a, y: λ}`` and ``{x: λ, y: :c}`` and not ``{x: :a, y: :c}``, which
keeps each variable in some variant but both in none. Two partial matches
with the same binding have the same completions, so each binding is
extended once per depth.

Graphs here are small (the sandbox has one triple per schema pattern),
except for critical instances where the cost explosion is exactly the
phenomenon under study. Results are duplicate-free sets of mappings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
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


Goal = tuple[Triple, Graph]


def _most_bound_first(patterns: Sequence[Triple]) -> list[int]:
    """The patterns' positions in join order: next the pattern with the
    fewest variable positions not bound by those before it, ties in list
    order."""
    names = [[t.lexical for t in pattern if t.is_variable] for pattern in patterns]
    bound: set[str] = set()
    pending = list(range(len(patterns)))
    order: list[int] = []
    while len(pending) > 1:
        unbound = [sum(n not in bound for n in names[i]) for i in pending]
        order.append(pending.pop(unbound.index(min(unbound))))
        bound.update(names[order[-1]])
    return order + pending


def _extend(
    goals: Sequence[Goal], depth: int, binding: dict[str, Term], clock: BudgetClock | None
) -> Iterator[dict[str, Term]]:
    """The bindings extending ``binding`` through the goals from ``depth``
    on. A module-level generator rather than a nested function, so no
    reference cycle keeps the goals' graphs alive after the join."""
    if clock is not None:
        clock.check()
    if depth == len(goals):
        yield binding
        return
    pattern, graph = goals[depth]
    lookup = [term if term.is_constant else binding.get(term.lexical) for term in pattern]
    for t in graph.match(*lookup):
        new = dict(binding)
        for term, value in zip(pattern, t):
            if term.is_variable and term.lexical not in binding:
                prior = new.setdefault(term.lexical, value)
                if prior is not value and prior != value:
                    break
        else:
            yield from _extend(goals, depth + 1, new, clock)


def _join(goals: Sequence[Goal], clock: BudgetClock | None = None) -> Iterator[dict[str, Term]]:
    """Lazily, every binding sending each goal's pattern into the goal's graph."""
    order = _most_bound_first([pattern for pattern, _ in goals])
    return _extend([goals[i] for i in order], 0, {}, clock)


def evaluate_bgp(
    patterns: Iterable[Triple],
    graph: Graph,
    clock: BudgetClock | None = None,
) -> set[Mapping]:
    """All mappings m with domain vars(P) and m(P) contained in the graph.

    A ground pattern contained in the graph yields the singleton set holding
    the empty mapping; an empty pattern likewise.
    """
    goals = [(t, graph) for t in sorted(patterns, key=Triple.sort_key)]
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


def lambda_variants(t: Triple, lam: Term) -> tuple[Triple, ...]:
    """The triple with every subset of its positions replaced by the
    placeholder, the triple itself first."""
    variants = (Triple(s, p, o) for s in (t.s, lam) for p in (t.p, lam) for o in (t.o, lam))
    return tuple(dict.fromkeys(variants))


def build_lambda_rewriting(antecedent: Iterable[Triple], lam: Term) -> UnionQuery:
    """The union query Q^λ: each triple expanded into its placeholder
    variants. :func:`evaluate_union_query` answers it without the
    expansion."""
    return UnionQuery(
        tuple(UnionEntry(t, lambda_variants(t, lam)) for t in sorted(antecedent, key=Triple.sort_key))
    )


def evaluate_union_query(
    antecedent: Iterable[Triple],
    lam: Term,
    graph: Graph,
    clock: BudgetClock | None = None,
) -> set[Mapping]:
    """The answers of the antecedent's union query over the graph: the
    join in which the placeholder is a wildcard (see the module notes)."""
    patterns = sorted(antecedent, key=Triple.sort_key)
    goals = [patterns[i] for i in _most_bound_first(patterns)]
    names = {term.lexical for pattern in goals for term in pattern if term.is_variable}
    seen: list[set[frozenset]] = [set() for _ in range(len(goals) + 1)]
    return {
        Mapping.of({name: binding.get(name, lam) for name in names})
        for binding in _extend_wildcard(goals, lam, graph, 0, {}, seen, clock)
    }


def _extend_wildcard(
    goals: Sequence[Triple],
    lam: Term,
    graph: Graph,
    depth: int,
    binding: dict[str, Term],
    seen: list[set[frozenset]],
    clock: BudgetClock | None,
) -> Iterator[dict[str, Term]]:
    """The non-placeholder bindings extending ``binding`` through the
    goals from ``depth`` on, each new one once per depth. Every known
    position is looked up as its value and as the placeholder. A
    module-level generator, as :func:`_extend` is."""
    if clock is not None:
        clock.check()
    if depth == len(goals):
        yield binding
        return
    pattern = goals[depth]
    known = [term if term.is_constant else binding.get(term.lexical) for term in pattern]
    lookups = product(*((None,) if value is None else (value, lam) for value in known))
    for lookup in dict.fromkeys(lookups):
        for t in graph.match(*lookup):
            new = dict(binding)
            for term, value in zip(pattern, t):
                if term.is_variable and value != lam:
                    prior = new.setdefault(term.lexical, value)
                    if prior is not value and prior != value:
                        break
            else:
                key = frozenset(new.items())
                if key not in seen[depth + 1]:
                    seen[depth + 1].add(key)
                    yield from _extend_wildcard(goals, lam, graph, depth + 1, new, seen, clock)
